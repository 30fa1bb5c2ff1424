(* Queryable telemetry: statement fingerprints, the perm_stat_statements /
   perm_stat_relations / perm_metrics system views through the ordinary
   query pipeline, Chrome trace export (with nesting invariants), the
   JSON-lines event log, and the JSON parser behind bench --compare. *)

module Engine = Perm_engine.Engine
module Fingerprint = Perm_sql.Fingerprint
module Metrics = Perm_obs.Metrics
module Trace = Perm_obs.Trace
module Json = Perm_obs.Json
module Stats = Perm_obs.Stats
module Eventlog = Perm_obs.Eventlog
module History = Perm_obs.History
open Perm_testkit.Kit

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Fingerprint normalization                                           *)
(* ------------------------------------------------------------------ *)

let fingerprint_tests =
  [
    case "literals, params, whitespace and casing collapse" (fun () ->
        let fp = Fingerprint.of_sql in
        let canonical = fp "SELECT text FROM messages WHERE mid = 42" in
        List.iter
          (fun sql ->
            Alcotest.(check string) sql canonical (fp sql))
          [
            "SELECT text FROM messages WHERE mid = 17";
            "select TEXT from MESSAGES where MID = 3";
            "SELECT   text\n  FROM messages\tWHERE mid =\n 1000";
            "SELECT text FROM messages WHERE mid = $1";
            "SELECT text FROM messages WHERE mid = 42;";
          ];
        Alcotest.(check string) "string literals too"
          (fp "SELECT * FROM t WHERE name = 'alice'")
          (fp "SELECT * FROM t WHERE name = 'bob'");
        Alcotest.(check string) "float literals too"
          (fp "SELECT * FROM t WHERE x > 1.5")
          (fp "SELECT * FROM t WHERE x > 2.25"));
    case "distinct shapes keep distinct fingerprints" (fun () ->
        let fp = Fingerprint.of_sql in
        let a = fp "SELECT text FROM messages WHERE mid = 1" in
        Alcotest.(check bool) "different column" false
          (a = fp "SELECT mid FROM messages WHERE mid = 1");
        Alcotest.(check bool) "different table" false
          (a = fp "SELECT text FROM imports WHERE mid = 1");
        Alcotest.(check bool) "different predicate" false
          (a = fp "SELECT text FROM messages WHERE mid > 1");
        Alcotest.(check bool) "provenance is structural" false
          (a = fp "SELECT PROVENANCE text FROM messages WHERE mid = 1"));
    case "IN-lists and VALUES rows collapse to one placeholder" (fun () ->
        let fp = Fingerprint.of_sql in
        Alcotest.(check string) "IN-list length is not shape"
          (fp "SELECT * FROM t WHERE a IN (1, 2, 3, 4, 5)")
          (fp "SELECT * FROM t WHERE a IN (42)");
        Alcotest.(check string) "string IN-lists too"
          (fp "SELECT * FROM t WHERE name IN ('a', 'b', 'c')")
          (fp "SELECT * FROM t WHERE name IN ('z')");
        Alcotest.(check string) "multi-row VALUES collapse"
          (fp "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
          (fp "INSERT INTO t VALUES (9, 'z')");
        (* collapsing is purely over literal runs: column lists keep arity *)
        Alcotest.(check bool) "identifier lists keep their arity" false
          (fp "SELECT a, b, c FROM t" = fp "SELECT a FROM t"));
    case "normalization round-trips: of_sql is idempotent" (fun () ->
        let fp = Fingerprint.of_sql in
        List.iter
          (fun sql ->
            let once = fp sql in
            Alcotest.(check string) ("fixpoint of " ^ sql) once (fp once))
          [
            "SELECT text FROM messages WHERE mid = 42";
            "SELECT * FROM t WHERE a IN (1, 2, 3)";
            "INSERT INTO t VALUES (1, 'a'), (2, 'b')";
            "SELECT PROVENANCE m.text FROM messages m, users u WHERE m.uid \
             = u.uid AND u.name = 'alice'";
            "SELECT uid, count(*) FROM messages GROUP BY uid HAVING \
             count(*) > 10";
          ]);
    case "quoted identifiers keep case; unlexable input stays stable" (fun () ->
        let fp = Fingerprint.of_sql in
        Alcotest.(check bool) "quoted idents are case-sensitive names" false
          (fp "SELECT \"Col\" FROM t" = fp "SELECT \"col\" FROM t");
        (* unterminated string: lexer fails, fallback is deterministic *)
        let bad = "SELECT 'oops FROM t" in
        Alcotest.(check string) "fallback deterministic" (fp bad) (fp bad));
  ]

(* ------------------------------------------------------------------ *)
(* perm_stat_statements through the ordinary pipeline                  *)
(* ------------------------------------------------------------------ *)

let stat_statements_tests =
  [
    case "literal variants aggregate into one fingerprint row" (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 1");
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 2");
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 3");
        check_rows e
          "SELECT calls FROM perm_stat_statements WHERE fingerprint = \
           'select text from messages where mid = ?'"
          [ [ "3" ] ]);
    case "rows, phases and mean are accumulated" (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT mid FROM messages");
        ignore (query_ok e "SELECT mid FROM messages");
        let rs =
          query_ok e
            "SELECT calls, rows, total_ms, mean_ms, execute_ms FROM \
             perm_stat_statements WHERE query = 'SELECT mid FROM messages'"
        in
        (match rs.Engine.rows with
        | [ [| calls; rows; total; mean; execute |] ] ->
          Alcotest.(check string) "calls" "2" (Perm_value.Value.to_string calls);
          (* the Figure 1 forum has 2 messages *)
          Alcotest.(check string) "rows" "4" (Perm_value.Value.to_string rows);
          let f v =
            match v with
            | Perm_value.Value.Float x -> x
            | _ -> Alcotest.fail "expected float"
          in
          Alcotest.(check bool) "total > 0" true (f total > 0.);
          Alcotest.(check (float 1e-9)) "mean = total/2" (f total /. 2.) (f mean);
          (* a 2-row execute can finish inside one gettimeofday tick and
             legitimately measure 0.0 ms — recorded means non-NULL, not
             necessarily nonzero *)
          Alcotest.(check bool) "execute phase recorded" true (f execute >= 0.)
        | _ -> Alcotest.fail "expected exactly one stats row"));
    case "provenance flag and rewrite-rule firings" (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT PROVENANCE text FROM messages");
        let rs =
          query_ok e
            "SELECT provenance, rule_firings, rules FROM perm_stat_statements \
             WHERE query = 'SELECT PROVENANCE text FROM messages'"
        in
        (match rs.Engine.rows with
        | [ [| prov; firings; rules |] ] ->
          Alcotest.(check string) "provenance" "true"
            (Perm_value.Value.to_string prov);
          (match firings with
          | Perm_value.Value.Int n -> Alcotest.(check bool) "fired" true (n > 0)
          | _ -> Alcotest.fail "rule_firings not an int");
          Alcotest.(check bool) "rule names listed" true
            (String.length (Perm_value.Value.to_string rules) > 0)
        | _ -> Alcotest.fail "expected exactly one stats row"));
    case "errors count under the failing statement's fingerprint" (fun () ->
        let e = engine () in
        ignore (Engine.execute e "SELECT nope FROM missing");
        check_rows e
          "SELECT calls, errors FROM perm_stat_statements WHERE fingerprint = \
           'select nope from missing'"
          [ [ "1"; "1" ] ]);
    case "the view is filterable, orderable and joinable" (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT mid FROM messages");
        ignore (query_ok e "SELECT mid FROM messages");
        ignore (query_ok e "SELECT uid FROM users");
        (* ORDER BY works like any relation *)
        let rs =
          query_ok e
            "SELECT fingerprint FROM perm_stat_statements WHERE calls > 1 \
             ORDER BY total_ms DESC"
        in
        Alcotest.(check bool) "at least the repeated query" true
          (List.length rs.Engine.rows >= 1);
        (* and it joins against ordinary tables *)
        let rs2 =
          query_ok e
            "SELECT s.calls, h.n FROM perm_stat_statements s JOIN (SELECT \
             count(*) AS n FROM users) h ON 1 = 1 WHERE s.fingerprint = \
             'select mid from messages'"
        in
        Alcotest.(check int) "join row" 1 (List.length rs2.Engine.rows));
    case "virtual relations reject DML, DROP and name reuse" (fun () ->
        let e = engine () in
        let err sql =
          match Engine.execute e sql with
          | Ok _ -> Alcotest.failf "expected an error on %S" sql
          | Error msg -> msg
        in
        Alcotest.(check bool) "INSERT refused" true
          (contains (err "INSERT INTO perm_metrics VALUES (1)") "virtual");
        Alcotest.(check bool) "DELETE refused" true
          (contains (err "DELETE FROM perm_stat_statements") "virtual");
        Alcotest.(check bool) "DROP refused" true
          (contains (err "DROP TABLE perm_stat_relations") "virtual");
        Alcotest.(check bool) "CREATE TABLE name collision" true
          (contains (err "CREATE TABLE perm_metrics (a int)") "exists"));
    case "reset_statement_stats empties the view" (fun () ->
        let e = engine () in
        ignore (Engine.execute e "CREATE TABLE t (a int)");
        Engine.reset_statement_stats e;
        check_count e "SELECT * FROM perm_stat_statements" 0);
  ]

(* ------------------------------------------------------------------ *)
(* perm_stat_relations and perm_metrics                                *)
(* ------------------------------------------------------------------ *)

let other_views_tests =
  [
    case "perm_stat_relations counts scans under instrumentation" (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        ignore (query_ok e "SELECT mid FROM messages");
        ignore (query_ok e "SELECT mid FROM messages");
        check_rows e
          "SELECT relation, scans, rows FROM perm_stat_relations WHERE \
           relation = 'messages'"
          [ [ "messages"; "2"; "4" ] ]);
    case "perm_metrics exposes counters and gc gauges as rows" (fun () ->
        let e = engine () in
        ignore (Engine.execute e "CREATE TABLE t (a int)");
        let rs =
          query_ok e
            "SELECT value FROM perm_metrics WHERE name = 'engine.statements' \
             AND kind = 'counter'"
        in
        (match rs.Engine.rows with
        | [ [| Perm_value.Value.Float v |] ] ->
          Alcotest.(check bool) "at least one statement" true (v >= 1.)
        | _ -> Alcotest.fail "counter row missing");
        (* GC gauges are registered at scan time *)
        check_count e
          "SELECT * FROM perm_metrics WHERE name = 'gc.minor_collections'" 1;
        (* histogram rows carry quantile estimates *)
        let rs2 =
          query_ok e
            "SELECT p50, p95, p99 FROM perm_metrics WHERE name = \
             'engine.statement.ms'"
        in
        Alcotest.(check int) "histogram row" 1 (List.length rs2.Engine.rows));
  ]

(* ------------------------------------------------------------------ *)
(* perm_stat_plans / perm_stat_workers and live progress               *)
(* ------------------------------------------------------------------ *)

let profiler_views_tests =
  [
    case "perm_stat_plans retains per-node est/act across calls" (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        ignore (query_ok e "SELECT mid FROM messages");
        ignore (query_ok e "SELECT mid FROM messages");
        (* the scan node: actual rows accumulate, loops count executions *)
        check_rows e
          "SELECT operator, act_rows, loops FROM perm_stat_plans WHERE \
           operator = 'Scan(messages)'"
          [ [ "Scan(messages)"; "4"; "2" ] ];
        (* estimates come from the planner's cardinality model *)
        let rs =
          query_ok e
            "SELECT est_rows FROM perm_stat_plans WHERE operator = \
             'Scan(messages)'"
        in
        (match rs.Engine.rows with
        | [ [| Perm_value.Value.Float est |] ] ->
          Alcotest.(check bool) "estimate positive" true (est > 0.)
        | _ -> Alcotest.fail "est_rows row missing");
        (* node ids are stable pre-order positions: the root is id 0
           (filtered by fingerprint — the profile also retains the probe
           queries against the view itself) *)
        check_count e
          "SELECT * FROM perm_stat_plans WHERE node_id = 0 AND fingerprint \
           = 'select mid from messages'"
          1;
        Engine.reset_statement_stats e;
        check_count e "SELECT * FROM perm_stat_plans" 0);
    case "perm_stat_workers reports per-domain totals after a parallel run"
      (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        Engine.set_parallel e (Engine.Par_domains 2);
        Engine.set_parallel_threshold e 1;
        Engine.set_batch_rows e 1;
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        (* one row per domain (participants and idle workers alike) *)
        check_count e "SELECT * FROM perm_stat_workers" 2;
        let rs =
          query_ok e
            "SELECT morsels, rows FROM perm_stat_workers ORDER BY domain"
        in
        let total_morsels =
          List.fold_left
            (fun acc row ->
              match row.(0) with
              | Perm_value.Value.Int n -> acc + n
              | _ -> acc)
            0 rs.Engine.rows
        in
        Alcotest.(check bool) "all morsels accounted for" true
          (total_morsels > 0);
        Engine.close e);
    case "plan profile rides the parallel path under instrumentation"
      (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        Engine.set_parallel e (Engine.Par_domains 2);
        Engine.set_parallel_threshold e 1;
        Engine.set_batch_rows e 1;
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        let rs =
          query_ok e
            "SELECT operator, act_rows FROM perm_stat_plans WHERE operator \
             = 'Scan(messages)'"
        in
        (match rs.Engine.rows with
        | [ [| _; Perm_value.Value.Int act |] ] ->
          Alcotest.(check int) "scan rows from the morsel stages" 2 act
        | _ -> Alcotest.fail "parallel scan profile missing");
        Engine.close e);
    case "Engine.progress reports the finished statement" (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT mid FROM messages");
        match Engine.progress e with
        | None -> Alcotest.fail "no progress record"
        | Some p ->
          Alcotest.(check string) "sql" "SELECT mid FROM messages"
            p.Engine.pr_sql;
          Alcotest.(check bool) "not running anymore" false p.Engine.pr_running;
          Alcotest.(check int) "rows" 2 p.Engine.pr_rows;
          Alcotest.(check bool) "elapsed measured" true
            (p.Engine.pr_elapsed_ms >= 0.));
    case "parallel progress counts morsels" (fun () ->
        let e = forum_engine () in
        Engine.set_parallel e (Engine.Par_domains 2);
        Engine.set_parallel_threshold e 1;
        Engine.set_batch_rows e 1;
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        (match Engine.progress e with
        | None -> Alcotest.fail "no progress record"
        | Some p ->
          Alcotest.(check bool) "fanned out" true (p.Engine.pr_morsels_total > 0);
          Alcotest.(check int) "all morsels done" p.Engine.pr_morsels_total
            p.Engine.pr_morsels_done;
          Alcotest.(check int) "rows" 2 p.Engine.pr_rows);
        Engine.close e);
    case "governor kills report where the statement died" (fun () ->
        let e = forum_engine () in
        Engine.set_row_limit e 1;
        (match Engine.execute_err e "SELECT mid FROM messages" with
        | Ok _ -> Alcotest.fail "row limit did not fire"
        | Error err ->
          Alcotest.(check bool) "message carries the death site" true
            (contains err.Perm_err.msg "died at"));
        Engine.set_row_limit e 0);
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry history: per-fingerprint rings + the regression watchdog  *)
(* ------------------------------------------------------------------ *)

let history_tests =
  [
    case "executions accumulate with a stable plan hash; literals share it"
      (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 1");
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 2");
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 3");
        let fp = Fingerprint.of_sql "SELECT text FROM messages WHERE mid = 1" in
        let recs = History.executions_for h fp in
        Alcotest.(check int) "one ring entry per execution" 3
          (List.length recs);
        (match recs with
        | first :: rest ->
          Alcotest.(check bool) "plan hash assigned" true
            (first.History.ex_plan_hash <> "");
          (* constants are blanked out of the hash, so different literals
             are the same plan *)
          List.iter
            (fun r ->
              Alcotest.(check string) "hash stable across re-executions"
                first.History.ex_plan_hash r.History.ex_plan_hash)
            rest;
          ignore
            (List.fold_left
               (fun prev r ->
                 Alcotest.(check bool) "seq monotone" true
                   (r.History.ex_seq > prev);
                 r.History.ex_seq)
               (-1) recs)
        | [] -> Alcotest.fail "no executions retained");
        (* no watchdog noise from plain re-executions *)
        Alcotest.(check int) "no regressions" 0
          (List.length
             (List.filter
                (fun r -> r.History.rg_fingerprint = fp)
                (History.regressions h))));
    case "ring capacity bounds retention and counts drops" (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        History.set_capacity h 2;
        let sql = "SELECT mid FROM messages" in
        for _ = 1 to 5 do
          ignore (query_ok e sql)
        done;
        let fp = Fingerprint.of_sql sql in
        let recs = History.executions_for h fp in
        Alcotest.(check int) "ring keeps capacity records" 2
          (List.length recs);
        (* the newest two of the five survive *)
        Alcotest.(check bool) "newest retained" true
          (List.for_all (fun r -> not r.History.ex_error) recs);
        Alcotest.(check bool) "drops counted" true (History.dropped h >= 3));
    case "capacity 0 disables recording and discards history" (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        ignore (query_ok e "SELECT mid FROM messages");
        History.set_capacity h 0;
        Alcotest.(check bool) "disabled" false (History.enabled h);
        ignore (query_ok e "SELECT uid FROM users");
        Alcotest.(check int) "nothing retained" 0
          (List.length (History.executions h)));
    case "errors are retained but never flagged, never fold into baseline"
      (fun () ->
        let h = History.create () in
        History.set_factor h 0.;
        History.set_min_samples h 1;
        let rec_ok ms =
          History.record h ~fingerprint:"q" ~ts:0. ~plan_hash:"abc" ~ms
            ~rows:10 ~est_rows:10. ~skew:1. ~error:false ~phases:[]
        in
        ignore (rec_ok 1.);
        let flagged =
          History.record h ~fingerprint:"q" ~ts:1. ~plan_hash:"abc" ~ms:100.
            ~rows:10 ~est_rows:10. ~skew:1. ~error:true ~phases:[]
        in
        Alcotest.(check bool) "error not flagged" true (flagged = None);
        (match History.baseline h "q" with
        | Some (_, samples) ->
          Alcotest.(check int) "error did not fold into baseline" 1 samples
        | None -> Alcotest.fail "baseline lost");
        let recs = History.executions_for h "q" in
        Alcotest.(check int) "error retained in ring" 2 (List.length recs);
        Alcotest.(check bool) "error bit set" true
          (List.exists (fun r -> r.History.ex_error) recs));
    case "watchdog waits for min_samples before flagging" (fun () ->
        let h = History.create () in
        History.set_factor h 0.;
        (* factor 0: flag whenever allowed *)
        History.set_min_samples h 3;
        let go ts =
          History.record h ~fingerprint:"q" ~ts ~plan_hash:"abc" ~ms:1.
            ~rows:10 ~est_rows:10. ~skew:1. ~error:false ~phases:[]
        in
        Alcotest.(check bool) "1st: no baseline yet" true (go 0. = None);
        Alcotest.(check bool) "2nd: 1 sample < 3" true (go 1. = None);
        Alcotest.(check bool) "3rd: 2 samples < 3" true (go 2. = None);
        (match go 3. with
        | Some rg ->
          Alcotest.(check string) "cause" "unknown"
            (History.cause_label rg.History.rg_cause)
        | None -> Alcotest.fail "4th execution should be flagged"));
    case "skew regression attributed to parallel imbalance" (fun () ->
        let h = History.create () in
        History.set_factor h 0.;
        History.set_min_samples h 1;
        ignore
          (History.record h ~fingerprint:"q" ~ts:0. ~plan_hash:"abc" ~ms:1.
             ~rows:10 ~est_rows:10. ~skew:1. ~error:false ~phases:[]);
        (match
           History.record h ~fingerprint:"q" ~ts:1. ~plan_hash:"abc" ~ms:1.
             ~rows:10 ~est_rows:10. ~skew:3. ~error:false ~phases:[]
         with
        | Some rg ->
          Alcotest.(check string) "cause" "skew"
            (History.cause_label rg.History.rg_cause);
          Alcotest.(check bool) "detail names the skew" true
            (contains rg.History.rg_detail "skew")
        | None -> Alcotest.fail "skewed execution should be flagged"));
    case "LRU eviction bounds distinct fingerprints" (fun () ->
        let h = History.create () in
        History.set_max_fingerprints h 2;
        let go fp =
          ignore
            (History.record h ~fingerprint:fp ~ts:0. ~plan_hash:"" ~ms:1.
               ~rows:1 ~est_rows:1. ~skew:1. ~error:false ~phases:[])
        in
        go "a";
        go "b";
        go "c";
        let fps = History.fingerprints h in
        Alcotest.(check int) "two fingerprints retained" 2 (List.length fps);
        Alcotest.(check bool) "oldest evicted" false (List.mem "a" fps);
        Alcotest.(check bool) "eviction counted" true (History.dropped h >= 1));
    case "approx_bytes grows with retention and the budget evicts" (fun () ->
        let h = History.create () in
        let before = History.approx_bytes h in
        for i = 1 to 50 do
          ignore
            (History.record h
               ~fingerprint:(Printf.sprintf "q%d" i)
               ~ts:0. ~plan_hash:"abcdef012345" ~ms:1. ~rows:1 ~est_rows:1.
               ~skew:1. ~error:false
               ~phases:[ ("execute", 1.) ])
        done;
        let mid = History.approx_bytes h in
        Alcotest.(check bool) "footprint grows" true (mid > before);
        History.set_max_bytes h 1;
        (* an impossible budget: everything evictable is evicted *)
        ignore
          (History.record h ~fingerprint:"last" ~ts:0. ~plan_hash:"" ~ms:1.
             ~rows:1 ~est_rows:1. ~skew:1. ~error:false ~phases:[]);
        Alcotest.(check bool) "budget shrank retention" true
          (History.approx_bytes h < mid));
  ]

(* The acceptance scenario: an induced plan change is detected and
   attributed, both through the History API and the SQL views. *)
let watchdog_detection_tests =
  [
    case "CREATE INDEX flips the plan hash: plan-change regression" (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        let sql = "SELECT text FROM messages WHERE mid = 1" in
        for _ = 1 to 3 do
          ignore (query_ok e sql)
        done;
        ignore (exec_ok e "CREATE INDEX idx_mid ON messages(mid)");
        ignore (query_ok e sql);
        let fp = Fingerprint.of_sql sql in
        let regs =
          List.filter
            (fun r -> r.History.rg_fingerprint = fp)
            (History.regressions h)
        in
        Alcotest.(check int) "exactly one regression" 1 (List.length regs);
        let rg = List.hd regs in
        Alcotest.(check string) "cause" "plan-change"
          (History.cause_label rg.History.rg_cause);
        Alcotest.(check bool) "detail shows both hashes" true
          (contains rg.History.rg_detail "plan hash");
        Alcotest.(check bool) "new hash recorded" true
          (rg.History.rg_plan_hash <> "");
        (* the same report through the SQL surface *)
        check_rows e
          (Printf.sprintf
             "SELECT cause FROM perm_stat_regressions WHERE fingerprint = \
              '%s'"
             fp)
          [ [ "plan-change" ] ];
        (* the history view shows the hash flip *)
        let rs =
          query_ok e
            (Printf.sprintf
               "SELECT plan_hash FROM perm_stat_history WHERE fingerprint = \
                '%s' ORDER BY seq"
               fp)
        in
        (match List.map (fun r -> Perm_value.Value.to_string r.(0)) rs.Engine.rows with
        | h1 :: rest ->
          let last = List.nth rest (List.length rest - 1) in
          Alcotest.(check bool) "hash changed" true (h1 <> last)
        | [] -> Alcotest.fail "history view empty"));
    case "parallel verdict flip is a plan change too" (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        let sql = "SELECT mid, text FROM messages WHERE mid >= 0" in
        ignore (query_ok e sql);
        ignore (query_ok e sql);
        Engine.set_parallel e (Engine.Par_domains 2);
        Engine.set_parallel_threshold e 1;
        Engine.set_batch_rows e 1;
        ignore (query_ok e sql);
        let fp = Fingerprint.of_sql sql in
        let regs =
          List.filter
            (fun r ->
              r.History.rg_fingerprint = fp
              && r.History.rg_cause = History.Plan_change)
            (History.regressions h)
        in
        Alcotest.(check int) "serial -> parallel flagged" 1 (List.length regs);
        Engine.close e);
    case "cardinality growth is attributed when timing regresses" (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        (* factor 0 makes the timing gate unconditional once a baseline
           exists, so the test is deterministic on any machine *)
        History.set_factor h 0.;
        History.set_min_samples h 1;
        let sql = "SELECT text FROM messages" in
        ignore (query_ok e sql);
        for i = 10 to 17 do
          ignore
            (exec_ok e
               (Printf.sprintf "INSERT INTO messages VALUES (%d, 'm%d', 1)" i
                  i))
        done;
        ignore (query_ok e sql);
        let fp = Fingerprint.of_sql sql in
        let regs =
          List.filter
            (fun r -> r.History.rg_fingerprint = fp)
            (History.regressions h)
        in
        (match List.rev regs with
        | last :: _ ->
          Alcotest.(check string) "cause" "cardinality"
            (History.cause_label last.History.rg_cause);
          Alcotest.(check bool) "detail quotes the row counts" true
            (contains last.History.rg_detail "rows")
        | [] -> Alcotest.fail "grown input not flagged"));
  ]

(* ------------------------------------------------------------------ *)
(* History SQL views and export                                        *)
(* ------------------------------------------------------------------ *)

let history_views_tests =
  [
    case "perm_stat_history exposes per-execution records with phases"
      (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT mid FROM messages");
        ignore (query_ok e "SELECT mid FROM messages");
        check_columns e
          "SELECT * FROM perm_stat_history WHERE fingerprint = 'select mid \
           from messages'"
          [
            "fingerprint"; "seq"; "ts"; "plan_hash"; "total_ms"; "rows";
            "est_rows"; "skew"; "error"; "analyze_ms"; "rewrite_ms";
            "optimize_ms"; "execute_ms";
          ];
        check_rows e
          "SELECT rows, error FROM perm_stat_history WHERE fingerprint = \
           'select mid from messages'"
          [ [ "2"; "false" ]; [ "2"; "false" ] ];
        (* the view is an ordinary relation: aggregable and joinable *)
        let rs =
          query_ok e
            "SELECT fingerprint, count(*) FROM perm_stat_history GROUP BY \
             fingerprint ORDER BY fingerprint"
        in
        Alcotest.(check bool) "grouped rows" true
          (List.length rs.Engine.rows >= 1));
    case "perm_metrics_history samples tracked series on a cadence" (fun () ->
        let e = engine () in
        let h = Engine.history e in
        History.set_cadence h 0.;
        ignore (exec_ok e "CREATE TABLE t (a int)");
        ignore (exec_ok e "INSERT INTO t VALUES (1)");
        let samples = History.metric_samples h in
        Alcotest.(check bool) "engine.statements sampled" true
          (List.exists
             (fun s -> s.History.sm_name = "engine.statements")
             samples);
        Alcotest.(check bool) "gc.heap_words sampled" true
          (List.exists
             (fun s -> s.History.sm_name = "gc.heap_words")
             samples);
        let rs =
          query_ok e
            "SELECT value FROM perm_metrics_history WHERE name = \
             'engine.statements' ORDER BY seq"
        in
        Alcotest.(check bool) "view rows present" true
          (List.length rs.Engine.rows >= 2);
        (* a counter series is monotone *)
        ignore
          (List.fold_left
            (fun prev r ->
              match r.(0) with
              | Perm_value.Value.Float v ->
                Alcotest.(check bool) "monotone counter" true (v >= prev);
                v
              | _ -> Alcotest.fail "value not a float")
            0. rs.Engine.rows));
    case "telemetry export emits parseable tagged JSON lines" (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        History.set_cadence h 0.;
        ignore (query_ok e "SELECT mid FROM messages");
        ignore (query_ok e "SELECT mid FROM messages");
        let docs = History.export_jsonl h in
        Alcotest.(check bool) "records exported" true (List.length docs > 0);
        let kinds =
          List.filter_map
            (fun doc ->
              (* round-trip through the compact printer, like the CLI *)
              match Json.parse (Json.to_string doc) with
              | Ok parsed ->
                Option.bind (Json.member "kind" parsed) Json.to_string_opt
              | Error msg -> Alcotest.failf "line does not parse: %s" msg)
            docs
        in
        Alcotest.(check bool) "execution records tagged" true
          (List.mem "execution" kinds);
        Alcotest.(check bool) "metric samples tagged" true
          (List.mem "metric" kinds));
    case "reset_statement_stats clears the history views too" (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT mid FROM messages");
        Engine.reset_statement_stats e;
        check_count e "SELECT * FROM perm_stat_history" 0;
        check_count e "SELECT * FROM perm_stat_regressions" 0);
  ]

(* ------------------------------------------------------------------ *)
(* Trace export: Chrome trace events and nesting invariants            *)
(* ------------------------------------------------------------------ *)

let span_field obj key =
  match Option.bind (Json.member key obj) Json.to_float_opt with
  | Some f -> f
  | None -> Alcotest.failf "event lacks numeric %S" key

let trace_export_tests =
  [
    case "chrome export round-trips and phases nest inside statements"
      (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 1");
        let roots = Engine.trace_log e in
        Alcotest.(check bool) "forum load + query traced" true
          (List.length roots > 1);
        let text = Json.to_string (Trace.to_chrome_json roots) in
        let doc =
          match Json.parse text with
          | Ok doc -> doc
          | Error msg -> Alcotest.failf "export does not parse: %s" msg
        in
        let all_events =
          match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
          | Some evs -> evs
          | None -> Alcotest.fail "no traceEvents array"
        in
        (* lane-name metadata events ("M") carry no interval; the timing
           invariants below apply to complete ("X") events only *)
        let events =
          List.filter
            (fun ev ->
              Option.bind (Json.member "ph" ev) Json.to_string_opt = Some "X")
            all_events
        in
        Alcotest.(check bool) "one complete event per span at least" true
          (List.length events >= List.length roots);
        Alcotest.(check bool) "lane metadata present" true
          (List.exists
             (fun ev ->
               Option.bind (Json.member "ph" ev) Json.to_string_opt = Some "M")
             all_events);
        let statements, phases =
          List.partition
            (fun ev ->
              Option.bind (Json.member "name" ev) Json.to_string_opt
              = Some "statement")
            events
        in
        Alcotest.(check bool) "phase events exist" true (phases <> []);
        (* nesting invariant: every phase interval lies inside some
           statement interval *)
        List.iter
          (fun ph ->
            let ts = span_field ph "ts" and dur = span_field ph "dur" in
            let nested =
              List.exists
                (fun st ->
                  let sts = span_field st "ts" and sdur = span_field st "dur" in
                  (* tolerance: timestamps quantize to microseconds *)
                  ts >= sts -. 1. && ts +. dur <= sts +. sdur +. 1.)
                statements
            in
            Alcotest.(check bool) "phase inside a statement" true nested)
          phases;
        (* ts are relative to the earliest event, so the minimum is ~0 *)
        let min_ts =
          List.fold_left (fun acc ev -> Float.min acc (span_field ev "ts"))
            Float.infinity events
        in
        Alcotest.(check (float 1e-6)) "relative timestamps" 0. min_ts);
    case "parallel runs export one named lane per worker domain" (fun () ->
        let e = forum_engine () in
        Engine.set_parallel e (Engine.Par_domains 2);
        Engine.set_parallel_threshold e 1;
        Engine.set_batch_rows e 1;
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        Engine.close e;
        let text = Json.to_string (Trace.to_chrome_json (Engine.trace_log e)) in
        let doc =
          match Json.parse text with
          | Ok doc -> doc
          | Error msg -> Alcotest.failf "export does not parse: %s" msg
        in
        let events =
          match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
          | Some evs -> evs
          | None -> Alcotest.fail "no traceEvents array"
        in
        let lane_names =
          List.filter_map
            (fun ev ->
              if Option.bind (Json.member "ph" ev) Json.to_string_opt = Some "M"
              then
                Option.bind (Json.member "args" ev) (fun args ->
                    Option.bind (Json.member "name" args) Json.to_string_opt)
              else None)
            events
        in
        List.iter
          (fun lane ->
            Alcotest.(check bool) (lane ^ " lane present") true
              (List.mem lane lane_names))
          [ "engine"; "worker 0"; "worker 1" ];
        (* morsel slices actually land on worker lanes (tid >= 2) *)
        let worker_slices =
          List.exists
            (fun ev ->
              Option.bind (Json.member "ph" ev) Json.to_string_opt = Some "X"
              && (match Option.bind (Json.member "tid" ev) Json.to_float_opt with
                 | Some tid -> tid >= 2.
                 | None -> false))
            events
        in
        Alcotest.(check bool) "slices on worker lanes" true worker_slices);
    case "span tree nesting invariants: children within parents, in order"
      (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT PROVENANCE text FROM messages");
        let root =
          match Engine.last_trace e with
          | Some r -> r
          | None -> Alcotest.fail "no trace"
        in
        let kids = Trace.children root in
        Alcotest.(check (list string)) "pipeline phases in start order"
          [ "analyze"; "rewrite"; "optimize"; "execute" ]
          (List.map Trace.name kids);
        (* each child starts after its predecessor and inside the root *)
        let root_start = Trace.start_s root in
        let root_end = root_start +. (Trace.duration_ms root /. 1000.) in
        ignore
          (List.fold_left
             (fun prev sp ->
               let s = Trace.start_s sp in
               Alcotest.(check bool) "starts after predecessor" true (s >= prev);
               Alcotest.(check bool) "starts inside root" true
                 (s >= root_start && s <= root_end);
               Alcotest.(check bool) "ends inside root" true
                 (s +. (Trace.duration_ms sp /. 1000.) <= root_end +. 1e-6);
               s)
             root_start kids));
  ]

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

let eventlog_tests =
  [
    case "slow-query log writes parseable JSON lines past the threshold"
      (fun () ->
        let e = forum_engine () in
        let path = Filename.temp_file "perm_events" ".jsonl" in
        Eventlog.open_file (Engine.event_log e) path;
        Eventlog.set_min_ms (Engine.event_log e) 0.;
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 1");
        (* a threshold far above any statement: nothing more is logged *)
        Eventlog.set_min_ms (Engine.event_log e) 1e9;
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 2");
        Eventlog.close (Engine.event_log e);
        let lines =
          In_channel.with_open_text path In_channel.input_lines
          |> List.filter (fun l -> String.trim l <> "")
        in
        Sys.remove path;
        Alcotest.(check int) "exactly one event" 1 (List.length lines);
        let doc =
          match Json.parse (List.hd lines) with
          | Ok doc -> doc
          | Error msg -> Alcotest.failf "line does not parse: %s" msg
        in
        Alcotest.(check (option string)) "sql field"
          (Some "SELECT text FROM messages WHERE mid = 1")
          (Option.bind (Json.member "sql" doc) Json.to_string_opt);
        Alcotest.(check bool) "phases object present" true
          (Json.member "phases" doc <> None));
    case "in-memory ring records without a sink, bounded with drops"
      (fun () ->
        let l = Eventlog.create () in
        Eventlog.set_capacity l 3;
        for i = 1 to 5 do
          Eventlog.log l (Json.Obj [ ("n", Json.Int i) ])
        done;
        let nth_n evs k =
          Option.bind (Json.member "n" (List.nth evs k)) Json.to_float_opt
          |> Option.map int_of_float
        in
        let evs = Eventlog.recent l in
        Alcotest.(check int) "ring holds capacity events" 3 (List.length evs);
        Alcotest.(check (option int)) "oldest first" (Some 3) (nth_n evs 0);
        Alcotest.(check (option int)) "newest last" (Some 5) (nth_n evs 2);
        Alcotest.(check int) "two dropped" 2 (Eventlog.dropped l);
        (* shrinking keeps the newest and counts the shed events *)
        Eventlog.set_capacity l 2;
        let evs = Eventlog.recent l in
        Alcotest.(check int) "shrunk" 2 (List.length evs);
        Alcotest.(check (option int)) "newest survive" (Some 4) (nth_n evs 0);
        Alcotest.(check int) "shed counted" 3 (Eventlog.dropped l));
    case "the engine feeds the ring even with no sink open" (fun () ->
        let e = forum_engine () in
        let before = List.length (Eventlog.recent (Engine.event_log e)) in
        ignore (query_ok e "SELECT mid FROM messages");
        let evs = Eventlog.recent (Engine.event_log e) in
        Alcotest.(check bool) "statement event recorded" true
          (List.length evs > before);
        let last = List.nth evs (List.length evs - 1) in
        Alcotest.(check (option string)) "sql field"
          (Some "SELECT mid FROM messages")
          (Option.bind (Json.member "sql" last) Json.to_string_opt));
  ]

(* ------------------------------------------------------------------ *)
(* JSON parser (bench --compare reads baselines through this)          *)
(* ------------------------------------------------------------------ *)

let json_parse_tests =
  [
    case "parse round-trips every constructor" (fun () ->
        let doc =
          Json.Obj
            [
              ("null", Json.Null);
              ("bool", Json.Bool true);
              ("int", Json.Int (-42));
              ("float", Json.Float 1.5);
              ("string", Json.String "a \"quoted\"\nline");
              ("list", Json.List [ Json.Int 1; Json.Obj []; Json.List [] ]);
            ]
        in
        match Json.parse (Json.to_string doc) with
        | Ok parsed ->
          Alcotest.(check string) "round trip" (Json.to_string doc)
            (Json.to_string parsed)
        | Error msg -> Alcotest.failf "no parse: %s" msg);
    case "pretty output parses too (BENCH_phases.json shape)" (fun () ->
        let doc =
          Json.Obj
            [
              ("suite", Json.String "perm-bench-smoke");
              ( "queries",
                Json.List
                  [
                    Json.Obj
                      [
                        ("name", Json.String "SPJ");
                        ("total_ms", Json.Float 1.25);
                        ( "phases",
                          Json.Obj [ ("execute", Json.Float 1.1) ] );
                      ];
                  ] );
            ]
        in
        match Json.parse (Json.to_pretty_string doc) with
        | Ok parsed ->
          let total =
            Option.bind (Json.member "queries" parsed) Json.to_list_opt
            |> Option.map List.hd
            |> Fun.flip Option.bind (Json.member "total_ms")
            |> Fun.flip Option.bind Json.to_float_opt
          in
          Alcotest.(check (option (float 1e-9))) "member chain" (Some 1.25) total
        | Error msg -> Alcotest.failf "no parse: %s" msg);
    case "malformed documents are rejected" (fun () ->
        List.iter
          (fun text ->
            match Json.parse text with
            | Ok _ -> Alcotest.failf "accepted %S" text
            | Error _ -> ())
          [ "{"; "[1,"; "\"unterminated"; "{} trailing"; "{1: 2}"; "nulll" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Quantiles in dumps                                                  *)
(* ------------------------------------------------------------------ *)

let quantile_dump_tests =
  [
    case "text and JSON histogram dumps carry p50/p95/p99" (fun () ->
        let m = Metrics.create () in
        for i = 1 to 100 do
          Metrics.observe ~bounds:[| 10.; 50.; 90. |] m "lat" (float_of_int i)
        done;
        let text = Metrics.dump_text m in
        Alcotest.(check bool) "p99 in text" true (contains text "p99<=");
        let json = Metrics.to_json m in
        let hist = Option.get (Json.member "lat" json) in
        let q name =
          Option.bind (Json.member name hist) Json.to_float_opt |> Option.get
        in
        Alcotest.(check (float 1e-9)) "p50 bucket bound" 50. (q "p50");
        Alcotest.(check (float 1e-9)) "p95 clamped to max" 100. (q "p95");
        Alcotest.(check bool) "p99 >= p95 - monotone" true (q "p99" >= q "p95"));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("fingerprint", fingerprint_tests);
      ("stat_statements", stat_statements_tests);
      ("system_views", other_views_tests);
      ("profiler_views", profiler_views_tests);
      ("history", history_tests);
      ("watchdog", watchdog_detection_tests);
      ("history_views", history_views_tests);
      ("trace_export", trace_export_tests);
      ("eventlog", eventlog_tests);
      ("json_parse", json_parse_tests);
      ("quantiles", quantile_dump_tests);
    ]
