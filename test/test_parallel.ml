(* Morsel-driven parallel execution.

   The central property is the determinism gate: with parallelism on, every
   query must return *byte-identical* rows in *identical order* to the
   serial closures — the whole suite leans on serial execution as the
   correctness oracle. The domain count comes from the PERM_PARALLEL
   environment variable (CI runs the suite at 1, 2 and 4), defaulting
   to 2. *)

module Engine = Perm_engine.Engine
module Metrics = Perm_obs.Metrics
module Value = Perm_value.Value
open Perm_testkit.Kit

let domains =
  match Sys.getenv_opt "PERM_PARALLEL" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

(* Make parallelism reachable for the small test relations: fan out from
   one row up, with small batches so several morsels exist. A smaller
   PERM_BATCH_ROWS is kept. *)
let go_parallel e =
  Engine.set_parallel e (Engine.Par_domains domains);
  Engine.set_parallel_threshold e 1;
  Engine.set_batch_rows e (min (Engine.batch_rows e) 16)

(* Rows in order, rendered — order differences must fail the check. *)
let ordered_rows e sql = strings_of_rows (query_ok e sql).Engine.rows

(* The determinism gate: serial vs parallel on the same engine. *)
let check_identical e sql =
  Engine.set_parallel e Engine.Par_off;
  let serial = ordered_rows e sql in
  go_parallel e;
  let parallel = ordered_rows e sql in
  Engine.set_parallel e Engine.Par_off;
  Alcotest.(check rows_testable) (sql ^ " [serial = parallel]") serial parallel

let par_queries e = Metrics.counter (Engine.metrics e) "executor.par.queries"

(* A query that is certainly eligible, for tests that need the parallel
   path to actually engage. *)
let eligible = "SELECT mid, text FROM messages WHERE mid >= 0"

let forum_queries =
  [
    eligible;
    "SELECT * FROM users";
    (* join spine: probe parallel, build serial *)
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid";
    (* aggregation over a bare scan: no spine, stays serial *)
    "SELECT uid, count(*) FROM messages GROUP BY uid";
    "SELECT count(*), min(mid), max(mid) FROM messages";
    (* serial Aggregate/Sort/Limit above a gathered spine *)
    "SELECT uid, count(*), max(mid) FROM messages WHERE mid > 1 GROUP BY uid";
    "SELECT mid, text FROM messages WHERE mid > 1 ORDER BY mid DESC LIMIT 7";
    (* fallback shapes must stay correct too *)
    Perm_workload.Forum.q1;
    Perm_workload.Forum.q3;
    (* SQL-PLE provenance: the rewritten q+ plans (wider tuples, extra
       joins) are exactly the workload the tentpole targets *)
    Perm_workload.Forum.q1_provenance;
    "SELECT PROVENANCE m.text FROM messages m WHERE m.mid > 2";
    "SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid";
  ]

let forum_scaled () =
  let e = engine () in
  Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
  e

let suite_equality =
  [
    case "forum figure-1 data: serial = parallel on every query" (fun () ->
        let e = forum_engine () in
        List.iter (check_identical e) forum_queries);
    case "scaled forum: serial = parallel, parallel path engaged" (fun () ->
        let e = forum_scaled () in
        List.iter (check_identical e) forum_queries;
        Alcotest.(check bool)
          "at least one query ran in parallel" true (par_queries e > 0);
        (* the comma join hashes, and its probe side is a gathered spine *)
        let before = par_queries e in
        check_identical e (List.nth forum_queries 2);
        Alcotest.(check bool) "the comma join ran in parallel" true
          (par_queries e > before);
        Engine.close e);
    case "star workload: serial = parallel incl. provenance variants"
      (fun () ->
        let e = engine () in
        Perm_workload.Star.load e ~scale:120 ();
        List.iter
          (fun (_, q, qp) ->
            check_identical e q;
            check_identical e qp)
          Perm_workload.Star.queries;
        Engine.close e);
    case "DML between runs: parallel sees the same store as serial" (fun () ->
        let e = forum_engine () in
        go_parallel e;
        ignore (exec_ok e "INSERT INTO messages VALUES (99, 'new', 1)");
        check_identical e eligible;
        ignore (exec_ok e "DELETE FROM messages WHERE mid = 99");
        check_identical e eligible);
  ]

let suite_lifecycle =
  [
    case "pool is lazy, reused, and torn down by close" (fun () ->
        let e = forum_engine () in
        go_parallel e;
        Alcotest.(check int) "no pool before first parallel query" 0
          (Engine.pool_size e);
        ignore (query_ok e eligible);
        Alcotest.(check int) "pool created at configured size" domains
          (Engine.pool_size e);
        ignore (query_ok e eligible);
        Alcotest.(check int) "pool reused, not regrown" domains
          (Engine.pool_size e);
        Engine.close e;
        Alcotest.(check int) "close releases the pool" 0 (Engine.pool_size e);
        (* the engine stays usable; the next parallel query recreates it *)
        ignore (query_ok e eligible);
        Alcotest.(check int) "pool recreated after close" domains
          (Engine.pool_size e);
        Engine.close e);
    case "resizing tears down the old pool" (fun () ->
        let e = forum_engine () in
        go_parallel e;
        ignore (query_ok e eligible);
        Engine.set_parallel e (Engine.Par_domains (domains + 1));
        Alcotest.(check int) "old pool gone" 0 (Engine.pool_size e);
        ignore (query_ok e eligible);
        Alcotest.(check int) "new size" (domains + 1) (Engine.pool_size e);
        Engine.close e);
    case "\\set parallel off never builds a pool" (fun () ->
        let e = forum_engine () in
        Engine.set_parallel e Engine.Par_off;
        ignore (query_ok e eligible);
        Alcotest.(check int) "no pool" 0 (Engine.pool_size e);
        Alcotest.(check int) "no parallel queries" 0 (par_queries e));
  ]

let suite_fallback =
  [
    case "tiny tables stay serial (threshold)" (fun () ->
        let e = forum_engine () in
        Engine.set_parallel e (Engine.Par_domains domains);
        (* default threshold is far above the Figure 1 row counts *)
        ignore (query_ok e eligible);
        Alcotest.(check int) "no parallel queries" 0 (par_queries e);
        Alcotest.(check bool) "small-input fallback recorded" true
          (Metrics.counter (Engine.metrics e) "executor.par.fallback.small" > 0);
        Engine.close e);
    case "correlated Apply falls back serially" (fun () ->
        let e = forum_engine () in
        go_parallel e;
        (* non-equality correlation defeats decorrelation, so an Apply
           survives into the optimized plan *)
        let sql =
          "SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM messages \
           m WHERE m.uid < u.uid)"
        in
        let before = par_queries e in
        check_identical e sql;
        go_parallel e;
        ignore (query_ok e sql);
        Alcotest.(check int) "did not parallelize" before (par_queries e);
        Alcotest.(check bool) "shape fallback recorded" true
          (Metrics.counter (Engine.metrics e) "executor.par.fallback.shape" > 0);
        Engine.close e);
    case "set operations fall back serially" (fun () ->
        let e = forum_engine () in
        go_parallel e;
        let before = par_queries e in
        ignore (query_ok e Perm_workload.Forum.q1);
        Alcotest.(check int) "did not parallelize" before (par_queries e);
        Engine.close e);
    case "instrumentation profiles the parallel path, results identical"
      (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        (* serial oracle with the profiler on... *)
        Engine.set_parallel e Engine.Par_off;
        let serial = ordered_rows e eligible in
        (* ...must match the profiled parallel run byte for byte *)
        go_parallel e;
        let parallel = ordered_rows e eligible in
        Alcotest.(check rows_testable) "serial = parallel under profiling"
          serial parallel;
        Alcotest.(check bool) "parallel path engaged while instrumented" true
          (par_queries e > 0);
        (* per-stage cardinalities land in the retained plan profile *)
        Alcotest.(check bool) "plan profile populated by the parallel run" true
          (List.exists
             (fun pn ->
               pn.Perm_obs.Profile.pn_operator = "Scan(messages)"
               && pn.Perm_obs.Profile.pn_act_rows > 0)
             (Engine.plan_profile e));
        Alcotest.(check bool) "worker profile populated" true
          (Engine.worker_profile e <> []);
        Engine.close e);
  ]

let suite_metrics =
  [
    case "executor.par.* counters, gauges and span after a parallel run"
      (fun () ->
        let e = forum_scaled () in
        go_parallel e;
        ignore (query_ok e eligible);
        let m = Engine.metrics e in
        Alcotest.(check bool) "queries counter" true
          (Metrics.counter m "executor.par.queries" > 0);
        Alcotest.(check bool) "morsel fan-out counted" true
          (Metrics.counter m "executor.par.morsels" >= 2);
        Alcotest.(check (option (float 0.)))
          "domains gauge" (Some (float_of_int domains))
          (Metrics.gauge m "executor.par.domains");
        (match Metrics.gauge m "executor.par.utilization" with
        | Some u -> Alcotest.(check bool) "utilization in (0, 1]" true (u > 0. && u <= 1.)
        | None -> Alcotest.fail "missing executor.par.utilization gauge");
        (* the execute phase carries a "parallel" child span *)
        (match Engine.last_trace e with
        | None -> Alcotest.fail "no trace recorded"
        | Some root ->
          let module Trace = Perm_obs.Trace in
          let execute =
            match Trace.find root "execute" with
            | Some sp -> sp
            | None -> Alcotest.fail "no execute phase span"
          in
          (match Trace.find execute "parallel" with
          | Some psp ->
            let attrs = Trace.attrs psp in
            Alcotest.(check bool) "domains attr" true
              (List.mem_assoc "domains" attrs);
            Alcotest.(check bool) "morsels attr" true
              (List.mem_assoc "morsels" attrs)
          | None -> Alcotest.fail "no parallel child span"));
        Engine.close e);
  ]

let suite_workers =
  [
    case "idle workers report zero morsels when domains outnumber morsels"
      (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        (* 2 forum messages in one batch, hence one morsel: with 4 domains
           at least two workers never receive work, yet every domain must
           appear *)
        Engine.set_parallel e (Engine.Par_domains 4);
        Engine.set_parallel_threshold e 1;
        Engine.set_batch_rows e 1024;
        ignore (query_ok e eligible);
        let rs =
          query_ok e
            "SELECT domain, morsels, rows FROM perm_stat_workers ORDER BY \
             domain"
        in
        Alcotest.(check int) "one row per domain" 4 (List.length rs.Engine.rows);
        let morsels =
          List.map
            (fun r ->
              match r.(1) with
              | Value.Int n -> n
              | _ -> Alcotest.fail "morsels not an int")
            rs.Engine.rows
        in
        Alcotest.(check int) "single morsel total" 1
          (List.fold_left ( + ) 0 morsels);
        Alcotest.(check bool) "idle workers present with zero morsels" true
          (List.exists (fun n -> n = 0) morsels);
        (* idle workers also report zero rows, not garbage *)
        List.iter
          (fun r ->
            match (r.(1), r.(2)) with
            | Value.Int 0, Value.Int rows ->
              Alcotest.(check int) "idle worker has no rows" 0 rows
            | _ -> ())
          rs.Engine.rows;
        Engine.close e);
    case "a single-domain pool still fills the worker view" (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        Engine.set_parallel e (Engine.Par_domains 1);
        Engine.set_parallel_threshold e 1;
        Engine.set_batch_rows e 1;
        ignore (query_ok e eligible);
        let rs =
          query_ok e "SELECT domain, morsels, rows FROM perm_stat_workers"
        in
        (match rs.Engine.rows with
        | [ [| Value.Int 0; Value.Int morsels; Value.Int rows |] ] ->
          Alcotest.(check bool) "all morsels on domain 0" true (morsels >= 1);
          Alcotest.(check int) "all rows on domain 0" 2 rows
        | _ -> Alcotest.fail "expected exactly the domain-0 row");
        (* skew is meaningless on one domain: it must stay 1.0 *)
        (match
           (query_ok e "SELECT max_skew FROM perm_stat_workers").Engine.rows
         with
        | [ [| Value.Float skew |] ] ->
          Alcotest.(check (float 1e-9)) "balanced by definition" 1. skew
        | _ -> Alcotest.fail "max_skew row missing");
        Engine.close e);
  ]

(* Shapes the gather parallelizes because the operators above the spine
   run serially over the concatenated morsel outputs: float sums and
   averages (order-sensitive), DISTINCT aggregates, and ORDER BY/LIMIT
   under a row limit. Each must match serial at batch sizes 1, 7 and the
   default, with the parallel path engaged. *)
let gather_batch_sizes = [ 1; 7; 1024 ]

let check_gathered e bn sql =
  Engine.set_batch_rows e bn;
  Engine.set_parallel e Engine.Par_off;
  let serial = ordered_rows e sql in
  Engine.set_parallel e (Engine.Par_domains domains);
  Engine.set_parallel_threshold e 1;
  let before = par_queries e in
  let parallel = ordered_rows e sql in
  Engine.set_parallel e Engine.Par_off;
  Alcotest.(check rows_testable)
    (Printf.sprintf "%s [serial = parallel, batch_rows=%d]" sql bn)
    serial parallel;
  Alcotest.(check bool)
    (Printf.sprintf "%s [gathered, batch_rows=%d]" sql bn)
    true
    (par_queries e > before)

let error_kind e sql =
  match Engine.execute_err e sql with
  | Ok _ -> "ok"
  | Error err -> Perm_err.kind_label err.Perm_err.kind

let join_build_counts () =
  match
    List.find_opt (fun (n, _, _, _) -> n = "join.build") (Perm_fault.points ())
  with
  | Some (_, _, hits, injected) -> (hits, injected)
  | None -> (0, 0)

let suite_gather =
  [
    case "float SUM/AVG and count(DISTINCT) over a join spine" (fun () ->
        let e = forum_scaled () in
        List.iter
          (fun bn ->
            List.iter (check_gathered e bn)
              [
                "SELECT u.name, sum(m.mid * 0.1), avg(m.mid / 7.0) FROM \
                 messages m, users u WHERE m.uid = u.uid GROUP BY u.name";
                "SELECT count(DISTINCT m.uid), sum(DISTINCT m.mid % 5), \
                 avg(m.mid * 0.3) FROM messages m JOIN users u ON m.uid = \
                 u.uid WHERE m.mid % 2 = 0";
              ])
          gather_batch_sizes;
        Engine.close e);
    case "ORDER BY/LIMIT under row_limit above a gathered spine" (fun () ->
        let e = forum_scaled () in
        let sql n =
          Printf.sprintf
            "SELECT m.mid, u.name FROM messages m, users u WHERE m.uid = \
             u.uid ORDER BY u.name DESC, m.mid LIMIT %d"
            n
        in
        Engine.set_row_limit e 10;
        List.iter
          (fun bn ->
            check_gathered e bn (sql 10);
            (* past the cap, both paths die the same way *)
            Engine.set_parallel e Engine.Par_off;
            let serial = error_kind e (sql 11) in
            Engine.set_parallel e (Engine.Par_domains domains);
            Alcotest.(check string)
              (Printf.sprintf "row_limit kill [batch_rows=%d]" bn)
              serial (error_kind e (sql 11));
            Alcotest.(check string) "killed, not answered"
              "resource_exhausted" serial;
            Engine.set_parallel e Engine.Par_off)
          gather_batch_sizes;
        Engine.close e);
    case "group annotation above a gathered spine at 1, 2 and 4 domains"
      (fun () ->
        (* provenance aggregates over a join spine: the fused
           GroupAnnotate runs serially over the gathered batches *)
        let queries =
          [
            "SELECT PROVENANCE u.name, count(*), sum(m.mid * 0.1) FROM \
             messages m, users u WHERE m.uid = u.uid GROUP BY u.name";
            "SELECT PROVENANCE m.uid, count(DISTINCT m.mid % 5) FROM messages \
             m JOIN users u ON m.uid = u.uid WHERE m.mid % 2 = 0 GROUP BY m.uid";
            "SELECT PROVENANCE count(*), avg(m.mid) FROM messages m JOIN users \
             u ON m.uid = u.uid WHERE m.mid < 0";
          ]
        in
        let e = forum_scaled () in
        List.iter
          (fun d ->
            List.iter
              (fun bn ->
                List.iter
                  (fun sql ->
                    Engine.set_batch_rows e bn;
                    Engine.set_parallel e Engine.Par_off;
                    let serial = ordered_rows e sql in
                    Engine.set_parallel e (Engine.Par_domains d);
                    Engine.set_parallel_threshold e 1;
                    let before = par_queries e in
                    let parallel = ordered_rows e sql in
                    Engine.set_parallel e Engine.Par_off;
                    Alcotest.(check rows_testable)
                      (Printf.sprintf "%s [%d domains, batch_rows=%d]" sql d bn)
                      serial parallel;
                    Alcotest.(check bool)
                      (Printf.sprintf "%s [gathered, %d domains]" sql d)
                      true
                      (par_queries e > before))
                  queries)
              gather_batch_sizes)
          [ 1; 2; 4 ];
        Engine.close e);
    case "join.build fires once per statement at 1, 2 and 4 domains"
      (fun () ->
        let sql =
          "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid"
        in
        List.iter
          (fun d ->
            let e = forum_scaled () in
            Engine.set_parallel e (Engine.Par_domains d);
            Engine.set_parallel_threshold e 1;
            (* 300 messages in batches of 7: dozens of morsels *)
            Engine.set_batch_rows e 7;
            Perm_fault.reset ();
            (* armed but (almost surely) silent: counts every trip *)
            Perm_fault.set "join.build" 1e-300;
            ignore (query_ok e sql);
            Alcotest.(check (pair int int))
              (Printf.sprintf "one shared build, %d domains" d)
              (1, 0) (join_build_counts ());
            Perm_fault.reset ();
            Perm_fault.set "join.build" 1.0;
            Alcotest.(check string)
              (Printf.sprintf "statement faulted, %d domains" d)
              "faulted" (error_kind e sql);
            (* once in the parallel attempt, once in its serial retry *)
            Alcotest.(check (pair int int))
              (Printf.sprintf "fired once per attempt, %d domains" d)
              (2, 2) (join_build_counts ());
            Alcotest.(check int) "one degraded retry" 1
              (Metrics.counter (Engine.metrics e) "executor.par.degraded");
            Perm_fault.reset ();
            Engine.close e)
          [ 1; 2; 4 ]);
  ]

(* The determinism gate must hold with telemetry history recording on:
   recording happens on the engine domain after the pool joins, so the
   rings never race the workers, and results stay byte-identical. *)
let suite_history =
  [
    case "serial = parallel with history recording enabled" (fun () ->
        let e = forum_scaled () in
        let h = Engine.history e in
        Perm_obs.History.set_capacity h 128;
        Perm_obs.History.set_cadence h 0.;
        List.iter (check_identical e) forum_queries;
        (* both arms of every check landed in the history rings *)
        Alcotest.(check bool) "executions recorded" true
          (List.length (Perm_obs.History.executions h)
          >= 2 * List.length forum_queries);
        Engine.close e);
  ]

let () =
  Alcotest.run "parallel"
    [
      ("equality", suite_equality);
      ("lifecycle", suite_lifecycle);
      ("fallback", suite_fallback);
      ("metrics", suite_metrics);
      ("workers", suite_workers);
      ("gather", suite_gather);
      ("history", suite_history);
    ]
