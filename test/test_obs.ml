(* Observability tests: the metrics registry (bucketing, quantiles,
   deterministic dumps), the span tracer (nesting, frozen durations), and
   EXPLAIN ANALYZE / per-operator instrumentation through the engine. *)

module Metrics = Perm_obs.Metrics
module Trace = Perm_obs.Trace
module Json = Perm_obs.Json
module Engine = Perm_engine.Engine
open Perm_testkit.Kit

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_tests =
  [
    case "counters accumulate; unknown counters read 0" (fun () ->
        let m = Metrics.create () in
        Metrics.incr m "a";
        Metrics.incr m ~by:41 "a";
        Alcotest.(check int) "a" 42 (Metrics.counter m "a");
        Alcotest.(check int) "never touched" 0 (Metrics.counter m "nope"));
    case "a kind mismatch raises and releases the lock" (fun () ->
        let m = Metrics.create () in
        Metrics.set_gauge m "g" 1.;
        Alcotest.check_raises "incr on a gauge"
          (Invalid_argument "metric \"g\" is a gauge, not a counter") (fun () ->
            Metrics.incr m "g");
        Alcotest.check_raises "observe on a gauge"
          (Invalid_argument "metric \"g\" is a gauge, not a histogram")
          (fun () -> Metrics.observe m "g" 1.);
        (* the next registry call must not block: run it on another domain
           and give it a second *)
        let done_ = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              Metrics.incr m "after";
              Atomic.set done_ true)
        in
        let deadline = Unix.gettimeofday () +. 1. in
        while (not (Atomic.get done_)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.001
        done;
        if not (Atomic.get done_) then
          Alcotest.fail "registry still locked after a kind mismatch";
        Domain.join d;
        Alcotest.(check int) "after" 1 (Metrics.counter m "after");
        Alcotest.(check (option (float 0.))) "gauge kept" (Some 1.)
          (Metrics.gauge m "g"));
    case "gauges keep the last value" (fun () ->
        let m = Metrics.create () in
        Metrics.set_gauge m "g" 1.5;
        Metrics.set_gauge m "g" 2.5;
        Alcotest.(check (option (float 0.))) "" (Some 2.5) (Metrics.gauge m "g"));
    case "histogram bucketing, min/max/sum and quantiles" (fun () ->
        let m = Metrics.create () in
        let bounds = [| 1.0; 10.0; 100.0 |] in
        List.iter (Metrics.observe ~bounds m "h") [ 0.5; 5.0; 50.0; 500.0 ];
        match Metrics.histogram m "h" with
        | None -> Alcotest.fail "histogram missing"
        | Some h ->
          Alcotest.(check (array int)) "one observation per bucket + overflow"
            [| 1; 1; 1; 1 |] h.Metrics.buckets;
          Alcotest.(check int) "count" 4 h.Metrics.h_count;
          Alcotest.(check (float 1e-9)) "sum" 555.5 h.Metrics.h_sum;
          Alcotest.(check (float 1e-9)) "min" 0.5 h.Metrics.h_min;
          Alcotest.(check (float 1e-9)) "max" 500.0 h.Metrics.h_max;
          (* quantiles report the covering bucket's upper bound ... *)
          Alcotest.(check (float 1e-9)) "p50" 10.0 (Metrics.quantile h 0.50);
          (* ... clamped to the observed maximum in the overflow bucket *)
          Alcotest.(check (float 1e-9)) "p95" 500.0 (Metrics.quantile h 0.95));
    case "quantile edge cases: empty, single, q=0/1, overflow clamp" (fun () ->
        let m = Metrics.create () in
        let bounds = [| 1.0; 10.0 |] in
        (* a declared-but-never-observed histogram: every quantile is nan *)
        Metrics.declare_histogram ~bounds m "h0";
        (match Metrics.histogram m "h0" with
        | None -> Alcotest.fail "declared histogram missing"
        | Some h ->
          Alcotest.(check bool) "empty -> nan" true
            (Float.is_nan (Metrics.quantile h 0.5));
          Alcotest.(check bool) "empty q=0 -> nan" true
            (Float.is_nan (Metrics.quantile h 0.0)));
        (* single observation: every quantile collapses to that value
           (bucket bound 10.0 clamped to the observed max 5.0) *)
        Metrics.observe ~bounds m "h1" 5.0;
        (match Metrics.histogram m "h1" with
        | None -> Alcotest.fail "histogram missing"
        | Some h ->
          Alcotest.(check (float 1e-9)) "single q=0" 5.0 (Metrics.quantile h 0.0);
          Alcotest.(check (float 1e-9)) "single p50" 5.0 (Metrics.quantile h 0.5);
          Alcotest.(check (float 1e-9)) "single q=1" 5.0
            (Metrics.quantile h 1.0));
        (* all observations above the last bound land in the overflow
           bucket, whose bound is +inf: clamped to the observed max *)
        Metrics.observe ~bounds m "h2" 50.0;
        Metrics.observe ~bounds m "h2" 70.0;
        (match Metrics.histogram m "h2" with
        | None -> Alcotest.fail "histogram missing"
        | Some h ->
          Alcotest.(check (float 1e-9)) "overflow p50 clamps to max" 70.0
            (Metrics.quantile h 0.5);
          Alcotest.(check (float 1e-9)) "overflow q=1 clamps to max" 70.0
            (Metrics.quantile h 1.0)));
    case "kind mismatch raises Invalid_argument" (fun () ->
        let m = Metrics.create () in
        Metrics.incr m "x";
        Alcotest.check_raises "observe on a counter"
          (Invalid_argument "metric \"x\" is a counter, not a histogram")
          (fun () -> Metrics.observe m "x" 1.0));
    case "dump_text is sorted and insertion-order independent" (fun () ->
        let m1 = Metrics.create () and m2 = Metrics.create () in
        Metrics.incr m1 "z.count";
        Metrics.set_gauge m1 "a.gauge" 3.0;
        Metrics.observe ~bounds:[| 1.0 |] m1 "m.lat" 0.5;
        (* same metrics, reverse creation order *)
        Metrics.observe ~bounds:[| 1.0 |] m2 "m.lat" 0.5;
        Metrics.set_gauge m2 "a.gauge" 3.0;
        Metrics.incr m2 "z.count";
        Alcotest.(check string) "identical dumps"
          (Metrics.dump_text m1) (Metrics.dump_text m2);
        Alcotest.(check (list string)) "names sorted"
          [ "a.gauge"; "m.lat"; "z.count" ] (Metrics.names m1);
        Alcotest.(check string) "identical JSON"
          (Json.to_string (Metrics.to_json m1))
          (Json.to_string (Metrics.to_json m2)));
    case "reset empties the registry" (fun () ->
        let m = Metrics.create () in
        Metrics.incr m "a";
        let g0 = Metrics.generation m in
        Metrics.reset m;
        Alcotest.(check (list string)) "" [] (Metrics.names m);
        Alcotest.(check bool) "generation moved" true (Metrics.generation m <> g0));
  ]

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    case "compact rendering and string escaping" (fun () ->
        let doc =
          Json.Obj
            [
              ("s", Json.String "a\"b\n");
              ("n", Json.Int 3);
              ("f", Json.Float 1.5);
              ("l", Json.List [ Json.Bool true; Json.Null ]);
            ]
        in
        Alcotest.(check string) ""
          "{\"s\": \"a\\\"b\\n\", \"n\": 3, \"f\": 1.5, \"l\": [true, null]}"
          (Json.to_string doc));
    case "UTF-16 surrogate pairs decode to 4-byte UTF-8 and round-trip"
      (fun () ->
        (* U+1F600 GRINNING FACE as an escaped surrogate pair *)
        match Json.parse {|{"s": "\ud83d\ude00"}|} with
        | Error msg -> Alcotest.failf "parse failed: %s" msg
        | Ok doc ->
          let s =
            match Option.bind (Json.member "s" doc) Json.to_string_opt with
            | Some s -> s
            | None -> Alcotest.fail "no string member"
          in
          Alcotest.(check string) "UTF-8 bytes of U+1F600"
            "\xf0\x9f\x98\x80" s;
          (* the decoded bytes survive a render -> parse round trip *)
          let again =
            match Json.parse (Json.to_string doc) with
            | Ok d -> Option.bind (Json.member "s" d) Json.to_string_opt
            | Error msg -> Alcotest.failf "re-parse failed: %s" msg
          in
          Alcotest.(check (option string)) "round trip" (Some s) again);
    case "lone surrogates do not crash the parser" (fun () ->
        (* a high surrogate with no low half: decoded as a replacement,
           never an exception *)
        match Json.parse {|{"s": "\ud83d!"}|} with
        | Ok _ -> ()
        | Error _ -> () (* rejecting is acceptable too — just no crash *));
    case "floats round-trip exactly; infinities render null" (fun () ->
        let ts = 1792301234.567891 in
        let doc = Json.Obj [ ("ts", Json.Float ts); ("third", Json.Float (1. /. 3.)) ] in
        Alcotest.(check string) "shortest exact digits"
          "{\"ts\": 1792301234.567891, \"third\": 0.3333333333333333}"
          (Json.to_string doc);
        (match Json.parse (Json.to_string doc) with
        | Ok back ->
          Alcotest.(check (option (float 0.))) "timestamp read back" (Some ts)
            (Option.bind (Json.member "ts" back) Json.to_float_opt);
          Alcotest.(check (option (float 0.))) "1/3 read back" (Some (1. /. 3.))
            (Option.bind (Json.member "third" back) Json.to_float_opt)
        | Error msg -> Alcotest.failf "re-parse failed: %s" msg);
        Alcotest.(check string) "non-finite floats are null"
          "[null, null, null, 1e+300, 1.0]"
          (Json.to_string
             (Json.List
                [
                  Json.Float infinity; Json.Float neg_infinity; Json.Float nan;
                  Json.Float 1e300; Json.Float 1.;
                ])));
    case "pretty rendering is valid-shaped and newline-terminated" (fun () ->
        let s = Json.to_pretty_string (Json.Obj [ ("k", Json.Int 1) ]) in
        Alcotest.(check bool) "ends with newline" true
          (String.length s > 0 && s.[String.length s - 1] = '\n');
        Alcotest.(check bool) "indented" true (contains s "  \"k\": 1"));
  ]

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let trace_tests =
  [
    case "children nest in start order; root covers them" (fun () ->
        let root = Trace.start "root" in
        let x = Trace.timed root "a" (fun () -> 41 + 1) in
        Alcotest.(check int) "timed returns the result" 42 x;
        let b = Trace.child root "b" in
        Trace.finish b;
        Trace.finish root;
        Alcotest.(check (list string)) "start order" [ "a"; "b" ]
          (List.map Trace.name (Trace.children root));
        List.iter
          (fun sp ->
            Alcotest.(check bool) (Trace.name sp ^ " within root") true
              (Trace.duration_ms root >= Trace.duration_ms sp))
          (Trace.children root));
    case "finish freezes the duration (idempotent)" (fun () ->
        let sp = Trace.start "s" in
        Trace.finish sp;
        let d1 = Trace.duration_ms sp in
        (* burn a little time; a frozen span must not keep counting *)
        ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> i * i)));
        Trace.finish sp;
        Alcotest.(check (float 0.)) "" d1 (Trace.duration_ms sp));
    case "timed closes the child when f raises" (fun () ->
        let root = Trace.start "root" in
        (try Trace.timed root "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        match Trace.find root "boom" with
        | None -> Alcotest.fail "child not attached"
        | Some sp ->
          let d1 = Trace.duration_ms sp in
          ignore (Sys.opaque_identity (Array.init 100_000 (fun i -> i * i)));
          Alcotest.(check (float 0.)) "closed" d1 (Trace.duration_ms sp));
    case "annotate and to_string / to_json surface the tree" (fun () ->
        let root = Trace.start "statement" in
        Trace.annotate root "sql" "SELECT 1";
        Trace.timed root "execute" (fun () -> ());
        Trace.finish root;
        Alcotest.(check (list (pair string string))) "attrs"
          [ ("sql", "SELECT 1") ] (Trace.attrs root);
        let txt = Trace.to_string root in
        Alcotest.(check bool) "tree text has both spans" true
          (contains txt "statement" && contains txt "  execute");
        let json = Json.to_string (Trace.to_json root) in
        Alcotest.(check bool) "json carries the attribute" true
          (contains json "\"sql\": \"SELECT 1\""));
  ]

(* ------------------------------------------------------------------ *)
(* EXPLAIN ANALYZE and engine instrumentation                          *)
(* ------------------------------------------------------------------ *)

let three_table_engine () =
  let e = engine () in
  exec_all e
    [
      "CREATE TABLE t1 (a int)";
      "INSERT INTO t1 VALUES (1), (2), (3)";
      "CREATE TABLE t2 (a int)";
      "INSERT INTO t2 VALUES (2), (3), (4)";
      "CREATE TABLE t3 (a int)";
      "INSERT INTO t3 VALUES (3), (4), (5)";
    ];
  e

let join3 =
  "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a JOIN t3 ON t2.a = t3.a"

(* 10,000 rows in ten 1,024-row chunks, and a query that streams them all
   through a scan and a filter. *)
let big_engine () =
  let e = engine () in
  exec_all e [ "CREATE TABLE big (a int, b text)" ];
  for k = 0 to 19 do
    exec_all e
      [
        "INSERT INTO big VALUES "
        ^ String.concat ", "
            (List.init 500 (fun j ->
                 Printf.sprintf "(%d, 'row %d')" ((k * 500) + j) j));
      ]
  done;
  e

let big_count = "SELECT count(*) FROM big WHERE a >= 0"

(* The execute phase of one run of [sql], in milliseconds. *)
let execute_ms e sql =
  ignore (query_ok e sql);
  match Engine.last_trace e with
  | Some root ->
    List.fold_left
      (fun acc sp ->
        if Trace.name sp = "execute" then Trace.duration_ms sp else acc)
      Float.infinity (Trace.children root)
  | None -> Alcotest.fail "no trace"

let engine_tests =
  [
    case "EXPLAIN ANALYZE reports actual rows on a 3-table join" (fun () ->
        let e = three_table_engine () in
        match Engine.explain_analyze e join3 with
        | Error msg -> Alcotest.fail msg
        | Ok ea ->
          (* only a=3 survives both joins *)
          Alcotest.(check int) "result rows" 1 ea.Engine.ea_rows;
          Alcotest.(check bool) "root annotated with est and actual rows" true
            (contains ea.Engine.ea_tree "(est="
            && contains ea.Engine.ea_tree "act=1");
          List.iter
            (fun scan ->
              Alcotest.(check bool) (scan ^ " annotated with est/act/self") true
                (contains ea.Engine.ea_tree
                   (scan ^ "  (est=3 act=3 loops=1 self=")))
            [ "Scan(t1)"; "Scan(t2)"; "Scan(t3)" ];
          Alcotest.(check (list string)) "phases in pipeline order"
            [ "analyze"; "rewrite"; "optimize"; "execute" ]
            (List.map fst ea.Engine.ea_phases);
          Alcotest.(check bool) "total covers the execute phase" true
            (ea.Engine.ea_total_ms >= List.assoc "execute" ea.Engine.ea_phases));
    case "EXPLAIN ANALYZE charges no node for measuring batch bytes" (fun () ->
        (* every node measures the batches it emits inside its parent's
           pull; left in the parent's timer, the byte counts of a
           10-chunk scan came to 5-6x the uninstrumented query *)
        let e = big_engine () in
        let plain_ms =
          List.fold_left Float.min Float.infinity
            (List.init 7 (fun _ -> execute_ms e big_count))
        in
        let root_ms () =
          match Engine.explain_analyze e big_count with
          | Error msg -> Alcotest.fail msg
          | Ok ea ->
            let tree = ea.Engine.ea_tree in
            let rec find i = if String.sub tree i 5 = "time=" then i + 5 else find (i + 1) in
            let start = find 0 in
            float_of_string (String.sub tree start (String.index_from tree start ' ' - start))
        in
        let analyzed_ms = List.fold_left Float.min Float.infinity (List.init 3 (fun _ -> root_ms ())) in
        Alcotest.(check bool)
          (Printf.sprintf "root %.3f ms within 3x of %.3f ms uninstrumented" analyzed_ms plain_ms)
          true
          (analyzed_ms <= 3. *. plain_ms);
        Engine.close e);
    case "EXPLAIN ANALYZE counts the nodes a group sort and a swap fold"
      (fun () ->
        (* the annotation runs the HAVING and the ORDER BY over its groups,
           and the join builds its smaller input; every node still
           reports its own execution *)
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:1000 ~users:50 ();
        match
          Engine.explain_analyze e
            "SELECT PROVENANCE m.uid, count(*) AS c FROM messages m JOIN \
             approved a ON m.mid = a.mid WHERE m.mid % 7 = 0 GROUP BY m.uid \
             HAVING count(*) > 1 ORDER BY c DESC"
        with
        | Error msg -> Alcotest.fail msg
        | Ok ea ->
          let tree = ea.Engine.ea_tree in
          Alcotest.(check bool) "no node left unexecuted" false
            (contains tree "never executed");
          List.iter
            (fun node ->
              Alcotest.(check bool) (node ^ " executed once") true
                (List.exists
                   (fun l -> contains l node && contains l "loops=1")
                   (String.split_on_char '\n' tree)))
            [ "Sort ["; "Select [(count"; "GroupAnnotate ["; "Join [" ];
          (* the filtered messages are built: the join's first input is
             the approvals scan *)
          let lines = String.split_on_char '\n' tree in
          let rec after_join = function
            | l :: next :: _ when contains l "Join [" -> next
            | _ :: rest -> after_join rest
            | [] -> ""
          in
          Alcotest.(check bool) "approved probes" true
            (contains (after_join lines) "approved"));
    case "a filter's peak bytes leave out the scan's columns" (fun () ->
        (* the filter passes the scan chunk's column arrays on and only
           allocates its selection vector: the columns count once, at the
           scan *)
        let e = big_engine () in
        Engine.set_batch_rows e 1024;
        Engine.set_instrumentation e true;
        ignore (query_ok e "SELECT a FROM big WHERE a % 2 = 0");
        let bytes prefix =
          match
            List.find_opt
              (fun pn ->
                String.starts_with ~prefix pn.Perm_obs.Profile.pn_operator)
              (Engine.plan_profile e)
          with
          | Some pn -> pn.Perm_obs.Profile.pn_peak_bytes
          | None -> Alcotest.failf "no %s node profiled" prefix
        in
        let filter = bytes "Select" and scan = bytes "Scan" in
        Alcotest.(check bool)
          (Printf.sprintf "filter %d bytes under a quarter of the scan's %d"
             filter scan)
          true
          (filter > 0 && 4 * filter < scan);
        Engine.close e);
    case "instrumented execution stays within 2x of the plain one" (fun () ->
        (* a node measures a batch's bytes only when it is wider than every
           batch it measured before, so ten equal chunks cost one walk per
           node; measuring each batch took the instrumented run to ~5x *)
        let e = big_engine () in
        (* whole chunks per batch whatever PERM_BATCH_ROWS says: at a few
           rows per batch the per-pull timing, not byte measurement, is
           what the instrumented run pays *)
        Engine.set_batch_rows e 1024;
        let min_of_runs instrument =
          Engine.set_instrumentation e instrument;
          List.fold_left Float.min Float.infinity
            (List.init 15 (fun _ -> execute_ms e big_count))
        in
        let plain_ms = ref Float.infinity and instr_ms = ref Float.infinity in
        for _ = 1 to 2 do
          plain_ms := Float.min !plain_ms (min_of_runs false);
          instr_ms := Float.min !instr_ms (min_of_runs true)
        done;
        Alcotest.(check bool)
          (Printf.sprintf "instrumented %.3f ms within 2x of %.3f ms plain"
             !instr_ms !plain_ms)
          true
          (!instr_ms <= 2. *. !plain_ms);
        Engine.close e);
    case "EXPLAIN ANALYZE as a statement yields the Analyzed outcome" (fun () ->
        let e = three_table_engine () in
        match exec_ok e ("EXPLAIN ANALYZE " ^ join3) with
        | Engine.Analyzed ea -> Alcotest.(check int) "" 1 ea.Engine.ea_rows
        | _ -> Alcotest.fail "expected Analyzed");
    case "EXPLAIN ANALYZE populates per-operator counters" (fun () ->
        let e = three_table_engine () in
        (match Engine.explain_analyze e join3 with
        | Ok _ -> ()
        | Error msg -> Alcotest.fail msg);
        let m = Engine.metrics e in
        Alcotest.(check int) "scan rows: 3 tables x 3 rows" 9
          (Metrics.counter m "executor.rows.scan");
        Alcotest.(check bool) "join invocations recorded" true
          (Metrics.counter m "executor.invocations.join" >= 1));
    case "uninstrumented statements record no operator stats" (fun () ->
        let e = three_table_engine () in
        ignore (query_ok e join3);
        let m = Engine.metrics e in
        Alcotest.(check int) "no per-operator rows" 0
          (Metrics.counter m "executor.rows.scan");
        Alcotest.(check bool) "but statements are counted" true
          (Metrics.counter m "engine.statements" > 0));
    case "set_instrumentation turns operator stats on per session" (fun () ->
        let e = three_table_engine () in
        Alcotest.(check bool) "off by default" false (Engine.instrumentation e);
        Engine.set_instrumentation e true;
        ignore (query_ok e join3);
        Alcotest.(check int) "scan rows recorded" 9
          (Metrics.counter (Engine.metrics e) "executor.rows.scan"));
    case "every statement leaves a phase trace" (fun () ->
        let e = three_table_engine () in
        ignore (query_ok e join3);
        match Engine.last_trace e with
        | None -> Alcotest.fail "no trace"
        | Some root ->
          Alcotest.(check string) "root" "statement" (Trace.name root);
          Alcotest.(check (list string)) "phases"
            [ "analyze"; "rewrite"; "optimize"; "execute" ]
            (List.map Trace.name (Trace.children root));
          Alcotest.(check (option string)) "sql attribute" (Some join3)
            (List.assoc_opt "sql" (Trace.attrs root)));
    case "provenance query counts rewrite rules and strategies" (fun () ->
        let e = three_table_engine () in
        ignore
          (query_ok e "SELECT PROVENANCE count(*), a FROM t1 GROUP BY a");
        let m = Engine.metrics e in
        Alcotest.(check int) "heuristic picks the join strategy" 1
          (Metrics.counter m "rewriter.strategy.join");
        Alcotest.(check int) "aggregate_join rule fired" 1
          (Metrics.counter m "rewriter.rule.aggregate_join");
        Alcotest.(check int) "base relation rule fired" 1
          (Metrics.counter m "rewriter.rule.base_relation"));
  ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("json", json_tests);
      ("trace", trace_tests);
      ("engine", engine_tests);
    ]
