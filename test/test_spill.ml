(* Graceful spill-to-disk: when a statement's working set crosses the
   tuple budget and spill is on (the default), hash-join builds go
   through chunked disk partitions and sort materializations through an
   external merge — and the results must be BYTE-IDENTICAL to the
   in-memory path, across batch sizes and serial/parallel execution
   (the parallel path falls back to the serial spilling path).

   With spill off the budget reverts to a hard [Resource_exhausted]
   kill — the pre-spill governor contract, still exercised by
   test_robustness. *)

module Engine = Perm_engine.Engine
module Metrics = Perm_obs.Metrics
module Spill = Perm_storage.Spill
module Err = Perm_err
open Perm_testkit.Kit

let domains = 2

let forum_scaled ?(messages = 600) ?(users = 6) () =
  let e = engine () in
  Perm_workload.Forum.load_scaled e ~messages ~users ();
  e

(* Every shape that can hit a spill point: sort materialization (ORDER
   BY, also with duplicate keys so run-merge stability shows), hash-join
   build, LEFT JOIN (the matched-bitmap pad path), join + sort combined,
   and a provenance rewrite (wide tuples through both). *)
let battery =
  [
    "SELECT mid, text FROM messages ORDER BY text DESC, mid";
    "SELECT uid, mid FROM messages ORDER BY uid";
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid";
    "SELECT m.mid, u.name FROM messages m LEFT JOIN users u ON m.uid = u.uid";
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid \
     ORDER BY m.text, u.name";
    "SELECT PROVENANCE m.text, u.name FROM messages m, users u WHERE \
     m.uid = u.uid";
  ]

let rows_of e sql =
  let rs = query_ok e sql in
  (rs.Engine.columns, strings_of_rows rs.Engine.rows)

(* In-memory reference results: no budget, no spill pressure. *)
let reference () =
  let e = forum_scaled () in
  let rows = List.map (rows_of e) battery in
  Engine.close e;
  rows

let check_identical ~label e =
  List.iter2
    (fun sql (ref_cols, ref_rows) ->
      let cols, rows = rows_of e sql in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: %s [columns]" label sql)
        ref_cols cols;
      (* ordered compare: spilled results must be byte-identical, not
         just set-equal *)
      Alcotest.(check rows_testable)
        (Printf.sprintf "%s: %s" label sql)
        ref_rows rows)
    battery (reference ())

(* A budget small enough that every battery query crosses it. *)
let tiny_budget = 150

let spill_engine () =
  let e = forum_scaled () in
  Engine.set_tuple_budget e tiny_budget;
  (* spill defaults on; assert rather than assume *)
  Alcotest.(check bool) "spill defaults on" true (Engine.spill_enabled e);
  e

let test_serial_identity () =
  let e = spill_engine () in
  check_identical ~label:"serial spill" e;
  Alcotest.(check bool) "statements actually spilled" true
    (let c = Spill.counters () in
     c.Spill.c_spills > 0);
  Engine.close e

let test_batch_sizes () =
  List.iter
    (fun batch ->
      let e = spill_engine () in
      Engine.set_batch_rows e batch;
      check_identical ~label:(Printf.sprintf "batch_rows %d" batch) e;
      Engine.close e)
    [ 1; 7 ]

let test_row_path_identity () =
  let e = spill_engine () in
  Engine.set_vectorized e false;
  check_identical ~label:"row path" e;
  Engine.close e

let test_parallel_identity () =
  let e = spill_engine () in
  Engine.set_parallel e (Engine.Par_domains domains);
  Engine.set_parallel_threshold e 1;
  Engine.set_batch_rows e (min (Engine.batch_rows e) 64);
  check_identical ~label:"parallel (spill fallback)" e;
  Engine.close e

let test_completes_where_kill_would_fire () =
  (* same query, same budget: spill on completes, spill off kills *)
  let sql = "SELECT m.text, u.name FROM messages m, users u WHERE \
             m.uid = u.uid ORDER BY m.text" in
  let e = forum_scaled ~messages:2000 ~users:10 () in
  Engine.set_tuple_budget e 500;
  ignore (query_ok e sql);
  let gauge name =
    Option.value ~default:0. (Metrics.gauge (Engine.metrics e) name)
  in
  Alcotest.(check bool) "spill metric counted" true
    (gauge "executor.spill.spills" > 0. || gauge "executor.spill.fallbacks" > 0.);
  Engine.set_spill e false;
  (match Engine.execute_err e sql with
  | Ok _ -> Alcotest.fail "spill off should restore the hard kill"
  | Error err ->
    Alcotest.(check string) "Resource_exhausted" "resource_exhausted"
      (Err.kind_label err.Err.kind));
  (* switching back on recovers without touching the budget *)
  Engine.set_spill e true;
  ignore (query_ok e sql);
  Engine.close e

(* With spill on, state no path can spill — hash-aggregate groups,
   DISTINCT and set-op tables — still enforces the budget as a hard
   ceiling at the materialization point: the budget is never silently
   ignored. Spillable shapes and low-cardinality aggregates over inputs
   far past the budget keep completing. *)

let expect_exhausted ~label e sql =
  match Engine.execute_err e sql with
  | Ok _ -> Alcotest.failf "%s: %s should hit the budget ceiling" label sql
  | Error err ->
    Alcotest.(check string)
      (Printf.sprintf "%s: %s" label sql)
      "resource_exhausted"
      (Err.kind_label err.Err.kind)

(* 600 messages vs budget 150: mid is unique, so any per-mid table blows
   the ceiling; uid has only 6 distinct values, so per-uid state stays
   tiny no matter how many rows feed it. *)
let non_spillable_ceiling ~label setup =
  let e = spill_engine () in
  setup e;
  expect_exhausted ~label e "SELECT mid, COUNT(*) FROM messages GROUP BY mid";
  expect_exhausted ~label e "SELECT DISTINCT mid FROM messages";
  expect_exhausted ~label e
    "SELECT mid FROM messages UNION SELECT uid FROM messages";
  expect_exhausted ~label e
    "SELECT mid FROM messages EXCEPT SELECT uid FROM users";
  (* few groups over many rows: bounded state, must complete *)
  ignore (query_ok e "SELECT uid, COUNT(*) FROM messages GROUP BY uid");
  ignore (query_ok e "SELECT DISTINCT uid FROM messages");
  (* spillable shapes still degrade instead of dying *)
  ignore (query_ok e "SELECT mid, text FROM messages ORDER BY text DESC, mid");
  Engine.close e

let test_budget_hard_ceiling () =
  non_spillable_ceiling ~label:"batch" (fun _ -> ());
  non_spillable_ceiling ~label:"row" (fun e -> Engine.set_vectorized e false);
  non_spillable_ceiling ~label:"parallel" (fun e ->
      Engine.set_parallel e (Engine.Par_domains domains);
      Engine.set_parallel_threshold e 1;
      Engine.set_batch_rows e (min (Engine.batch_rows e) 64))

(* A provenance aggregate over a row-preserving input runs as one
   GroupAnnotate pass that must hold every input row. Past the budget the
   batch path hands off to the row path, which sorts the rows by (group,
   input position) through the external merge instead: same rows, same
   order. With spill off the budget kills it. *)
let test_group_annotate_budget () =
  let sqls =
    [
      "SELECT PROVENANCE uid, count(*), avg(mid * 0.5) FROM messages GROUP BY uid";
      "SELECT PROVENANCE m.uid, count(*) FROM messages m JOIN users u ON \
       m.uid = u.uid GROUP BY m.uid HAVING count(*) > 1";
    ]
  in
  let reference =
    let e = forum_scaled () in
    let rows = List.map (rows_of e) sqls in
    Engine.close e;
    rows
  in
  List.iter
    (fun (label, setup) ->
      let e = spill_engine () in
      setup e;
      let before = (Spill.counters ()).Spill.c_spills in
      List.iter2
        (fun sql (ref_cols, ref_rows) ->
          let cols, rows = rows_of e sql in
          Alcotest.(check (list string)) (label ^ ": " ^ sql ^ " [columns]")
            ref_cols cols;
          Alcotest.(check rows_testable) (label ^ ": " ^ sql) ref_rows rows)
        sqls reference;
      Alcotest.(check bool) (label ^ ": spilled") true
        ((Spill.counters ()).Spill.c_spills > before);
      Engine.set_spill e false;
      List.iter (expect_exhausted ~label:(label ^ ", spill off") e) sqls;
      Engine.close e)
    [
      ("batch", fun _ -> ());
      ("row", fun e -> Engine.set_vectorized e false);
      ( "parallel",
        fun e ->
          Engine.set_parallel e (Engine.Par_domains domains);
          Engine.set_parallel_threshold e 1;
          Engine.set_batch_rows e 7 );
    ]

let test_spill_dir_honoured () =
  let dir = Filename.temp_file "perm_spill_dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let e = forum_scaled () in
  Engine.set_spill_dir e dir;
  Alcotest.(check string) "spill_dir getter" dir (Engine.spill_dir e);
  Engine.set_tuple_budget e tiny_budget;
  ignore
    (query_ok e "SELECT mid, text FROM messages ORDER BY text DESC, mid");
  (* temp files are created under the configured dir and cleaned up *)
  Alcotest.(check (list string)) "spill files released"
    []
    (Array.to_list (Sys.readdir dir));
  Engine.close e;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let () =
  Alcotest.run "spill"
    [
      ( "identity",
        [
          case "serial spill = in-memory, byte for byte" test_serial_identity;
          case "batch sizes 1 and 7" test_batch_sizes;
          case "row-at-a-time path" test_row_path_identity;
          case "parallel falls back and matches" test_parallel_identity;
        ] );
      ( "degradation",
        [
          case "completes where the kill would fire" test_completes_where_kill_would_fire;
          case "non-spillable state keeps the hard ceiling" test_budget_hard_ceiling;
          case "spill dir honoured and cleaned" test_spill_dir_honoured;
          case "provenance aggregate annotation degrades past the budget"
            test_group_annotate_budget;
        ] );
    ]
