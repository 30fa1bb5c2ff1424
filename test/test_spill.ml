(* Graceful spill-to-disk: when a materializing operator's input crosses
   the tuple budget and spill is on (the default), it runs its in-memory
   algorithm on budget-sized pieces on disk — sorted runs merged back for
   sorts and group annotations, build chunks of a Grace join for hash
   joins — in place, inside the batch operators, and the results must be
   BYTE-IDENTICAL to the row oracle (the naive reference evaluator of the
   test kit), across batch sizes and serial/parallel execution. Only a parallel statement whose
   shared join build passes the budget re-runs serially.

   With spill off the budget reverts to a hard [Resource_exhausted]
   kill — the pre-spill governor contract, still exercised by
   test_robustness. *)

module Engine = Perm_engine.Engine
module Metrics = Perm_obs.Metrics
module Recorder = Perm_obs.Recorder
module Err = Perm_err
module Reference = Perm_testkit.Reference
open Perm_testkit.Kit

(* CI reruns this suite under a PERM_BATCH_ROWS x PERM_PARALLEL matrix:
   the engine reads the batch size, the parallel arms use the domain
   count. *)
let domains =
  match Option.bind (Sys.getenv_opt "PERM_PARALLEL") int_of_string_opt with
  | Some n when n >= 1 -> n
  | _ -> 2

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

(* Reference results, with no budget and no spill pressure: the columns
   the engine names and the rows of the row oracle. *)
let reference ?(sqls = battery) ?(load = ignore) () =
  let e = forum_scaled () in
  load e;
  let rows =
    List.map (fun sql -> (fst (rows_of e sql), Reference.rows e sql)) sqls
  in
  Engine.close e;
  rows

let check_identical ?(sqls = battery) ~label e =
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
    sqls (reference ~sqls ())

(* A budget small enough that every battery query crosses it. *)
let tiny_budget = 150

let spill_engine ?(budget = tiny_budget) ?(load = ignore) () =
  let e = forum_scaled () in
  load e;
  Engine.set_tuple_budget e budget;
  (* spill defaults on; assert rather than assume *)
  Alcotest.(check bool) "spill defaults on" true (Engine.spill_enabled e);
  e

let spills e = (Engine.spill_counts e).Engine.sc_spills
let fallbacks e = (Engine.spill_counts e).Engine.sc_fallbacks
let chunks e = (Engine.spill_counts e).Engine.sc_chunks

let go_parallel e =
  Engine.set_parallel e (Engine.Par_domains domains);
  Engine.set_parallel_threshold e 1

let test_serial_identity () =
  let e = spill_engine () in
  let before = fallbacks e in
  check_identical ~label:"serial spill" e;
  Alcotest.(check bool) "statements actually spilled" true (spills e > 0);
  (* the comma join is a hash join now: its 600 rows still reach the
     sort past the budget *)
  let spilled = spills e in
  ignore (rows_of e (List.nth battery 4));
  Alcotest.(check bool) "the comma join's sort spills" true (spills e > spilled);
  Alcotest.(check int) "serial statements spill in place" before (fallbacks e);
  Engine.close e

let test_batch_sizes () =
  List.iter
    (fun batch ->
      let e = spill_engine () in
      Engine.set_batch_rows e batch;
      check_identical ~label:(Printf.sprintf "batch_rows %d" batch) e;
      Engine.close e)
    [ 1; 7 ]

let test_parallel_identity () =
  let e = spill_engine () in
  go_parallel e;
  Engine.set_batch_rows e (min (Engine.batch_rows e) 64);
  check_identical ~label:"parallel" e;
  (* a spine join whose shared build side passes the budget: the one
     retry runs serially, where the build spills in place *)
  let before = fallbacks e in
  check_identical ~label:"parallel retry" e
    ~sqls:
      [
        "SELECT m1.mid, m2.text FROM messages m1 JOIN messages m2 ON \
         m1.mid = m2.mid WHERE m1.uid > 2";
      ];
  Alcotest.(check int) "retried serially once" (before + 1) (fallbacks e);
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
    (gauge "executor.spill.spills" > 0.);
  Alcotest.(check bool) "spill milestones in the engine's recorder" true
    (List.exists
       (fun ev ->
         match ev.Recorder.ev_payload with
         | Recorder.Spill { kind = "run"; _ } -> true
         | _ -> false)
       (Recorder.recent (Engine.recorder e)));
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

(* With spill on, state no operator can spill — hash-aggregate groups,
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
  non_spillable_ceiling ~label:"batch 7" (fun e -> Engine.set_batch_rows e 7);
  non_spillable_ceiling ~label:"parallel" (fun e ->
      go_parallel e;
      Engine.set_batch_rows e (min (Engine.batch_rows e) 64))

(* Degrades in place at batch rows 1/7/1024, matching the row oracle,
   without a single serial fallback; parallel runs match too. With spill
   off the budget kills every statement. *)
let spills_in_place ?(grace = false) ?budget ?load sqls =
  let reference = reference ~sqls ?load () in
  List.iter
    (fun (label, setup, serial) ->
      let e = spill_engine ?budget ?load () in
      setup e;
      let spilled = spills e and fell_back = fallbacks e in
      List.iter2
        (fun sql (ref_cols, ref_rows) ->
          let chunked = chunks e in
          let cols, rows = rows_of e sql in
          Alcotest.(check (list string)) (label ^ ": " ^ sql ^ " [columns]")
            ref_cols cols;
          Alcotest.(check rows_testable) (label ^ ": " ^ sql) ref_rows rows;
          (* [grace]: every statement reaches the Grace join *)
          if grace then
            Alcotest.(check bool) (label ^ ": " ^ sql ^ " [chunked]") true
              (chunks e > chunked))
        sqls reference;
      Alcotest.(check bool) (label ^ ": spilled") true (spills e > spilled);
      if serial then
        Alcotest.(check int) (label ^ ": no serial fallback") fell_back
          (fallbacks e);
      Engine.set_spill e false;
      List.iter (expect_exhausted ~label:(label ^ ", spill off") e) sqls;
      Engine.close e)
    (List.map
       (fun n ->
         (Printf.sprintf "batch %d" n, (fun e -> Engine.set_batch_rows e n), true))
       [ 1; 7; 1024 ]
    @ [
        ( "parallel",
          (fun e ->
            go_parallel e;
            Engine.set_batch_rows e 7),
          false );
      ])

(* A provenance aggregate over a row-preserving input runs as one
   GroupAnnotate pass that must hold every input row; past the budget it
   writes each piece of its input in group order as a run and merges the
   runs by group id instead: same rows, same order. *)
let test_group_annotate_budget () =
  spills_in_place
    [
      "SELECT PROVENANCE uid, count(*), avg(mid * 0.5) FROM messages GROUP BY uid";
      "SELECT PROVENANCE m.uid, count(*) FROM messages m JOIN users u ON \
       m.uid = u.uid GROUP BY m.uid HAVING count(*) > 1";
    ]

(* An aggregate over a duplicate elimination is one flagged GroupAnnotate
   pass (the DISTINCT's few keys stay under the budget); past the budget
   the annotation spills: same rows, same order. *)
let test_one_pass_budget () =
  spills_in_place
    [
      "SELECT PROVENANCE d.uid, count(*), sum(m.mid), avg(m.mid) FROM (SELECT \
       DISTINCT uid FROM messages) d JOIN messages m ON d.uid = m.uid GROUP BY \
       d.uid";
      "SELECT PROVENANCE u.uid, count(*) FROM (SELECT uid FROM users UNION \
       SELECT uid FROM messages WHERE mid % 97 = 0) u JOIN messages m ON u.uid \
       = m.uid GROUP BY u.uid";
      (* NULL, NaN, 0.0 and -0.0 keys *)
      "SELECT PROVENANCE d.k, count(*), count(DISTINCT m.uid), sum(m.mid), \
       min(m.text) FROM (SELECT DISTINCT CASE WHEN mid % 5 = 0 THEN \
       CAST('nan' AS float) WHEN mid % 5 = 1 THEN 0.0 WHEN mid % 5 = 2 THEN \
       -0.0 WHEN mid % 5 = 3 THEN NULL ELSE 1.5 END AS k, uid FROM messages) \
       d JOIN messages m ON d.uid = m.uid GROUP BY d.k";
    ]

(* Sorted runs merged past the budget give the in-memory permutation
   sort's rows byte for byte: ties, DESC, several and expression keys,
   NULL and NaN. *)
let test_sort_budget () =
  spills_in_place
    [
      "SELECT uid, mid, text FROM messages ORDER BY uid DESC, text";
      "SELECT mid, uid FROM messages ORDER BY CASE WHEN mid % 7 = 0 THEN \
       CAST('nan' AS float) WHEN mid % 5 = 0 THEN NULL ELSE uid * 0.5 END \
       DESC, mid % 3";
    ]

(* Semi and anti joins whose build side (600 messages) passes the budget:
   the Grace join narrows the probe side's selection vectors, so its
   output keeps the probe side's arity. *)
let test_semi_anti_budget () =
  spills_in_place ~grace:true
    [
      "SELECT u.name FROM users u WHERE u.uid IN (SELECT uid FROM messages)";
      "SELECT m1.mid FROM messages m1 WHERE m1.mid IN (SELECT mid + 1 FROM \
       messages)";
      "SELECT m1.mid FROM messages m1 WHERE m1.mid NOT IN (SELECT mid + 1 \
       FROM messages)";
    ]

(* Every expanding join kind through the Grace join: self-joins on
   messages build 600 rows, past the budget. Outer joins pad probe rows
   no chunk matched at their position and, for FULL, append the build
   rows no probe row matched; the inner join filters matches through a
   residual. *)
let test_grace_join_kinds () =
  spills_in_place ~grace:true
    (List.map
       (fun kind ->
         Printf.sprintf
           "SELECT m1.mid, m1.uid, m2.mid, m2.text FROM messages m1 %s JOIN \
            messages m2 ON m1.mid = m2.mid + 3 AND m2.uid <> 2"
           kind)
       [ "LEFT"; "FULL"; "RIGHT" ]
    @ [
        "SELECT m1.mid, m2.mid FROM messages m1 JOIN messages m2 ON m1.uid = \
         m2.uid AND m1.mid < m2.mid";
      ])

(* Join key identity through the Grace join: every join kind over int,
   float, text and date keys (int against float both ways, two-column
   and null-safe keys) of 40-row tables, whose builds pass a 16-row
   budget. *)
let test_grace_join_keys () =
  spills_in_place ~grace:true ~budget:16 ~load:(fun e -> load_join_keys e)
    (join_key_queries @ null_safe_join_queries)

(* An ORDER BY over a provenance aggregate's head columns sorts groups in
   memory; past the budget the annotation's merged stream is filtered and
   sorted as rows: the same rows in the same order, ties between groups,
   a HAVING in between and LIMIT above included. *)
let test_sorted_groups_budget () =
  spills_in_place
    [
      "SELECT PROVENANCE uid, count(*) AS c FROM messages GROUP BY uid ORDER \
       BY c DESC";
      "SELECT PROVENANCE uid, count(*) AS c FROM messages GROUP BY uid HAVING \
       count(*) > 95 ORDER BY c, uid DESC";
      "SELECT PROVENANCE uid, count(*) AS c FROM messages GROUP BY uid ORDER \
       BY c DESC LIMIT 10";
    ]

(* A correlated subquery whose right side sorts past the budget: the sort
   spills once per left row. *)
let test_apply_sort_budget () =
  spills_in_place
    [
      "SELECT u.name, (SELECT m.mid FROM messages m WHERE m.uid <> u.uid \
       ORDER BY m.text DESC, m.mid LIMIT 1) FROM users u";
    ]

(* Spill configuration and accounting are per engine, not per process:
   two engines on two domains run the battery at the same time, one
   spilling under a tiny budget, the other with spill off under the same
   budget. Each gets exactly its solo outcomes and its solo spill counts,
   and the spill-off engine still dies with Resource_exhausted. *)
let test_two_engines_two_domains () =
  let outcomes ~spill () =
    let e = forum_scaled () in
    Engine.set_tuple_budget e tiny_budget;
    Engine.set_spill e spill;
    let out =
      List.concat_map
        (fun _ ->
          List.map
            (fun sql ->
              match Engine.execute_err e sql with
              | Ok (Engine.Rows rs) -> strings_of_rows rs.Engine.rows
              | Ok _ -> [ [ "not rows" ] ]
              | Error err -> [ [ Err.kind_label err.Err.kind ] ])
            battery)
        [ 1; 2; 3 ]
    in
    let c = Engine.spill_counts e in
    Engine.close e;
    ( out,
      Engine.
        [
          c.sc_spills; c.sc_runs; c.sc_chunks; c.sc_rows; c.sc_bytes;
          c.sc_fallbacks;
        ] )
  in
  let solo_on, on_counts = outcomes ~spill:true () in
  let solo_off, off_counts = outcomes ~spill:false () in
  List.iter
    (fun o ->
      Alcotest.(check (list (list string))) "spill off dies" [ [ "resource_exhausted" ] ] o)
    solo_off;
  Alcotest.(check bool) "the spill-on engine spilled" true
    (List.hd on_counts > 0);
  Alcotest.(check (list int)) "the spill-off engine never spilled"
    [ 0; 0; 0; 0; 0; 0 ] off_counts;
  let other = Domain.spawn (outcomes ~spill:false) in
  let on, on_counts' = outcomes ~spill:true () in
  let off, off_counts' = Domain.join other in
  Alcotest.(check (list rows_testable)) "spill-on engine = solo" solo_on on;
  Alcotest.(check (list rows_testable)) "spill-off engine = solo" solo_off off;
  Alcotest.(check (list int)) "spill-on counts = solo" on_counts on_counts';
  Alcotest.(check (list int)) "spill-off counts = solo" off_counts off_counts'

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
          case "parallel falls back and matches" test_parallel_identity;
        ] );
      ( "degradation",
        [
          case "completes where the kill would fire" test_completes_where_kill_would_fire;
          case "non-spillable state keeps the hard ceiling" test_budget_hard_ceiling;
          case "spill dir honoured and cleaned" test_spill_dir_honoured;
          case "provenance aggregate annotation degrades past the budget"
            test_group_annotate_budget;
          case "one-pass aggregate over DISTINCT/UNION degrades past the budget"
            test_one_pass_budget;
          case "permutation sort = external merge sort past the budget"
            test_sort_budget;
          case "semi and anti joins past the budget" test_semi_anti_budget;
          case "every join kind through the Grace join" test_grace_join_kinds;
          case "join key identity through the Grace join" test_grace_join_keys;
          case "ORDER BY over a group annotation past the budget"
            test_sorted_groups_budget;
          case "correlated subquery sorts past the budget in place"
            test_apply_sort_budget;
          case "two engines on two domains keep their own spill config"
            test_two_engines_two_domains;
        ] );
    ]
