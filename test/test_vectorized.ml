(* Vectorized batch-at-a-time execution.

   The row-at-a-time closures are the correctness oracle: with
   vectorization on, every query must return byte-identical rows in
   identical order — across adversarial batch sizes (1, 7, and the
   default), on the serial path and on the parallel path at the
   PERM_PARALLEL domain count (CI runs 1, 2 and 4), including the
   provenance rewrites (influence + copy, lazy and eager). *)

module Engine = Perm_engine.Engine
module Executor = Perm_executor.Executor
module Metrics = Perm_obs.Metrics
module Value = Perm_value.Value
open Perm_testkit.Kit

let domains =
  match Sys.getenv_opt "PERM_PARALLEL" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

(* Batch sizes under test: degenerate (1), prime and misaligned with every
   morsel boundary (7), and the shipped default. *)
let batch_sizes = [ 1; 7; Executor.default_batch_rows ]

let ordered_rows e sql = strings_of_rows (query_ok e sql).Engine.rows

(* Oracle: the row path, with parallelism off. *)
let row_oracle e sql =
  Engine.set_parallel e Engine.Par_off;
  Engine.set_vectorized e false;
  let rows = ordered_rows e sql in
  Engine.set_vectorized e true;
  rows

let check_against_oracle e sql =
  let oracle = row_oracle e sql in
  List.iter
    (fun bn ->
      Engine.set_batch_rows e bn;
      (* serial batch path *)
      Engine.set_parallel e Engine.Par_off;
      Alcotest.(check rows_testable)
        (Printf.sprintf "%s [row = batch, batch_rows=%d]" sql bn)
        oracle (ordered_rows e sql);
      (* parallel batch path: one morsel per few batches *)
      Engine.set_parallel e (Engine.Par_domains domains);
      Engine.set_parallel_threshold e 1;
      Alcotest.(check rows_testable)
        (Printf.sprintf "%s [row = parallel batch, batch_rows=%d]" sql bn)
        oracle (ordered_rows e sql))
    batch_sizes;
  Engine.set_parallel e Engine.Par_off;
  Engine.set_batch_rows e Executor.default_batch_rows

let forum_queries =
  [
    "SELECT mid, text FROM messages WHERE mid >= 0";
    "SELECT * FROM users";
    "SELECT mid, mid % 2, upper(text) FROM messages WHERE mid % 2 = 0";
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid";
    "SELECT uid, count(*) FROM messages GROUP BY uid";
    "SELECT count(*), min(mid), max(mid) FROM messages";
    "SELECT mid, text FROM messages ORDER BY mid DESC LIMIT 7";
    "SELECT DISTINCT uid FROM messages";
    Perm_workload.Forum.q1;
    Perm_workload.Forum.q3;
    (* provenance rewrites: influence through union/aggregate, and the
       copy-contribution variant *)
    Perm_workload.Forum.q1_provenance;
    "SELECT PROVENANCE m.text FROM messages m WHERE m.mid > 2";
    "SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid";
    "SELECT PROVENANCE ON CONTRIBUTION (COPY) mid, text FROM messages \
     WHERE mid > 1";
  ]

let suite_identity =
  [
    case "forum figure-1 data: row oracle = batch paths at 1/7/default"
      (fun () ->
        let e = forum_engine () in
        List.iter (check_against_oracle e) forum_queries;
        Engine.close e);
    case "scaled forum: row oracle = batch paths, batch path engaged"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        List.iter (check_against_oracle e) forum_queries;
        Alcotest.(check bool) "parallel path engaged" true
          (Metrics.counter (Engine.metrics e) "executor.par.queries" > 0);
        Engine.close e);
    case "star workload: row oracle = batch paths incl. provenance"
      (fun () ->
        let e = engine () in
        Perm_workload.Star.load e ~scale:120 ();
        List.iter
          (fun (_, q, qp) ->
            check_against_oracle e q;
            check_against_oracle e qp)
          Perm_workload.Star.queries;
        Engine.close e);
    case "eager provenance stored through the batch path = lazy rows"
      (fun () ->
        let e = forum_engine () in
        (* lazy answer on the row oracle *)
        let lazy_rows =
          row_oracle e "SELECT PROVENANCE mid, text FROM messages"
        in
        Engine.set_batch_rows e 7;
        ignore
          (exec_ok e
             "STORE PROVENANCE SELECT mid, text FROM messages INTO vec_eager");
        let eager =
          List.sort compare (ordered_rows e "SELECT * FROM vec_eager")
        in
        Alcotest.(check rows_testable)
          "eager store = lazy provenance" (List.sort compare lazy_rows) eager;
        Engine.close e);
  ]

let suite_dispatch =
  [
    case "batch_eligible declines Apply and Prov shapes" (fun () ->
        let e = forum_engine () in
        (* a surviving correlated Apply must fall back to the row path and
           still answer correctly *)
        let sql =
          "SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM messages \
           m WHERE m.uid < u.uid)"
        in
        check_against_oracle e sql;
        Engine.close e);
    case "\\set vectorized off pins the row path; plan hash sees the mode"
      (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        Perm_obs.History.set_capacity h 8;
        Perm_obs.History.set_cadence h 0.;
        let sql = "SELECT mid FROM messages" in
        let last_hash () =
          match List.rev (Perm_obs.History.executions h) with
          | r :: _ -> r.Perm_obs.History.ex_plan_hash
          | [] -> Alcotest.fail "no execution recorded"
        in
        Engine.set_vectorized e true;
        ignore (query_ok e sql);
        let vec_hash = last_hash () in
        Engine.set_vectorized e false;
        ignore (query_ok e sql);
        let row_hash = last_hash () in
        Alcotest.(check bool) "mode is part of the plan hash" true
          (vec_hash <> row_hash);
        Engine.close e);
    case "batch_rows floor is 1" (fun () ->
        let e = forum_engine () in
        Engine.set_batch_rows e 0;
        Alcotest.(check int) "clamped" 1 (Engine.batch_rows e);
        ignore (query_ok e "SELECT mid FROM messages");
        Engine.close e);
  ]

let suite_profiler =
  [
    case "instrumented batch run reports exact peak bytes" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        Engine.set_instrumentation e true;
        let sql = "SELECT mid, text FROM messages WHERE mid % 2 = 0" in
        let serial = row_oracle e sql in
        Alcotest.(check rows_testable) "instrumented batch = row oracle"
          serial (ordered_rows e sql);
        let prof = Engine.plan_profile e in
        Alcotest.(check bool) "profile populated" true (prof <> []);
        List.iter
          (fun pn ->
            Alcotest.(check bool)
              (pn.Perm_obs.Profile.pn_operator ^ " has measured bytes")
              true
              (pn.Perm_obs.Profile.pn_peak_bytes > 0))
          prof;
        Engine.close e);
  ]

let suite_morsel_sizing =
  [
    case "morsels are whole batches, about four per domain" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        Engine.set_parallel_threshold e 1;
        let morsels () =
          Metrics.counter (Engine.metrics e) "executor.par.morsels"
        in
        List.iter
          (fun (batch_rows, d, expected) ->
            Engine.set_batch_rows e batch_rows;
            Engine.set_parallel e (Engine.Par_domains d);
            let before = morsels () in
            ignore (query_ok e "SELECT mid FROM messages WHERE mid > 0");
            Alcotest.(check int)
              (Printf.sprintf "batch_rows=%d, %d domains" batch_rows d)
              expected
              (morsels () - before))
          (* 300 rows in batches of 7 are 43 batches *)
          [ (1024, 2, 1); (100, 2, 3); (7, 1, 4); (7, 2, 8); (7, 4, 15) ];
        Engine.close e);
    case "derived morsels keep determinism" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:500 ~users:40 ();
        let sql =
          "SELECT uid, count(*) FROM messages WHERE mid % 3 <> 1 GROUP BY uid"
        in
        let oracle = row_oracle e sql in
        Engine.set_parallel e (Engine.Par_domains domains);
        Engine.set_parallel_threshold e 1;
        Alcotest.(check rows_testable) "auto-sized parallel = oracle" oracle
          (ordered_rows e sql);
        Alcotest.(check bool) "parallel path engaged" true
          (Metrics.counter (Engine.metrics e) "executor.par.queries" > 0);
        Engine.close e);
  ]

let () =
  Alcotest.run "vectorized"
    [
      ("identity", suite_identity);
      ("dispatch", suite_dispatch);
      ("profiler", suite_profiler);
      ("morsel-sizing", suite_morsel_sizing);
    ]
