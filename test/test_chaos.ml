(* Chaos suite: deterministic fault injection against the whole engine.

   Invariant under ANY injection schedule: [Engine.execute_err] returns
   [Error _] — it never raises, never wedges a worker domain, never
   leaves the pool unusable — and data that was reported committed is
   still there (and uncommitted data is not) once the faults stop.

   The schedule is deterministic in the seed: CI runs this binary across
   several PERM_FAULT seeds and PERM_PARALLEL domain counts. *)

module Engine = Perm_engine.Engine
module Metrics = Perm_obs.Metrics
module Err = Perm_err
module Fault = Perm_fault
open Perm_testkit.Kit

let seed =
  match Sys.getenv_opt "PERM_FAULT" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 42)
  | None -> 42

let domains =
  match Sys.getenv_opt "PERM_PARALLEL" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

(* Small batches give the small chaos tables several morsels each. *)
let go_parallel e =
  Engine.set_parallel e (Engine.Par_domains domains);
  Engine.set_parallel_threshold e 1;
  Engine.set_batch_rows e (min (Engine.batch_rows e) 16)

let chaos_engine () =
  let e = engine () in
  Perm_workload.Forum.load_scaled e ~messages:200 ~users:10 ();
  go_parallel e;
  Fault.reset ();
  Fault.set_seed seed;
  e

(* Every registered injection point, spanning storage, executor, pool and
   engine layers. Keep in sync with the [Perm_fault.point] call sites. *)
let all_points =
  [
    "heap.scan";
    "heap.insert";
    "join.build";
    "agg.merge";
    "sort.materialize";
    "pool.dispatch";
    "engine.commit";
  ]

(* Statements covering every injection point: scans, a hash join build,
   partitioned aggregation, a sort, parallel fan-out, DML and a
   BEGIN/INSERT/COMMIT transaction. *)
let battery_queries =
  [
    "SELECT mid, text FROM messages WHERE mid >= 0";
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid";
    "SELECT uid, count(*) FROM messages GROUP BY uid";
    "SELECT mid, text FROM messages ORDER BY mid DESC LIMIT 7";
    "SELECT PROVENANCE m.text FROM messages m WHERE m.mid > 2";
  ]

(* Run one statement; any exception is an instant failure, and any error
   must carry the [Faulted] kind (valid SQL + managed transaction state:
   the only legitimate failure cause is an injected fault). *)
let run_stmt e sql =
  match Engine.execute_err e sql with
  | Ok _ -> `Ok
  | Error err ->
    Alcotest.(check bool)
      (Printf.sprintf "%s [error kind %s must be faulted]" sql
         (Err.kind_label err.Err.kind))
      true
      (err.Err.kind = Err.Faulted);
    `Error
  | exception exn ->
    Alcotest.failf "%s raised %s under injection" sql (Printexc.to_string exn)

let run_battery e =
  let errors = ref 0 in
  let run sql = if run_stmt e sql = `Error then incr errors in
  List.iter run battery_queries;
  (* transactional leg: BEGIN/ROLLBACK never trip a point (snapshots are
     plain copies), INSERT and COMMIT may *)
  ignore (Engine.execute_err e "BEGIN");
  run "INSERT INTO messages VALUES (9999, 'chaos', 1)";
  (match Engine.execute_err e "COMMIT" with
  | Ok _ -> ignore (Engine.execute_err e "DELETE FROM messages WHERE mid = 9999")
  | Error _ ->
    incr errors;
    ignore (Engine.execute_err e "ROLLBACK")
  | exception exn ->
    Alcotest.failf "COMMIT raised %s under injection" (Printexc.to_string exn));
  !errors

(* After disarming, the engine must be fully functional: queries succeed,
   the pool answers parallel work, no rows leaked from the battery. *)
let check_recovered e =
  Fault.reset ();
  (* a faulted DELETE may have left the battery's scratch row behind —
     that is an Error honestly reported, not corruption; clean it up now
     to prove DML works again *)
  ignore (exec_ok e "DELETE FROM messages WHERE mid = 9999");
  check_count e "SELECT * FROM messages WHERE mid = 9999" 0;
  ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
  ignore (query_ok e "SELECT uid, count(*) FROM messages GROUP BY uid");
  if Engine.pool_size e > 0 then
    Alcotest.(check int) "no leaked or dead worker domains" domains
      (Engine.pool_size e)

let suite_points =
  List.map
    (fun point ->
      case (Printf.sprintf "certain injection at %s: Error, never a crash" point)
        (fun () ->
          let e = chaos_engine () in
          Fault.set point 1.0;
          let errors = run_battery e + run_battery e in
          Alcotest.(check bool)
            (Printf.sprintf "point %s was exercised" point)
            true
            (Fault.injections () > 0);
          (* pool.dispatch degrades to a serial retry, so its battery can
             finish with zero user-visible errors — every other point must
             surface at least one Error *)
          if point <> "pool.dispatch" then
            Alcotest.(check bool) "at least one statement failed" true
              (errors >= 1);
          check_recovered e;
          Engine.close e))
    all_points

let suite_sweep =
  [
    case "all points armed at 0.3: three batteries, engine survives"
      (fun () ->
        let e = chaos_engine () in
        List.iter (fun p -> Fault.set p 0.3) all_points;
        for _ = 1 to 3 do
          ignore (run_battery e)
        done;
        Alcotest.(check bool) "faults actually fired" true
          (Fault.injections () > 0);
        check_recovered e;
        Engine.close e);
    case "degraded parallel retries are visible in metrics" (fun () ->
        let e = chaos_engine () in
        Fault.set "pool.dispatch" 1.0;
        ignore (run_battery e);
        Alcotest.(check bool) "executor.par.degraded counted" true
          (Metrics.counter (Engine.metrics e) "executor.par.degraded" >= 1);
        Alcotest.(check bool) "fault.injected.pool.dispatch counted" true
          (Metrics.counter (Engine.metrics e) "fault.injected.pool.dispatch"
           >= 1);
        check_recovered e;
        Engine.close e);
    (* the group annotation runs this sort itself, in memory and spilled *)
    case "sort.materialize fires for an ORDER BY over a provenance aggregate"
      (fun () ->
        let e = chaos_engine () in
        Fault.set "sort.materialize" 1.0;
        Alcotest.(check bool) "the sort faulted" true
          (run_stmt e
             "SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid \
              ORDER BY count(*) DESC"
           = `Error);
        check_recovered e;
        Engine.close e);
  ]

let suite_integrity =
  [
    case "commit/insert faults at 0.5: committed set is exactly preserved"
      (fun () ->
        let e = chaos_engine () in
        Fault.set "engine.commit" 0.5;
        Fault.set "heap.insert" 0.5;
        let committed = ref [] in
        for i = 0 to 39 do
          let mid = 10_000 + i in
          ignore (Engine.execute_err e "BEGIN");
          let sql =
            Printf.sprintf "INSERT INTO messages VALUES (%d, 'tx', 1)" mid
          in
          (match Engine.execute_err e sql with
          | Error _ -> ignore (Engine.execute_err e "ROLLBACK")
          | Ok _ -> (
            match Engine.execute_err e "COMMIT" with
            | Ok _ -> committed := mid :: !committed
            | Error _ ->
              (* faulted commit left the transaction open; discard it *)
              ignore (Engine.execute_err e "ROLLBACK")))
        done;
        Fault.reset ();
        Alcotest.(check bool) "both outcomes occurred" true
          (List.length !committed > 0 && List.length !committed < 40);
        let expected =
          List.map (fun mid -> [ string_of_int mid ]) (List.sort compare !committed)
        in
        check_rows ~ordered:true e
          "SELECT mid FROM messages WHERE mid >= 10000 ORDER BY mid" expected;
        Engine.close e);
    case "post-fault data identical to a no-fault run" (fun () ->
        (* the same battery on a faulted engine (after recovery) and on a
           never-faulted twin must leave identical table contents *)
        (* compare below the battery's scratch-row id: a committed-then-
           unfaulted-DELETE cycle may leave mid 9999 behind legitimately *)
        let stable e =
          strings_of_rows
            (query_ok e "SELECT * FROM messages WHERE mid < 9999 ORDER BY mid")
              .Engine.rows
        in
        let faulted = chaos_engine () in
        Fault.set_all 0.4;
        ignore (run_battery faulted);
        ignore (run_battery faulted);
        Fault.reset ();
        let clean = chaos_engine () in
        Fault.reset ();
        Alcotest.(check rows_testable) "identical contents" (stable clean)
          (stable faulted);
        Engine.close faulted;
        Engine.close clean);
  ]

let suite_determinism =
  [
    case "same seed, serial execution: identical fault schedule" (fun () ->
        let outcomes () =
          let e = engine () in
          Perm_workload.Forum.load_scaled e ~messages:100 ~users:5 ();
          Engine.set_parallel e Engine.Par_off;
          Fault.reset ();
          Fault.set_seed seed;
          List.iter (fun p -> Fault.set p 0.3) all_points;
          let kinds =
            List.map
              (fun sql ->
                match Engine.execute_err e sql with
                | Ok _ -> "ok"
                | Error err -> Err.kind_label err.Err.kind)
              (battery_queries @ battery_queries)
          in
          let injected = Fault.injections () in
          Fault.reset ();
          (kinds, injected)
        in
        let a = outcomes () and b = outcomes () in
        Alcotest.(check (pair (list string) int))
          "replayed schedule matches" a b);
  ]

(* Batch-boundary guarantees of the executor: the cancel token is
   checked at operator start and charged once per emitted batch, so a
   governor kill lands within a bounded number of batches; fault points
   trip per operator invocation, so the injection schedule is a function
   of the seed alone — not of the batch size. *)
let suite_batch =
  let expect_timeout e ~bound_ms sql =
    Engine.set_statement_timeout e bound_ms;
    let t0 = Unix.gettimeofday () in
    let err =
      match Engine.execute_err e sql with
      | Ok _ -> Alcotest.failf "%s finished under a %.0f ms timeout" sql bound_ms
      | Error err -> err
    in
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    Engine.set_statement_timeout e 0.;
    Alcotest.(check bool)
      (Printf.sprintf "killed with Timeout [got %s]" (Err.kind_label err.Err.kind))
      true
      (err.Err.kind = Err.Timeout);
    Alcotest.(check bool)
      (Printf.sprintf "killed within 2x bound (%.0f ms <= %.0f ms)" elapsed_ms
         (2. *. bound_ms))
      true
      (elapsed_ms <= 2. *. bound_ms)
  in
  [
    case "fault schedule identical across batch sizes 1/7/1024"
      (fun () ->
        let outcomes ~batch_rows =
          let e = engine () in
          Perm_workload.Forum.load_scaled e ~messages:100 ~users:5 ();
          Engine.set_parallel e Engine.Par_off;
          Engine.set_batch_rows e batch_rows;
          Fault.reset ();
          Fault.set_seed seed;
          List.iter (fun p -> Fault.set p 0.3) all_points;
          let kinds =
            List.map
              (fun sql ->
                match Engine.execute_err e sql with
                | Ok _ -> "ok"
                | Error err -> Err.kind_label err.Err.kind)
              (battery_queries @ battery_queries)
          in
          let injected = Fault.injections () in
          Fault.reset ();
          (kinds, injected)
        in
        let first = outcomes ~batch_rows:1 in
        List.iter
          (fun n ->
            Alcotest.(check (pair (list string) int))
              (Printf.sprintf "batch_rows=%d replays the batch_rows=1 schedule" n)
              first (outcomes ~batch_rows:n))
          [ 7; 1024 ]);
    case "timeout on the serial batch path: killed within 2x at batch bounds"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:400 ~users:3 ();
        Engine.set_parallel e Engine.Par_off;
        Engine.set_batch_rows e 64;
        expect_timeout e ~bound_ms:250.
          "SELECT m1.mid + m2.mid + m3.mid FROM messages m1, messages m2, \
           messages m3";
        (* session still healthy on the same path *)
        ignore (query_ok e "SELECT count(*) FROM messages"));
    case "timeout on the parallel batch path: pool drains and survives"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:3000 ~users:3 ();
        go_parallel e;
        Engine.set_batch_rows e 64;
        (* no equi-keys: nested loops over cross products, the second
           testing each of 3M pairs against every message *)
        expect_timeout e ~bound_ms:400.
          "SELECT PROVENANCE m1.text, m3.text FROM messages m1, messages m2, \
           messages m3 WHERE m1.uid - m2.uid = 0 AND m2.mid - m3.mid = 0";
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        Alcotest.(check int) "pool reused after the kill" domains
          (Engine.pool_size e);
        Engine.close e);
  ]

let () =
  Alcotest.run "chaos"
    [
      ("points", suite_points);
      ("sweep", suite_sweep);
      ("integrity", suite_integrity);
      ("determinism", suite_determinism);
      ("batch", suite_batch);
    ]
