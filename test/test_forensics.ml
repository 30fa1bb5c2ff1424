(* The flight recorder and anomaly forensics plane.

   Acceptance bar: every anomaly class the engine knows — typed error,
   timeout, manual cancel, resource exhaustion, injected fault, watchdog
   regression, parallel-to-serial degradation and startup WAL replay —
   must produce a bundle that {!Perm_obs.Bundle_schema} accepts, with the
   class the scenario expects. Plus the recorder ring's own invariants
   (wait-free wrap-around, resize, disable) and the bundle store's
   retention, disk mirroring and SQL surface. *)

module Engine = Perm_engine.Engine
module Recorder = Perm_obs.Recorder
module Bundle_schema = Perm_obs.Bundle_schema
module Json = Perm_obs.Json
module Metrics = Perm_obs.Metrics
module Err = Perm_err
module Fault = Perm_fault
open Perm_testkit.Kit

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let forum_scaled ?(messages = 300) ?(users = 3) () =
  let e = engine () in
  Perm_workload.Forum.load_scaled e ~messages ~users ();
  e

let go_parallel e =
  Engine.set_parallel e (Engine.Par_domains 2);
  Engine.set_parallel_threshold e 1;
  Engine.set_batch_rows e (min (Engine.batch_rows e) 64)

(* The shared assertion: the newest bundle exists, validates against the
   schema, and carries the class the scenario was built to produce. *)
let check_last_bundle ?(msg = "") e expected_class =
  match Engine.Forensics.last e with
  | None -> Alcotest.failf "%s: no bundle captured" expected_class
  | Some doc -> (
    match Bundle_schema.validate doc with
    | Error why ->
      Alcotest.failf "%s: bundle fails schema: %s%s" expected_class why msg
    | Ok cls ->
      Alcotest.(check string)
        (expected_class ^ " bundle class" ^ msg)
        expected_class cls;
      doc |> ignore);
  List.hd (Engine.Forensics.list e)

(* ------------------------------------------------------------------ *)
(* The recorder ring itself                                            *)
(* ------------------------------------------------------------------ *)

let suite_recorder =
  [
    case "bounded ring: wrap-around keeps the newest tail" (fun () ->
        let r = Recorder.create ~capacity:8 () in
        for i = 1 to 20 do
          Recorder.record r (Recorder.Note { tag = "t"; detail = string_of_int i })
        done;
        Alcotest.(check int) "recorded" 20 (Recorder.recorded r);
        Alcotest.(check int) "dropped" 12 (Recorder.dropped r);
        let tail = Recorder.recent r in
        Alcotest.(check int) "tail is the capacity" 8 (List.length tail);
        (* oldest-first, and exactly the last 8 *)
        let details =
          List.map
            (fun ev ->
              match ev.Recorder.ev_payload with
              | Recorder.Note { detail; _ } -> int_of_string detail
              | _ -> -1)
            tail
        in
        Alcotest.(check (list int)) "newest tail in order"
          [ 13; 14; 15; 16; 17; 18; 19; 20 ]
          details);
    case "set_capacity preserves the newest events" (fun () ->
        let r = Recorder.create ~capacity:8 () in
        for i = 1 to 6 do
          Recorder.record r (Recorder.Note { tag = "t"; detail = string_of_int i })
        done;
        Recorder.set_capacity r 4;
        let details =
          List.map
            (fun ev ->
              match ev.Recorder.ev_payload with
              | Recorder.Note { detail; _ } -> int_of_string detail
              | _ -> -1)
            (Recorder.recent r)
        in
        Alcotest.(check (list int)) "kept newest 4" [ 3; 4; 5; 6 ] details;
        (* the seq counter keeps running; new events continue the tail *)
        Recorder.record r (Recorder.Note { tag = "t"; detail = "7" });
        Alcotest.(check int) "still bounded" 4
          (List.length (Recorder.recent r)));
    case "capacity 0 disables recording entirely" (fun () ->
        let r = Recorder.create ~capacity:0 () in
        Alcotest.(check bool) "disabled" false (Recorder.enabled r);
        Recorder.record r (Recorder.Note { tag = "t"; detail = "x" });
        Alcotest.(check int) "nothing recorded" 0 (Recorder.recorded r);
        Alcotest.(check int) "nothing retained" 0
          (List.length (Recorder.recent r)));
    case "concurrent recording from multiple domains never crashes"
      (fun () ->
        let r = Recorder.create ~capacity:64 () in
        let writers =
          List.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for i = 1 to 500 do
                    Recorder.record r
                      (Recorder.Spill
                         { kind = "run"; detail = Printf.sprintf "%d.%d" d i })
                  done))
        in
        (* read while they write: snapshots must always be well-formed *)
        for _ = 1 to 50 do
          let evs = Recorder.recent r in
          Alcotest.(check bool) "bounded snapshot" true
            (List.length evs <= 64);
          let seqs = List.map (fun ev -> ev.Recorder.ev_seq) evs in
          Alcotest.(check (list int)) "sorted snapshot"
            (List.sort compare seqs) seqs
        done;
        List.iter Domain.join writers;
        Alcotest.(check int) "all events counted" 2000 (Recorder.recorded r));
    case "event_to_json carries kind and payload fields" (fun () ->
        let r = Recorder.create ~capacity:4 () in
        Recorder.record r
          (Recorder.Stmt_finish
             { fingerprint = "fp"; ms = 1.5; rows = 3; error = Some "timeout" });
        match Recorder.recent r with
        | [ ev ] ->
          let j = Recorder.event_to_json ev in
          Alcotest.(check (option string)) "kind"
            (Some "stmt_finish")
            (match Json.member "kind" j with
            | Some (Json.String s) -> Some s
            | _ -> None);
          Alcotest.(check (option string)) "error field"
            (Some "timeout")
            (match Json.member "error" j with
            | Some (Json.String s) -> Some s
            | _ -> None)
        | l -> Alcotest.failf "expected 1 event, got %d" (List.length l));
  ]

(* ------------------------------------------------------------------ *)
(* One bundle per anomaly class                                        *)
(* ------------------------------------------------------------------ *)

let suite_classes =
  [
    case "error: analyze failure captures an error bundle" (fun () ->
        let e = forum_engine () in
        ignore (query_err e "SELECT broken FROM nowhere");
        let s = check_last_bundle e "error" in
        Alcotest.(check bool) "detail carries the message" true
          (contains ~needle:"nowhere" s.Engine.Forensics.fs_detail);
        Alcotest.(check string) "sql preserved" "SELECT broken FROM nowhere"
          s.Engine.Forensics.fs_sql;
        Engine.close e);
    case "timeout: governor kill captures a timeout bundle" (fun () ->
        let e = forum_scaled () in
        Engine.set_statement_timeout e 0.00001;
        ignore
          (query_err e
             "SELECT m1.mid + m2.mid FROM messages m1, messages m2");
        Engine.set_statement_timeout e 0.;
        ignore (check_last_bundle e "timeout");
        Engine.close e);
    case "cancelled: manual cancel captures a cancelled bundle" (fun () ->
        let e = forum_scaled ~messages:400 () in
        Engine.set_statement_timeout e 60_000.;
        let canceller =
          Domain.spawn (fun () ->
              Unix.sleepf 0.05;
              Engine.cancel e "killed by forensics test")
        in
        ignore
          (query_err e
             "SELECT m1.mid + m2.mid + m3.mid FROM messages m1, messages \
              m2, messages m3");
        Domain.join canceller;
        Engine.set_statement_timeout e 0.;
        ignore (check_last_bundle e "cancelled");
        Engine.close e);
    case "resource_exhausted: row_limit kill captures a bundle" (fun () ->
        let e = forum_scaled () in
        Engine.set_row_limit e 10;
        ignore (query_err e "SELECT * FROM messages");
        Engine.set_row_limit e 0;
        ignore (check_last_bundle e "resource_exhausted");
        Engine.close e);
    case "fault: injected fault captures a fault bundle" (fun () ->
        let e = forum_engine () in
        Fault.set "heap.scan" 1.0;
        ignore (query_err e "SELECT * FROM messages");
        Fault.reset ();
        let s = check_last_bundle e "fault" in
        Alcotest.(check bool) "detail names the point" true
          (contains ~needle:"heap.scan" s.Engine.Forensics.fs_detail);
        Engine.close e);
    case "regression: watchdog verdict captures a regression bundle"
      (fun () ->
        let e = forum_engine () in
        let sql = "SELECT text FROM messages WHERE mid = 1" in
        for _ = 1 to 3 do
          ignore (query_ok e sql)
        done;
        (* an index flips the structural plan hash — the watchdog's
           plan-change detector fires regardless of timing noise *)
        ignore (exec_ok e "CREATE INDEX idx_fmid ON messages(mid)");
        ignore (query_ok e sql);
        let s = check_last_bundle e "regression" in
        Alcotest.(check bool) "detail attributes the cause" true
          (contains ~needle:"plan" s.Engine.Forensics.fs_detail);
        Engine.close e);
    case "degraded: poisoned parallel run captures a degraded bundle"
      (fun () ->
        let e = forum_scaled () in
        go_parallel e;
        Fault.set "pool.dispatch" 1.0;
        (* the statement still succeeds — on the serial retry — so only
           the forensics plane knows anything went wrong *)
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        Fault.reset ();
        let s = check_last_bundle e "degraded" in
        Alcotest.(check bool) "detail names the degradation" true
          (contains ~needle:"serial" s.Engine.Forensics.fs_detail);
        Engine.close e);
    case "wal_replay: startup recovery captures a wal_replay bundle"
      (fun () ->
        let dir = temp_dir "perm_forensics_wal" in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let e1 = engine () in
        ignore (Engine.enable_wal e1 dir);
        ignore (exec_ok e1 "CREATE TABLE t (a INT)");
        ignore (exec_ok e1 "INSERT INTO t VALUES (1), (2)");
        Alcotest.(check bool) "no replay bundle on a fresh log" true
          (Engine.Forensics.last e1 = None);
        Engine.close e1;
        let e2 = engine () in
        (match Engine.enable_wal e2 dir with
        | Ok rp ->
          Alcotest.(check bool) "something was replayed" true
            (rp.Perm_wal.rp_records > 0 || rp.Perm_wal.rp_snapshot)
        | Error err -> Alcotest.failf "reopen failed: %s" (Err.to_string err));
        let s = check_last_bundle e2 "wal_replay" in
        Alcotest.(check bool) "detail summarizes the replay" true
          (contains ~needle:"replay" s.Engine.Forensics.fs_detail);
        check_count e2 "SELECT * FROM t" 2;
        Engine.close e2);
  ]

(* ------------------------------------------------------------------ *)
(* Bundle content and store behavior                                   *)
(* ------------------------------------------------------------------ *)

let suite_store =
  [
    case "bundle carries plan, metrics delta, events and settings"
      (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        (* a query that runs, then an error on the same session: the error
           bundle's event tail must include the earlier statement too *)
        ignore (query_ok e "SELECT text FROM messages WHERE mid = 1");
        ignore (query_err e "SELECT broken FROM nowhere");
        let doc =
          match Engine.Forensics.last e with
          | Some d -> d
          | None -> Alcotest.fail "no bundle"
        in
        (match Json.member "metrics_delta" doc with
        | Some (Json.Obj fields) ->
          (* the failing statement itself is in the delta *)
          (match List.assoc_opt "engine.errors" fields with
          | Some (Json.Float d) ->
            Alcotest.(check (float 0.)) "error delta" 1. d
          | _ -> Alcotest.fail "engine.errors missing from delta")
        | _ -> Alcotest.fail "metrics_delta missing");
        (match Json.member "events" doc with
        | Some (Json.List evs) ->
          Alcotest.(check bool) "event tail present" true
            (List.length evs >= 2);
          let kinds =
            List.filter_map
              (fun ev ->
                match Json.member "kind" ev with
                | Some (Json.String k) -> Some k
                | _ -> None)
              evs
          in
          Alcotest.(check bool) "stmt_start recorded" true
            (List.mem "stmt_start" kinds);
          Alcotest.(check bool) "stmt_finish recorded" true
            (List.mem "stmt_finish" kinds)
        | _ -> Alcotest.fail "events missing");
        (match Json.member "settings" doc with
        | Some (Json.Obj fields) ->
          Alcotest.(check bool) "settings carry the governor" true
            (List.mem_assoc "timeout_ms" fields
            && List.mem_assoc "tuple_budget" fields)
        | _ -> Alcotest.fail "settings missing");
        (match Json.member "wal" doc with
        | Some Json.Null -> ()  (* no WAL on this session *)
        | Some (Json.Obj _) -> ()
        | _ -> Alcotest.fail "wal section missing");
        Engine.close e);
    case "plan section has est vs act per node under instrumentation"
      (fun () ->
        let e = forum_engine () in
        Engine.set_instrumentation e true;
        let sql = "SELECT text FROM messages WHERE mid = 1" in
        (* warm the profile for this fingerprint, then fail the same
           statement via a fault so plan rows exist for the bundle *)
        ignore (query_ok e sql);
        Fault.set "heap.scan" 1.0;
        ignore (query_err e sql);
        Fault.reset ();
        let doc =
          match Engine.Forensics.last e with
          | Some d -> d
          | None -> Alcotest.fail "no bundle"
        in
        (match Json.member "plan" doc with
        | Some plan -> (
          match Json.member "nodes" plan with
          | Some (Json.List (n :: _)) ->
            Alcotest.(check bool) "node has operator" true
              (Json.member "operator" n <> None);
            Alcotest.(check bool) "node has est_rows" true
              (Json.member "est_rows" n <> None);
            Alcotest.(check bool) "node has act_rows" true
              (Json.member "act_rows" n <> None)
          | _ -> Alcotest.fail "plan nodes empty")
        | None -> Alcotest.fail "plan missing");
        Engine.close e);
    case "store is bounded: retention trims oldest first" (fun () ->
        let e = forum_engine () in
        Engine.Forensics.set_capacity e 3;
        for i = 1 to 6 do
          ignore (query_err e (Printf.sprintf "SELECT c%d FROM nowhere" i))
        done;
        let bundles = Engine.Forensics.list e in
        Alcotest.(check int) "capacity respected" 3 (List.length bundles);
        (* newest first, ids keep growing *)
        let ids = List.map (fun s -> s.Engine.Forensics.fs_id) bundles in
        Alcotest.(check (list int)) "newest three by id" [ 6; 5; 4 ] ids;
        (* an evicted id is gone *)
        Alcotest.(check bool) "evicted id 404s" true
          (Engine.Forensics.get e 1 = None);
        (* a retained one still resolves *)
        Alcotest.(check bool) "retained id resolves" true
          (Engine.Forensics.get e 5 <> None);
        Engine.close e);
    case "recorder off also disables bundle capture" (fun () ->
        let e = forum_engine () in
        Recorder.set_capacity (Engine.recorder e) 0;
        ignore (query_err e "SELECT broken FROM nowhere");
        Alcotest.(check bool) "no bundle captured" true
          (Engine.Forensics.last e = None);
        Recorder.set_capacity (Engine.recorder e) 512;
        ignore (query_err e "SELECT broken FROM nowhere");
        Alcotest.(check bool) "capture resumes" true
          (Engine.Forensics.last e <> None);
        Engine.close e);
    case "disk mirror writes schema-valid files and prunes" (fun () ->
        let dir = temp_dir "perm_forensics_mirror" in
        Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
        let e = forum_engine () in
        Engine.Forensics.set_capacity e 2;
        Engine.Forensics.set_dir e (Some dir);
        for i = 1 to 4 do
          ignore (query_err e (Printf.sprintf "SELECT d%d FROM nowhere" i))
        done;
        let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
        Alcotest.(check (list string)) "pruned to capacity"
          [ "bundle-000003.json"; "bundle-000004.json" ]
          files;
        List.iter
          (fun f ->
            let body =
              In_channel.with_open_text (Filename.concat dir f)
                In_channel.input_all
            in
            match Bundle_schema.validate_string body with
            | Ok _ -> ()
            | Error why -> Alcotest.failf "%s invalid on disk: %s" f why)
          files;
        Engine.close e);
    case "perm_stat_anomalies is queryable like any relation" (fun () ->
        let e = forum_engine () in
        ignore (query_err e "SELECT broken FROM nowhere");
        Engine.set_row_limit e 1;
        ignore (query_err e "SELECT * FROM messages");
        Engine.set_row_limit e 0;
        check_rows e
          "SELECT class FROM perm_stat_anomalies ORDER BY id"
          [ [ "error" ]; [ "resource_exhausted" ] ];
        (* joins and filters work — it is a real relation *)
        check_count e
          "SELECT id FROM perm_stat_anomalies WHERE class = 'error'" 1;
        Engine.close e);
    case "forensics counters account for captures" (fun () ->
        let e = forum_engine () in
        ignore (query_err e "SELECT broken FROM nowhere");
        ignore (query_err e "SELECT broken FROM nowhere");
        let m = Engine.metrics e in
        Alcotest.(check int) "bundle counter" 2
          (Metrics.counter m "forensics.bundles");
        Alcotest.(check int) "per-class counter" 2
          (Metrics.counter m "forensics.class.error");
        Engine.close e);
  ]

let () =
  Alcotest.run "forensics"
    [
      ("recorder", suite_recorder);
      ("classes", suite_classes);
      ("store", suite_store);
    ]
