(* Durability suite: the write-ahead log end to end.

   The contract under test (DESIGN §13): whatever [Engine.execute_err]
   reported as committed is reconstructed byte-for-byte by replaying the
   log into a fresh engine — after a clean close, after a checkpoint,
   after truncating a torn tail at EVERY byte offset of the final record,
   and after an in-process "kill" (the engine is abandoned mid-fault and
   never repairs its log). Faults injected during replay surface as
   [Error] and leave the pre-replay state untouched. *)

module Engine = Perm_engine.Engine
module Wal = Perm_wal
module Value = Perm_value.Value
module Err = Perm_err
module Fault = Perm_fault
open Perm_testkit.Kit

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let enable_ok e dir =
  match Engine.enable_wal e dir with
  | Ok rp -> rp
  | Error err -> Alcotest.failf "enable_wal %s: %s" dir (Err.to_string err)

let recovered_dump dir =
  let e = engine () in
  let rp = enable_ok e dir in
  let dump = Engine.dump_sql e in
  Engine.close e;
  (dump, rp)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  (* IEEE 802.3 check value for the standard 9-byte test vector *)
  Alcotest.(check int) "crc32 check value" 0xCBF43926 (Wal.crc32 "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Wal.crc32 "")

let sample_frames =
  [
    Wal.Begin;
    Wal.Commit;
    Wal.Abort;
    Wal.Create "CREATE TABLE t (k INTEGER);";
    Wal.Drop "DROP TABLE t;";
    Wal.Insert ("t", []);
    Wal.Insert
      ( "t",
        [
          [| Value.Int min_int; Value.Text ""; Value.Null |];
          [| Value.Float 1.5; Value.Bool true; Value.Date 738000 |];
          [| Value.Text "quote ' and \xff\x00 bytes"; Value.Int (-1) |];
        ] );
    Wal.Delete "t";
    Wal.Replace ("t", [ [| Value.Float nan |]; [| Value.Float infinity |] ]);
    Wal.Prov ("t", [ "p_t_k"; "p_t_v" ]);
    Wal.Prov ("t", []);
  ]

let test_codec_roundtrip () =
  List.iter
    (fun f ->
      match Wal.decode_frame (Wal.encode_frame f) with
      | Some g ->
        (* structural compare treats nan = nan, unlike (=) *)
        if compare f g <> 0 then Alcotest.fail "frame did not round-trip"
      | None -> Alcotest.fail "round-trip decode returned None")
    sample_frames;
  Alcotest.(check bool) "empty payload rejected" true (Wal.decode_frame "" = None);
  Alcotest.(check bool) "bad tag rejected" true (Wal.decode_frame "\xee" = None);
  Alcotest.(check bool) "trailing byte rejected" true
    (Wal.decode_frame (Wal.encode_frame Wal.Begin ^ "x") = None);
  (* a truncated Insert payload must decode to None, not raise *)
  let enc = Wal.encode_frame (Wal.Insert ("t", [ [| Value.Int 7 |] ])) in
  for len = 0 to String.length enc - 1 do
    Alcotest.(check bool) "truncated payload rejected" true
      (Wal.decode_frame (String.sub enc 0 len) = None)
  done

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let test_empty_log () =
  let dir = temp_dir "perm_wal_empty" in
  let e = engine () in
  let rp = enable_ok e dir in
  Alcotest.(check bool) "no snapshot" false rp.Wal.rp_snapshot;
  Alcotest.(check int) "no records" 0 rp.Wal.rp_records;
  Alcotest.(check int) "no commits" 0 rp.Wal.rp_committed;
  Alcotest.(check bool) "status present" true (Engine.wal_status e <> None);
  (match Engine.wal_status e with
  | Some ws ->
    Alcotest.(check int) "log is just the magic" (String.length Wal.magic)
      ws.Engine.ws_bytes
  | None -> ());
  Engine.close e;
  rm_rf dir

let workload_statements =
  [
    "CREATE TABLE t (k INTEGER, v TEXT);";
    "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');";
    "CREATE INDEX t_k ON t (k);";
    "UPDATE t SET v = 'B' WHERE k = 2;";
    "DELETE FROM t WHERE k = 3;";
    "INSERT INTO t SELECT k + 10, v FROM t;";
    "CREATE VIEW big AS SELECT k FROM t WHERE k > 5;";
  ]

let test_clean_roundtrip () =
  let dir = temp_dir "perm_wal_clean" in
  let e = engine () in
  ignore (enable_ok e dir);
  exec_all e workload_statements;
  let dump = Engine.dump_sql e in
  Engine.close e;
  let recovered, rp = recovered_dump dir in
  Alcotest.(check string) "replayed state = committed state" dump recovered;
  Alcotest.(check int) "every statement committed"
    (List.length workload_statements)
    rp.Wal.rp_committed;
  Alcotest.(check int) "nothing discarded" 0 rp.Wal.rp_discarded;
  rm_rf dir

(* Truncate the log at every byte offset and replay: the recovered state
   must equal the newest statement whose commit record fully survived. *)
let test_torn_tail_every_offset () =
  let dir = temp_dir "perm_wal_torn" in
  let e = engine () in
  ignore (enable_ok e dir);
  let empty_dump = Engine.dump_sql e in
  let log_bytes () =
    match Engine.wal_status e with
    | Some ws -> ws.Engine.ws_bytes
    | None -> Alcotest.fail "wal_status"
  in
  (* (log size after the statement sealed, dump at that boundary) *)
  let boundaries =
    (log_bytes (), empty_dump)
    :: List.map
         (fun sql ->
           ignore (exec_ok e sql);
           (log_bytes (), Engine.dump_sql e))
         [
           "CREATE TABLE t (k INTEGER, v TEXT);";
           "INSERT INTO t VALUES (1, 'a'), (2, 'b');";
           "INSERT INTO t VALUES (3, 'c');";
         ]
  in
  let log = In_channel.with_open_bin (Filename.concat dir "wal.log")
      In_channel.input_all in
  Engine.close e;
  let total = String.length log in
  Alcotest.(check int) "boundary bookkeeping" total
    (fst (List.nth boundaries (List.length boundaries - 1)));
  let expected_at offset =
    (* newest boundary at or below the cut *)
    List.fold_left
      (fun acc (bytes, dump) -> if bytes <= offset then dump else acc)
      empty_dump boundaries
  in
  for offset = String.length Wal.magic to total do
    let d = temp_dir "perm_wal_cut" in
    Out_channel.with_open_bin (Filename.concat d "wal.log") (fun oc ->
        Out_channel.output_string oc (String.sub log 0 offset));
    let recovered, rp = recovered_dump d in
    Alcotest.(check string)
      (Printf.sprintf "cut at byte %d/%d" offset total)
      (expected_at offset) recovered;
    if offset = total - 1 then
      (* definitely mid-record: the torn bytes must have been chopped *)
      Alcotest.(check bool) "torn tail truncated" true
        (rp.Wal.rp_truncated_bytes > 0);
    rm_rf d
  done;
  rm_rf dir

let noop_apply =
  {
    Wal.ap_sql = (fun _ -> Ok ());
    ap_insert = (fun _ _ -> Ok ());
    ap_truncate = (fun _ -> Ok ());
    ap_replace = (fun _ _ -> Ok ());
    ap_prov = (fun _ _ -> Ok ());
  }

let test_duplicate_commit () =
  let dir = temp_dir "perm_wal_dup" in
  (match Wal.open_ ~dir ~apply:noop_apply with
  | Error msg -> Alcotest.failf "open: %s" msg
  | Ok (w, _) ->
    Wal.append w Wal.Begin;
    Wal.append w (Wal.Insert ("t", [ [| Value.Int 1 |] ]));
    Wal.append w Wal.Commit;
    Wal.append w Wal.Commit;
    (* crash-landed duplicate *)
    Wal.fsync w;
    Wal.close w);
  let inserted = ref 0 in
  let counting =
    { noop_apply with Wal.ap_insert = (fun _ rows ->
          inserted := !inserted + List.length rows;
          Ok ()) }
  in
  (match Wal.open_ ~dir ~apply:counting with
  | Error msg -> Alcotest.failf "reopen: %s" msg
  | Ok (w, rp) ->
    Alcotest.(check int) "one transaction, not two" 1 rp.Wal.rp_committed;
    Alcotest.(check int) "rows applied once" 1 !inserted;
    Alcotest.(check int) "all four records scanned" 4 rp.Wal.rp_records;
    Wal.close w);
  rm_rf dir

let test_replay_fault () =
  Fault.reset ();
  let dir = temp_dir "perm_wal_rfault" in
  let e = engine () in
  ignore (enable_ok e dir);
  exec_all e
    [ "CREATE TABLE t (k INTEGER);"; "INSERT INTO t VALUES (1), (2);" ];
  Engine.close e;
  Fault.reset ();
  Fault.set_seed 7;
  Fault.set "wal.replay" 1.0;
  let e2 = engine () in
  (match Engine.enable_wal e2 dir with
  | Ok _ -> Alcotest.fail "replay should fail under wal.replay"
  | Error err ->
    Alcotest.(check string) "fault surfaces as Faulted" "faulted"
      (Err.kind_label err.Err.kind));
  Alcotest.(check bool) "failed replay leaves no WAL installed" false
    (Engine.wal_enabled e2);
  Alcotest.(check bool) "failed replay leaves the catalog untouched" true
    (Engine.execute e2 "SELECT * FROM t;" |> Result.is_error);
  Fault.reset ();
  let rp = enable_ok e2 dir in
  Alcotest.(check int) "retry replays both statements" 2 rp.Wal.rp_committed;
  check_rows e2 "SELECT k FROM t;" [ [ "1" ]; [ "2" ] ];
  Engine.close e2;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let test_checkpoint () =
  Fault.reset ();
  let dir = temp_dir "perm_wal_ckpt" in
  let e = engine () in
  ignore (enable_ok e dir);
  Perm_workload.Forum.load e;
  ignore
    (exec_ok e
       "STORE PROVENANCE SELECT text FROM messages INTO msg_prov;");
  let dump = Engine.dump_sql e in
  let prov = Engine.provenance_columns e "msg_prov" in
  Alcotest.(check bool) "provenance metadata recorded" true (prov <> None);
  (match Engine.checkpoint e with
  | Ok () -> ()
  | Error err -> Alcotest.failf "checkpoint: %s" (Err.to_string err));
  Alcotest.(check string) "checkpoint preserves state" dump (Engine.dump_sql e);
  (match Engine.wal_status e with
  | Some ws ->
    Alcotest.(check bool) "log compacted" true
      (ws.Engine.ws_bytes < 4096)
  | None -> Alcotest.fail "wal_status");
  Alcotest.(check bool) "snapshot written" true
    (Sys.file_exists (Filename.concat dir "snapshot.sql"));
  Engine.close e;
  let e2 = engine () in
  let rp = enable_ok e2 dir in
  Alcotest.(check bool) "reopen applies the snapshot" true rp.Wal.rp_snapshot;
  Alcotest.(check string) "snapshot + prov txn restore everything" dump
    (Engine.dump_sql e2);
  Alcotest.(check (option (list string))) "provenance metadata survives" prov
    (Engine.provenance_columns e2 "msg_prov");
  Engine.close e2;
  rm_rf dir

let test_checkpoint_in_txn_refused () =
  let dir = temp_dir "perm_wal_ckpt_txn" in
  let e = engine () in
  ignore (enable_ok e dir);
  exec_all e [ "CREATE TABLE t (k INTEGER);"; "BEGIN;" ];
  Alcotest.(check bool) "checkpoint inside a transaction is refused" true
    (Result.is_error (Engine.checkpoint e));
  ignore (exec_ok e "COMMIT;");
  Alcotest.(check bool) "checkpoint after commit succeeds" true
    (Result.is_ok (Engine.checkpoint e));
  Engine.close e;
  rm_rf dir

(* The review scenario: a crash inside the checkpoint protocol must
   recover to exactly the committed state — in particular a crash between
   snapshot publish and log truncation must not replay the stale log on
   top of the new snapshot (silent row duplication / duplicate CREATE). *)
let checkpoint_crash_window point =
  Fault.reset ();
  let dir = temp_dir "perm_wal_ckpt_crash" in
  let e = engine () in
  ignore (enable_ok e dir);
  exec_all e workload_statements;
  let dump = Engine.dump_sql e in
  Fault.set_seed 11;
  Fault.set point 1.0;
  (match Engine.checkpoint e with
  | Ok () -> Alcotest.failf "%s: checkpoint should fail under the fault" point
  | Error err ->
    Alcotest.(check string)
      (Printf.sprintf "%s surfaces as Faulted" point)
      "faulted"
      (Err.kind_label err.Err.kind));
  (* the crash: abandon the engine with the checkpoint half-done *)
  Fault.reset ();
  let recovered, rp = recovered_dump dir in
  Alcotest.(check string)
    (Printf.sprintf "%s: recovery is exactly the committed state" point)
    dump recovered;
  (if point = "wal.checkpoint.truncate" then begin
     (* snapshot landed, log did not shrink: replay must have skipped the
        records the snapshot already contains *)
     Alcotest.(check bool) "new snapshot applied" true rp.Wal.rp_snapshot;
     Alcotest.(check bool) "stale records skipped, not re-applied" true
       (rp.Wal.rp_skipped > 0)
   end);
  rm_rf dir

let test_checkpoint_crash_windows () =
  List.iter checkpoint_crash_window
    [ "wal.checkpoint.mark"; "wal.checkpoint.publish"; "wal.checkpoint.truncate" ]

(* Keep RUNNING through a truncate-window crash: commits appended after
   the failed checkpoint land past the epoch marker, so recovery applies
   snapshot + marker-skip + the new transactions, exactly once each. A
   later successful checkpoint (epoch + 1) must compact it all away. *)
let test_checkpoint_crash_then_continue () =
  Fault.reset ();
  let dir = temp_dir "perm_wal_ckpt_cont" in
  let e = engine () in
  ignore (enable_ok e dir);
  exec_all e workload_statements;
  Fault.set_seed 11;
  Fault.set "wal.checkpoint.truncate" 1.0;
  Alcotest.(check bool) "checkpoint fails under the fault" true
    (Result.is_error (Engine.checkpoint e));
  Fault.reset ();
  exec_all e
    [
      "INSERT INTO t VALUES (21, 'post');";
      "UPDATE t SET v = 'P' WHERE k = 21;";
    ];
  let dump2 = Engine.dump_sql e in
  let recovered, rp = recovered_dump dir in
  Alcotest.(check string) "post-crash commits survive, applied once" dump2
    recovered;
  Alcotest.(check bool) "stale prefix skipped" true (rp.Wal.rp_skipped > 0);
  (* now a clean checkpoint on the recovered lineage *)
  let e2 = engine () in
  ignore (enable_ok e2 dir);
  (match Engine.checkpoint e2 with
  | Ok () -> ()
  | Error err -> Alcotest.failf "second checkpoint: %s" (Err.to_string err));
  ignore (exec_ok e2 "INSERT INTO t VALUES (22, 'post2');");
  let dump3 = Engine.dump_sql e2 in
  let recovered3, rp3 = recovered_dump dir in
  Alcotest.(check string) "epoch advances cleanly" dump3 recovered3;
  Alcotest.(check int) "nothing left to skip" 0 rp3.Wal.rp_skipped;
  Engine.close e2;
  Engine.close e;
  rm_rf dir

let test_enable_on_existing_state () =
  let dir = temp_dir "perm_wal_adopt" in
  let e = engine () in
  exec_all e
    [ "CREATE TABLE t (k INTEGER);"; "INSERT INTO t VALUES (1), (2), (3);" ];
  let dump = Engine.dump_sql e in
  ignore (enable_ok e dir);
  (* pre-existing state must be checkpointed immediately, not lost *)
  Engine.close e;
  let recovered, rp = recovered_dump dir in
  Alcotest.(check bool) "adoption wrote a snapshot" true rp.Wal.rp_snapshot;
  Alcotest.(check string) "pre-WAL state survives recovery" dump recovered;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* What a write leaves, before and after replay                        *)
(* ------------------------------------------------------------------ *)

(* [stmt] over [rows] of [t (k float, v int)] reports [affected] and
   leaves [expect], live and after replay. The predicate tells 0.0 from
   -0.0, which are one key but two stored rows: a DELETE or UPDATE must
   take out exactly the rows it matched. *)
let check_exact_dml ~rows ~stmt ~affected ~expect () =
  let dir = temp_dir "perm_wal_dml" in
  let e = engine () in
  ignore (enable_ok e dir);
  exec_all e [ "CREATE TABLE t (k float, v int)"; "INSERT INTO t VALUES " ^ rows ];
  (match exec_ok e stmt with
  | Engine.Affected n -> Alcotest.(check int) (stmt ^ " [affected]") affected n
  | _ -> Alcotest.failf "%s: expected an affected count" stmt);
  check_rows e "SELECT * FROM t" expect;
  Engine.close e;
  let r = engine () in
  ignore (enable_ok r dir);
  check_rows r "SELECT * FROM t" expect;
  Engine.close r;
  rm_rf dir

let test_delete_exact =
  check_exact_dml ~rows:"(0.0, 1), (-0.0, 1), (1.0, 3)"
    ~stmt:"DELETE FROM t WHERE CAST(k AS text) = '-0'" ~affected:1
    ~expect:[ [ "0.0"; "1" ]; [ "1.0"; "3" ] ]

let test_update_exact =
  check_exact_dml ~rows:"(0.0, 1), (-0.0, 1)"
    ~stmt:"UPDATE t SET v = 9 WHERE CAST(k AS text) = '-0'" ~affected:1
    ~expect:[ [ "0.0"; "1" ]; [ "-0.0"; "9" ] ]

(* Every write leaves each column's distinct count equal to a fresh count
   of the rows, and so does replay. The data holds NULL, NaN, 0.0/-0.0
   and the empty string. *)
let test_distinct_after_writes () =
  let dir = temp_dir "perm_wal_stats" in
  let csv = Filename.temp_file "perm_wal_stats" ".csv" in
  Out_channel.with_open_text csv (fun oc ->
      output_string oc "nan,,7\n-0,\"\",8\n,x,\n0,y,9\n");
  let e = engine () in
  ignore (enable_ok e dir);
  let after sql =
    ignore (exec_ok e sql);
    check_distinct e "t"
  in
  exec_all e [ "CREATE TABLE t (f float, s text, k int)" ];
  after "INSERT INTO t VALUES (-0.0, '', 1)";
  after
    "INSERT INTO t VALUES (CAST('nan' AS float), NULL, 2), (0.0, 'a', NULL), \
     (NULL, '', 3), (CAST('nan' AS float), 'a', 3)";
  after (Printf.sprintf "COPY t FROM '%s'" csv);
  after "DELETE FROM t WHERE k = 2 OR k = 8";
  after "UPDATE t SET s = '', f = -0.0 WHERE k = 3";
  exec_all e [ "BEGIN" ];
  after "INSERT INTO t VALUES (2.5, 'new', 40), (-2.5, 'newer', 41)";
  after "ROLLBACK";
  let expect = strings_of_rows (query_ok e "SELECT * FROM t").Engine.rows in
  Engine.close e;
  let r = engine () in
  ignore (enable_ok r dir);
  check_rows r "SELECT * FROM t" expect;
  check_distinct r "t";
  Engine.close r;
  Sys.remove csv;
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Kill and recover                                                    *)
(* ------------------------------------------------------------------ *)

(* In-process twin of bin/wal_harness.ml: run a deterministic workload
   with a fault point armed, ABANDON the engine at the first injected
   error (the process-kill analogue: no repair, no checkpoint, the torn
   log stays exactly as the crash left it), then recover into a fresh
   engine and compare against the committed-prefix oracle. A wal.fsync
   fault fires after the Commit frame hit the file, so the in-flight
   statement may legitimately survive: the oracle accepts n or n+1. *)

let kill_units = 30

let kill_workload seed =
  let state = ref (seed lxor 0x5deece66d) in
  let rand k =
    state := ((!state * 2685821657736338717) + 1442695040888963) land max_int;
    !state mod k
  in
  List.init kill_units (fun i ->
      if i = 0 then [ "CREATE TABLE t (k INTEGER, v TEXT);" ]
      else
        let x = rand 1000 in
        match rand 10 with
        | 0 | 1 ->
          [
            "BEGIN;";
            Printf.sprintf "INSERT INTO t VALUES (%d, 'a%d');" x x;
            Printf.sprintf "INSERT INTO t VALUES (%d, 'b%d');" (x + 1000) x;
            "COMMIT;";
          ]
        | 2 -> [ Printf.sprintf "DELETE FROM t WHERE k %% 11 = %d;" (x mod 11) ]
        | 3 ->
          [ Printf.sprintf "UPDATE t SET v = 'u%d' WHERE k %% 7 = %d;" x (x mod 7) ]
        | _ ->
          [
            Printf.sprintf "INSERT INTO t VALUES (%d, 'r%d'), (%d, 'r%d');" x x
              (x + 100) x;
          ])

let oracle_dump seed k =
  let e = engine () in
  List.iteri
    (fun i unit_stmts -> if i < k then exec_all e unit_stmts)
    (kill_workload seed);
  let dump = Engine.dump_sql e in
  Engine.close e;
  dump

let kill_and_recover point seed =
  let dir = temp_dir "perm_wal_kill" in
  let e = engine () in
  ignore (enable_ok e dir);
  Fault.reset ();
  Fault.set_seed seed;
  Fault.set point 0.1;
  let acked = ref 0 in
  let crashed = ref false in
  (try
     List.iter
       (fun unit_stmts ->
         List.iter
           (fun sql ->
             match Engine.execute_err e sql with
             | Ok _ -> ()
             | Error err ->
               Alcotest.(check string)
                 (Printf.sprintf "%s/%d: only injected faults may fail" point seed)
                 "faulted"
                 (Err.kind_label err.Err.kind);
               crashed := true;
               raise Exit)
           unit_stmts;
         incr acked;
         (* periodic compaction keeps the checkpoint fault points in the
            schedule; a checkpoint crash is a kill like any other, and
            changes no committed state, so the oracle is unaffected *)
         if !acked mod 7 = 0 then
           match Engine.checkpoint e with
           | Ok () -> ()
           | Error err ->
             Alcotest.(check string)
               (Printf.sprintf "%s/%d: only injected faults may fail" point seed)
               "faulted"
               (Err.kind_label err.Err.kind);
             crashed := true;
             raise Exit)
       (kill_workload seed)
   with Exit -> ());
  (* the crash: never close, never repair — the engine is simply gone *)
  Fault.reset ();
  let recovered, _ = recovered_dump dir in
  let n = !acked in
  let ok =
    String.equal recovered (oracle_dump seed n)
    || (n + 1 <= kill_units && String.equal recovered (oracle_dump seed (n + 1)))
  in
  if not ok then
    Alcotest.failf "%s seed %d: recovered state matches neither %d nor %d units%s"
      point seed n (n + 1)
      (if !crashed then "" else " (no fault fired)");
  Engine.close e;
  rm_rf dir

let test_kill_and_recover () =
  List.iter
    (fun point ->
      List.iter (fun seed -> kill_and_recover point seed) [ 1; 2; 3; 4 ])
    [
      "wal.append";
      "wal.fsync";
      "engine.commit";
      "wal.checkpoint.mark";
      "wal.checkpoint.publish";
      "wal.checkpoint.truncate";
    ];
  Fault.reset ()

(* The wal.* gauges are set only when the status moved; after every
   kind of change, and after a registry reset, they must still read what
   [Engine.wal_status] reports (zeros when the WAL is off). *)
let test_wal_gauges () =
  let module Metrics = Perm_obs.Metrics in
  let dir = temp_dir "perm_wal_gauges" in
  let e = engine () in
  let check what =
    let m = Engine.metrics e in
    let expect =
      match Engine.wal_status e with
      | None -> [ 0; 0; 0; 0; 0 ]
      | Some s ->
        [ s.Engine.ws_bytes; s.Engine.ws_records; s.Engine.ws_last_lsn;
          s.Engine.ws_fsyncs; s.Engine.ws_epoch ]
    in
    let actual =
      List.map
        (fun n ->
          match Metrics.gauge m ("wal." ^ n) with
          | Some v -> int_of_float v
          | None -> Alcotest.failf "%s: wal.%s missing" what n)
        [ "bytes"; "records"; "last_lsn"; "fsyncs"; "epoch" ]
    in
    Alcotest.(check (list int)) what expect actual;
    if Metrics.gauge m "wal.replay.truncated_bytes" = None then
      Alcotest.failf "%s: wal.replay.truncated_bytes missing" what
  in
  ignore (enable_ok e dir);
  ignore @@ exec_ok e "CREATE TABLE t (k INTEGER)";
  check "after create";
  ignore @@ exec_ok e "INSERT INTO t VALUES (1), (2)";
  check "after insert";
  (match Engine.checkpoint e with
  | Ok () -> ()
  | Error err -> Alcotest.failf "checkpoint: %s" (Err.to_string err));
  check "after checkpoint";
  ignore @@ exec_ok e "INSERT INTO t VALUES (3)";
  Metrics.reset (Engine.metrics e);
  ignore @@ exec_ok e "SELECT k FROM t";
  check "after a registry reset";
  Engine.disable_wal e;
  check "after disable_wal";
  ignore @@ exec_ok e "SELECT k FROM t";
  check "a statement after disable_wal";
  Engine.close e;
  rm_rf dir

let () =
  Alcotest.run "wal"
    [
      ( "codec",
        [
          Alcotest.test_case "crc32 check value" `Quick test_crc32;
          Alcotest.test_case "frame round-trip and rejection" `Quick
            test_codec_roundtrip;
        ] );
      ( "replay",
        [
          Alcotest.test_case "empty log" `Quick test_empty_log;
          Alcotest.test_case "clean round-trip" `Quick test_clean_roundtrip;
          Alcotest.test_case "torn tail at every byte offset" `Slow
            test_torn_tail_every_offset;
          Alcotest.test_case "duplicate commit is idempotent" `Quick
            test_duplicate_commit;
          Alcotest.test_case "fault during replay" `Quick test_replay_fault;
        ] );
      ( "writes",
        [
          Alcotest.test_case "delete takes out only the rows it matched" `Quick
            test_delete_exact;
          Alcotest.test_case "update takes out only the rows it matched" `Quick
            test_update_exact;
          Alcotest.test_case "distinct counts after every write" `Quick
            test_distinct_after_writes;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "compaction round-trip" `Quick test_checkpoint;
          Alcotest.test_case "refused inside a transaction" `Quick
            test_checkpoint_in_txn_refused;
          Alcotest.test_case "enable on existing state" `Quick
            test_enable_on_existing_state;
          Alcotest.test_case "crash in every checkpoint window" `Quick
            test_checkpoint_crash_windows;
          Alcotest.test_case "crash mid-checkpoint, then keep running" `Quick
            test_checkpoint_crash_then_continue;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "wal.* gauges follow the status" `Quick
            test_wal_gauges;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "kill and recover (6 points x 4 seeds)" `Slow
            test_kill_and_recover;
        ] );
    ]
