(* The session's side of the write-ahead log ({!Perm_wal}): the open log,
   whether commits fsync, whether the log trails the heaps, and whether
   the running transaction has a Begin frame in it. The engine decides
   what a statement logs and where statements and transactions end; this
   module appends the frames, seals, aborts, rebuilds and repairs the
   log, and reports its status. *)

module Wal = Perm_wal
module Json = Perm_obs.Json
module Metrics = Perm_obs.Metrics
module Recorder = Perm_obs.Recorder
module Err = Perm_err

type t = {
  mutable log : Wal.t option;  (* None = in-memory only *)
  mutable fsync : bool;  (* fsync on commit (default); off for benches *)
  mutable dirty : bool;
      (* an append/fsync failed: the log trails the heaps. Logging stops
         and the next top-level statement rebuilds the log from a
         checkpoint before running. *)
  mutable begun : bool;  (* a Begin frame is open in the log *)
  metrics : Metrics.t;
  recorder : Recorder.t;
}

let create ~metrics ~recorder =
  { log = None; fsync = true; dirty = false; begun = false; metrics; recorder }

(* Install a freshly opened (and replayed) log. *)
let install t w =
  t.log <- Some w;
  t.dirty <- false;
  t.begun <- false

let close t =
  Option.iter Wal.close t.log;
  t.log <- None;
  t.dirty <- false;
  t.begun <- false

type status = {
  ws_dir : string;
  ws_bytes : int;
  ws_records : int;
  ws_last_lsn : int;
  ws_fsyncs : int;
  ws_fsync_on : bool;
  ws_dirty : bool;
  ws_epoch : int;
  ws_replay : Wal.replay;
}

let status_of t (s : Wal.status) =
  {
    ws_dir = s.Wal.st_dir;
    ws_bytes = s.Wal.st_bytes;
    ws_records = s.Wal.st_records;
    ws_last_lsn = s.Wal.st_last_lsn;
    ws_fsyncs = s.Wal.st_fsyncs;
    ws_fsync_on = t.fsync;
    ws_dirty = t.dirty;
    ws_epoch = s.Wal.st_epoch;
    ws_replay = s.Wal.st_replay;
  }

let status t = Option.map (fun w -> status_of t (Wal.status w)) t.log

(* The one list of status fields, by name: the JSON of bundles and
   /healthz, and, for its numbers, the wal.* gauges. *)
let fields s =
  let rp = s.ws_replay in
  [
    ("dir", Json.String s.ws_dir);
    ("bytes", Json.Int s.ws_bytes);
    ("records", Json.Int s.ws_records);
    ("last_lsn", Json.Int s.ws_last_lsn);
    ("fsyncs", Json.Int s.ws_fsyncs);
    ("fsync_on", Json.Bool s.ws_fsync_on);
    ("dirty", Json.Bool s.ws_dirty);
    ("epoch", Json.Int s.ws_epoch);
    ( "replay",
      Json.Obj
        [
          ("snapshot", Json.Bool rp.Wal.rp_snapshot);
          ("records", Json.Int rp.Wal.rp_records);
          ("committed", Json.Int rp.Wal.rp_committed);
          ("discarded", Json.Int rp.Wal.rp_discarded);
          ("skipped", Json.Int rp.Wal.rp_skipped);
          ("truncated_bytes", Json.Int rp.Wal.rp_truncated_bytes);
        ] );
  ]

let status_json t =
  match status t with None -> Json.Null | Some s -> Json.Obj (fields s)

(* WAL health as gauges: size/records/fsyncs track log growth between
   checkpoints, the epoch shows checkpoint progression, and the replay
   family preserves what crash recovery found when the log was opened —
   rp_skipped and truncated bytes are the evidence of a mid-checkpoint or
   mid-commit crash. Always published, zeros included: a dashboard
   alerting on wal_replay_truncated_bytes > 0 must see the series exist
   before the first crash, and a WAL-less session reports a flat zero
   family. *)
let refresh_gauges t =
  let zeros =
    {
      Wal.st_dir = "";
      st_bytes = 0;
      st_records = 0;
      st_last_lsn = 0;
      st_fsyncs = 0;
      st_epoch = 0;
      st_replay = Wal.no_replay;
    }
  in
  let rec publish prefix = function
    | name, Json.Int n ->
      Metrics.set_gauge t.metrics (prefix ^ name) (float_of_int n)
    | name, Json.Obj fs -> List.iter (publish (prefix ^ name ^ ".")) fs
    | _ -> ()
  in
  let s = Option.fold t.log ~none:zeros ~some:Wal.status in
  List.iter (publish "wal.") (fields (status_of t s))

let error t = function
  | Perm_fault.Injected p ->
    Metrics.incr t.metrics ("fault.injected." ^ p);
    Recorder.record t.recorder (Recorder.Fault { point = p });
    Error (Err.faulted (Printf.sprintf "fault injected at %s" p))
  | Unix.Unix_error (err, fn, _) ->
    Error (Err.runtime (Printf.sprintf "WAL %s: %s" fn (Unix.error_message err)))
  | Sys_error msg -> Error (Err.runtime ("WAL: " ^ msg))
  | e -> raise e

(* Append one frame, opening the statement's transaction lazily (read-only
   statements never touch the log). Mutations are logged *after* they hit
   the heap, so the frame records what actually happened — including a
   partially applied insert. On an append failure the log is marked dirty:
   logging stops (the heaps are ahead of the log) and the next top-level
   statement rebuilds the log from a checkpoint before running. *)
let append t frame =
  match t.log with
  | None -> ()
  | Some w ->
    if not t.dirty then begin
      try
        if not t.begun then begin
          t.begun <- true;
          Wal.append w Wal.Begin;
          Recorder.record t.recorder (Recorder.Wal_append { frame = "begin" })
        end;
        Wal.append w frame;
        Recorder.record t.recorder
          (Recorder.Wal_append { frame = Wal.frame_label frame })
      with e ->
        t.dirty <- true;
        Metrics.incr t.metrics "wal.append.errors";
        raise e
    end

(* Compact the log into a snapshot of the current heaps ([snapshot ()]:
   the dump script and the provenance-column metadata). Also the repair
   path for a dirty log: the snapshot is taken from the heaps, which are
   authoritative, so afterwards log and heaps agree again. *)
let rebuild t w ~snapshot =
  let checkpoint ok =
    Recorder.record t.recorder
      (Recorder.Wal_checkpoint { epoch = (Wal.status w).Wal.st_epoch; ok })
  in
  match
    let snapshot_sql, prov = snapshot () in
    Wal.checkpoint w ~snapshot_sql ~prov
  with
  | () ->
    t.dirty <- false;
    t.begun <- false;
    Metrics.incr t.metrics "wal.checkpoints";
    checkpoint true;
    Ok ()
  | exception e ->
    Metrics.incr t.metrics "wal.checkpoint.errors";
    checkpoint false;
    error t e

let checkpoint t ~snapshot =
  match t.log with
  | None -> Error (Err.runtime "WAL is not enabled")
  | Some w -> rebuild t w ~snapshot

(* Dirty-log repair, run before each top-level statement outside a
   transaction. Deliberately not run at statement end — a crash right
   after the fault must leave the torn log for recovery to discard, not
   a freshly repaired one. *)
let repair t ~snapshot =
  match t.log with
  | Some w when t.dirty -> (
    match rebuild t w ~snapshot with
    | Ok () -> Metrics.incr t.metrics "wal.repairs"
    | Error _ -> (* still dirty; logging stays off, retried next statement *) ())
  | _ -> ()

(* Append Commit and make it durable (fsync unless [\set wal_fsync off]).
   On failure the log is dirty: the Commit may or may not have hit the
   platter, and the next repair rebuilds from the heaps either way. *)
let commit t w =
  match
    Wal.append w Wal.Commit;
    if t.fsync then Wal.fsync w
  with
  | () ->
    t.begun <- false;
    Recorder.record t.recorder (Recorder.Wal_append { frame = "commit" });
    if t.fsync then
      Recorder.record t.recorder
        (Recorder.Wal_fsync { fsyncs = (Wal.status w).Wal.st_fsyncs });
    Ok ()
  | exception e ->
    t.dirty <- true;
    t.begun <- false;
    Metrics.incr t.metrics "wal.append.errors";
    error t e

(* Statement-boundary commit, outside explicit transactions. A dirty log
   is left for the next statement's repair. *)
let seal_statement t =
  match t.log with
  | Some w when t.begun && not t.dirty -> commit t w
  | _ -> Ok ()

(* COMMIT of an explicit transaction: the heaps hold exactly the committed
   state here, so a dirty log is rebuilt from them on the spot. *)
let seal_transaction t ~snapshot =
  match t.log with
  | None -> Ok ()
  | Some w ->
    if t.dirty then rebuild t w ~snapshot
    else if not t.begun then Ok ()
    else commit t w

(* ROLLBACK: the Abort frame is advisory (replay discards unsealed frames
   anyway), so failures here only mark the log dirty. *)
let abort t =
  match t.log with
  | Some w when t.begun ->
    t.begun <- false;
    if not t.dirty then (
      try Wal.append w Wal.Abort
      with _ ->
        t.dirty <- true;
        Metrics.incr t.metrics "wal.append.errors")
  | _ -> ()
