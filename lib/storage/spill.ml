(* Graceful spill-to-disk for memory-hungry operators.

   When the governor's tuple budget would otherwise kill a statement, the
   executor's batch operators degrade instead: sort materializations
   become external merge sorts, hash-join build sides are split into
   budget-sized chunks, and group annotation sorts tagged rows through the
   same external merge, all backed by temp files created here. Only the
   parallel gather, whose join builds are shared by every morsel task,
   does not spill: it raises {!Fallback_needed} and the engine re-runs the
   statement on the serial path (counted by the [fallbacks] counter).

   Files hold marshalled OCaml values, one per [push]; they are private to
   the process and never survive it, so the representation does not need
   to be stable. Counters are process-global atomics surfaced by the
   engine as the [executor.spill.*] metric family. *)

type config = {
  dir : string;  (** temp-file directory; created on first use *)
  threshold : int;  (** max rows an operator may hold in memory *)
}

exception Fallback_needed of string
(** Raised by the parallel gather when a shared join build exceeds
    [threshold]: the engine catches it and retries on the serial path,
    which spills instead of raising. *)

(* ---- process-global accounting ----------------------------------- *)

let n_spills = Atomic.make 0 (* operator instances that spilled *)
let n_runs = Atomic.make 0 (* external-sort run files *)
let n_chunks = Atomic.make 0 (* join build chunks *)
let n_rows = Atomic.make 0 (* values written to spill files *)
let n_bytes = Atomic.make 0 (* bytes written to spill files *)
let n_fallbacks = Atomic.make 0 (* parallel plans re-run serially *)

type counters = {
  c_spills : int;
  c_runs : int;
  c_chunks : int;
  c_rows : int;
  c_bytes : int;
  c_fallbacks : int;
}

let counters () =
  {
    c_spills = Atomic.get n_spills;
    c_runs = Atomic.get n_runs;
    c_chunks = Atomic.get n_chunks;
    c_rows = Atomic.get n_rows;
    c_bytes = Atomic.get n_bytes;
    c_fallbacks = Atomic.get n_fallbacks;
  }

(* Optional process-global event tap: the engine's flight recorder hooks
   in here so spill milestones land in the forensics event ring as they
   happen, not just as end-of-statement counter deltas. The callback must
   be cheap and domain-safe (spill notes fire from worker domains). *)
let observer : (string -> string -> unit) option Atomic.t = Atomic.make None

let set_observer f = Atomic.set observer f

let observe kind detail =
  match Atomic.get observer with None -> () | Some f -> f kind detail

let note_spill () =
  Atomic.incr n_spills;
  observe "spill" ""

let note_run () =
  Atomic.incr n_runs;
  observe "run" ""

let note_chunk () =
  Atomic.incr n_chunks;
  observe "chunk" ""

let note_fallback () =
  Atomic.incr n_fallbacks;
  observe "fallback" ""

(* ---- spill files -------------------------------------------------- *)

(* A file moves through exactly two phases: write-only (push), then
   read-only after [rewind]. Single-domain use only — spilling happens on
   the domain that runs the statement, never in a morsel task. *)
type 'a file = {
  path : string;
  mutable oc : out_channel option;
  mutable ic : in_channel option;
  mutable count : int;
  mutable released : bool;
}

(* Every live file is tracked so an abandoned lazy consumer (e.g. LIMIT
   over a spilled sort) cannot leak temp files past the statement: the
   executor's entry points call [release_all] when the statement
   finishes. The list is per domain, so a statement ending on one domain
   never releases the files of a statement still running on another. *)
let live_key : (unit -> unit) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let release file =
  if not file.released then begin
    file.released <- true;
    (match file.oc with
    | Some oc ->
      close_out_noerr oc;
      file.oc <- None
    | None -> ());
    (match file.ic with
    | Some ic ->
      close_in_noerr ic;
      file.ic <- None
    | None -> ());
    try Sys.remove file.path with Sys_error _ -> ()
  end

let create cfg =
  ensure_dir cfg.dir;
  let path = Filename.temp_file ~temp_dir:cfg.dir "perm_spill_" ".bin" in
  let file =
    { path; oc = Some (open_out_bin path); ic = None; count = 0; released = false }
  in
  let live = Domain.DLS.get live_key in
  live := (fun () -> release file) :: !live;
  file

let push file v =
  match file.oc with
  | Some oc ->
    Marshal.to_channel oc v [];
    file.count <- file.count + 1;
    Atomic.incr n_rows
  | None -> invalid_arg "Spill.push: file is not in its write phase"

let count file = file.count

(* End the write phase and start reading from the beginning. *)
let rewind file =
  (match file.oc with
  | Some oc ->
    let bytes = pos_out oc in
    Atomic.set n_bytes (Atomic.get n_bytes + bytes);
    close_out oc;
    file.oc <- None
  | None -> ());
  (match file.ic with Some ic -> close_in_noerr ic | None -> ());
  file.ic <- Some (open_in_bin file.path)

let next file =
  match file.ic with
  | None -> invalid_arg "Spill.next: file is not in its read phase"
  | Some ic -> ( try Some (Marshal.from_channel ic) with End_of_file -> None)

let release_all () =
  let live = Domain.DLS.get live_key in
  let fs = !live in
  live := [];
  List.iter (fun f -> f ()) fs
