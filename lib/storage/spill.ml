(* Graceful spill-to-disk for memory-hungry operators.

   Sorts, group annotations and hash-join builds keep one in-memory
   algorithm each. Past the threshold they run it on pieces of at most
   [threshold] rows and park each piece here: sorted runs to merge, or
   build chunks for a Grace join. Only the parallel gather, whose join
   builds are shared by every morsel task, does not spill: it raises
   {!Fallback_needed} and the engine re-runs the statement on the serial
   path.

   Files hold marshalled OCaml values, one per [push]; they are private to
   the process and never survive it, so the representation does not need
   to be stable. Accounting goes through the configuration's [note]
   callback, which the engine points at its own counters and recorder. *)

type event =
  | Spilled
  | Run
  | Chunk
  | Written of { rows : int; bytes : int }
  | Fallback of string

type config = { dir : string; threshold : int; note : event -> unit }

exception Fallback_needed of string

(* A file moves through exactly two phases: write-only (push), then
   read-only after [rewind]. Single-domain use only — spilling happens on
   the domain that runs the statement, never in a morsel task. *)
type 'a file = {
  path : string;
  note : event -> unit;
  mutable oc : out_channel option;
  mutable ic : in_channel option;
  mutable rows : int;
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
  (* created and opened in one call: reopening a fresh file with O_TRUNC
     makes some filesystems flush it at close *)
  let path, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:cfg.dir
      "perm_spill_" ".bin"
  in
  let file =
    {
      path;
      note = cfg.note;
      oc = Some oc;
      ic = None;
      rows = 0;
      released = false;
    }
  in
  let live = Domain.DLS.get live_key in
  live := (fun () -> release file) :: !live;
  file

let push ?(rows = 1) file v =
  match file.oc with
  | Some oc ->
    Marshal.to_channel oc v [];
    file.rows <- file.rows + rows
  | None -> invalid_arg "Spill.push: file is not in its write phase"

let rewind file =
  (match file.oc with
  | Some oc ->
    let bytes = pos_out oc in
    close_out oc;
    file.oc <- None;
    file.note (Written { rows = file.rows; bytes })
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
