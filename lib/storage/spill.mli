(** Graceful spill-to-disk for memory-hungry operators.

    A sort, a group annotation and a hash-join build each have one
    in-memory algorithm. When a statement carries a spill configuration
    and the operator's observed input passes [threshold] live rows, the
    operator cuts the input into pieces of at most [threshold] rows and
    runs that same algorithm on each piece. A sort or group annotation
    writes each piece to a temp file as a sorted run and merges the runs;
    a join writes each piece as a build chunk and probes every chunk with
    the in-memory probe over one probe-side file (a Grace join). Inputs
    at or under the threshold never touch this module. Only the parallel
    gather raises {!Fallback_needed} instead; the engine re-runs the plan
    on the serial path, which spills in place.

    Spill activity is reported through the configuration's [note]
    callback, so each engine keeps its own accounting: this module holds
    no process-global counters. *)

(** What an operator reports as it spills. *)
type event =
  | Spilled  (** an operator instance passed the threshold *)
  | Run  (** a sorted run was written *)
  | Chunk  (** a join build chunk was written *)
  | Written of { rows : int; bytes : int }
      (** a spill file ended its write phase holding [rows] rows *)
  | Fallback of string
      (** a parallel plan re-runs serially, for the given reason (the
          engine reports this one when it catches {!Fallback_needed}) *)

type config = {
  dir : string;  (** temp-file directory; created on first use *)
  threshold : int;  (** max rows an operator may hold in memory *)
  note : event -> unit;
      (** called on the domain that runs the statement, once per event *)
}

exception Fallback_needed of string
(** Raised by the parallel gather when a shared join build exceeds
    [threshold]; the engine catches it and retries serially. *)

(** {1 Spill files}

    Write-only until {!rewind}, read-only after. Values are marshalled;
    files are process-private and removed on {!release}. Single-domain
    use only (the domain running the statement). *)

type 'a file

val create : config -> 'a file

val push : ?rows:int -> 'a file -> 'a -> unit
(** Append a value holding [rows] rows (default 1), for the accounting. *)

val rewind : 'a file -> unit
(** End the write phase (reporting {!Written} the first time) and start
    reading from the beginning; rewinding again rereads the file. *)

val next : 'a file -> 'a option
val release : 'a file -> unit

val release_all : unit -> unit
(** Release every live spill file created on the calling domain — the
    executor's statement-end hook, so abandoned lazy consumers (LIMIT over
    a spilled sort) cannot leak temp files. Files of statements running
    on other domains are left alone. *)
