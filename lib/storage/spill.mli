(** Graceful spill-to-disk for memory-hungry operators.

    When the governor's tuple budget would otherwise kill a statement, the
    executor's batch operators degrade gracefully: sorts become external
    merge sorts, hash-join build sides are chunked, and group annotation
    sorts tagged rows externally, all backed by temp files created here.
    Only the parallel gather raises {!Fallback_needed} instead; the engine
    re-runs the plan on the serial path, which spills in place. *)

type config = {
  dir : string;  (** temp-file directory; created on first use *)
  threshold : int;  (** max rows an operator may hold in memory *)
}

exception Fallback_needed of string
(** Raised by the parallel gather when a shared join build exceeds
    [threshold]; the engine catches it and retries serially. *)

(** {1 Process-global accounting} — the [executor.spill.*] metric family *)

type counters = {
  c_spills : int;  (** operator instances that spilled *)
  c_runs : int;  (** external-sort run files written *)
  c_chunks : int;  (** join build chunks *)
  c_rows : int;  (** values written to spill files *)
  c_bytes : int;  (** bytes written to spill files *)
  c_fallbacks : int;  (** parallel plans re-run on the serial path *)
}

val counters : unit -> counters
val note_spill : unit -> unit
val note_run : unit -> unit
val note_chunk : unit -> unit
val note_fallback : unit -> unit

val set_observer : (string -> string -> unit) option -> unit
(** Install (or clear) the process-global spill event tap. Every
    [note_*] call invokes it as [f kind detail] with [kind] one of
    ["spill"], ["run"], ["chunk"], ["fallback"]; the parallel gather
    additionally reports the fallback reason via {!observe}. The
    callback runs on whichever domain spilled — it must be cheap and
    domain-safe. The engine points this at its flight recorder. *)

val observe : string -> string -> unit
(** Feed one event to the installed observer (a no-op without one). *)

(** {1 Spill files}

    Write-only until {!rewind}, read-only after. Values are marshalled;
    files are process-private and removed on {!release}. Single-domain
    use only (the domain running the statement). *)

type 'a file

val create : config -> 'a file
val push : 'a file -> 'a -> unit
val count : 'a file -> int

val rewind : 'a file -> unit
(** End the write phase and start reading from the beginning. *)

val next : 'a file -> 'a option
val release : 'a file -> unit

val release_all : unit -> unit
(** Release every live spill file created on the calling domain — the
    executor's statement-end hook, so abandoned lazy consumers (LIMIT over
    a spilled sort) cannot leak temp files. Files of statements running
    on other domains are left alone. *)
