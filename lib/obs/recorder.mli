(** The always-on flight recorder: a bounded ring of typed events.

    Every subsystem milestone worth a post-mortem — statement lifecycle,
    plan-node cardinalities, WAL appends/fsyncs/checkpoints/replays, spill
    runs and fallbacks, GC major slices, fault firings, governor verdicts,
    watchdog flags, parallel degradations — lands here as a structured
    payload, not a formatted string. It is the session's only event
    stream: the [/events] SSE endpoint tails it ({!since}), the
    slow-query log writes its [stmt_finish] events, and the Chrome trace
    export is the root spans those events carry. When the engine
    detects an anomaly it snapshots the tail of this ring into the
    forensics bundle, so the bundle shows what the whole system was doing
    in the run-up, not just the failing statement.

    Recording is wait-free for writers: one atomic fetch-and-add plus an
    array store, no mutex. That makes it safe to call from any domain and
    from reentrant contexts (a [Gc.alarm] firing mid-record takes the next
    slot instead of deadlocking), and cheap enough to leave on by default
    — the B14 bench gates the on-vs-off overhead. Readers ([recent],
    [since]) may race a concurrent writer and see a ring that is one
    event behind; every event they see is complete and typed.

    Capacity [0] disables the recorder entirely (and, in the engine,
    forensics-bundle capture and the trace export with it) — the bench's
    off-arm knob, mirror of [History.set_capacity h 0]. *)

type payload =
  | Stmt_start of { sql : string; fingerprint : string }
  | Stmt_finish of {
      sql : string;
      fingerprint : string;
      span : Trace.span;
          (** the statement's finished root span: its duration is the
              statement's milliseconds, its children the phases. Recorded
              only after {!Trace.finish} and never mutated afterwards, so
              any domain may read it. *)
      rows : int;
      provenance : bool;  (** the statement used SQL-PLE provenance *)
      error : (string * string) option;
          (** the error kind label and message, [None] on success *)
    }
  | Plan_node of {
      fingerprint : string;
      node : int;
      operator : string;
      est_rows : float;
      act_rows : int;
    }  (** recorded on the profiled paths (instrumented serial, parallel) *)
  | Wal_append of { frame : string }  (** frame label: ["begin"], ["insert"], … *)
  | Wal_fsync of { fsyncs : int }  (** total fsyncs after this one *)
  | Wal_checkpoint of { epoch : int; ok : bool }
  | Wal_replay of {
      records : int;
      committed : int;
      discarded : int;
      skipped : int;
      truncated_bytes : int;
    }  (** what crash recovery found when the log was opened *)
  | Spill of { kind : string; detail : string }
      (** [kind] one of ["spill"], ["run"], ["chunk"], ["fallback"];
          [detail] carries the batch-path fallback reason when known *)
  | Gc_major of { heap_words : int; major_collections : int }
  | Fault of { point : string }
  | Governor of { verdict : string; detail : string }
      (** [verdict] is the kill kind label: ["timeout"], ["cancelled"],
          ["resource_exhausted"] *)
  | Watchdog of { fingerprint : string; factor : float; cause : string }
  | Degraded of { reason : string }  (** parallel plan re-run serially *)
  | Note of { tag : string; detail : string }  (** escape hatch *)
  | Anomaly of {
      id : int;
      cls : string;
      fingerprint : string;
      detail : string;
      sql : string;
    }  (** a forensics bundle was captured; [id] is its bundle id *)

type event = {
  ev_seq : int;  (** global, monotone; total order over the session *)
  ev_ts : float;  (** unix seconds *)
  ev_payload : payload;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 512 events. *)

val enabled : t -> bool
val capacity : t -> int

val set_capacity : t -> int -> unit
(** Replace the ring, keeping the newest events that fit. [0] disables
    recording and discards everything retained (the off-arm knob);
    negative values are clamped to [0]. *)

val record : t -> payload -> unit
(** Stamp and append one event; a no-op while disabled. Wait-free, safe
    from any domain. *)

val record_event : t -> payload -> event
(** {!record}, returning the stamped event. While disabled the event is
    stamped but not retained, and its [ev_seq] is [-1]. *)

val recorded : t -> int
(** Total events ever recorded (including those the ring has forgotten). *)

val dropped : t -> int
(** Events lost to ring wrap-around or capacity changes (approximate
    under concurrent writers, exact otherwise). *)

val recent : ?limit:int -> t -> event list
(** The retained tail in sequence order, oldest first; [limit] keeps only
    the newest that many. *)

val since : t -> int -> int * event list
(** [since t cursor] returns [(next, events)]: the retained events with
    [ev_seq >= cursor], oldest first, and the cursor to pass next time to
    tail the ring incrementally (the [/events] SSE endpoint does).
    Events evicted before they are read are simply absent. An event whose
    writer has claimed its sequence number but not yet stored it ends the
    batch, and [next] points at it, so it is not skipped. A disabled
    recorder returns [(recorded t, [])]. *)

val payload_kind : payload -> string
(** Stable slug: ["stmt_start"], ["wal_append"], ["gc_major"], … — the
    ["kind"] field of the JSON rendering. *)

val event_to_json : event -> Json.t
(** One flat object: [seq], [ts], [kind], then the payload's fields. A
    [stmt_finish] renders its span as [ms] and a [phases] object (phase
    name to milliseconds), never the tree itself. *)
