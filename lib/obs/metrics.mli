(** A metrics registry: named counters, gauges and latency histograms.

    Names are flat dotted strings ([engine.statements],
    [engine.phase.execute.ms], [executor.rows.join]). Metrics are created
    on first use with the kind implied by the operation; using a name with
    the wrong kind raises [Invalid_argument] (a programming error, not a
    runtime condition).

    All dumps iterate names in sorted order, so output is deterministic for
    a given sequence of observations.

    The registry is thread-safe: every operation takes an internal mutex,
    so the HTTP observability plane can read ([snapshot], [fold],
    [dump_text], [to_json]) from a different domain than the one recording
    observations. [histogram] and [snapshot] return deep copies, never
    live internal state. *)

type t

type histogram = private {
  bounds : float array;  (** bucket upper bounds (ms), ascending *)
  buckets : int array;  (** per-bucket counts; last entry is overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | Counter of { mutable c : int }
  | Gauge of { mutable g : float }
  | Histogram of histogram

val create : unit -> t

val reset : t -> unit
(** Drop every metric. *)

val generation : t -> int
(** How many times the registry was {!reset}: a writer that publishes a
    series only when its value changes republishes it when this moves. *)

val incr : ?by:int -> t -> string -> unit
val set_gauge : t -> string -> float -> unit

val observe : ?bounds:float array -> t -> string -> float -> unit
(** Record one histogram observation (milliseconds by convention).
    [bounds] is only consulted when the histogram is first created. *)

val declare_histogram : ?bounds:float array -> t -> string -> unit
(** Pre-register an empty histogram, so dumps (and quantile queries) can
    see a metric before its first observation. No-op if it already
    exists; raises [Invalid_argument] if the name is bound to another
    kind. *)

val counter : t -> string -> int
(** Current counter value; [0] when the counter was never incremented. *)

val counters : t -> string array -> int array
(** {!counter} of each name, read under one acquisition of the lock. *)

val gauge : t -> string -> float option

val histogram : t -> string -> histogram option
(** A deep copy of the named histogram, safe to inspect outside the
    registry lock. *)

val quantile : histogram -> float -> float
(** Bucket-resolution quantile estimate (an upper bound, clamped to the
    observed maximum); [nan] on an empty histogram. *)

val names : t -> string list
(** All registered metric names, sorted. *)

val snapshot : t -> (string * metric) list
(** Consistent point-in-time copy of the registry in sorted name order.
    Histograms are deep copies; mutating the result does not touch the
    registry. *)

val fold : t -> ('a -> string -> metric -> 'a) -> 'a -> 'a
(** Fold over a [snapshot] in sorted name order. *)

val default_bounds : float array

val set_gc_gauges : t -> unit
(** Refresh the OCaml runtime gauges ([gc.minor_collections],
    [gc.major_collections], [gc.compactions], [gc.heap_words],
    [gc.top_heap_words], [gc.minor_words]) from [Gc.quick_stat]. Called at
    dump time (metrics dumps, the [perm_metrics] system view, bench JSON)
    rather than per statement. *)

val dump_text : ?prefix:string -> t -> string
(** One line per metric, sorted by name. With [prefix], only metrics whose
    name starts with that prefix (e.g. ["executor.par."]). *)

val to_json : t -> Json.t
