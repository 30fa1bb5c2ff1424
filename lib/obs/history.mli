(** Bounded per-fingerprint telemetry and the regression watchdog.

    The session's one per-fingerprint store. Each statement fingerprint
    has an entry with running totals (the [perm_stat_statements] view) and
    a ring buffer of execution records (wall/phase milliseconds, rows out,
    planner estimate, worker skew, structural plan hash); the store also
    keeps a global ring of watchdog regression reports and
    cadence-sampled rings for selected {!Metrics} series. Every ring has a
    fixed capacity and an eviction counter, and whole entries (totals
    included) are shed least-recently-executed first past the fingerprint
    cap or an approximate byte budget: a long session cannot OOM on its
    own telemetry.

    The watchdog keeps an EWMA baseline per fingerprint (combined with the
    p95 of the retained ring) and flags executions that exceed it by a
    configurable factor, attributing a likely cause in precedence order:
    plan-change, cardinality, skew, unknown. A plan-hash change is always
    reported, independent of timing. *)

type t

type exec_record = {
  ex_fingerprint : string;
  ex_seq : int;  (** global, monotone across the whole history *)
  ex_ts : float;  (** unix seconds at statement start *)
  ex_plan_hash : string;  (** [""] when the statement had no query plan *)
  ex_ms : float;
  ex_rows : int;
  ex_est_rows : float;  (** planner total estimate; [0.] when unplanned *)
  ex_skew : float;  (** max worker skew of the execution; [1.0] = balanced *)
  ex_error : bool;
  ex_phase_ms : (string * float) list;
}

type cause = Plan_change | Cardinality | Skew | Unknown

val cause_label : cause -> string
(** ["plan-change"], ["cardinality"], ["skew"], ["unknown"] — the strings
    surfaced in the [perm_stat_regressions] view. *)

type regression = {
  rg_fingerprint : string;
  rg_seq : int;
  rg_ts : float;
  rg_ms : float;
  rg_baseline_ms : float;
  rg_factor : float;  (** [rg_ms / baseline] ([1.0] when baseline unknown) *)
  rg_cause : cause;
  rg_detail : string;
  rg_plan_hash : string;
}

type metric_sample = {
  sm_name : string;
  sm_seq : int;
  sm_ts : float;
  sm_value : float;
}

(** A snapshot of one fingerprint's running totals — a row of
    [perm_stat_statements]. *)
type statement = {
  st_fingerprint : string;
  st_query : string;  (** first raw SQL text seen for this fingerprint *)
  st_calls : int;
  st_errors : int;
  st_rows : int;
  st_total_ms : float;
  st_max_ms : float;
  st_phase_ms : (string * float) list;  (** per-phase sums *)
  st_rule_counts : (string * int) list;  (** rewrite-rule firing sums *)
  st_provenance : bool;  (** the first execution used SQL-PLE provenance *)
}

val create : unit -> t
(** Defaults: 128 records per fingerprint, at most 256 fingerprints, an
    8 MiB byte budget, watchdog factor 3.0 after 3 baseline samples, 1 s
    metric cadence. Fixed: a flagged execution is attributed to
    cardinality when its estimated or actual rows grew past 2.0x the
    baseline EWMA, and to skew when its worker skew is at least 1.5; the
    sampled metric series are [engine.statements], [engine.errors],
    [engine.statement.ms] and [gc.heap_words]. *)

val reset : t -> unit

(** {1 Configuration} *)

val enabled : t -> bool
val capacity : t -> int

val set_capacity : t -> int -> unit
(** Per-fingerprint ring capacity. [0] disables recording entirely and
    discards every entry, statement totals included — one switch for all
    per-fingerprint telemetry; shrinking drops the oldest records (counted
    in {!dropped}) and keeps the totals. *)

val set_max_fingerprints : t -> int -> unit
(** Bound on distinct fingerprints; the least-recently-executed entry,
    totals included, is evicted beyond it (clamped at 1). *)

val set_max_bytes : t -> int -> unit
(** Approximate byte budget over all rings; LRU fingerprints are evicted
    until the estimate fits. [0] disables the budget. *)

val factor : t -> float

val set_factor : t -> float -> unit
(** Watchdog slowdown threshold: flag when
    [ms >= factor * max baseline 1.0] (milliseconds; the floor keeps
    scheduler jitter on sub-millisecond statements from being flagged). *)

val set_min_samples : t -> int -> unit
(** Baseline executions required before the watchdog may flag (>= 1). *)

val cadence : t -> float

val set_cadence : t -> float -> unit
(** Seconds between metric samples; [0.] samples on every opportunity. *)

(** {1 Recording} *)

val record :
  t ->
  fingerprint:string ->
  sql:string ->
  provenance:bool ->
  ts:float ->
  plan_hash:string ->
  ms:float ->
  rows:int ->
  est_rows:float ->
  skew:float ->
  error:bool ->
  phases:(string * float) list ->
  rules:(string * int) list ->
  regression option
(** Fold one finished statement into its fingerprint's totals ([sql] and
    [provenance] are kept from the first execution; [phases] are
    per-phase milliseconds, [rules] this execution's rewrite-rule
    firings), append its execution record, run the watchdog against the
    baseline as it stood {e before} this execution, then fold the
    execution into the baseline. Returns the regression report if one was
    raised (it is also retained in the regressions ring). No-op returning
    [None] while disabled. Errors are retained in the ring but never flagged and never
    fold into the baseline. A plan-hash change resets the timing baseline
    to the new execution. *)

val sample_due : t -> now:float -> bool
(** Whether {!sample} called [~now] would take a sample — lets the caller
    skip refreshing gauges when no sample is due. *)

val sample : t -> Metrics.t -> now:float -> unit
(** Cadence-gated: record one sample of every tracked series (counters and
    gauges by value, histograms by p95; absent series skipped). *)

(** {1 Accessors} *)

val executions : t -> exec_record list
(** All retained executions, oldest first (global sequence order). *)

val executions_for : t -> string -> exec_record list

val statements : t -> statement list
(** Every retained fingerprint's totals, by total time descending, then
    fingerprint. The records are immutable snapshots: safe to read after
    releasing the lock that guarded the call. *)

val phase_ms : statement -> string -> float
(** Summed milliseconds of a named phase; [0.] when never seen. *)

val rule_firings : statement -> int
(** Total rewrite-rule firings across all rules. *)

val mean_ms : statement -> float

val fingerprints : t -> string list
val regressions : t -> regression list
val metric_samples : t -> metric_sample list

val baseline : t -> string -> (float * int) option
(** [(baseline_ms, samples)] for a fingerprint, once it has a baseline. *)

val approx_bytes : t -> int
(** Estimated heap footprint of all retained telemetry, statement totals
    included. *)

val dropped : t -> int
(** Total records lost to ring wrap-around, capacity changes and LRU /
    byte-budget eviction. *)

val evicted : t -> int
(** The subset of {!dropped} lost to fingerprint-LRU / byte-budget
    eviction specifically (whole fingerprints shed under memory
    pressure). *)

(** {1 Export} *)

val exec_to_json : exec_record -> Json.t
val regression_to_json : regression -> Json.t
val metric_sample_to_json : metric_sample -> Json.t

val export_jsonl : t -> Json.t list
(** One JSON object per retained record (executions, then regressions,
    then metric samples), each tagged with a ["kind"] field — the payload
    of [\telemetry export]. *)

val iter_export : t -> (Json.t -> unit) -> unit
(** Streaming [export_jsonl]: applies [f] to each record in the same
    order without building the full list, so exports stay O(1) in
    additional memory. *)
