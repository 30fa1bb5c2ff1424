(** The Perm provenance management system: sessions and end-to-end SQL-PLE
    execution.

    A session runs every query through the paper's Fig. 3 pipeline:
    {e parser & analyzer} (syntactic/semantic analysis, view unfolding) →
    {e provenance rewriter} → {e planner} (optimization) → {e executor}.
    The rewriter runs unconditionally; queries without provenance
    constructs pass through unchanged.

    Lazy provenance is the default ([SELECT PROVENANCE ...] computes on the
    fly); eager provenance materializes a provenance query with
    [STORE PROVENANCE <query> INTO <table>] and registers the stored
    provenance columns so follow-up queries can re-propagate them with the
    [PROVENANCE (...)] FROM-item annotation (paper §1: "store the
    provenance of a query for later reuse"). *)

type t

val create : unit -> t

type result_set = {
  columns : string list;
  rows : Perm_storage.Tuple.t list;
}

(** The four Perm-browser panes for one query (paper Fig. 4): the input
    SQL, both algebra trees, the rewritten query as SQL, plus the rewrite
    strategy decisions taken. *)
type explain = {
  input_sql : string;
  original_tree : string;  (** marker 3: algebra tree of the original query *)
  rewritten_tree : string;  (** marker 4: tree after provenance rewriting *)
  optimized_tree : string;  (** after the planner, what actually runs *)
  rewritten_sql : string;  (** marker 2: rewritten query as SQL *)
  agg_strategies : string list;
      (** chosen aggregation rewrite strategy per rewritten aggregate *)
}

(** [EXPLAIN ANALYZE] output: the optimized tree annotated with the
    planner's cardinality {e estimate} next to the {e actual} per-operator
    row count (with an [(xN off)] marker when they disagree by 2x or
    more), loop counts, exclusive (self) and inclusive wall-clock time,
    plus the pipeline phase breakdown from the statement's trace. *)
type explain_analyze = {
  ea_sql : string;
  ea_tree : string;
      (** optimized tree; every node carries
          [(est=<n> act=<n> [(xN off)] loops=<n> self=<ms> ms time=<ms> ms)] *)
  ea_phases : (string * float) list;
      (** [(phase, milliseconds)] in pipeline order:
          analyze, rewrite, optimize, execute *)
  ea_rows : int;  (** rows the query returned *)
  ea_total_ms : float;
  ea_strategies : string list;
      (** aggregation rewrite strategies, as in {!explain} *)
}

type outcome =
  | Rows of result_set
  | Affected of int  (** INSERT / DELETE / UPDATE row count *)
  | Message of string  (** DDL confirmations *)
  | Explained of explain
  | Analyzed of explain_analyze  (** [EXPLAIN ANALYZE] *)

val execute : t -> string -> (outcome, string) result
(** Runs a single statement (optionally [;]-terminated). A shim over
    {!execute_err} that keeps the legacy message-only surface:
    [Perm_err.to_string] of the typed error. *)

val execute_err : t -> string -> (outcome, Perm_err.t) result
(** The typed entry point. Never raises: lexer/parser crashes, executor
    runtime errors, governor kills ([Timeout] / [Resource_exhausted] /
    [Cancelled]), injected faults ([Faulted]) and any escaped exception
    ([Internal]) are all mapped into the {!Perm_err.kind} taxonomy at the
    engine boundary. *)

val execute_script : t -> string -> (outcome list, string) result
(** Runs statements in order; stops at the first error (prior effects are
    kept, as with autocommit). *)

val query : t -> string -> (result_set, string) result
(** [execute] specialised to row-returning statements. *)

val query_params :
  t -> string -> Perm_value.Value.t list -> (result_set, string) result
(** Parameterized queries: positional [$1], [$2], ... are bound to the
    given values (1-based) before analysis, so parameters are safe against
    injection and participate in type checking as literals.
    [query_params e "SELECT PROVENANCE text FROM messages WHERE mid = $1"
    [Value.Int 4]] *)

val explain : t -> string -> (explain, string) result

val explain_analyze : t -> string -> (explain_analyze, string) result
(** Executes the query with per-operator instrumentation (regardless of
    {!set_instrumentation}) and reports actual rows/time per plan node. *)

(** {1 Observability}

    Each session owns a {!Perm_obs.Metrics} registry and records a span
    tree per statement. Counters maintained by the engine:
    [engine.statements], [engine.errors], [rewriter.strategy.<join|lateral>]
    (one per rewritten aggregate), [rewriter.rule.<name>] (rewrite rule
    firings); histograms [engine.statement.ms] and
    [engine.phase.<analyze|rewrite|optimize|execute>.ms]. With
    instrumentation on (or under [EXPLAIN ANALYZE]),
    [executor.rows.<kind>] / [executor.invocations.<kind>] counters
    aggregate per-operator totals. *)

val metrics : t -> Perm_obs.Metrics.t

val set_instrumentation : t -> bool -> unit
(** Per-operator executor stats for every statement. Default [false]: the
    uninstrumented hot path compiles identical closures, so sessions that
    never switch this on pay nothing per row. *)

val instrumentation : t -> bool

val last_trace : t -> Perm_obs.Trace.span option
(** Span tree of the most recent top-level statement: a [statement] root
    (with the SQL text as an attribute) and one child per pipeline phase. *)

(** {2 Statement statistics and system views}

    Every session aggregates finished top-level statements by fingerprint
    (lexer-normalized SQL, {!Perm_sql.Fingerprint}) into one bounded
    per-fingerprint store, {!Perm_obs.History} (see {!history}), and
    registers nine {e virtual system relations} queryable through the
    ordinary pipeline — joinable, filterable, orderable like any table:

    - [perm_stat_statements] — per-fingerprint calls, errors, rows,
      total/mean/max and per-phase milliseconds, rewrite-rule firings and
      the provenance flag (History's totals: at most the history's
      fingerprint bound, least-recently-executed shed first, and empty
      while history capacity is 0);
    - [perm_stat_relations] — per-base-relation scan and row counters
      (populated when instrumentation is on or under [EXPLAIN ANALYZE]);
    - [perm_stat_plans] — the retained plan-node profile: per
      (fingerprint, node id) operator name, planner-estimated vs actual
      rows, self milliseconds, loop count and peak batch bytes (populated
      when instrumentation is on or under [EXPLAIN ANALYZE]; the parallel
      path reports per-stage rows/loops with estimates and leaves
      self-time to the serial profiler);
    - [perm_stat_workers] — per-domain parallel-execution totals: morsels
      claimed, busy/idle milliseconds, rows produced and the worst
      busy-time skew ratio observed in any one fan-out;
    - [perm_metrics] — the live metrics registry as rows (GC gauges are
      refreshed at scan time);
    - [perm_stat_history] — the retained per-execution telemetry history:
      one row per recorded top-level statement with sequence number,
      timestamp, structural plan hash, wall/phase milliseconds, rows out,
      the planner's total row estimate, worker skew and the error flag
      (bounded rings, see {!history});
    - [perm_stat_regressions] — the regression watchdog's findings: flagged
      executions with their baseline, slowdown factor, attributed cause
      ([plan-change] / [cardinality] / [skew] / [unknown]) and detail;
    - [perm_metrics_history] — cadence-sampled values of selected metrics
      series over time;
    - [perm_stat_anomalies] — the forensics bundle store: one row per
      captured anomaly (id, timestamp, class, fingerprint, detail, SQL);
      fetch the full bundle via {!Forensics.get}.

    Virtual relations are engine-owned: not droppable, not DML targets,
    and invisible to {!dump_sql}. *)

val statement_stats : t -> Perm_obs.History.statement list
(** Sorted by total time descending (the rows behind
    [perm_stat_statements]). *)

val plan_profile : t -> Perm_obs.Profile.plan_node list
(** The retained per-fingerprint plan-node profile (the rows behind
    [perm_stat_plans]), sorted by fingerprint then node id. *)

val worker_profile : t -> Perm_obs.Profile.worker list
(** Per-domain parallel worker totals (the rows behind
    [perm_stat_workers]), sorted by domain index. *)

val reset_statement_stats : t -> unit
(** Clears statement/relation statistics, the plan/worker profiles and the
    telemetry history (retained executions, regressions and metric
    samples — history configuration is kept). *)

(** {2 Live query progress}

    While a top-level statement runs, the executor feeds a lock-free
    progress record (atomic counters only — no locks on the query path)
    that any other domain may sample: rows produced at the plan root and,
    on the parallel path, morsels finished out of the fan-out total. The
    record survives statement completion, so the last statement's final
    progress remains readable. Governor kills ([Timeout] /
    [Resource_exhausted] / [Cancelled]) append the last sampled progress
    to the error message, reporting {e where} the statement died. *)

type progress = {
  pr_sql : string;  (** the statement being (or last) executed *)
  pr_running : bool;
  pr_elapsed_ms : float;
      (** elapsed so far, or total runtime once finished *)
  pr_rows : int;  (** rows produced at the plan root *)
  pr_morsels_done : int;
  pr_morsels_total : int;  (** 0 unless the statement fanned out *)
}

val progress : t -> progress option
(** Snapshot of the current (or most recent) statement's progress; [None]
    before the first statement. Safe to call from any domain. *)

(** {2 Trace log and exporters} *)

val trace_log : t -> Perm_obs.Trace.span list
(** Finished root spans of the recent top-level statements, oldest first
    — the input to {!Perm_obs.Trace.to_chrome_json}. These are the spans
    of the [stmt_finish] events the flight recorder still retains, so the
    ring's capacity bounds them and capacity 0 makes the list empty
    ({!last_trace} is unaffected). Needs no lock: a span is recorded only
    once finished and is never mutated afterwards. *)

(** {2 Slow-query log}

    Every finished top-level statement records one
    {!Perm_obs.Recorder.Stmt_finish} event in the flight recorder. While a
    sink file is open, a statement that took at least the threshold also
    writes that event to the sink as one line of
    {!Perm_obs.Recorder.event_to_json}, flushed at once so the file can be
    tailed; a failed write is counted by [engine.slow_log.errors], never
    raised. The sink works whatever the recorder's capacity. It belongs to
    the engine's own domain: call these from the domain that executes
    statements. *)

val slow_log_open : t -> string -> unit
(** Open (truncate) [path] as the sink, closing any previous one. Raises
    [Sys_error] when the file cannot be opened. *)

val slow_log_close : t -> unit
(** Close the sink; idempotent. *)

val set_slow_log_min_ms : t -> float -> unit
(** The threshold in milliseconds (default 0, clamped at 0). The
    [/events] SSE endpoint applies it too. *)

val slow_log_min_ms : t -> float

val history : t -> Perm_obs.History.t
(** The session's telemetry history and regression watchdog (the store
    behind [perm_stat_history], [perm_stat_regressions] and
    [perm_metrics_history]). Every finished top-level statement is
    recorded with its structural plan hash
    ({!Perm_executor.Executor.plan_hash} of the statement's first executed
    plan, mode-tagged serial/parallel), the planner's
    {!Perm_planner.Planner.estimate_total} and the worst worker skew; the
    watchdog's verdicts also increment [history.regressions] /
    [history.cause.*] counters, and the store's footprint is tracked by
    the [history.bytes] gauge. Configure capacities, the watchdog factor
    and the metric-sampling cadence directly through
    {!Perm_obs.History}. *)

(** {2 Cross-domain observability reads}

    The engine domain is the only writer of the telemetry stores
    (Profile, History, the forensics bundles) and takes an internal lock
    only at statement-finalize/record points; readers on other domains —
    the HTTP observability plane — use the accessors below, which take the
    same lock, so they see each statement either fully recorded or not at
    all and can never block query execution for more than a finalize
    critical section. *)

val locked : t -> (unit -> 'a) -> 'a
(** Run [f] holding the engine's observability lock — required when
    reading telemetry stores ({!statement_stats}, {!history}, ...) from a
    domain other than the engine's.
    Not reentrant; [f] must not execute statements or call other [locked]
    accessors ({!virtual_relation}, {!refresh_loss_gauges}). *)

val virtual_names : t -> string list
(** The registered [perm_stat_*] virtual relation names, sorted. *)

val virtual_relation :
  t -> string -> (string list * Perm_storage.Tuple.t list) option
(** Materialize a virtual system relation ([column names], [rows]) via
    the same provider closure a table scan uses, under the observability
    lock — the /stats JSON endpoints. [None] for unknown names. *)

val events_since : t -> int -> int * Perm_obs.Recorder.event list
(** Tail the flight recorder from a cursor (see
    {!Perm_obs.Recorder.since}) — the /events SSE endpoint. The recorder
    is wait-free, so this takes no lock. *)

val refresh_loss_gauges : t -> unit
(** Refresh the telemetry-loss gauges ([recorder.recorded],
    [recorder.dropped], [history.dropped], [history.evicted],
    [history.bytes]) from the live stores, under the observability lock.
    Called before rendering /metrics so scrapes can alert on the
    telemetry plane shedding data. *)

(** {1 Rewrite-strategy and optimizer control (the demo's "activate or
    deactivate rewrite strategies", §3)} *)

type agg_strategy_setting = Use_join | Use_lateral | Use_heuristic | Use_cost_based

val set_agg_strategy : t -> agg_strategy_setting -> unit
(** Default [Use_heuristic]. [Use_cost_based] consults the planner's cost
    model on the session's current table statistics. *)

val set_optimizer_config : t -> Perm_planner.Planner.config -> unit

(** {1 Parallel execution}

    Morsel-driven parallel execution on OCaml domains
    ({!Perm_executor.Executor.run_parallel}). Off by default; switch on
    with {!set_parallel}. A plan whose parallel spine
    ({!Perm_executor.Executor.parallel_spine}: filter/project/join-probe
    operators over a large enough base table) is found runs that spine
    per morsel over a session-owned worker pool, created lazily on the
    first parallel query and reused until the size changes or {!close};
    everything above the spine runs as the serial batch operators.
    Results are bit-identical to serial execution. Ineligible or small
    plans, and every plan with vectorization off, fall back to the serial
    path, leaving an [executor.par.fallback.<reason>] counter; parallel
    runs maintain [executor.par.queries] / [executor.par.morsels]
    counters and [executor.par.domains] / [executor.par.utilization] /
    [executor.par.skew] gauges, and attach a [parallel] child span to the
    statement's [execute] phase. Each fan-out records per-worker morsel
    slices on dedicated trace lanes ({!Perm_obs.Trace.worker_lane}), so
    {!Perm_obs.Trace.to_chrome_json} renders one timeline row per domain.
    With instrumentation on, every morsel task keeps its own operator
    counters, merged into the statement's profile ([perm_stat_plans])
    after the fan-out. *)

type parallel_setting =
  | Par_off
  | Par_on  (** [Domain.recommended_domain_count], capped at 8 *)
  | Par_domains of int  (** explicit worker count (clamped to 0..64) *)

val set_parallel : t -> parallel_setting -> unit
val parallel_domains : t -> int
(** Configured worker count; 0 when parallel execution is off. *)

val set_parallel_threshold : t -> int -> unit
(** Minimum driving-table rows before fan-out (default
    {!Perm_executor.Executor.default_parallel_threshold}). Morsels are
    whole batches of [batch_rows] rows, about four per domain. *)

val parallel_threshold : t -> int

val set_batch_rows : t -> int -> unit
(** Rows per executor batch (clamped to >= 1; default
    {!Perm_executor.Executor.default_batch_rows}, overridable by the
    [PERM_BATCH_ROWS] environment variable at {!create}). Results, row
    order included, do not depend on it. *)

val batch_rows : t -> int

val pool_size : t -> int
(** Size of the live worker pool; 0 when no pool has been created yet (no
    parallel query ran since the last {!close} / size change). *)

(** {1 Resource governor}

    Session guardrails enforced through a cooperative cancellation token
    ({!Perm_err.Token}): one fresh token per top-level statement, checked
    at operator boundaries by the serial executor and at morsel boundaries
    by every parallel worker. A governor kill surfaces as a typed error
    ([Timeout] / [Resource_exhausted] / [Cancelled]) from {!execute_err},
    bumps the matching [engine.timeout] / [engine.resource_exhausted] /
    [engine.cancelled] counter, drains the parallel generation, and leaves
    the pool — and any open transaction snapshot — intact. The error
    message carries the statement's last {!progress} snapshot (rows,
    morsels, elapsed), so a killed query reports where it died. All
    guardrails default to off (0) and cost nothing while off. *)

val set_statement_timeout : t -> float -> unit
(** Wall-clock budget in milliseconds per top-level statement; [0.] turns
    the timeout off. *)

val statement_timeout : t -> float

val set_row_limit : t -> int -> unit
(** Maximum result rows a statement may materialize; exceeding it kills
    the statement with [Resource_exhausted] (not a silent LIMIT). [0] = off. *)

val row_limit : t -> int

val set_tuple_budget : t -> int -> unit
(** Budget on tuples flowing across operator boundaries (a proxy for
    intermediate-result memory). With spill on (the default) exceeding it
    makes materializing operators degrade to disk (see {!set_spill});
    with spill off it kills the statement with [Resource_exhausted].
    [0] = off. *)

val tuple_budget : t -> int

val set_spill : t -> bool -> unit
(** Graceful spill-to-disk (default on). When on and a tuple budget is
    armed, the budget becomes a degradation threshold instead of a kill:
    a sort, group annotation or hash-join build whose input passes it
    runs its in-memory algorithm on threshold-sized pieces parked on temp
    files (sorted runs merged back, or Grace join chunks), with results
    byte-identical to the in-memory operators. A parallel statement whose shared join build passes the
    threshold re-runs once on the serial path, which spills in place
    (counted in [executor.spill.fallbacks]). When off, the tuple budget
    arms the token and blowing it raises [Resource_exhausted] as
    before. *)

val spill_enabled : t -> bool

val set_spill_dir : t -> string -> unit
(** Directory for spill temp files (default: the system temp dir). Files
    are created per materializing operator and removed when the statement
    finishes. *)

val spill_dir : t -> string

type spill_counts = {
  sc_spills : int;  (** operator instances that spilled *)
  sc_runs : int;  (** sorted runs written *)
  sc_chunks : int;  (** join build chunks written *)
  sc_rows : int;  (** rows written to spill files *)
  sc_bytes : int;  (** bytes written to spill files *)
  sc_fallbacks : int;  (** parallel plans re-run on the serial path *)
}

val spill_counts : t -> spill_counts
(** This engine's spill accounting since {!create}, the numbers behind
    its [executor.spill.*] gauges. Safe to read from another domain: a
    consistent snapshot, replaced as a whole on every spill event. *)

val cancel : t -> string -> unit
(** Cooperatively cancel the running statement from another domain; it
    stops at its next token check with kind [Cancelled]. Noticed at morsel
    boundaries always, and at per-operator checks whenever a timeout or
    tuple budget is armed. Safe to call at any time. *)

val close : t -> unit
(** Runs the {!at_close} hooks (newest first), then releases the worker
    domains. The session stays usable: the next parallel query recreates
    the pool. Idempotent (hooks run once). *)

val at_close : t -> (unit -> unit) -> unit
(** Register a shutdown hook run by {!close} — e.g. draining the HTTP
    observability server before the engine goes away. A raising hook does
    not prevent the others from running. *)

val last_report : t -> Perm_provenance.Rewriter.report option
(** Rewrite report of the most recent query execution. *)

(** {1 Introspection} *)

val catalog : t -> Perm_catalog.Catalog.t
val stats : t -> Perm_planner.Planner.stats
val provenance_columns : t -> string -> string list option
(** For a table created by [STORE PROVENANCE]: its provenance column names. *)

val dump_sql : t -> string
(** A re-executable SQL script recreating all tables (schema + rows) and
    views; feed it back through {!execute_script} to restore a session. *)

(** {1 Durability (write-ahead log)}

    With a WAL enabled, every mutating statement appends frames to an
    append-only, CRC-checksummed log ({!Perm_wal}) *after* the heaps
    applied them, and seals them with a fsynced [Commit] at the statement
    boundary (at [COMMIT] for explicit transactions). On {!enable_wal}
    the existing log is replayed: the engine recovers to the last
    committed state, discarding a torn tail and any unsealed transaction.
    A failed append/fsync marks the log dirty — logging pauses and the
    log is rebuilt from a checkpoint before the next top-level statement
    runs, so log and heaps can never silently disagree. *)

val enable_wal : t -> string -> (Perm_wal.replay, Perm_err.t) result
(** [enable_wal t dir] opens (creating if needed) the log in [dir] and
    replays it into the session. A failed replay leaves the session
    unchanged. Enabling on a session that already holds tables or views
    checkpoints immediately, so that pre-existing state becomes durable
    too. Refused inside a transaction or when a WAL is already open. *)

val disable_wal : t -> unit
(** Close the log (no implicit checkpoint); the session continues
    in-memory only. Idempotent. *)

val wal_enabled : t -> bool

val set_wal_fsync : t -> bool -> unit
(** Whether Commit frames are fsynced (default true). Off trades the
    crash-durability guarantee for speed — for benchmarks measuring the
    append overhead alone. *)

val checkpoint : t -> (unit, Perm_err.t) result
(** Compact the log: dump the whole session as SQL into the snapshot
    file, truncate the log, re-log provenance-column metadata. Replay
    cost becomes proportional to state size, not history length. Refused
    inside a transaction or without a WAL. *)

type wal_status = {
  ws_dir : string;
  ws_bytes : int;  (** log size in bytes *)
  ws_records : int;  (** records since the last checkpoint *)
  ws_last_lsn : int;  (** monotonic record ordinal, replay included *)
  ws_fsyncs : int;  (** fsyncs since open *)
  ws_fsync_on : bool;
  ws_dirty : bool;  (** a failed append left the log behind the heaps *)
  ws_epoch : int;  (** checkpoint epoch of the published snapshot *)
  ws_replay : Perm_wal.replay;  (** what {!enable_wal} recovered *)
}

val wal_status : t -> wal_status option
(** [None] when no WAL is enabled. *)

val wal_status_json : t -> Perm_obs.Json.t
(** {!wal_status} as a JSON object, one member per field ([Null] without
    a WAL) — what forensics bundles and [/healthz] report. *)

(** {1 Flight recorder and anomaly forensics}

    Every session carries an always-on, bounded, wait-free flight
    recorder ({!Perm_obs.Recorder}): a ring of typed structured events
    covering statement lifecycle, plan-node milestones, WAL
    append/fsync/checkpoint/replay, spill activity, GC major slices,
    fault firings, governor kills and watchdog verdicts. When a
    statement ends in an anomaly — typed error, timeout, cancellation,
    resource exhaustion, injected fault, watchdog-flagged regression or
    a parallel→serial degradation — or when startup WAL replay recovers
    prior state, the engine snapshots a {e forensics bundle}: one
    self-contained JSON document ({!Perm_obs.Bundle_schema}) holding the
    SQL and fingerprint, the plan with estimated vs actual rows per
    node, the per-statement metrics delta, the recorder's recent event
    tail, WAL status (epoch, replay counters, truncated bytes), the
    spill gauges and the session's execution settings.

    Bundles live in a bounded in-memory store (newest first; default 32)
    surfaced three ways: the [perm_stat_anomalies] virtual relation
    (id, ts, class, fingerprint, detail, sql), the CLI's [\debug]
    meta-command, and the HTTP plane's [GET /debug/bundles] endpoints
    plus an [anomaly] SSE frame on [/events]. With a directory set
    ({!Forensics.set_dir}) each bundle is also mirrored to
    [bundle-NNNNNN.json] on disk, pruned to the same bound.

    Disabling the recorder ([Recorder.set_capacity _ 0]) also disables
    bundle capture — the benchmark's off arm. *)

val recorder : t -> Perm_obs.Recorder.t
(** The session's flight recorder. Recording is wait-free and safe from
    any domain (the GC alarm feeds it concurrently); use
    {!Perm_obs.Recorder.set_capacity} to resize or disable it. *)

module Forensics : sig
  type summary = {
    fs_id : int;
    fs_ts : float;
    fs_class : string;
        (** one of {!Perm_obs.Bundle_schema.classes}: [error], [timeout],
            [cancelled], [resource_exhausted], [fault], [regression],
            [degraded], [wal_replay] *)
    fs_fingerprint : string;
    fs_detail : string;
    fs_sql : string;
  }

  val capacity : t -> int

  val set_capacity : t -> int -> unit
  (** Bound on retained bundles (default 32; 0 disables retention).
      Shrinking drops the oldest bundles immediately. *)

  val set_dir : t -> string option -> unit
  (** Mirror future bundles to [dir/bundle-NNNNNN.json] (directory
      created on first write; on-disk copies pruned to the same bound;
      write failures count [forensics.write.errors]). [None] stops
      mirroring. *)

  val list : t -> summary list
  (** Newest first — the rows behind [perm_stat_anomalies]. *)

  val get : t -> int -> Perm_obs.Json.t option
  (** The full bundle document by id; [None] if unknown or evicted. *)

  val last : t -> Perm_obs.Json.t option
end

(** {1 Plan-level access (benchmarks and tests)} *)

val plan_query : t -> string -> (Perm_algebra.Plan.t * Perm_algebra.Plan.t, string) result
(** [(analyzed plan with markers, rewritten+optimized executable plan)]. *)

val run_plan : t -> Perm_algebra.Plan.t -> (Perm_storage.Tuple.t list, string) result
(** Executes a marker-free plan against the session's storage. *)
