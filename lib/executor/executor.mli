(** Plan execution (paper Fig. 3, "Executor").

    Interprets logical algebra plans directly over in-memory relations:
    hash joins for equi- and null-safe-equality predicates (the shape the
    provenance rewriter emits for its rejoin rules), nested-loop fallback,
    hash aggregation and duplicate elimination, bag-semantics set
    operations, stable sorting, and correlated [Apply] evaluation for
    de-correlated subqueries.

    Plans must be marker-free: [Plan.Prov] nodes are rejected (the engine
    always runs the provenance rewriter first); stray [Baserel]/[External]
    markers execute as identity.

    NULL handling follows SQL: predicates use three-valued logic and only
    [True] passes; grouping, DISTINCT and set operations use null-safe
    equality; plain join equality never matches NULL keys. *)

exception Runtime_error of string

type provider = {
  scan_table : string -> Perm_storage.Tuple.t Seq.t;
      (** full scan of a base table *)
  probe_index : string -> int -> Perm_value.Value.t -> Perm_storage.Tuple.t Seq.t;
      (** [probe_index table col key]: rows whose column [col] equals [key]
          — backs [Plan.Index_scan]; only called for indexes the planner
          saw in its statistics *)
  scan_batches : string -> int -> Perm_storage.Batch.t array;
      (** [scan_batches table rows]: the table as columnar batches of at
          most [rows] rows each, in scan order; their live tuples must
          reproduce [scan_table]. Storage backends may serve a cached
          columnar image — callers must never mutate the column arrays.
          Backs the vectorized path's [Plan.Scan]. *)
}

val batches_of_list :
  arity:int ->
  batch_rows:int ->
  Perm_storage.Tuple.t list ->
  Perm_storage.Batch.t array
(** Transpose a materialized row list into dense batches — the
    [scan_batches] implementation for providers without columnar storage. *)

val default_batch_rows : int
(** Default batch size for the vectorized path (rows per columnar batch). *)

val batch_eligible : Perm_algebra.Plan.t -> bool
(** [true] when the whole plan can run on the vectorized batch path: any
    correlated [Apply] (or stray [Prov] marker) anywhere in the tree forces
    the row-at-a-time fallback. *)

val run :
  ?token:Perm_err.Token.t ->
  ?row_limit:int ->
  ?progress:Progress.t ->
  ?batch_rows:int ->
  ?spill:Perm_storage.Spill.config ->
  provider:provider ->
  Perm_algebra.Plan.t ->
  (Perm_storage.Tuple.t list, string) result
(** Executes the plan and materializes the result in plan-schema column
    order. Runtime errors (division by zero, failing casts, scalar
    subqueries returning several rows) are returned as [Error].

    When [spill] is given, materializing operators on the row path degrade
    gracefully past [spill.threshold] rows: sorts become external merge
    sorts and hash-join build sides are chunked onto temp files, with
    results byte-identical to the in-memory path. The batch path instead
    raises {!Perm_storage.Spill.Fallback_needed} internally and re-runs on
    the spilling row path (counted by the [executor.spill.*] metrics).
    Callers that arm a tuple budget on [token] should omit [spill] — and
    vice versa: the spill threshold replaces the budget's hard kill.

    When [batch_rows] is given (and positive) and the plan is
    {!batch_eligible}, operators exchange columnar batches of at most
    [batch_rows] rows (column arrays + a selection vector) instead of
    pulling tuples one at a time: filters narrow the selection vector with
    kernels specialized on the compared constant, projections of plain
    attributes share column pointers, joins expand matches out of line,
    and aggregation feeds group states from column reads. Every kernel
    applies the same [Value] operations in the same row order as the row
    path, so results are byte-identical regardless of batch size. With an
    active [token], the batch path checks it at operator start and charges
    it per batch (of its live row count) — cancel latency is bounded by
    one batch per operator.

    When [progress] is given, every row materialized at the plan root
    bumps its lock-free row counter, so another domain can sample live
    progress while the statement runs.

    Guardrails: when [token] is active, every operator charges the token
    in batches of a few hundred rows, so a deadline/budget/manual cancel
    surfaces as {!Perm_err.Cancel} within a bounded number of tuples;
    [row_limit] kills the statement (also via [Cancel], kind
    [Resource_exhausted]) once the root produces more rows than allowed.
    [Cancel] and {!Perm_fault.Injected} deliberately escape as exceptions:
    only the engine boundary maps them into its typed error result. *)

(** {1 Instrumented execution}

    [run_instrumented] wraps every compiled operator with counters and a
    wall-clock timer; the plain {!run} path compiles the exact same
    closures with no wrapper, so instrumentation is pay-for-what-you-use:
    with tracing off, nothing changes on the hot path. *)

type node_stats = {
  stat_kind : string;  (** coarse operator class, {!Perm_algebra.Plan.operator_kind} *)
  mutable stat_id : int;
      (** stable pre-order node id within the executed plan; [-1] for
          helper nodes the executor synthesizes (e.g. the swapped join a
          Right join compiles into) *)
  mutable stat_invocations : int;
      (** times the operator was (re)started — > 1 under a correlated
          [Apply], which re-runs its right side per outer row *)
  mutable stat_rows : int;  (** rows produced across all invocations *)
  mutable stat_time_s : float;
      (** cumulative wall-clock seconds spent pulling from this operator,
          {e inclusive} of its children (as in Postgres EXPLAIN ANALYZE) *)
  mutable stat_self_s : float;
      (** exclusive wall-clock seconds: inclusive time minus the
          children's inclusive time, clamped at 0 *)
  mutable stat_peak_rows : int;
      (** max rows produced by a single invocation — the largest batch
          this operator streamed *)
  mutable stat_peak_bytes : int;
      (** peak batch memory: on the row path, [stat_peak_rows] times an
          estimated row width; on the vectorized path, the exact measured
          heap footprint of the largest batch the operator emitted *)
  mutable stat_exact_bytes : bool;
      (** [true] when [stat_peak_bytes] was measured ([Obj.reachable_words]
          per batch, vectorized path) rather than estimated *)
}

type exec_stats

val run_instrumented :
  ?token:Perm_err.Token.t ->
  ?row_limit:int ->
  ?progress:Progress.t ->
  ?batch_rows:int ->
  ?spill:Perm_storage.Spill.config ->
  provider:provider ->
  Perm_algebra.Plan.t ->
  (Perm_storage.Tuple.t list * exec_stats, string) result
(** Like {!run} with per-operator counters. On success the stats are
    finalized: node ids assigned, self times and peak-memory estimates
    derived. *)

val lookup : exec_stats -> Perm_algebra.Plan.t -> node_stats option
(** Stats for one plan node, matched by physical identity — pass the same
    plan value that was executed (e.g. from [Pretty.plan_to_string
    ~annotate]). *)

val stats_entries : exec_stats -> node_stats list
(** All recorded operators, in compile order. *)

val stats_nodes : exec_stats -> (Perm_algebra.Plan.t * node_stats) list
(** All recorded operators with their plan nodes, in compile order. *)

val node_ids : Perm_algebra.Plan.t -> (Perm_algebra.Plan.t * int) list
(** Stable node ids: the plan's nodes numbered in pre-order. The same
    statement shape yields the same numbering on every execution; these
    are the ids reported in [stat_id] and the [perm_stat_plans] view. *)

val scan_stats : exec_stats -> (string * node_stats) list
(** The leaf scans ([Scan]/[Index_scan]) with the table each one read, in
    compile order — the per-base-relation counters behind
    [perm_stat_relations]. *)

(** {1 Morsel-driven parallel execution}

    A parallel run is the ordinary batch plan with one subtree — the
    {e spine} — replaced by a gather over a {!Pool} of worker domains.
    The spine (Filter, Project and probe-side Join operators over a
    base-table Scan) runs once per morsel: a run of whole batches of the
    driving table's cached columnar image. Each spine join's build side is
    built once, serially, and shared read-only by every task. The
    operators above the spine (Aggregate, Sort, Limit, Project) run
    serially over the gathered batches, which concatenate in morsel order
    (= scan order), so results are byte-identical to {!run}. *)
module Par : sig
  type report = {
    par_domains : int;  (** pool size, caller included *)
    par_morsels : int;  (** tasks fanned out *)
    par_participants : int;  (** workers that executed at least one morsel *)
    par_pool : Pool.report;
        (** per-worker morsel/busy/row accounting and timed morsel slices
            — feeds [perm_stat_workers] and the trace's worker lanes *)
  }
end

type spine
(** The subtree a parallel run fans out, with its driving table. *)

val default_parallel_threshold : int
(** Minimum driving-table cardinality worth a pool fan-out (2048). *)

val parallel_spine :
  threshold:int ->
  table_rows:(string -> int) ->
  Perm_algebra.Plan.t ->
  (spine, string) result
(** The only parallel-eligibility decision. Descends from the root
    through Sort/Limit/Project/Aggregate to the highest spine; the spine's
    joins must be Inner, Cross, Left, Semi or Anti (entered through their
    left input), it must contain a Filter or a Join, and the driving table
    must hold at least [threshold] rows ([table_rows]). [Error] carries
    the fallback reason: ["apply"] (the plan is not {!batch_eligible}),
    ["outer-join"], ["index-scan"], ["values"], ["shape"] or ["small"]. *)

val run_parallel :
  ?token:Perm_err.Token.t ->
  ?row_limit:int ->
  ?progress:Progress.t ->
  ?spill:Perm_storage.Spill.config ->
  ?instrument:bool ->
  pool:Pool.t ->
  batch_rows:int ->
  provider:provider ->
  spine ->
  Perm_algebra.Plan.t ->
  (Perm_storage.Tuple.t list * Par.report * exec_stats option, string) result
(** Runs a plan with its {!parallel_spine} gathered over [pool]. Every
    task checks [token] before its morsel and the per-batch guard charges
    it, so a kill noticed by one domain stops the rest at their next
    morsel; the pool drains before {!Perm_err.Cancel} re-raises on the
    caller. [row_limit] and [progress] rows apply at the root as in
    {!run}; [progress] also counts morsels. With [instrument] each task
    keeps its own operator counters, merged into the returned stats
    (finalized as by {!run_instrumented}) after the fan-out. The batch
    path does not spill: past the [spill] threshold a build side or sort
    raises {!Perm_storage.Spill.Fallback_needed} for a serial retry. *)

val eval_const : Perm_algebra.Expr.t -> (Perm_value.Value.t, string) result
(** Evaluates a closed expression (no attribute references) — INSERT rows,
    DEFAULT-style constants. *)

val compile_row_predicate :
  schema:Perm_algebra.Attr.t list ->
  Perm_algebra.Expr.t ->
  Perm_storage.Tuple.t ->
  (bool, string) result
(** Row-at-a-time predicate evaluation against a fixed schema (DELETE /
    UPDATE row selection); [true] iff the predicate is SQL-[TRUE]. *)

val plan_hash : ?mode:string -> Perm_algebra.Plan.t -> string
(** A short stable digest of the plan's structure: operator tree, table
    names, expression shapes, attribute names/types. Attribute ids are
    canonicalized (they are gensym'd per analysis) and literal values are
    blanked like statement fingerprints, so re-running or re-binding the
    same statement hashes identically; planner estimates never enter the
    hash, so it only moves when the plan itself changes. [mode] tags the
    execution strategy (["serial"] / ["parallel"], default ["serial"]) —
    a flipped parallel verdict is a plan change too. *)
