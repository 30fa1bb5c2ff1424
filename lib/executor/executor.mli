(** Plan execution (paper Fig. 3, "Executor").

    One plan walker runs every statement, original or provenance-rewritten:
    operators exchange columnar batches. It provides hash joins for equi-
    and key-identity predicates (the shape the provenance rewriter emits
    for its rejoin rules), with a nested-loop fallback. It also provides
    hash aggregation, group annotation and duplicate elimination (with its
    representative flag, [Plan.Mark_first]), all grouping through one
    group-id kernel; bag-semantics set operations; a stable permutation
    sort; and correlated [Apply] evaluation for subqueries that resist
    decorrelation.

    Row order is part of the contract, whatever the batch size:
    - joins emit left rows in order, each with its matches in right
      order; a FULL join appends its unmatched right rows in right order;
    - aggregates and DISTINCT emit groups in first-seen order; a group
      annotation emits groups in first-seen order, each group's rows in
      input order;
    - sorts are stable;
    - [Apply] evaluates its right side once per left row, in order.

    Plans must be marker-free: [Plan.Prov] nodes are rejected (the engine
    always runs the provenance rewriter first); stray [Baserel]/[External]
    markers execute as identity.

    NULL handling follows SQL: predicates use three-valued logic and only
    [True] passes; grouping, DISTINCT, set operations and rejoin keys use
    key identity ([Perm_value.Value.key_equal]: NULL matches NULL, NaN
    matches NaN); plain join equality never matches NULL or NaN keys. *)

exception Runtime_error of string

type provider = {
  probe_index : string -> int -> Perm_value.Value.t -> Perm_storage.Tuple.t Seq.t;
      (** [probe_index table col key]: rows whose column [col] equals [key]
          — backs [Plan.Index_scan]; only called for indexes the planner
          saw in its statistics *)
  scan_batches : string -> int -> Perm_storage.Batch.t array;
      (** [scan_batches table rows]: the table as columnar batches of at
          most [rows] rows each, in scan order. Storage backends may serve
          a cached columnar image — callers must never mutate the column
          arrays. Backs [Plan.Scan]. *)
}

val batches_of_list :
  arity:int ->
  batch_rows:int ->
  Perm_storage.Tuple.t list ->
  Perm_storage.Batch.t array
(** Transpose a materialized row list into dense batches — the
    [scan_batches] implementation for providers without columnar storage. *)

val default_batch_rows : int
(** Default batch size (rows per columnar batch). *)

val batch_eligible : Perm_algebra.Plan.t -> bool
(** [true] for every marker-free plan, i.e. every plan the executor can
    run. Kept for callers that tag plan hashes by execution path. *)

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

    Operators exchange columnar batches of at most [batch_rows] rows
    (default {!default_batch_rows}; column arrays + a selection vector):
    filters narrow the selection vector with kernels specialized on the
    compared constant, projections of plain attributes share column
    pointers, joins expand matches out of line, and aggregation feeds
    group states from column reads. Results, row order included, are the
    same for every batch size. A correlated [Apply] compiles its right
    side once and re-runs it per left row, reading the left row's values
    through an outer resolver fixed at compile time.

    When [spill] is given, a sort, group annotation or hash-join build
    whose input passes [spill.threshold] live rows runs its one
    in-memory algorithm on pieces of at most that many rows parked on
    temp files: sorted runs merged back, or a Grace join's build chunks
    each probed with the in-memory probe. At or under the threshold the
    operator runs exactly as without [spill]. Results are byte-identical
    to the in-memory operators, and spill events go to [spill.note] (the
    engine's [executor.spill.*] metrics). State no operator can spill
    (hash-aggregate groups,
    DISTINCT and set-op tables) dies with [Resource_exhausted] past the
    threshold instead. Callers that arm a tuple budget on [token] should
    omit [spill] — and vice versa: the spill threshold replaces the
    budget's hard kill. Temp files are released when the statement ends.

    When [progress] is given, every row materialized at the plan root
    bumps its lock-free row counter, so another domain can sample live
    progress while the statement runs.

    Guardrails: when [token] is active, every operator that can create
    rows checks it at start and charges it once per batch (of its live
    row count), so a deadline/budget/manual cancel surfaces as
    {!Perm_err.Cancel} within one batch per operator; [row_limit] kills
    the statement (also via [Cancel], kind [Resource_exhausted]) once the
    root produces more rows than allowed. [Cancel] and
    {!Perm_fault.Injected} deliberately escape as exceptions: only the
    engine boundary maps them into its typed error result. *)

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
      (** max rows produced by a single invocation *)
  mutable stat_peak_bytes : int;
      (** peak batch memory: the largest measured heap footprint
          ([Obj.reachable_words]) among the operator's batches, less the
          column arrays a batch shares with the latest batch of one of
          the node's children (a filter's batch counts its selection
          vector, not its input's columns again). Only the first batch
          and each batch with more live rows than every one measured
          before are measured, so a batch no wider than an earlier one
          but heavier (longer strings, a sparser selection) goes unseen *)
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
    finalized: node ids assigned and self times derived. *)

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
    the fallback reason: ["outer-join"], ["index-scan"], ["values"],
    ["shape"] (including a correlated [Apply] where the spine would be)
    or ["small"]. *)

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
    (finalized as by {!run_instrumented}) after the fan-out. Operators
    above the gather spill in place as in {!run}, but a spine join's
    build side, shared by every task, cannot: past the [spill] threshold
    it raises {!Perm_storage.Spill.Fallback_needed} — the only place the
    executor raises it — so the engine retries serially. *)

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
