(** Retained plan-node, relation and worker-domain profiles.

    The accumulator behind the [perm_stat_plans], [perm_stat_relations]
    and [perm_stat_workers] system views: per-(fingerprint, node id)
    operator cardinality/time profiles and per-base-relation scan counters,
    both fed by the executor's instrumented executions, and per-domain
    morsel/busy/idle/skew counters fed by the worker pool. Keys are plain
    strings and ints so the module has no dependency on the algebra. *)

type plan_node = {
  pn_fingerprint : string;  (** statement fingerprint the plan belongs to *)
  pn_node : int;  (** stable pre-order node id within the optimized plan *)
  pn_operator : string;  (** [Plan.operator_name] of the node *)
  mutable pn_est_rows : float;  (** planner estimate (latest execution) *)
  mutable pn_act_rows : int;  (** actual rows out, summed over executions *)
  mutable pn_self_ms : float;
      (** self wall-time, exclusive of children (serial profiler only;
          0 for rows profiled on the parallel path) *)
  mutable pn_loops : int;  (** operator (re)invocations *)
  mutable pn_peak_bytes : int;
      (** peak batch memory: the largest measured heap footprint of one
          of the operator's batches, max over executions (see
          [Executor.node_stats.stat_peak_bytes] for which batches are
          measured) *)
}

type worker = {
  wk_domain : int;  (** 0 is the calling domain *)
  mutable wk_morsels : int;
  mutable wk_busy_ms : float;
  mutable wk_idle_ms : float;
  mutable wk_rows : int;
  mutable wk_max_skew : float;
      (** max over batches of this worker's busy time over the batch's
          mean busy time; 1.0 = perfectly balanced *)
}

type relation = {
  rel_name : string;
  mutable rel_scans : int;  (** instrumented scans of the relation *)
  mutable rel_rows : int;  (** rows those scans produced *)
}

type t

val create : unit -> t
val reset : t -> unit

val record_plan_node :
  t ->
  fingerprint:string ->
  node:int ->
  operator:string ->
  est_rows:float ->
  act_rows:int ->
  self_ms:float ->
  loops:int ->
  peak_bytes:int ->
  unit

val record_scan : t -> relation:string -> rows:int -> unit
(** Fold one base-relation scan (from executor instrumentation). *)

val record_worker :
  t ->
  domain:int ->
  morsels:int ->
  busy_ms:float ->
  idle_ms:float ->
  rows:int ->
  skew:float ->
  unit

val plan_nodes : t -> plan_node list
(** Sorted by fingerprint, then node id (tree pre-order). *)

val relations : t -> relation list
(** Sorted by relation name. *)

val workers : t -> worker list
(** Sorted by domain index. *)
