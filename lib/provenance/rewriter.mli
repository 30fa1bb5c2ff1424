(** The Perm provenance rewriter (paper §2.2, Fig. 3).

    Transforms a plan containing SQL-PLE markers into a plain plan: every
    [Plan.Prov] marker is replaced by a query computing the marked
    subquery's provenance — the original result attributes plus one column
    per base-relation attribute, NULL where a relation did not contribute
    (Figure 2). [Baserel] and [External] markers are consumed in the
    process; a marker-free plan is returned unchanged (modulo nested marker
    elimination), so the engine can run this pass unconditionally.

    Per-operator rules (P is the provenance attribute list of the rewritten
    input, [+] the rewrite):

    - base relation access: duplicate all attributes,
      [R+ = Project_{A, A->P}(R)];
    - projection: [Project_A(T)+ = Project_{A,P}(T+)];
    - selection: [Filter_c(T)+ = Filter_c(T+)];
    - join: [T1 x_c T2 -> T1+ x_c T2+] with [P = P1 @ P2]; outer joins keep
      their kind so the missing side's provenance NULL-pads; semi joins
      become inner joins (one output row per witness — the replication of
      §2.1); anti joins keep an unrewritten right side (absence has no
      witness tuples);
    - aggregation: two strategies — {e Join} annotates the rewritten input
      in one pass with its group's key and aggregate values
      ([Plan.Group_annotate], the window-style aggregation of Niu & Glavic)
      when the input's rewrite keeps one row per input row, or keeps all
      witnesses of a duplicate elimination (DISTINCT, UNION) below joins,
      UNION ALL, filters, projections and sorts: each duplicate elimination
      then flags the first witness of every distinct row
      ([Plan.Mark_first]), the flags combine upwards into a representative
      flag, and only flagged rows feed the aggregates. Otherwise (an
      aggregate, semi join, semi/scalar apply, LIMIT, INTERSECT or EXCEPT
      below, or an expression over a duplicate elimination's output that
      tells key-identical witnesses apart, such as [CAST(k AS text)] on
      0.0 and -0.0) it rejoins the original aggregate with the rewritten input on
      group-key identity; {e Lateral} re-evaluates the rewritten input per
      group (an [Apply]). The paper's "heuristic and cost-based solution for
      choosing the best rewrite strategy" is {!strategy_mode};
    - duplicate elimination: [Distinct(T)+ = T+] — every rewritten row
      equals exactly one result row, so one row per witness;
    - LIMIT: rejoin the original operator's output with the (renamed)
      rewritten input on key identity of all columns
      ({!Perm_algebra.Expr.key_eq_all}: NULL and NaN match themselves);
    - set operations: union (all or distinct) NULL-pads each branch's
      missing provenance columns (Figure 2's shape); intersection rejoins
      the original operator result with each rewritten branch; difference
      propagates only left-branch provenance (the right side contributes no
      witness tuples); both rejoin on key identity;
    - [BASERELATION]: the subtree is not rewritten — its own output is
      duplicated as its provenance (§2.4);
    - external provenance: declared attributes are passed through untouched
      (§2.2: the rules are unaware of how their input's provenance
      attributes were produced);
    - nested [SELECT PROVENANCE]: rewritten in place; its provenance
      columns propagate to the enclosing computation. *)

type agg_strategy = Agg_join | Agg_lateral

type strategy_mode =
  | Fixed of agg_strategy
  | Heuristic  (** Perm's default rule of thumb: always the join rewrite *)
  | Cost_based of (Perm_algebra.Plan.t -> float)
      (** builds both candidates and keeps the cheaper one according to the
          supplied cost oracle (the engine passes the planner's model) *)

type config = { agg_mode : strategy_mode }

val default_config : config
(** [{ agg_mode = Heuristic }] *)

type report = {
  agg_choices : agg_strategy list;
      (** chosen strategy per rewritten aggregate, outermost first *)
  rewritten_markers : int;  (** number of [Prov] markers expanded *)
  rule_counts : (string * int) list;
      (** how often each rewrite rule fired, sorted by rule name — e.g.
          [("base_relation", 2); ("join", 1)]; aggregate rewrites appear as
          [aggregate_join] / [aggregate_lateral] per chosen strategy (fused
          or rejoined, the join strategy counts as [aggregate_join]). The
          engine republishes these as [rewriter.rule.<name>] counters. *)
}

exception Rewrite_error of string
(** Internal invariant violation (binding/source mismatch); a bug, not a
    user error. *)

val rewrite : ?config:config -> Perm_algebra.Plan.t -> Perm_algebra.Plan.t * report
