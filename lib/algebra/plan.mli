(** Logical relational algebra plans.

    This is the representation the analyzer produces, the provenance
    rewriter transforms (paper Fig. 3: the Perm module operates "on the
    internal query tree representation"), and the planner optimizes.

    Multiset (bag) semantics throughout, as in SQL. Every operator lists its
    output attributes explicitly or derives them from its children; see
    {!schema}. *)

type join_kind =
  | Inner
  | Left
  | Right
  | Full
  | Cross
  | Semi  (** IN / EXISTS de-correlation: left tuples with a match *)
  | Anti  (** NOT IN / NOT EXISTS: left tuples with no match *)

type apply_kind =
  | A_cross  (** lateral cross join: right side re-evaluated per left row *)
  | A_outer
      (** lateral left outer join: left row NULL-padded when right is empty *)
  | A_scalar of Attr.t
      (** scalar subquery: right must yield one column; the single value is
          bound to the attribute, NULL when empty; >1 row is a runtime
          error. Output schema is [left @ [attr]]. *)
  | A_semi
  | A_anti

type agg_func = Count_star | Count | Sum | Avg | Min | Max | Bool_and | Bool_or

type agg_call = {
  agg : agg_func;
  distinct : bool;
  arg : Expr.t option;  (** [None] iff [Count_star] *)
  agg_out : Attr.t;
}

type sort_dir = Asc | Desc

type set_kind = Union | Intersect | Except

(** Contribution semantics of a provenance computation (paper §2.4):
    [Influence] is Perm's Why-provenance flavour (default); the [Copy]
    variants are Where-provenance flavours — [Copy_partial] keeps the
    provenance of a base relation if at least one of its attributes is
    copied to the result, [Copy_complete] only if all of them are. *)
type prov_semantics = Influence | Copy_partial | Copy_complete

(** One provenance output column of a [Prov] marker: the rewrite will bind
    [prov_attr] (named [prov_<rel>_<col>]) to the values of base column
    [prov_col] of base relation [prov_rel]. *)
type prov_source = { prov_attr : Attr.t; prov_rel : string; prov_col : string }

type t =
  | Scan of { table : string; attrs : Attr.t list }
      (** [attrs] are positionally the stored table's columns *)
  | Index_scan of {
      table : string;
      attrs : Attr.t list;
      key_col : int;  (** indexed column position *)
      key : Expr.t;  (** constant probe value; introduced by the planner *)
    }
      (** equality probe of a hash index; produced by the planner from
          [Filter(col = const)(Scan)] when an index exists — never appears
          before planning *)
  | Values of { attrs : Attr.t list; rows : Expr.t list list }
      (** constant relation; also models FROM-less SELECT via one empty row *)
  | Project of { child : t; cols : (Expr.t * Attr.t) list }
  | Filter of { child : t; pred : Expr.t }
  | Join of { kind : join_kind; left : t; right : t; pred : Expr.t option }
      (** [pred = None] iff [Cross]. For [Semi]/[Anti] the output schema is
          the left schema. The right side of any [Join] must not reference
          outer attributes — correlation uses {!Apply}. *)
  | Apply of { kind : apply_kind; left : t; right : t }
      (** correlated evaluation: [right] may reference attributes of
          [left]'s schema (and enclosing Apply lefts) *)
  | Aggregate of {
      child : t;
      group_by : (Expr.t * Attr.t) list;
      aggs : agg_call list;
    }  (** output schema: group-by outs then aggregate outs *)
  | Group_annotate of {
      child : t;
      group_by : (Expr.t * Attr.t) list;
      aggs : agg_call list;
      rep : Expr.t option;
    }
      (** every input row annotated with its group's key and aggregate
          values — an [Aggregate] fused with its rejoin to the same input
          (Niu & Glavic's window-style provenance aggregation). [rep] is
          the representative flag: when set, only the rows where it holds
          feed the aggregates and give the group its key (one row per row
          of the aggregate's original input; the others are further
          witnesses of the same row), while every row is annotated; a
          group no flagged row reaches (its witnesses' group-by values
          differ from the representative's) is no group of the original
          aggregate and emits no rows. Otherwise one row out per input row: groups in first-seen order, rows within a
          group in input order. A global aggregate over empty input yields
          one row of aggregate defaults with the child columns NULL.
          Output schema: group-by outs, aggregate outs, then
          [schema child]. Introduced by the provenance rewriter only. *)
  | Mark_first of {
      child : t;
      keys : Attr.t list;
      among : Expr.t option;
      flag : Attr.t;
    }
      (** the representative flag of a duplicate elimination: [flag] is
          TRUE on the first row of every distinct [keys] value among the
          rows where [among] holds (every row when [None]) and FALSE on
          all others. Key identity is the executor's grouping equality, so
          the flagged rows are exactly the rows DISTINCT over [keys] would
          keep. Output schema: [schema child @ [flag]]. Introduced by the
          provenance rewriter only. *)
  | Distinct of t
  | Set_op of { kind : set_kind; all : bool; left : t; right : t; attrs : Attr.t list }
      (** children must agree in arity and (unified) types; [attrs] are the
          fresh output attributes, positionally matching both children *)
  | Sort of { child : t; keys : (Expr.t * sort_dir) list }
  | Limit of { child : t; limit : int option; offset : int }
  | Prov of { child : t; semantics : prov_semantics; sources : prov_source list }
      (** SQL-PLE [SELECT PROVENANCE]: compute the provenance of [child].
          Schema is [schema child @ provenance attrs]; [sources] is fixed at
          analysis time so enclosing queries can reference [prov_*] columns
          (paper §2.4's nested example). Eliminated by the rewriter; the
          executor never sees it. *)
  | Baserel of { child : t; rel_name : string }
      (** SQL-PLE [BASERELATION]: stop provenance rewriting here — [child]'s
          own output tuples become their provenance. Transparent when not
          under a [Prov]. *)
  | External of { child : t; ext_attrs : Attr.t list }
      (** SQL-PLE [PROVENANCE (a, ...)] on a FROM item: [ext_attrs] (a subset
          of [child]'s schema, already named [prov_*]-style by the user) are
          externally produced provenance to be propagated untouched. *)

val schema : t -> Attr.t list
val arity : t -> int

val attr_types_compatible : Attr.t list -> Attr.t list -> bool
(** Positional type compatibility for set operations. *)

val identity_project : t -> (Expr.t * Attr.t) list
(** [attr -> attr] projection columns for a plan's schema. *)

val children : t -> t list
val map_children : (t -> t) -> t -> t

val join_kind_name : join_kind -> string
val apply_kind_name : apply_kind -> string

val operator_name : t -> string
(** Short name for tree displays: ["Scan(messages)"], ["Project"], ... *)

val operator_kind : t -> string
(** Coarse parameter-free operator class for metric names: ["scan"],
    ["join"], ["aggregate"], ... — every join kind maps to ["join"], every
    apply kind to ["apply"], both scan forms to ["scan"], [Group_annotate]
    to ["aggregate"], [Mark_first] to ["distinct"]. *)

val count_operators : t -> int
