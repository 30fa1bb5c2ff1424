(** Scalar expressions over algebra attributes.

    The analyzer desugars the richer SQL surface (BETWEEN, IN-lists,
    CASE-with-operand, NOT variants) into this small core, so the planner,
    executor and provenance rewriter only handle these forms. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | And
  | Or
  | Concat
  | Like

type unop = Not | Neg | Is_null

type t =
  | Const of Perm_value.Value.t
  | Attr of Attr.t
  | Binop of binop * t * t
  | Unop of unop * t
  | Case of { branches : (t * t) list; else_ : t option }
  | Cast of t * Perm_value.Dtype.t
  | Func of string * t list  (** scalar builtin, resolved by the executor *)

val attrs : t -> Attr.Set.t
(** All attributes referenced by the expression. *)

val add_attrs : t -> Attr.Set.t -> Attr.Set.t
(** [add_attrs e s] is [Attr.Set.union (attrs e) s], built without the
    intermediate sets. *)

val substitute : (t * Attr.t) list -> t -> t
(** Inlines a projection's columns: a reference to a column's output
    attribute becomes the column's expression (the last column's, if
    several output it). Returns the expression itself when it references
    no column's output. *)

val conjuncts : t -> t list
(** Splits a top-level AND chain. *)

val conjoin : t list -> t
(** Inverse of {!conjuncts}; the empty list is [Const (Bool true)]. *)

val key_eq : t -> t -> t
(** One pair of {!key_eq_all}. *)

val key_eq_all : (t * t) list -> t
(** Conjunction of [(a = b) OR (a IS NULL AND b IS NULL)] per pair, with
    [OR (a <> a AND b <> b)] added for float pairs: key identity
    ({!Perm_value.Value.key_equal}) in SQL, the rejoin predicate under which
    a NULL or NaN key matches itself. The executor's hash join recognizes
    the shape as a key-identity hash key. [TRUE] for no pairs. *)

val type_of : t -> Perm_value.Dtype.t
(** Static result type (assumes the expression is well-typed; the analyzer
    checks that). *)

val equal : t -> t -> bool
val is_const : t -> bool
val binop_name : binop -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
