(** Runtime SQL values.

    A value is either [Null] or a typed constant. All engine tuples are
    arrays of values. Comparison and arithmetic follow SQL semantics:
    operations involving [Null] yield [Null] (see {!Tristate} for predicate
    logic), and mixed int/float arithmetic promotes to float. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Text of string
  | Date of int  (** days since 1970-01-01 (may be negative) *)

val type_of : t -> Dtype.t
(** [type_of Null] is {!Dtype.Any}. *)

val is_null : t -> bool

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality; [equal Null Null = true]. Int/float cross-type
    numeric equality holds when values coincide ([Int 1 = Float 1.0]).
    NaN equals nothing, itself included, as under SQL [=] ({!sql_eq}). *)

val key_equal : t -> t -> bool
(** Key identity: {!equal}, except that NaN identifies with NaN (as in
    {!compare}). The one notion of "same key" for grouping, DISTINCT, set
    operations and provenance rejoins, so a NaN key keeps its group and
    its witnesses. [-0.0] and [0.0] are one key. *)

val compare : t -> t -> int
(** Total order used by ORDER BY and sort-based operators. [Null] sorts
    first (NULLS FIRST, PostgreSQL's default for ASC is NULLS LAST, but a
    fixed convention is enough for the engine; tests pin it). Numeric values
    compare numerically across Int/Float. Comparing incomparable types
    (e.g. [Int] vs [Text]) orders by type tag — it cannot arise in
    well-typed plans but keeps the order total. *)

val hash : t -> int
(** Compatible with {!key_equal}: [key_equal a b] implies [hash a = hash
    b]. Ints, integral floats in the int range, bools and dates hash by
    an integer mix (an int past +-2^53 as its rounded float, which it
    equals); every NaN hashes alike; text keeps the string hash. It
    allocates nothing. *)

module Key_tbl : Hashtbl.S with type key = t
(** Tables keyed by values under key identity ({!key_equal}, {!hash}). *)

(** {1 SQL operations — all return [Null] on [Null] input} *)

val sql_eq : t -> t -> t
val sql_neq : t -> t -> t
val sql_lt : t -> t -> t
val sql_leq : t -> t -> t
val sql_gt : t -> t -> t
val sql_geq : t -> t -> t

(** {1 Calendar dates} *)

val date_of_ymd : int -> int -> int -> (t, string) result
(** [date_of_ymd y m d] validates the civil date (rejecting e.g. Feb 30). *)

val date_to_ymd : int -> int * int * int
(** Inverse of the epoch-day encoding. *)

val date_of_string : string -> (t, string) result
(** Parses [YYYY-MM-DD]. *)

(** {1 SQL operations — all return [Null] on [Null] input}

    [add]/[sub] also implement date arithmetic: [date + int] / [date - int]
    shift by days, [date - date] is the day difference. *)

exception Arith_error of string

type arith = Add | Sub | Mul | Div

val arith : arith -> t -> t -> t
(** The arithmetic core: allocates only its result and raises
    [Arith_error] with the message the [result] forms below return. *)

val add : t -> t -> (t, string) result
val sub : t -> t -> (t, string) result
val mul : t -> t -> (t, string) result
val div : t -> t -> (t, string) result
(** [div] returns [Error] on division by zero. *)

val neg : t -> (t, string) result
val concat : t -> t -> (t, string) result
val like : t -> t -> t
(** SQL [LIKE] with [%] and [_] wildcards. *)

val cast : Dtype.t -> t -> (t, string) result
(** Explicit cast; [Null] casts to [Null] of any type. Text parses to
    numerics/bools PostgreSQL-style; anything casts to text. *)

(** {1 Formatting} *)

val to_string : t -> string
(** Unquoted rendering; [Null] prints as ["null"] (matches the paper's
    Figure 2 rendering). *)

val to_sql : t -> string
(** SQL literal syntax: text is single-quoted with quote doubling. *)

val pp : Format.formatter -> t -> unit
