(** Tuples are immutable-by-convention arrays of values. *)

type t = Perm_value.Value.t array

val equal : t -> t -> bool
(** Positional key identity ({!Perm_value.Value.key_equal}: NULL matches
    NULL, NaN matches NaN), the notion used for grouping, DISTINCT, set
    operations and provenance rejoins. *)

val compare : t -> t -> int
val hash : t -> int
val concat : t -> t -> t
val project : int list -> t -> t
val to_string : t -> string
(** Comma-separated, parenthesised, e.g. [(1, lorem, null)]. *)

module Hash : Hashtbl.S with type key = t
(** Hash table keyed by tuples under key identity. *)
