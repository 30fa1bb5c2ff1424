(** Attributes of algebra plans.

    Every operator output column is an attribute with a globally unique [id];
    expressions reference attributes by id, never by position or name. This
    is what makes the provenance rewrite rules compositional: appending
    provenance attributes to an operator's output can never capture or shift
    references in enclosing operators (the property behind paper §2.2's
    "rewrite rules are unaware of how the provenance attributes of their
    input were produced"). *)

type t = {
  id : int;
  name : string;  (** display / output name; not necessarily unique *)
  ty : Perm_value.Dtype.t;
}

val fresh : string -> Perm_value.Dtype.t -> t
(** Allocates a new unique id; safe to call from several domains at once. *)

val renamed : string -> t -> t
(** Fresh attribute with the same type, new name. *)

val retyped : Perm_value.Dtype.t -> t -> t
val equal : t -> t -> bool
(** Identity ([id]) equality. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
(** Prints [name#id]; plan trees use it so self-join copies are told apart. *)

val reset_counter : unit -> unit
(** For test determinism only. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
