(** A growable array, used for the unsealed tail of a heap relation's
    columns and for the executor's per-group stores. (OCaml 5.1 predates
    [Dynarray].) *)

type 'a t

val create : unit -> 'a t

val copy : 'a t -> 'a t
(** Shallow copy: elements are shared. *)

val length : 'a t -> int
val get : 'a t -> int -> 'a
val push : 'a t -> 'a -> unit

(** [set t i x] replaces element [i].
    @raise Invalid_argument when the index is out of bounds. *)
val set : 'a t -> int -> 'a -> unit

val clear : 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list

(** [sub t pos len] copies the slice [pos .. pos+len-1] into a fresh array.
    @raise Invalid_argument when the range is out of bounds. *)
val sub : 'a t -> int -> int -> 'a array

val of_list : 'a list -> 'a t
val to_seq : 'a t -> 'a Seq.t
(** The sequence is evaluated lazily against the live vector; elements
    appended after creation are included. *)
