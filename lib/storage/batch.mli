(** Columnar batch + selection vector: the unit of exchange between
    operators on the vectorized executor path. A batch holds [rows]
    physical rows as per-column [Value.t] arrays; the selection vector
    marks the live subset (filters narrow it without materializing
    rows). *)

module Value = Perm_value.Value

type t = private {
  cols : Value.t array array;
  rows : int;
  sel : int array;
  nsel : int;
  all : bool;
}

val dense : Value.t array array -> int -> t
(** [dense cols rows]: batch where every physical row is live. *)

val with_sel : t -> int array -> int -> t
(** [with_sel b sel n]: same columns, live rows = [sel.(0..n-1)]
    (ascending physical indices). Normalizes back to dense when [n =
    b.rows]. *)

val with_cols : t -> Value.t array array -> t
(** [with_cols b cols]: same selection, new columns (each of physical
    length [rows]) — an all-attribute projection shares column pointers
    through this instead of compacting live rows. *)

val arity : t -> int
val live : t -> int
(** Number of live rows. *)

val is_dense : t -> bool
val idx : t -> int -> int
(** Physical index of the [i]-th live row. *)

val col : t -> int -> Value.t array

val of_rows : arity:int -> Value.t array array -> pos:int -> len:int -> t
(** Transpose a row-array slice into a dense batch. *)

val sel_array : t -> int array
(** Fresh array of the live physical indices. *)

val compact : t -> t
(** Gather live rows into a fresh dense batch (no-op when dense). *)

val iter_live : (int -> unit) -> t -> unit
(** Iterate physical indices of live rows in order. *)

val measured_bytes : Value.t array array list -> t -> int
(** [measured_bytes inputs b]: exact reachable-heap bytes of [b]
    (profiler peak_bytes), but for its columns that are physically one
    of the [inputs] columns (an operator's input batches): a shared
    column belongs to the input. *)
