(** An in-memory heap relation: the rows of one base table, stored by
    column as immutable chunks of {!chunk_rows} rows plus the rows
    inserted since the last seal.

    Insertion validates arity and types against the table schema (with
    implicit int→float widening, as PostgreSQL does on assignment). *)

type t

val chunk_rows : int
(** Rows per sealed chunk (1,024), also the executor's default batch
    size, so that a default scan hands out the chunks themselves. *)

val create : Perm_catalog.Schema.t -> t

val copy : t -> t
(** Snapshot for transactions: the sealed chunks are shared (they are
    never mutated); the unsealed tail (under {!chunk_rows} rows), the
    indexes and the distinct-value counts are duplicated. Without
    indexes the cost is O(chunks), not O(rows). *)

val schema : t -> Perm_catalog.Schema.t
val row_count : t -> int
val insert : t -> Tuple.t -> (unit, string) result
val insert_all : t -> Tuple.t list -> (unit, string) result
(** Fails atomically-per-row: rows before the offending one are kept (the
    engine wraps DML so callers see the error). *)

val replace_all : t -> Tuple.t list -> (unit, string) result
(** Atomically replace the heap's contents: every row is validated (and
    type-coerced) {e before} the first mutation, so on [Error] — or an
    injected [heap.insert] fault — the table and its indexes are
    untouched. The write path behind DELETE/UPDATE rebuilds. *)

val truncate : t -> unit
val scan : t -> Tuple.t Seq.t
val to_list : t -> Tuple.t list

val scan_chunk : t -> pos:int -> len:int -> Tuple.t array
(** Contiguous slice of the heap in insertion order.
    @raise Invalid_argument when the range is out of bounds. *)

val scan_batches : t -> rows:int -> Batch.t array
(** The heap as columnar batches of at most [rows] rows each, in
    insertion order: their live tuples reproduce {!scan}. The call first
    seals the unsealed rows, so at most the last chunk is short. At
    [rows = chunk_rows] the batches are the chunks themselves; other
    sizes are cut from the chunks once and cached until the next write.
    Callers must not mutate the column arrays. *)

val distinct_estimate : t -> int -> int
(** [distinct_estimate h col] is the exact number of distinct values in
    column [col] under key identity ({!Perm_value.Value.key_equal}: NULL,
    NaN and 0.0/-0.0 each count once). Each column is counted on its own,
    over its column arrays, the first time it is asked for after a write;
    a write marks every column's count stale. Used by the planner's
    cardinality model (paper: "cost-based solution for choosing the best
    rewrite strategy").
    @raise Invalid_argument when [col] is out of range. *)

(** {1 Hash indexes}

    Equality indexes on single columns, maintained incrementally on insert
    and dropped content-wise by {!truncate} (the index definition
    survives; DML that rebuilds the heap re-populates it). NULL keys are
    not indexed — SQL equality never matches them. *)

val create_index : t -> int -> unit
(** Indexes column [col]; idempotent. Builds from existing rows. *)

val drop_index : t -> int -> unit
val has_index : t -> int -> bool

val index_probe : t -> int -> Perm_value.Value.t -> Tuple.t Seq.t
(** Rows whose column [col] equals the key under SQL [=] (NULL probes
    return nothing).
    @raise Invalid_argument if the column is not indexed. *)
