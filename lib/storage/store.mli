(** The physical database: one heap per base table, keyed by the catalog
    name. The engine keeps catalog and store in sync. *)

type t

val create : unit -> t

val copy : t -> t
(** Snapshot for transactions: copies every heap (see {!Heap.copy}). *)

val create_table : t -> string -> Perm_catalog.Schema.t -> (Heap.t, string) result
val drop_table : t -> string -> (unit, string) result
val find : t -> string -> Heap.t option

val table_names : t -> string list
