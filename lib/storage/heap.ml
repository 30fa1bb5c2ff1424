module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column

(* one hash index: value -> positions in the row vector, newest first *)
module Value_key = struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end

module Value_hash = Hashtbl.Make (Value_key)

(* Chaos-harness injection points (no-ops unless armed via Perm_fault). *)
let fp_scan = Perm_fault.point "heap.scan"
let fp_insert = Perm_fault.point "heap.insert"

type index = int list Value_hash.t

type t = {
  schema : Schema.t;
  rows : Tuple.t Vec.t;
  mutable distinct_cache : int array option;
  mutable batch_cache : (int * Batch.t array) option;
      (* (batch_rows, columnar image) — transposed once per table version
         and shared by every vectorized scan until the next mutation *)
  indexes : (int, index) Hashtbl.t;  (* column position -> index *)
}

let create schema =
  {
    schema;
    rows = Vec.create ();
    distinct_cache = None;
    batch_cache = None;
    indexes = Hashtbl.create 4;
  }

let copy t =
  let indexes = Hashtbl.create (Hashtbl.length t.indexes) in
  Hashtbl.iter (fun col idx -> Hashtbl.replace indexes col (Value_hash.copy idx)) t.indexes;
  {
    schema = t.schema;
    rows = Vec.copy t.rows;
    distinct_cache = t.distinct_cache;
    (* batches are immutable, so the image can be shared; each copy
       invalidates its own cache on its own mutations *)
    batch_cache = t.batch_cache;
    indexes;
  }

let schema t = t.schema
let row_count t = Vec.length t.rows

let index_add idx key pos =
  if not (Value.is_null key) then
    let prev = match Value_hash.find_opt idx key with Some l -> l | None -> [] in
    Value_hash.replace idx key (pos :: prev)

let coerce_cell (col : Column.t) v =
  match v, col.ty with
  | Value.Null, _ -> Ok Value.Null
  | Value.Int i, Dtype.Float -> Ok (Value.Float (float_of_int i))
  | v, ty ->
    if Dtype.equal (Value.type_of v) ty then Ok v
    else
      Error
        (Printf.sprintf "column %S expects %s, got %s (%s)" col.name
           (Dtype.to_string ty)
           (Dtype.to_string (Value.type_of v))
           (Value.to_string v))

let insert t row =
  Perm_fault.trip fp_insert;
  let cols = Array.of_list (Schema.columns t.schema) in
  if Array.length row <> Array.length cols then
    Error
      (Printf.sprintf "expected %d values, got %d" (Array.length cols)
         (Array.length row))
  else
    let out = Array.make (Array.length row) Value.Null in
    let rec fill i =
      if i >= Array.length row then begin
        let pos = Vec.length t.rows in
        Vec.push t.rows out;
        Hashtbl.iter (fun col idx -> index_add idx out.(col) pos) t.indexes;
        t.distinct_cache <- None;
        t.batch_cache <- None;
        Ok ()
      end
      else
        match coerce_cell cols.(i) row.(i) with
        | Ok v ->
          out.(i) <- v;
          fill (i + 1)
        | Error e -> Error e
    in
    fill 0

let insert_all t rows =
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> ( match insert t r with Ok () -> go rest | Error e -> Error e)
  in
  go rows

(* All-or-nothing rebuild for DELETE/UPDATE: every row is validated and
   coerced into a staging list before the heap is touched, so a bad row —
   or an injected fault, tripped before any mutation — leaves the table
   exactly as it was. The commit step below is pure pushes and cannot
   fail. *)
let replace_all t rows =
  Perm_fault.trip fp_insert;
  let cols = Array.of_list (Schema.columns t.schema) in
  let stage row =
    if Array.length row <> Array.length cols then
      Error
        (Printf.sprintf "expected %d values, got %d" (Array.length cols)
           (Array.length row))
    else
      let out = Array.make (Array.length row) Value.Null in
      let rec fill i =
        if i >= Array.length row then Ok out
        else
          match coerce_cell cols.(i) row.(i) with
          | Ok v ->
            out.(i) <- v;
            fill (i + 1)
          | Error e -> Error e
      in
      fill 0
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> ( match stage r with Ok o -> go (o :: acc) rest | Error e -> Error e)
  in
  match go [] rows with
  | Error e -> Error e
  | Ok staged ->
    Vec.clear t.rows;
    Hashtbl.iter (fun _ idx -> Value_hash.reset idx) t.indexes;
    List.iter
      (fun out ->
        let pos = Vec.length t.rows in
        Vec.push t.rows out;
        Hashtbl.iter (fun col idx -> index_add idx out.(col) pos) t.indexes)
      staged;
    t.distinct_cache <- None;
    t.batch_cache <- None;
    Ok ()

let truncate t =
  Vec.clear t.rows;
  t.distinct_cache <- None;
  t.batch_cache <- None;
  (* keep index definitions, drop their contents *)
  Hashtbl.iter (fun _ idx -> Value_hash.reset idx) t.indexes

let scan t =
  Perm_fault.trip fp_scan;
  Vec.to_seq t.rows

let to_list t = Vec.to_list t.rows

(* Contiguous row slice in insertion order. *)
let scan_chunk t ~pos ~len = Vec.sub t.rows pos len

(* Columnar scan for the vectorized executor. The transpose runs once per
   (table version, batch size) and the resulting image — column arrays
   shared by every batch — is reused by all later scans; any mutation
   drops it. The fault point trips per scan, like [scan], so
   chaos schedules are unchanged by caching. *)
let scan_batches t ~rows =
  Perm_fault.trip fp_scan;
  let size = max 1 rows in
  match t.batch_cache with
  | Some (sz, batches) when sz = size -> batches
  | _ ->
    let n = Vec.length t.rows in
    let arity = Schema.arity t.schema in
    let batches =
      Array.init
        ((n + size - 1) / size)
        (fun bi ->
          let pos = bi * size in
          let len = min size (n - pos) in
          let cols =
            Array.init arity (fun c ->
                Array.init len (fun i -> (Vec.get t.rows (pos + i)).(c)))
          in
          Batch.dense cols len)
    in
    t.batch_cache <- Some (size, batches);
    batches

let distinct_estimate t col =
  let counts =
    match t.distinct_cache with
    | Some c -> c
    | None ->
      let arity = Schema.arity t.schema in
      let sets = Array.init arity (fun _ -> Hashtbl.create 64) in
      Vec.iter
        (fun row ->
          Array.iteri
            (fun i v -> Hashtbl.replace sets.(i) (Value.hash v, v) ())
            row)
        t.rows;
      let c = Array.map Hashtbl.length sets in
      t.distinct_cache <- Some c;
      c
  in
  if col < 0 || col >= Array.length counts then
    invalid_arg "Heap.distinct_estimate: column out of range"
  else counts.(col)

let create_index t col =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Heap.create_index: column out of range";
  if not (Hashtbl.mem t.indexes col) then begin
    let idx = Value_hash.create 256 in
    Vec.iteri (fun pos row -> index_add idx row.(col) pos) t.rows;
    Hashtbl.replace t.indexes col idx
  end

let drop_index t col = Hashtbl.remove t.indexes col
let has_index t col = Hashtbl.mem t.indexes col

let index_probe t col key =
  match Hashtbl.find_opt t.indexes col with
  | None -> invalid_arg "Heap.index_probe: column is not indexed"
  | Some idx ->
    if Value.is_null key then Seq.empty
    else (
      match Value_hash.find_opt idx key with
      | None -> Seq.empty
      | Some positions ->
        List.to_seq (List.rev_map (fun pos -> Vec.get t.rows pos) positions))
