module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column

(* one hash index: value -> row positions, newest first *)
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

let chunk_rows = 1024

(* The table is its columns: sealed chunks of [chunk_rows] rows, then the
   tail, one growable column per attribute for the rows inserted since the
   last seal. Only the last chunk may be short, and then the tail is
   empty, so row [p] sits at offset [p mod chunk_rows] of chunk
   [p / chunk_rows], or of the tail. Chunks are never mutated and [chunks]
   is replaced rather than written, so scans and copies share them. *)
type t = {
  schema : Schema.t;
  mutable chunks : Batch.t array;
  tail : Value.t Vec.t array;
  distinct : int array;
      (* per column: its distinct-value count, or -1 until it is counted
         after the last write *)
  mutable resliced : (int * Batch.t array) option;
      (* batches of another size than [chunk_rows], until the next write *)
  indexes : (int, index) Hashtbl.t;  (* column position -> index *)
}

let create schema =
  {
    schema;
    chunks = [||];
    tail = Array.init (Schema.arity schema) (fun _ -> Vec.create ());
    distinct = Array.make (Schema.arity schema) (-1);
    resliced = None;
    indexes = Hashtbl.create 4;
  }

let copy t =
  let indexes = Hashtbl.create (Hashtbl.length t.indexes) in
  Hashtbl.iter (fun col idx -> Hashtbl.replace indexes col (Value_hash.copy idx)) t.indexes;
  { t with tail = Array.map Vec.copy t.tail; distinct = Array.copy t.distinct; indexes }

let schema t = t.schema
let tail_rows t = Vec.length t.tail.(0)

let row_count t =
  match Array.length t.chunks with
  | 0 -> tail_rows t
  | n -> ((n - 1) * chunk_rows) + t.chunks.(n - 1).rows + tail_rows t

let cell t pos k =
  let c = pos / chunk_rows in
  if c < Array.length t.chunks then t.chunks.(c).cols.(k).(pos mod chunk_rows)
  else Vec.get t.tail.(k) (pos mod chunk_rows)

let row_at t pos = Array.init (Array.length t.tail) (cell t pos)

let seal t =
  let n = tail_rows t in
  if n > 0 then begin
    t.chunks <- Array.append t.chunks [| Batch.dense (Array.map (fun v -> Vec.sub v 0 n) t.tail) n |];
    Array.iter Vec.clear t.tail
  end

(* Every write drops what was derived from the rows. *)
let invalidate t =
  Array.fill t.distinct 0 (Array.length t.distinct) (-1);
  t.resliced <- None

let index_add idx key pos =
  if not (Value.is_null key) then
    let prev = match Value_hash.find_opt idx key with Some l -> l | None -> [] in
    Value_hash.replace idx key (pos :: prev)

(* Append a validated row. A short last chunk goes back into the tail
   first, so that it stays the only short one; a full tail seals. *)
let push t row =
  let n = Array.length t.chunks in
  if n > 0 && t.chunks.(n - 1).rows < chunk_rows then begin
    Array.iteri (fun k col -> Array.iter (Vec.push t.tail.(k)) col) t.chunks.(n - 1).cols;
    t.chunks <- Array.sub t.chunks 0 (n - 1)
  end;
  let pos = row_count t in
  Array.iteri (fun k v -> Vec.push t.tail.(k) v) row;
  Hashtbl.iter (fun col idx -> index_add idx row.(col) pos) t.indexes;
  if tail_rows t = chunk_rows then seal t;
  invalidate t

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

let columns t = Array.of_list (Schema.columns t.schema)

(* Arity check and per-cell coercion into a fresh row. *)
let coerce_row cols row =
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

let insert t row =
  Perm_fault.trip fp_insert;
  Result.map (push t) (coerce_row (columns t) row)

let insert_all t rows =
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> ( match insert t r with Ok () -> go rest | Error e -> Error e)
  in
  go rows

let truncate t =
  t.chunks <- [||];
  Array.iter Vec.clear t.tail;
  invalidate t;
  (* keep index definitions, drop their contents *)
  Hashtbl.iter (fun _ idx -> Value_hash.reset idx) t.indexes

(* All-or-nothing rebuild for DELETE/UPDATE: every row is validated and
   coerced into a staging list before the heap is touched, so a bad row —
   or an injected fault, tripped before any mutation — leaves the table
   exactly as it was. The commit step below is pure pushes and cannot
   fail. *)
let replace_all t rows =
  Perm_fault.trip fp_insert;
  let cols = columns t in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match coerce_row cols r with Ok o -> go (o :: acc) rest | Error e -> Error e)
  in
  match go [] rows with
  | Error e -> Error e
  | Ok staged ->
    truncate t;
    List.iter (push t) staged;
    Ok ()

let scan t =
  Perm_fault.trip fp_scan;
  Seq.init (row_count t) (row_at t)

let to_list t = List.init (row_count t) (row_at t)

let scan_chunk t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > row_count t then
    invalid_arg "Heap.scan_chunk: range out of bounds";
  Array.init len (fun i -> row_at t (pos + i))

(* The fault point trips per scan, like [scan], so chaos schedules do not
   depend on what is sealed or cached. *)
let scan_batches t ~rows =
  Perm_fault.trip fp_scan;
  seal t;
  let size = max 1 rows in
  if size = chunk_rows then t.chunks
  else
    match t.resliced with
    | Some (sz, batches) when sz = size -> batches
    | _ ->
      let n = row_count t in
      let batch pos =
        let len = min size (n - pos) in
        let col k = Array.init len (fun i -> cell t (pos + i) k) in
        Batch.dense (Array.init (Array.length t.tail) col) len
      in
      let batches = Array.init ((n + size - 1) / size) (fun b -> batch (b * size)) in
      t.resliced <- Some (size, batches);
      batches

let distinct_estimate t col =
  if col < 0 || col >= Array.length t.distinct then
    invalid_arg "Heap.distinct_estimate: column out of range";
  if t.distinct.(col) < 0 then begin
    (* one entry per key under key identity, so NULL, NaN and 0.0/-0.0
       each count once *)
    let set = Value.Key_tbl.create 64 in
    let add v = Value.Key_tbl.replace set v () in
    Array.iter (fun (b : Batch.t) -> Array.iter add b.cols.(col)) t.chunks;
    Vec.iteri (fun _ v -> add v) t.tail.(col);
    t.distinct.(col) <- Value.Key_tbl.length set
  end;
  t.distinct.(col)

let create_index t col =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Heap.create_index: column out of range";
  if not (Hashtbl.mem t.indexes col) then begin
    let idx = Value_hash.create 256 in
    for pos = 0 to row_count t - 1 do
      index_add idx (cell t pos col) pos
    done;
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
      | Some positions -> List.to_seq (List.rev_map (row_at t) positions))
