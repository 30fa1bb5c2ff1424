(* Rows of batches by number: numbering the live rows of kept batches,
   gathering numbered rows into dense batches in a given order, slicing
   columns into batches, and the row streams spilled runs are read back
   as. *)

module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch

(* Row [p] of [b] as a tuple: what a run on disk holds, and each row of
   a result. A loop, not [Array.map], so no closure is made per row. *)
let brow (b : Batch.t) p =
  let cols = b.Batch.cols in
  let row = Array.make (Array.length cols) Value.Null in
  for c = 0 to Array.length cols - 1 do
    row.(c) <- cols.(c).(p)
  done;
  row

(* Keep the live rows of [b] whose physical index passes [keep], in
   order, by narrowing the selection vector in place. *)
let narrow_live (keep : int -> bool) b =
  let sel = Batch.sel_array b in
  let n = Batch.live b in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let p = sel.(i) in
    if keep p then begin
      sel.(!m) <- p;
      incr m
    end
  done;
  if !m = 0 then None else Some (Batch.with_sel b sel !m)

(* Number the live rows of kept batches in order: row [r] is position
   [rp.(r)] of batch [rb.(r)], tagged [tags.(r)] by [each] ([each b k]
   calls [k p tag] on the live rows of [b] in order; a {!grouper} tags
   them with their groups). Operators that see their whole input before
   emitting (sorts, group annotation) keep the immutable batches and
   address rows this way instead of materializing tuples. *)
let number_rows ?(each = fun b k -> Batch.iter_live (fun p -> k p 0) b) batches
    =
  let n = Array.fold_left (fun acc b -> acc + Batch.live b) 0 batches in
  let rb = Array.make n 0 and rp = Array.make n 0 and tags = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun bi b ->
      each b (fun p tag ->
          rb.(!k) <- bi;
          rp.(!k) <- p;
          tags.(!k) <- tag;
          incr k))
    batches;
  (rb, rp, tags)

(* Emit numbered rows in [order] as dense batches of at most [batch_rows]
   rows, gathering each column once per batch in a plain loop. [heads]
   prepends a group's head to each row: row [r] gets the columns of
   [fst heads] at index [(snd heads).(r)]. *)
let gather_rows ?(heads = ([||], [||])) ~batch_rows ~arity batches (rb, rp)
    order =
  let n = Array.length order in
  let head_rows, gids = heads in
  let head_arity =
    if Array.length gids = 0 || n = 0 then 0
    else Array.length head_rows.(gids.(order.(0)))
  in
  let size = max 1 batch_rows in
  let srcs =
    Array.init arity (fun c -> Array.map (fun b -> Batch.col b c) batches)
  in
  Seq.init
    ((n + size - 1) / size)
    (fun i ->
      let start = i * size in
      let len = min size (n - start) in
      let head c =
        let out = Array.make len Value.Null in
        for j = 0 to len - 1 do
          out.(j) <- head_rows.(gids.(order.(start + j))).(c)
        done;
        out
      in
      let column src =
        let out = Array.make len Value.Null in
        for j = 0 to len - 1 do
          let r = order.(start + j) in
          out.(j) <- src.(rb.(r)).(rp.(r))
        done;
        out
      in
      Batch.dense
        (Array.append (Array.init head_arity head) (Array.map column srcs))
        len)

(* Columns of [n] rows as dense batches of at most [batch_rows] rows. *)
let slice_columns ~batch_rows (cols : Value.t array array) n : Batch.t Seq.t =
  let size = max 1 batch_rows in
  Seq.init
    ((n + size - 1) / size)
    (fun i ->
      let pos = i * size in
      let len = min size (n - pos) in
      if len = n then Batch.dense cols n
      else Batch.dense (Array.map (fun col -> Array.sub col pos len) cols) len)

(* The [arity] columns of a row array. *)
let columns_of_rows ~arity (rows : Tuple.t array) =
  Array.init arity (fun c -> Array.map (fun row -> row.(c)) rows)

(* Default batch slicing for providers without native columnar storage. *)
let batches_of_columns ~batch_rows cols n =
  Array.of_seq (slice_columns ~batch_rows cols n)

let batches_of_list ~arity ~batch_rows rows =
  let rows = Array.of_list rows in
  batches_of_columns ~batch_rows (columns_of_rows ~arity rows) (Array.length rows)

(* The live rows of [batches] as one dense batch of [arity] columns. *)
let concat_live ~arity (batches : Batch.t array) =
  match batches with
  | [| b |] when Batch.is_dense b -> b
  | _ -> (
    let rb, rp, _ = number_rows batches in
    let n = Array.length rb in
    match gather_rows ~batch_rows:n ~arity batches (rb, rp) (Array.init n Fun.id) () with
    | Seq.Cons (b, _) -> b
    | Seq.Nil -> Batch.dense (Array.make arity [||]) 0)

(* The indices [0 .. n-1] where [f] holds, ascending. *)
let indices n f = Array.of_seq (Seq.filter f (Seq.init n Fun.id))

(* Stream the rows [next] yields as dense batches of at most [batch_rows]
   rows, pulling one batch's worth at a time (rows read back from spill
   files). *)
let batches_of_rows ~arity ~batch_rows (next : unit -> Tuple.t option) :
    Batch.t Seq.t =
  let size = max 1 batch_rows in
  let rec go () =
    let rows = Array.make size [||] in
    let rec fill n =
      if n = size then n
      else
        match next () with
        | None -> n
        | Some row ->
          rows.(n) <- row;
          fill (n + 1)
    in
    match fill 0 with
    | 0 -> Seq.Nil
    | n ->
      (* a short batch means [next] is exhausted: never call it again *)
      Seq.Cons
        (Batch.of_rows ~arity rows ~pos:0 ~len:n, if n < size then Seq.empty else go)
  in
  (* [next] consumes files: memoize so a re-forced stream replays *)
  Seq.memoize go
