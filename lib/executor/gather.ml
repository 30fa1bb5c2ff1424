(* Rows of batches by number: numbering the live rows of kept batches,
   gathering numbered rows into dense batches in a given order, slicing
   columns into batches, and the row streams spilled runs are read back
   as. *)

module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch

(* Row [p] of the columns [cols] as a tuple: what a run on disk holds,
   each row of a result, and a group's key. Up to 16 columns the row is
   an array literal, one allocation whose cells are initialized in place;
   wider rows are filled by a loop, one write barrier per cell. *)
let row (cols : Value.t array array) p : Tuple.t =
  match cols with
  | [||] -> [||]
  | [| c0 |] -> [| c0.(p) |]
  | [| c0; c1 |] -> [| c0.(p); c1.(p) |]
  | [| c0; c1; c2 |] -> [| c0.(p); c1.(p); c2.(p) |]
  | [| c0; c1; c2; c3 |] -> [| c0.(p); c1.(p); c2.(p); c3.(p) |]
  | [| c0; c1; c2; c3; c4 |] -> [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p) |]
  | [| c0; c1; c2; c3; c4; c5 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p);
       c8.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8; c9 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p); c8.(p);
       c9.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8; c9; c10 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p); c8.(p);
       c9.(p); c10.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8; c9; c10; c11 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p); c8.(p);
       c9.(p); c10.(p); c11.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8; c9; c10; c11; c12 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p); c8.(p);
       c9.(p); c10.(p); c11.(p); c12.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8; c9; c10; c11; c12; c13 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p); c8.(p);
       c9.(p); c10.(p); c11.(p); c12.(p); c13.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8; c9; c10; c11; c12; c13; c14 |] ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p); c8.(p);
       c9.(p); c10.(p); c11.(p); c12.(p); c13.(p); c14.(p) |]
  | [| c0; c1; c2; c3; c4; c5; c6; c7; c8; c9; c10; c11; c12; c13; c14; c15 |]
    ->
    [| c0.(p); c1.(p); c2.(p); c3.(p); c4.(p); c5.(p); c6.(p); c7.(p); c8.(p);
       c9.(p); c10.(p); c11.(p); c12.(p); c13.(p); c14.(p); c15.(p) |]
  | _ ->
    let row = Array.make (Array.length cols) Value.Null in
    for c = 0 to Array.length cols - 1 do
      row.(c) <- cols.(c).(p)
    done;
    row

let brow (b : Batch.t) p = row b.Batch.cols p

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
   [rp.(r)] of batch [rb.(r)]. Operators that see their whole input
   before emitting (sorts, group annotation) keep the immutable batches
   and address rows this way instead of materializing tuples. *)
let number_rows batches =
  let n = Array.fold_left (fun acc b -> acc + Batch.live b) 0 batches in
  let rb = Array.make n 0 and rp = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun bi b ->
      for i = 0 to Batch.live b - 1 do
        rb.(!k) <- bi;
        rp.(!k) <- Batch.idx b i;
        incr k
      done)
    batches;
  (rb, rp)

(* Emit numbered rows in [order] as dense batches of at most [batch_rows]
   rows, gathering each column once per batch in a plain loop. [heads]
   prepends a group's head to each row: row [r] gets, from each column of
   [fst heads], the value at its group [(snd heads).(r)]. An output column
   that [reads] leaves out is not gathered: it is empty. *)
let gather_rows ?(reads = fun _ -> true) ?(heads = ([||], [||])) ~batch_rows
    ~arity batches (rb, rp) order =
  let n = Array.length order in
  let head_cols, gids = heads in
  let head_arity = Array.length head_cols in
  let size = max 1 batch_rows in
  let srcs =
    Array.init arity (fun c -> Array.map (fun b -> Batch.col b c) batches)
  in
  Seq.init
    ((n + size - 1) / size)
    (fun i ->
      let start = i * size in
      let len = min size (n - start) in
      let head (col : Value.t array) =
        let out = Array.make len Value.Null in
        for j = 0 to len - 1 do
          out.(j) <- col.(gids.(order.(start + j)))
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
        (Array.append
           (Array.mapi
              (fun c col -> if reads c then head col else [||])
              head_cols)
           (Array.mapi
              (fun c src -> if reads (head_arity + c) then column src else [||])
              srcs))
        len)

(* Columns of [n] rows (or more: the rest is left out) as dense batches
   of at most [batch_rows] rows. *)
let slice_columns ~batch_rows (cols : Value.t array array) n : Batch.t Seq.t =
  let size = max 1 batch_rows in
  Seq.init
    ((n + size - 1) / size)
    (fun i ->
      let pos = i * size in
      let len = min size (n - pos) in
      if len = n && Array.for_all (fun col -> Array.length col = n) cols then
        Batch.dense cols n
      else Batch.dense (Array.map (fun col -> Array.sub col pos len) cols) len)

(* The values [get 0 .. get (n - 1)] as a fresh column, made with an
   immediate fill and then written: [Array.init] or [Array.map] past 256
   words from a young first value would force a minor collection. *)
let column n get =
  let col = Array.make n Value.Null in
  for i = 0 to n - 1 do
    col.(i) <- get i
  done;
  col

(* The [arity] columns of a row array. *)
let columns_of_rows ~arity (rows : Tuple.t array) =
  Array.init arity (fun c -> column (Array.length rows) (fun i -> rows.(i).(c)))

(* Default batch slicing for providers without native columnar storage. *)
let batches_of_columns ~batch_rows cols n =
  Array.of_seq (slice_columns ~batch_rows cols n)

let batches_of_list ~arity ~batch_rows rows =
  let rows = Array.of_list rows in
  batches_of_columns ~batch_rows (columns_of_rows ~arity rows) (Array.length rows)

(* The live rows of [batches] as one dense batch of [arity] columns:
   dense batches' columns are concatenated whole, others gathered. *)
let concat_live ~arity (batches : Batch.t array) =
  match batches with
  | [| b |] when Batch.is_dense b -> b
  | _ when Array.for_all Batch.is_dense batches ->
    Batch.dense
      (Array.init arity (fun c ->
           Array.concat
             (Array.to_list (Array.map (fun b -> Batch.col b c) batches))))
      (Array.fold_left (fun n b -> n + b.Batch.rows) 0 batches)
  | _ -> (
    let rb, rp = number_rows batches in
    let n = Array.length rb in
    match gather_rows ~batch_rows:n ~arity batches (rb, rp) (Array.init n Fun.id) () with
    | Seq.Cons (b, _) -> b
    | Seq.Nil -> Batch.dense (Array.make arity [||]) 0)

(* The indices [0 .. n-1] where [f] holds, ascending. *)
let indices n f =
  let out = Array.make n 0 and m = ref 0 in
  for i = 0 to n - 1 do
    if f i then begin
      out.(!m) <- i;
      incr m
    end
  done;
  Array.sub out 0 !m

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
