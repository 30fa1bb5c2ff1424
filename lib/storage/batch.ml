(* Columnar batch: the unit of exchange for the vectorized executor.

   A batch carries [rows] physical rows as [arity] column arrays plus a
   selection vector marking which rows are live. Filters narrow the
   selection in place of materializing rows; projections on dense batches
   share column pointers. The representation is deliberately unclever —
   [Value.t array] columns keep every kernel a plain loop over a uniform
   array, which is what buys the speedup over per-row closure dispatch. *)

module Value = Perm_value.Value

type t = {
  cols : Value.t array array;  (* arity columns, each of length [rows] *)
  rows : int;                  (* physical row count *)
  sel : int array;             (* live row indices, ascending; unused if [all] *)
  nsel : int;                  (* live count when not [all] *)
  all : bool;                  (* true: every physical row is live *)
}

let empty_sel : int array = [||]

let dense cols rows =
  { cols; rows; sel = empty_sel; nsel = rows; all = true }

let with_sel b sel nsel =
  if nsel = b.rows then { b with sel = empty_sel; nsel; all = true }
  else { b with sel; nsel; all = false }

(* Same liveness, different columns (each of physical length [rows]) —
   lets an all-attribute projection share column pointers instead of
   compacting. *)
let with_cols b cols = { b with cols }

let arity b = Array.length b.cols
let live b = if b.all then b.rows else b.nsel
let is_dense b = b.all

(* Physical index of the [i]-th live row. *)
let idx b i = if b.all then i else b.sel.(i)

let col b c = b.cols.(c)

(* Columns are made with an immediate fill and then written: [Array.init]
   past 256 words from a young first value would force a minor
   collection. *)
let of_rows ~arity (rows : Value.t array array) ~pos ~len =
  let cols = Array.init arity (fun _ -> Array.make len Value.Null) in
  for c = 0 to arity - 1 do
    let col = cols.(c) in
    for i = 0 to len - 1 do
      col.(i) <- rows.(pos + i).(c)
    done
  done;
  dense cols len

(* Fresh array of live physical indices (used by kernels that narrow). *)
let sel_array b =
  if b.all then begin
    let sel = Array.make b.rows 0 in
    for i = 1 to b.rows - 1 do
      Array.unsafe_set sel i i
    done;
    sel
  end
  else Array.sub b.sel 0 b.nsel

(* Compact live rows of each column into fresh dense arrays. *)
let compact b =
  if b.all then b
  else
    let n = b.nsel in
    let cols =
      Array.map
        (fun col ->
          let out = Array.make n Value.Null in
          for i = 0 to n - 1 do
            out.(i) <- col.(b.sel.(i))
          done;
          out)
        b.cols
    in
    dense cols n

let iter_live f b =
  if b.all then
    for i = 0 to b.rows - 1 do f i done
  else
    for i = 0 to b.nsel - 1 do f b.sel.(i) done

(* Exact heap footprint in bytes of everything reachable from the batch
   but its columns shared with [inputs] — the profiler's peak_bytes
   measurement on the vectorized path. *)
let measured_bytes inputs b =
  let owned col = not (List.exists (Array.exists (fun c -> c == col)) inputs) in
  let cols = Array.of_list (List.filter owned (Array.to_list b.cols)) in
  Obj.reachable_words (Obj.repr (with_cols b cols)) * (Sys.word_size / 8)
