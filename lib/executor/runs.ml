(* Spilling and sorting: the input of a materializing operator, whole or
   in budget-sized pieces; the permutation sort; sorted runs on disk and
   their merge. The one ORDER BY comparison, [compare_keys], sits here
   with both of its callers. *)

module Plan = Perm_algebra.Plan
module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch
module Spill = Perm_storage.Spill
open Eval
open Gather

(* ------------------------------------------------------------------ *)
(* Graceful spill-to-disk                                              *)
(* ------------------------------------------------------------------ *)

(* A statement's spill configuration travels in the batch compile context
   ({!bcx}); [None] there means no spilling. When set, sorts, join builds
   and group annotations past the threshold degrade to temp files, and
   state no operator can spill is capped at the threshold. *)
let spill_of = function
  | Some c when c.Spill.threshold > 0 -> Some c
  | _ -> None

(* ---- spilling ----------------------------------------------------- *)

(* The input of a materializing operator (sort, group annotation, join
   build). It [Fits] when there is no spill configuration (the operator's
   child stream as is) or it holds at most [threshold] live rows: the
   operator runs its in-memory algorithm on it, so a budget that is never
   reached changes nothing. Past the threshold it [Spills] as pieces of
   at most [threshold] rows, each pulled only after the operator has
   written the previous one to disk: the operator runs the same algorithm
   on every piece. *)
type input = Fits of Batch.t Seq.t | Spills of Spill.config * Batch.t array Seq.t

(* Pull [s] until its batches hold [th] live rows: those batches and, if
   rows remain, the rest of the stream. A batch straddling the threshold
   is split through its selection vector. *)
let take_rows th (s : Batch.t Seq.t) =
  let rec go acc room s =
    match s () with
    | Seq.Nil -> (Array.of_list (List.rev acc), None)
    | Seq.Cons (b, rest) ->
      let n = Batch.live b in
      if n = 0 then go acc room rest
      else if n <= room then go (b :: acc) (room - n) rest
      else
        let sel = Batch.sel_array b in
        let part i len = Batch.with_sel b (Array.sub sel i len) len in
        let acc = if room > 0 then part 0 room :: acc else acc in
        (Array.of_list (List.rev acc), Some (Seq.cons (part room (n - room)) rest))
  in
  go [] th s

let input_of spill (s : Batch.t Seq.t) =
  match spill with
  | None -> Fits s
  | Some cfg -> (
    let th = cfg.Spill.threshold in
    match take_rows th s with
    | first, None -> Fits (Array.to_seq first)
    | first, Some rest ->
      let rec pieces s () =
        match take_rows th s with
        | [||], _ -> Seq.Nil
        | piece, None -> Seq.Cons (piece, Seq.empty)
        | piece, Some rest -> Seq.Cons (piece, pieces rest)
      in
      Spills (cfg, Seq.cons first (pieces rest)))

(* Compare rows [i] and [j] of the key columns [kcols], [desc] flagging
   the descending keys: the one ORDER BY comparison, of the in-memory
   permutation sort and of the merge of spilled runs alike. *)
let[@inline] compare_keys desc (kcols : Value.t array array) i j =
  let c = ref 0 and k = ref 0 in
  while !c = 0 && !k < Array.length kcols do
    let col = kcols.(!k) in
    c := Value.compare col.(i) col.(j);
    if desc.(!k) then c := - !c;
    incr k
  done;
  !c

(* A sorted run on disk: each row with its key values, in key order. *)
type run = (Tuple.t * Tuple.t) Spill.file

(* Write the numbered rows of [batches] in [order] as a run, each with its
   values of the key columns [kcols]. *)
let write_run cfg batches (rb, rp) kcols order : run =
  let f = Spill.create cfg in
  Array.iter
    (fun r ->
      Spill.push f (row kcols r, brow batches.(rb.(r)) rp.(r)))
    order;
  Spill.rewind f;
  cfg.Spill.note Spill.Run;
  f

(* Merge sorted runs into one row stream, each row mapped by [emit key
   row] (rows it maps to [None] are dropped): the smallest key first,
   ties to the lowest-numbered run. Runs hold consecutive pieces of the
   input, so the merge is as stable as one sort of all of it. The run
   heads' keys sit in key columns indexed by run, compared with
   {!compare_keys}. A run is released once exhausted. *)
let merge_runs ~desc (runs : run array) ~emit : unit -> Tuple.t option =
  let k = Array.length runs in
  let heads = Array.make k None in
  let hkeys = Array.map (fun _ -> Array.make k Value.Null) desc in
  let advance i =
    heads.(i) <- Spill.next runs.(i);
    match heads.(i) with
    | Some (key, _) -> Array.iteri (fun c v -> hkeys.(c).(i) <- v) key
    | None -> Spill.release runs.(i)
  in
  for i = 0 to k - 1 do
    advance i
  done;
  let rec next () =
    let best = ref (-1) in
    for i = 0 to k - 1 do
      if Option.is_some heads.(i)
         && (!best < 0 || compare_keys desc hkeys i !best < 0)
      then best := i
    done;
    if !best < 0 then None
    else
      let key, row = Option.get heads.(!best) in
      advance !best;
      match emit key row with None -> next () | some -> some
  in
  next

(* ORDER BY keys over [lay]: their evaluators and descending flags. *)
let sort_keys lay keys =
  ( Array.of_list (List.map (fun (e, _) -> bexpr_of lay e) keys),
    Array.of_list (List.map (fun (_, d) -> d = Plan.Desc) keys) )

(* A permutation sort of the numbered rows of [batches]: keys evaluated
   once per row into columns, a stable sort of row numbers. Returns the
   numbering, the key columns and the permutation. A lone row is never
   compared, so its keys are evaluated only for a run ([runs]). *)
let sort_rows (gets, desc) ~runs batches =
  let rb, rp = number_rows batches in
  let n = Array.length rb in
  let perm = Array.init n Fun.id in
  let kcols =
    if n > 1 || runs then
      Array.map
        (fun get -> column n (fun r -> get batches.(rb.(r)) rp.(r)))
        gets
    else [||]
  in
  if n > 1 then Array.stable_sort (fun i j -> compare_keys desc kcols i j) perm;
  ((rb, rp), kcols, perm)
