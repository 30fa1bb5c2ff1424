(* Hash joins: recognizing the key conjuncts of a join predicate,
   building the build input into key chains, probing a batch against
   them, and the Grace join past the spill budget. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch
module Spill = Perm_storage.Spill
open Eval
open Gather
open Grouping
open Runs

(* ------------------------------------------------------------------ *)
(* Join key extraction                                                 *)
(* ------------------------------------------------------------------ *)

(* A hashable key pair: [l_expr] over the left schema equals [r_expr] over
   the right schema, either with SQL semantics (NULL and NaN never match)
   or under key identity (the provenance rejoin pattern
   {!Expr.key_eq_all}: NULL matches NULL, NaN matches NaN). *)
type key_pair = { l_expr : Expr.t; r_expr : Expr.t; null_safe : bool }

let subset_of attrs schema =
  let ids = List.map (fun (a : Attr.t) -> a.Attr.id) schema in
  Attr.Set.for_all (fun (a : Attr.t) -> List.mem a.Attr.id ids) attrs

let orient left_schema right_schema a b ~null_safe =
  let aa = Expr.attrs a and ab = Expr.attrs b in
  if subset_of aa left_schema && subset_of ab right_schema then
    Some { l_expr = a; r_expr = b; null_safe }
  else if subset_of ab left_schema && subset_of aa right_schema then
    Some { l_expr = b; r_expr = a; null_safe }
  else None

(* Recognize hashable conjuncts of a join predicate; remaining conjuncts
   become a residual filter. *)
let split_join_pred left_schema right_schema pred =
  let key c =
    match c with
    | Expr.Binop (Expr.Eq, a, b) ->
      orient left_schema right_schema a b ~null_safe:false
    | Expr.Binop (Expr.Or, Expr.Binop (Expr.Eq, a, b), _)
      when Expr.equal c (Expr.key_eq a b) ->
      orient left_schema right_schema a b ~null_safe:true
    | _ -> None
  in
  List.partition_map
    (fun c -> match key c with Some k -> Either.Left k | None -> Either.Right c)
    (Expr.conjuncts pred)

(* a plain SQL = key never matches when NULL or NaN; the hash table
   itself matches under key identity *)
let key_usable (null_safety : bool array) (key : Tuple.t) =
  let n = Array.length key in
  let sql_matchable = function
    | Value.Null -> false
    | Value.Float f -> not (Float.is_nan f)
    | _ -> true
  in
  let rec go i =
    i >= n || ((null_safety.(i) || sql_matchable key.(i)) && go (i + 1))
  in
  go 0

(* ---- hash join build and probe ----------------------------------- *)

(* A hash-join build: the build input as dense columns, its rows chained
   by key in ascending row order ([next.(i)] is the next row with row
   [i]'s key, -1 ends a chain), and [head (lay, keys)], which compiles
   the chain-head lookup for the probe-side key expressions over [lay]:
   the first build row whose key matches probe row [p] of batch [b], or
   -1. Read-only once built, so the parallel gather shares one build
   across its morsel tasks, each compiling its own lookup (key
   evaluators carry row cursors). *)
(* Monomorphic hash tables for one-column join keys of an immediate
   dtype: the unboxed int hashes with an integer mix, a string with the
   stdlib string hash. *)
module Int_hash = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = (x * 0x9e3779b1) land max_int
end)

module Str_hash = Hashtbl.Make (struct
  type t = string

  let equal (a : string) b = String.equal a b
  let hash (s : string) = Hashtbl.hash s
end)

type join_build = {
  jb_cols : Value.t array array;
  jb_next : int array;
  jb_head : layout * Expr.t list -> Batch.t -> int -> int;
}

exception Off_dtype

(* A join build over keys hashed in [H]: [build key side bb] links the
   rows of the dense build input [bb] by [key side] last to first, so
   every chain runs in ascending row order; a probe side's lookup reads
   [key] over its own layout. [key] raises [Exit] for a row whose key
   never matches; [Off_dtype] from the build leaves the table to the
   caller, from a probe it matches nothing. *)
module Chains (H : Hashtbl.S) = struct
  let build key side (bb : Batch.t) =
    let n = bb.Batch.rows in
    let next = Array.make n (-1) and tbl = H.create 256 and bkey = key side in
    for i = n - 1 downto 0 do
      match bkey bb i with
      | k ->
        next.(i) <- (try H.find tbl k with Not_found -> -1);
        H.replace tbl k i
      | exception Exit -> ()
    done;
    let head side =
      let key = key side in
      fun b p -> try H.find tbl (key b p) with Not_found | Exit | Off_dtype -> -1
    in
    { jb_cols = bb.Batch.cols; jb_next = next; jb_head = head }
end

module Int_chains = Chains (Int_hash)
module Str_chains = Chains (Str_hash)
module Tuple_chains = Chains (Tuple.Hash)

(* The unboxed key of a value of a one-column key of dtype [dt]: the raw
   int of an int, date or bool, the string of a text. NULL never matches
   ([Exit]); a value off the dtype raises [Off_dtype]. *)
let int_key dt (v : Value.t) =
  match dt, v with
  | Dtype.Int, Value.Int n | Dtype.Date, Value.Date n -> n
  | Dtype.Bool, Value.Bool b -> Bool.to_int b
  | _, Value.Null -> raise Exit
  | _ -> raise Off_dtype

let str_key (v : Value.t) =
  match v with
  | Value.Text s -> s
  | Value.Null -> raise Exit
  | _ -> raise Off_dtype

(* Build over the dense build input [bb], its key expressions [side]. A
   plain [=] key that is one column of the same immediate dtype [single]
   on both sides goes through the unboxed tables above. Every other key,
   and a build holding a value off the dtype, goes through the tuple
   table under key identity ({!Tuple.equal}): a key with NULL or NaN in a
   plain [=] column never matches. *)
let build_join ~single ~null_safety side bb =
  let unboxed of_value (lay, keys) =
    let get = bexpr_of lay (List.hd keys) in
    fun b p -> of_value (get b p)
  in
  let tuples () =
    let usable = key_usable null_safety in
    Tuple_chains.build
      (fun (lay, keys) ->
        let fill = key_filler lay keys in
        fun b p -> match fill b p with k when usable k -> k | _ -> raise Exit)
      side bb
  in
  try
    match single with
    | Some Dtype.Text -> Str_chains.build (unboxed str_key) side bb
    | Some dt -> Int_chains.build (unboxed (int_key dt)) side bb
    | None -> tuples ()
  with Off_dtype -> tuples ()

(* [n] (left, build) row pairs as a dense batch: [lcols] gathered at
   [lidx], [rcols] at [ridx], NULL where an index is -1 (a pad). *)
let pairs_batch lcols lidx rcols ridx n =
  let gather idx (src : Value.t array) =
    let dst = Array.make n Value.Null in
    for j = 0 to n - 1 do
      let i = Array.unsafe_get idx j in
      if i >= 0 then Array.unsafe_set dst j src.(i)
    done;
    dst
  in
  Batch.dense
    (Array.append
       (Array.map (gather lidx) lcols)
       (Array.map (gather ridx) rcols))
    n

(* The row pairs [(lidx.(j), ridx.(j))] as dense batches of at most
   [batch_rows] rows ({!pairs_batch}). *)
let pairs_batches ~batch_rows lcols lidx rcols ridx =
  let n = Array.length lidx and size = max 1 batch_rows in
  Seq.init
    ((n + size - 1) / size)
    (fun i ->
      let pos = i * size in
      let len = min size (n - pos) in
      pairs_batch lcols (Array.sub lidx pos len) rcols (Array.sub ridx pos len)
        len)

(* The build rows a FULL join matched nowhere, in build order, padded on
   the left with NULLs. *)
let unmatched_build ~l_arity ~batch_rows jb (matched : bool array) =
  let idx = indices (Array.length matched) (fun i -> not matched.(i)) in
  pairs_batches ~batch_rows (Array.make l_arity [||])
    (Array.make (Array.length idx) (-1))
    jb.jb_cols idx

(* Probe one left batch against a join build, [head] its compiled chain
   lookup and [residual] the non-key conjuncts over (left row, build
   row). Semi/Anti narrow the selection vector in place; the expanding
   kinds collect (left physical index, build row) pairs and flush them
   into dense output batches capped at [batch_rows], so giant expansions
   stay streamed and the cancel token keeps batch-granular kill latency.
   A left row's matches come in chain order: ascending build-row order.
   Without [pads], a LEFT/FULL probe emits only matches (the Grace join
   pads once every chunk has probed). [tap] is handed each output batch
   of the expanding kinds with its rows' positions in [lb]. *)
let probe_batch ~kind ~batch_rows ~(jb : join_build) ~head
    ~(residual : (Batch.t -> int -> int -> bool) option)
    ~(matched_right : bool array option) ~pads ?tap (lb : Batch.t) :
    Batch.t list =
  let next = jb.jb_next in
  let ok p r = match residual with None -> true | Some f -> f lb p r in
  match kind with
  | Plan.Semi | Plan.Anti ->
    let want = kind = Plan.Semi in
    let rec hit p r = r >= 0 && (ok p r || hit p next.(r)) in
    Option.to_list (narrow_live (fun p -> hit p (head lb p) = want) lb)
  | Plan.Inner | Plan.Cross | Plan.Left | Plan.Full ->
    let cap = max 1 batch_rows in
    let lidx = Array.make cap 0 and ridx = Array.make cap 0 in
    let cnt = ref 0 and out = ref [] in
    let flush () =
      if !cnt > 0 then begin
        let b = pairs_batch lb.Batch.cols lidx jb.jb_cols ridx !cnt in
        Option.iter (fun f -> f b (Array.sub lidx 0 !cnt)) tap;
        out := b :: !out;
        cnt := 0
      end
    in
    let push p r =
      lidx.(!cnt) <- p;
      ridx.(!cnt) <- r;
      incr cnt;
      if !cnt = cap then flush ()
    in
    let pad = pads && (kind = Plan.Left || kind = Plan.Full) in
    Batch.iter_live
      (fun p ->
        let any = ref false and r = ref (head lb p) in
        while !r >= 0 do
          if ok p !r then begin
            any := true;
            (match matched_right with Some m -> m.(!r) <- true | None -> ());
            push p !r
          end;
          r := next.(!r)
        done;
        if pad && not !any then push p (-1))
      lb;
    flush ();
    List.rev !out
  | Plan.Right -> assert false

(* Grace hash join for a build side past the spill threshold. The build
   pieces become chunks on a temp file and the probe side is written once,
   as batches: its pipeline runs exactly one pass whatever the chunk count
   (progress counters, fault schedules and non-reentrant child state all
   assume one pass). Each chunk in turn is built ({!build_join}) and
   every probe batch probed against it with [probe] ({!probe_batch}),
   which tracks the
   probe-side positions that matched. Semi and anti joins then narrow
   the probe batches' selection vectors by those positions. The
   expanding kinds write each chunk's matches as a run keyed by probe
   position, plus a run of padded unmatched probe rows for LEFT/FULL;
   merging the runs (ties to the lower chunk) gives every probe row its
   matches in ascending right-row order at its place in the stream, as
   the in-memory join does, and FULL appends the right rows no chunk
   matched, in right order ({!unmatched_build} per chunk, parked as
   batches). At most one chunk is in memory. *)
let grace_join cfg ~kind ~l_arity ~r_arity ~batch_rows ~build ~probe pieces
    (left : Batch.t Seq.t) : Batch.t Seq.t =
  let note = cfg.Spill.note in
  note Spill.Spilled;
  let chunks = Spill.create cfg in
  Seq.iter
    (fun piece ->
      let chunk = concat_live ~arity:r_arity piece in
      Spill.push ~rows:chunk.Batch.rows chunks chunk;
      note Spill.Chunk)
    pieces;
  Spill.rewind chunks;
  let probe_file = Spill.create cfg in
  let n_probe = ref 0 in
  Seq.iter
    (fun b ->
      let b = Batch.compact b in
      if b.Batch.rows > 0 then begin
        Spill.push ~rows:b.Batch.rows probe_file b;
        n_probe := !n_probe + b.Batch.rows
      end)
    left;
  let matched = Bytes.make !n_probe '\000' in
  let is_matched pos = Bytes.get matched pos = '\001' in
  (* [f base b] on each probe batch in order, [base] its first position *)
  let each_probe f =
    Spill.rewind probe_file;
    let rec go base =
      match Spill.next probe_file with
      | None -> ()
      | Some b ->
        f base b;
        go (base + b.Batch.rows)
    in
    go 0
  in
  let runs = ref [] and right_pads = Spill.create cfg in
  let new_run fill =
    let run = Spill.create cfg in
    fill (fun pos row -> Spill.push run ([| Value.Int pos |], row));
    Spill.rewind run;
    runs := run :: !runs
  in
  let rec each_chunk () =
    match Spill.next chunks with
    | None -> Spill.release chunks
    | Some chunk ->
      let jb = build chunk in
      let matched_right =
        if kind = Plan.Full then Some (Array.make chunk.Batch.rows false)
        else None
      in
      (match kind with
      | Plan.Semi | Plan.Anti ->
        let probe = probe ~kind:Plan.Semi ~matched_right ~tap:None jb in
        each_probe (fun base lb ->
            List.iter
              (Batch.iter_live (fun p -> Bytes.set matched (base + p) '\001'))
              (probe lb))
      | _ ->
        new_run (fun push ->
            let tap base out lidx =
              Array.iteri
                (fun j p ->
                  Bytes.set matched (base + p) '\001';
                  push (base + p) (brow out j))
                lidx
            in
            each_probe (fun base lb ->
                ignore
                  (probe ~kind ~matched_right ~tap:(Some (tap base)) jb lb))));
      Option.iter
        (fun matched ->
          Seq.iter
            (fun b -> Spill.push ~rows:b.Batch.rows right_pads b)
            (unmatched_build ~l_arity ~batch_rows jb matched))
        matched_right;
      each_chunk ()
  in
  each_chunk ();
  Spill.rewind right_pads;
  match kind with
  | Plan.Semi | Plan.Anti ->
    let want = kind = Plan.Semi in
    Spill.release right_pads;
    Spill.rewind probe_file;
    let rec out base () =
      match Spill.next probe_file with
      | None ->
        Spill.release probe_file;
        Seq.Nil
      | Some b -> (
        let next = out (base + b.Batch.rows) in
        match narrow_live (fun p -> is_matched (base + p) = want) b with
        | Some b -> Seq.Cons (b, next)
        | None -> next ())
    in
    out 0
  | _ ->
    if kind = Plan.Left || kind = Plan.Full then
      new_run (fun push ->
          each_probe (fun base lb ->
              Batch.iter_live
                (fun p ->
                  if not (is_matched (base + p)) then
                    push (base + p)
                      (Tuple.concat (brow lb p) (Array.make r_arity Value.Null)))
                lb));
    Spill.release probe_file;
    let rec pads () =
      match Spill.next right_pads with
      | Some b -> Seq.Cons (b, pads)
      | None ->
        Spill.release right_pads;
        Seq.Nil
    in
    Seq.append
      (batches_of_rows ~arity:(l_arity + r_arity) ~batch_rows
         (merge_runs ~desc:[| false |]
            (Array.of_list (List.rev !runs))
            ~emit:(fun _ row -> Some row)))
      pads
