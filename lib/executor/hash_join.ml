(* Hash joins: recognizing the key conjuncts of a join predicate,
   building the build input into key chains, probing a batch against
   them, and the Grace join past the spill budget. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Value = Perm_value.Value
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

(* ---- hash join build and probe ----------------------------------- *)

(* A hash-join build: the build input as dense columns [jb_cols], and one
   flat table over its key columns [jb_keys] (a key attribute is its
   column as is). [jb_slots], a power of two at least twice the rows and
   probed linearly, holds per slot the first build row of a key's chain,
   or -1; [jb_hashes.(i)] is row [i]'s key hash and [jb_next.(i)] the
   next row with its key (-1 ends a chain), so every chain runs in
   ascending row order. A row with NULL or NaN in a plain [=] key column
   joins no chain; null-safe columns match under key identity.
   [jb_unique]: no two rows share a key. Read-only once built, so the
   parallel gather shares one build across its morsel tasks, each
   compiling its own lookup ({!join_head}). *)
type join_build = {
  jb_cols : Value.t array array;
  jb_keys : Value.t array array;
  jb_slots : int array;
  jb_hashes : int array;
  jb_next : int array;
  mutable jb_unique : bool;
}

(* Whether row [p] of the key columns [cols] can match, from column [c]
   on: no NULL or NaN in a plain [=] column. *)
let rec usable safe cols p c =
  c = Array.length cols
  || (Array.unsafe_get safe c
     ||
     match Array.unsafe_get (Array.unsafe_get cols c) p with
     | Value.Null -> false
     | Value.Float f -> not (Float.is_nan f)
     | _ -> true)
     && usable safe cols p (c + 1)

(* The slot of the chain of row [p] of the key columns [cols], hashing
   [h], or the empty slot its key would take; the search starts at slot
   [s]. *)
let rec slot jb h cols p s =
  let r = Array.unsafe_get jb.jb_slots s in
  if
    r < 0
    || (Array.unsafe_get jb.jb_hashes r = h && row_equal jb.jb_keys r cols p 0)
  then s
  else slot jb h cols p ((s + 1) land (Array.length jb.jb_slots - 1))

(* The first build row whose key matches row [p] of the probe key columns
   [cols], or -1 (a key with NULL or NaN in a plain [=] column finds no
   chain: no build row holds one). *)
let first_match jb cols p =
  let h = row_hash cols p in
  Array.unsafe_get jb.jb_slots
    (slot jb h cols p (h land (Array.length jb.jb_slots - 1)))

(* [build_join lay keys bb] chains the rows of the dense build input [bb]
   by the right sides of the key pairs [keys], over [lay], last to first,
   so every chain runs in ascending row order. *)
let build_join lay keys =
  let kcols = key_columns lay (List.map (fun k -> k.r_expr) keys) in
  let safe = Array.of_list (List.map (fun k -> k.null_safe) keys) in
  fun (bb : Batch.t) ->
    let n = bb.Batch.rows in
    let rec size k = if k >= 2 * n then k else size (2 * k) in
    let jb =
      {
        jb_cols = bb.Batch.cols;
        jb_keys = kcols bb;
        jb_slots = Array.make (size 1) (-1);
        jb_hashes = Array.make n 0;
        jb_next = Array.make n (-1);
        jb_unique = true;
      }
    in
    let keys = jb.jb_keys and mask = Array.length jb.jb_slots - 1 in
    for i = n - 1 downto 0 do
      if usable safe keys i 0 then begin
        let h = row_hash keys i in
        jb.jb_hashes.(i) <- h;
        let s = slot jb h keys i (h land mask) in
        let r = jb.jb_slots.(s) in
        if r >= 0 then jb.jb_unique <- false;
        jb.jb_next.(i) <- r;
        jb.jb_slots.(s) <- i
      end
    done;
    jb

(* The probe side's lookup, for the left sides of the key pairs [keys]
   over [lay]: given a probe batch, its key columns are evaluated once,
   and row [p] gets its first matching build row, or -1. *)
let join_head jb lay keys =
  let kcols = key_columns lay (List.map (fun k -> k.l_expr) keys) in
  fun b -> first_match jb (kcols b)

(* The first [n] cells of [idx] as a column of [src]: [src.(idx.(j))] at
   [j], NULL where [idx.(j)] is -1 (a pad, or a row passed over). *)
let gather_idx n (idx : int array) (src : Value.t array) =
  let dst = Array.make n Value.Null in
  for j = 0 to n - 1 do
    let i = Array.unsafe_get idx j in
    if i >= 0 then Array.unsafe_set dst j src.(i)
  done;
  dst

(* [n] (left, build) row pairs as a dense batch: [lcols] gathered at
   [lidx], [rcols] at [ridx], NULL where an index is -1 (a pad). *)
let pairs_batch lcols lidx rcols ridx n =
  Batch.dense
    (Array.append
       (Array.map (gather_idx n lidx) lcols)
       (Array.map (gather_idx n ridx) rcols))
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

(* The [n] pairs [(lidx.(j), ridx.(j))] of a probe of [lb] in which every
   live row is paired at most once, as [lb] itself: its columns shared,
   the build columns [rcols] appended, gathered at its physical rows, and
   its selection narrowed to [lidx]. *)
let pass_through (lb : Batch.t) lidx ridx n rcols =
  let phys = Array.make lb.Batch.rows (-1) in
  for j = 0 to n - 1 do
    phys.(lidx.(j)) <- ridx.(j)
  done;
  let cols = Array.map (gather_idx lb.Batch.rows phys) rcols in
  Batch.with_sel
    (Batch.with_cols lb (Array.append lb.Batch.cols cols))
    (Array.sub lidx 0 n) n

(* Probe one left batch against a join build, [head] its chain lookup
   ({!join_head}) and [residual] the non-key conjuncts over (left row,
   build row). Semi/Anti narrow the selection vector in place; the
   expanding kinds collect (left physical index, build row) pairs and
   flush them into dense output batches capped at [batch_rows], so giant
   expansions stay streamed and the cancel token keeps batch-granular
   kill latency. A left row's matches come in chain order: ascending
   build-row order. Over unique build keys, outside the Grace join, a
   row matches at most once: a batch's pairs are flushed once, as the
   probe batch itself ({!pass_through}) when that writes fewer cells than
   the dense gather. Without [pads], a LEFT/FULL probe emits only matches
   (the Grace join pads once every chunk has probed). [tap] is handed
   each output batch of the expanding kinds with its rows' positions in
   [lb]. *)
let probe_batch ~kind ~batch_rows ~(jb : join_build) ~head
    ~(residual : (Batch.t -> int -> int -> bool) option)
    ~(matched_right : bool array option) ~pads ?tap (lb : Batch.t) :
    Batch.t list =
  let next = jb.jb_next and find = head lb in
  let ok p r = match residual with None -> true | Some f -> f lb p r in
  let pad = pads && (kind = Plan.Left || kind = Plan.Full) in
  match kind with
  | Plan.Semi | Plan.Anti ->
    let want = kind = Plan.Semi in
    let rec hit p r = r >= 0 && (ok p r || hit p next.(r)) in
    Option.to_list (narrow_live (fun p -> hit p (find p) = want) lb)
  | Plan.Inner | Plan.Cross | Plan.Left | Plan.Full ->
    let unique = jb.jb_unique && Option.is_none tap in
    let cap = max 1 (if unique then Batch.live lb else batch_rows) in
    let lidx = Array.make cap 0 and ridx = Array.make cap 0 in
    let cnt = ref 0 and out = ref [] in
    let l_arity = Array.length lb.Batch.cols
    and r_arity = Array.length jb.jb_cols in
    let flush () =
      if !cnt > 0 then begin
        let b =
          if unique && r_arity * lb.Batch.rows <= (l_arity + r_arity) * !cnt
          then pass_through lb lidx ridx !cnt jb.jb_cols
          else pairs_batch lb.Batch.cols lidx jb.jb_cols ridx !cnt
        in
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
    Batch.iter_live
      (fun p ->
        let any = ref false and r = ref (find p) in
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
