(* Grouping and aggregation state: the grouping kernel every grouping
   operator runs its batches through, the aggregate states it keeps in
   columns by group id, and the budget on the group tables, which cannot
   spill. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Value = Perm_value.Value
module Batch = Perm_storage.Batch
module Spill = Perm_storage.Spill
open Eval
open Gather

(* Hard ceiling for materialized state no operator can spill
   (hash-aggregate groups, DISTINCT / set-op seen-tables). With spill on
   the token carries no tuple budget — sorts and join builds degrade to
   disk instead — so without this check those operators would run
   unguarded. Call it with the current size of the in-memory table; past
   the threshold the statement dies with Resource_exhausted rather than
   silently ignoring the configured budget. *)
let budget_materialized spill ~what n =
  match spill with
  | Some c when n > c.Spill.threshold ->
    raise
      (Perm_err.Cancel
         ( Perm_err.Resource_exhausted,
           Printf.sprintf
             "tuple budget exceeded: %s holds %d rows (budget %d, not \
              spillable)"
             what n c.Spill.threshold ))
  | _ -> ()

(* [a] copied into a fresh array of [cap] cells, the rest [fill]. Every
   column by group id grows this way; [fill] is immediate, so the array
   never forces a minor collection. *)
let extend fill a cap =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The annotation's output order over rows numbered in input order, given
   each row's group id: groups by [rank] (a group's position in the
   output, -1 to leave its rows out), rows of a group in input order. A
   stable counting sort. *)
let grouped_order (rank : int array) (gids : int array) =
  let groups = Array.fold_left max (-1) rank + 1 in
  let next = Array.make (groups + 1) 0 in
  Array.iter
    (fun g -> if rank.(g) >= 0 then next.(rank.(g) + 1) <- next.(rank.(g) + 1) + 1)
    gids;
  for r = 1 to groups do
    next.(r) <- next.(r) + next.(r - 1)
  done;
  let order = Array.make next.(groups) 0 in
  Array.iteri
    (fun k g ->
      let r = rank.(g) in
      if r >= 0 then begin
        order.(next.(r)) <- k;
        next.(r) <- next.(r) + 1
      end)
    gids;
  order

(* ------------------------------------------------------------------ *)
(* The flat group table                                                *)
(* ------------------------------------------------------------------ *)

(* Open addressing over [slots], each 0 (empty) or a group id + 1, probed
   linearly; at most half the slots are full. A group's id is its index
   in first-seen order; by id the table keeps its key's hash and, per key
   expression, a column of the group's first row's values. [key_cols]
   evaluates a batch's key columns; [ids] is the last batch's group ids
   by physical row. *)
type table = {
  key_cols : Batch.t -> Value.t array array;
  spill : Spill.config option;
  what : string;
  mutable slots : int array;
  mutable hashes : int array;
  mutable keys : Value.t array array;
  mutable size : int;
  mutable ids : int array;
}

(* [Tuple.hash] of row [p] of the key columns [cols], read in place *)
let row_hash cols p =
  let h = ref 17 in
  for c = 0 to Array.length cols - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get (Array.unsafe_get cols c) p)
  done;
  !h

(* Whether row [g] of the key columns [keys] (a group's key, a join's
   build row) and row [p] of [cols] hold one key under key identity.
   Rows gathered from one build row share their values: physical
   equality is key identity (NaN included). *)
let rec row_equal keys g cols p c =
  c = Array.length cols
  || (let a = Array.unsafe_get (Array.unsafe_get keys c) g
      and b = Array.unsafe_get (Array.unsafe_get cols c) p in
      a == b || Value.key_equal a b)
     && row_equal keys g cols p (c + 1)

(* The group of row [p] of [cols], hashing [h], or [-1 - s] for the empty
   slot [s] the row's key would go in; the probe starts at slot [s]. *)
let rec find t h cols p s =
  let id = Array.unsafe_get t.slots s in
  if id = 0 then -1 - s
  else if
    Array.unsafe_get t.hashes (id - 1) = h && row_equal t.keys (id - 1) cols p 0
  then id - 1
  else find t h cols p ((s + 1) land (Array.length t.slots - 1))

(* The first empty slot of [slots] from [s] on. *)
let rec free slots s =
  if slots.(s) = 0 then s
  else free slots ((s + 1) land (Array.length slots - 1))

(* Open a group for row [p] of [cols] (hashing [h]) in the empty slot
   [s]: its id. Past the budget the statement dies. *)
let open_group t s h cols p =
  budget_materialized t.spill ~what:t.what (t.size + 1);
  let g = t.size in
  if g = Array.length t.hashes then begin
    let cap = max 16 (2 * g) in
    t.hashes <- extend 0 t.hashes cap;
    t.keys <- Array.map (fun col -> extend Value.Null col cap) t.keys
  end;
  t.hashes.(g) <- h;
  for c = 0 to Array.length cols - 1 do
    t.keys.(c).(g) <- cols.(c).(p)
  done;
  t.slots.(s) <- g + 1;
  t.size <- g + 1;
  if 2 * t.size > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    for g = 0 to t.size - 1 do
      slots.(free slots (t.hashes.(g) land mask)) <- g + 1
    done;
    t.slots <- slots
  end;
  g

(* Write into [ids], by physical index, the group of every live row of
   [b] whose key columns are [cols], in order, opening groups for unseen
   keys; under [~absent] an unseen key opens none and gets -1. *)
let fill_ids ~absent t cols b ids =
  for i = 0 to Batch.live b - 1 do
    let p = if b.Batch.all then i else Array.unsafe_get b.Batch.sel i in
    let h = row_hash cols p in
    let g = find t h cols p (h land (Array.length t.slots - 1)) in
    Array.unsafe_set ids p
      (if g >= 0 then g
       else if absent then -1
       else open_group t (-1 - g) h cols p)
  done

(* The key columns of a batch, by physical index: a key attribute is its
   column as is, another key expression is evaluated at the live rows. *)
let key_columns lay (keys : Expr.t list) =
  let column e =
    match e with
    | Expr.Attr a when Option.is_some (lay.pos a) ->
      let i = Option.get (lay.pos a) in
      fun b -> Batch.col b i
    | e ->
      let f = bexpr_of lay e in
      fun b ->
        let col = Array.make b.Batch.rows Value.Null in
        Batch.iter_live (fun p -> col.(p) <- f b p) b;
        col
  in
  let srcs = Array.of_list (List.map column keys) in
  fun b -> Array.map (fun src -> src b) srcs

(* The grouping kernel: [grouper ~spill ~what lay keys ()] is a fresh
   table over the key expressions [keys]. Aggregation, group annotation,
   the representative flag, DISTINCT, UNION and INTERSECT/EXCEPT all
   group through it, so a flag always agrees with the DISTINCT it stands
   for. Every key, of no column (a global aggregate's one group), one or
   several, goes through one flat table: a batch's key columns are
   evaluated once, each row is hashed and compared straight from them,
   and a key is copied into the table's key columns only when it opens a
   group. Past the budget the statement dies with Resource_exhausted
   ([what] names the operator): the table cannot spill. *)
let grouper ~spill ~what lay (keys : Expr.t list) =
  let key_cols = key_columns lay keys in
  let width = List.length keys in
  fun () ->
    {
      key_cols;
      spill;
      what;
      slots = Array.make 64 0;
      hashes = [||];
      keys = Array.make width [||];
      size = 0;
      ids = [||];
    }

(* The group ids of the live rows of [b], by physical index, in the
   table's id buffer (valid until the next call). A row opens a
   group when its id is the table's size before it. Under [~absent] the
   rows only look their keys up ({!fill_ids}). *)
let group_ids ?(absent = false) t b =
  if Array.length t.ids < b.Batch.rows then t.ids <- Array.make b.Batch.rows 0;
  fill_ids ~absent t (t.key_cols b) b t.ids;
  t.ids

(* Which rows of a batch a grouping operator keeps, read off their group
   ids: those that open a group, from id [next] on (DISTINCT, UNION, the
   representative flag); those of a [keyed] group; and INTERSECT/EXCEPT's
   left rows whose group [counts] right rows for, or under
   [~intersect:false] does not, a row present on the right using up one
   of its group's right rows under [all]. *)
type keep =
  | Firsts of { mutable next : int }
  | Keyed of bool array
  | Survivors of { intersect : bool; all : bool; counts : int array }

let kept keep g =
  match keep with
  | Firsts f -> g = f.next && (f.next <- g + 1; true)
  | Keyed keyed -> keyed.(g)
  | Survivors { intersect; all; counts } ->
    let present = g >= 0 && counts.(g) > 0 in
    if all && present then counts.(g) <- counts.(g) - 1;
    present = intersect

(* The live rows of [b], of groups [ids], that [keep] keeps, in order. *)
let keep_rows keep b ids =
  let sel = Batch.sel_array b in
  let m = ref 0 in
  for i = 0 to Batch.live b - 1 do
    let p = sel.(i) in
    if kept keep ids.(p) then begin
      sel.(!m) <- p;
      incr m
    end
  done;
  if !m = 0 then None else Some (Batch.with_sel b sel !m)

(* Keep the first row of every key, in order (DISTINCT, UNION). *)
let first_rows t b =
  let firsts = Firsts { next = t.size } in
  keep_rows firsts b (group_ids t b)

(* Set [flags.(p)] TRUE on the live rows [p] of [b] that open a group. *)
let mark_firsts t b flags =
  let firsts = Firsts { next = t.size } in
  let ids = group_ids t b in
  for i = 0 to Batch.live b - 1 do
    let p = Batch.idx b i in
    if kept firsts ids.(p) then flags.(p) <- Value.Bool true
  done

(* Add one to [counts.(g)] for the group [g] of every live row of [b]. *)
let count_rows counts b ids =
  for i = 0 to Batch.live b - 1 do
    let g = ids.(Batch.idx b i) in
    counts.(g) <- counts.(g) + 1
  done

(* The id of the last live row of [b] if each live row's id is the
   previous row's or the next one, [last] the id before the batch's first
   row; -2 once not. Input whose rows run through this from -1 arrives
   grouped, its groups in first-seen order. *)
let contiguous ids b last =
  let last = ref last in
  for i = 0 to Batch.live b - 1 do
    let g = ids.(Batch.idx b i) in
    if g = !last || g = !last + 1 then last := g else last := -2
  done;
  !last

(* ------------------------------------------------------------------ *)
(* Aggregate states, in columns by group id                            *)
(* ------------------------------------------------------------------ *)

(* Per aggregate call, every group's state: [counts] for count, count-star
   and avg's non-null inputs; [values] for the running sum (sum, avg) or
   extreme (min, max, bool_and, bool_or), NULL until the first input;
   [seen] for a DISTINCT filter, a table made on a group's first input. *)
type acc = {
  call : Plan.agg_call;
  arg : Batch.t -> int -> Value.t;
  mutable counts : int array;
  mutable values : Value.t array;
  mutable seen : unit Value.Key_tbl.t option array;
}

type states = { accs : acc array; mutable cap : int }

(* [agg_states lay aggs ()]: fresh states of no group. *)
let agg_states lay (aggs : Plan.agg_call list) =
  let calls = Array.of_list aggs in
  let args =
    Array.map
      (fun (c : Plan.agg_call) ->
        match c.arg with
        | Some e -> bexpr_of lay e
        | None -> fun _ _ -> Value.Null)
      calls
  in
  fun () ->
    {
      accs =
        Array.mapi
          (fun k call ->
            { call; arg = args.(k); counts = [||]; values = [||]; seen = [||] })
          calls;
      cap = 0;
    }

(* Room for the states of [n] groups. *)
let reserve st n =
  if n > st.cap then begin
    let cap = max 16 (max n (2 * st.cap)) in
    Array.iter
      (fun a ->
        let agg = a.call.Plan.agg in
        if agg = Plan.Count_star || agg = Plan.Count || agg = Plan.Avg then
          a.counts <- extend 0 a.counts cap;
        if agg <> Plan.Count_star && agg <> Plan.Count then
          a.values <- extend Value.Null a.values cap;
        if a.call.Plan.distinct then a.seen <- extend None a.seen cap)
      st.accs;
    st.cap <- cap
  end

(* Whether [v] is new to group [g]'s DISTINCT filter, if it has one. *)
let fresh a g v =
  (not a.call.Plan.distinct)
  ||
  match a.seen.(g) with
  | None ->
    let seen = Value.Key_tbl.create 16 in
    Value.Key_tbl.add seen v ();
    a.seen.(g) <- Some seen;
    true
  | Some seen ->
    (not (Value.Key_tbl.mem seen v)) && (Value.Key_tbl.add seen v (); true)

(* Feed the non-null input [v] to group [g]'s state. *)
let step a g v =
  let agg = a.call.Plan.agg in
  match agg with
  | Plan.Count_star | Plan.Count -> a.counts.(g) <- a.counts.(g) + 1
  | Plan.Sum | Plan.Avg ->
    if agg = Plan.Avg then a.counts.(g) <- a.counts.(g) + 1;
    let s = a.values.(g) in
    a.values.(g) <- (if Value.is_null s then v else arith Value.Add s v)
  | Plan.Min | Plan.Max ->
    let e = a.values.(g) in
    let c = if agg = Plan.Min then -1 else 1 in
    if Value.is_null e || Value.compare v e * c > 0 then a.values.(g) <- v
  | Plan.Bool_and | Plan.Bool_or -> (
    let b =
      match v with
      | Value.Bool b -> b
      | v ->
        errf "%s expects booleans, got %s" (Plan.agg_name agg)
          (Value.to_string v)
    in
    match a.values.(g) with
    | Value.Bool prev when prev <> b ->
      a.values.(g) <- Value.Bool (agg = Plan.Bool_or)
    | Value.Bool _ -> ()
    | _ -> a.values.(g) <- Value.Bool b)

(* Feed one aggregate call the live rows of [b], of groups [ids]. *)
let feed_acc a b ids =
  if a.call.Plan.agg = Plan.Count_star then count_rows a.counts b ids
  else
    for i = 0 to Batch.live b - 1 do
      let p = Batch.idx b i in
      match a.arg b p with
      | Value.Null -> ()
      | v ->
        let g = ids.(p) in
        if fresh a g v then step a g v
    done

(* Feed every aggregate the live rows of [b], of groups [ids] among the
   table's first [n]: one loop per aggregate call. *)
let feed st b ids n =
  reserve st n;
  Array.iter (fun a -> feed_acc a b ids) st.accs

(* Aggregate [a]'s values of the groups [0 .. n-1], by id (a column may
   run past [n]). *)
let results a n =
  match a.call.Plan.agg with
  | Plan.Count_star | Plan.Count ->
    let col = Array.make n Value.Null in
    for g = 0 to n - 1 do
      col.(g) <- Value.Int a.counts.(g)
    done;
    col
  | Plan.Avg ->
    let col = Array.make n Value.Null in
    for g = 0 to n - 1 do
      let k = a.counts.(g) in
      if k > 0 then
        col.(g) <-
          (match a.values.(g) with
          | Value.Int i -> Value.Float (float_of_int i /. float_of_int k)
          | Value.Float f -> Value.Float (f /. float_of_int k)
          | v -> errf "avg over non-numeric value %s" (Value.to_string v))
    done;
    col
  | Plan.Sum | Plan.Min | Plan.Max | Plan.Bool_and | Plan.Bool_or -> a.values

(* The head columns of the groups [0 .. n-1], by id: the key columns
   [keys], then each aggregate's values. They share the table's and the
   states' columns, which may run past [n]. *)
let head_columns keys st n =
  reserve st n;
  Array.append keys (Array.map (fun a -> results a n) st.accs)

(* A group annotation's keys under a representative flag: a group is
   [keyed] by its first representative row, and is no group of the
   original aggregate until then. That row's key is the table's unless
   its values are other blocks than the first row's (equal keys may print
   apart: -0.0 and 0.0, 1 and 1.0); those rows' keys are kept [apart]. *)
type rep_keys = {
  mutable keyed : bool array;
  apart : (int, Value.t array) Hashtbl.t;
}

let rep_keys () = { keyed = [||]; apart = Hashtbl.create 16 }

let rec same keys g cols p c =
  c = Array.length cols
  || keys.(c).(g) == cols.(c).(p) && same keys g cols p (c + 1)

(* Key the groups of [t] that a live row of [b] (the representative
   rows, of key columns [cols]) reaches first. *)
let note_keys rk t cols b ids =
  if t.size > Array.length rk.keyed then
    rk.keyed <- extend false rk.keyed (max 16 (2 * t.size));
  for i = 0 to Batch.live b - 1 do
    let p = Batch.idx b i in
    let g = ids.(p) in
    if not rk.keyed.(g) then begin
      rk.keyed.(g) <- true;
      if not (same t.keys g cols p 0) then Hashtbl.replace rk.apart g (row cols p)
    end
  done

(* [src] read at the live rows [p] of [b], at [ids.(p)] when [by_id]:
   into a column of [b]'s physical rows, or with [~dense] of its live
   rows. *)
let read_at ~dense ~by_id src b ids =
  let n = Batch.live b in
  let out = Array.make (if dense then n else b.Batch.rows) Value.Null in
  for i = 0 to n - 1 do
    let p = Batch.idx b i in
    out.(if dense then i else p) <- src.(if by_id then ids.(p) else p)
  done;
  out

let rec all_keyed keyed ids b i =
  i = Batch.live b || (keyed.(ids.(Batch.idx b i)) && all_keyed keyed ids b (i + 1))

(* The annotation's pass-through: batch [b], of group [ids], with the rows
   of a group left unkeyed dropped ([keyed] is empty when every group is
   keyed) and the head columns [heads] appended in front, each read at
   its rows' ids. At least half live, it keeps its columns and selection;
   sparser, its live rows are gathered into a dense batch, as the gather
   would. A column [reads] leaves out is empty. *)
let heads_at ?(reads = fun _ -> true) heads keyed b ids =
  let kept =
    if Batch.live b = 0 then None
    else if keyed = [||] || all_keyed keyed ids b 0 then Some b
    else keep_rows (Keyed keyed) b ids
  in
  Option.map
    (fun b ->
      let n = Batch.live b and h = Array.length heads in
      let dense = 2 * n < b.Batch.rows in
      let read c by_id src =
        if reads c then read_at ~dense ~by_id src b ids else [||]
      in
      let heads = Array.mapi (fun c col -> read c true col) heads in
      if dense then
        Batch.dense
          (Array.append heads
             (Array.mapi (fun c col -> read (h + c) false col) b.Batch.cols))
          n
      else Batch.with_cols b (Array.append heads b.Batch.cols))
    kept
