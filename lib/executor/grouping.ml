(* Grouping and aggregation state: the grouping kernel every grouping
   operator runs its rows through, the aggregate state machines a group
   feeds, and the budget on the group tables, which cannot spill. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch
module Spill = Perm_storage.Spill
module Vec = Perm_storage.Vec
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

(* ------------------------------------------------------------------ *)
(* Aggregate state machines                                            *)
(* ------------------------------------------------------------------ *)

type agg_state = {
  mutable count : int;
  mutable sum : Value.t;  (* running sum for Sum/Avg; Null until first value *)
  mutable sum_count : int;  (* non-null inputs seen, for Avg *)
  mutable extreme : Value.t;  (* Min/Max *)
  seen : unit Value.Key_tbl.t option;  (* distinct filter *)
}

let new_agg_state (call : Plan.agg_call) =
  {
    count = 0;
    sum = Value.Null;
    sum_count = 0;
    extreme = Value.Null;
    seen = (if call.distinct then Some (Value.Key_tbl.create 16) else None);
  }

let agg_feed (call : Plan.agg_call) state (v : Value.t option) =
  (* [v = None] means count-star: every row counts *)
  match call.agg, v with
  | Plan.Count_star, _ -> state.count <- state.count + 1
  | _, None -> ()
  | _, Some Value.Null -> ()
  | agg, Some v -> (
    let fresh =
      match state.seen with
      | None -> true
      | Some seen ->
        (not (Value.Key_tbl.mem seen v))
        && (Value.Key_tbl.add seen v ();
            true)
    in
    if fresh then
      match agg with
      | Plan.Count -> state.count <- state.count + 1
      | Plan.Sum | Plan.Avg ->
        state.sum_count <- state.sum_count + 1;
        state.sum <-
          (if Value.is_null state.sum then v
           else
             match Value.add state.sum v with
             | Ok s -> s
             | Error msg -> err msg)
      | Plan.Min ->
        if Value.is_null state.extreme || Value.compare v state.extreme < 0 then
          state.extreme <- v
      | Plan.Max ->
        if Value.is_null state.extreme || Value.compare v state.extreme > 0 then
          state.extreme <- v
      | Plan.Bool_and | Plan.Bool_or -> (
        let b =
          match v with
          | Value.Bool b -> b
          | v ->
            errf "%s expects booleans, got %s" (Plan.agg_name agg)
              (Value.to_string v)
        in
        match state.extreme with
        | Value.Null -> state.extreme <- Value.Bool b
        | Value.Bool prev ->
          state.extreme <-
            Value.Bool (if agg = Plan.Bool_and then prev && b else prev || b)
        | _ -> assert false)
      | Plan.Count_star -> ())

let agg_result (call : Plan.agg_call) state =
  match call.agg with
  | Plan.Count_star | Plan.Count -> Value.Int state.count
  | Plan.Sum -> state.sum
  | Plan.Avg ->
    if state.sum_count = 0 then Value.Null
    else
      let total =
        match state.sum with
        | Value.Int i -> float_of_int i
        | Value.Float f -> f
        | v -> errf "avg over non-numeric value %s" (Value.to_string v)
      in
      Value.Float (total /. float_of_int state.sum_count)
  | Plan.Min | Plan.Max | Plan.Bool_and | Plan.Bool_or -> state.extreme

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

(* The flat group table: open addressing over [slots], each 0 (empty) or
   a group id + 1, probed linearly; per group, in first-seen order, its
   key's hash, its key and its value. At most half the slots are full. *)
type 'g table = {
  mutable slots : int array;
  mutable hashes : int array;
  mutable keys : Tuple.t array;
  mutable vals : 'g array;
  mutable size : int;
}

(* [Tuple.hash] of row [p] of the key columns [cols], read in place *)
let row_hash cols p =
  let h = ref 17 in
  for c = 0 to Array.length cols - 1 do
    h := (!h * 31) + Value.hash (Array.unsafe_get (Array.unsafe_get cols c) p)
  done;
  !h

let rec row_equal (key : Tuple.t) cols p c =
  c = Array.length cols
  || Value.key_equal (Array.unsafe_get key c)
       (Array.unsafe_get (Array.unsafe_get cols c) p)
     && row_equal key cols p (c + 1)

(* The group of row [p] of [cols], hashing [h], or [-1 - s] for the empty
   slot [s] the row's key would go in; the probe starts at slot [s]. *)
let rec find t h cols p s =
  let id = Array.unsafe_get t.slots s in
  if id = 0 then -1 - s
  else if
    Array.unsafe_get t.hashes (id - 1) = h
    && row_equal (Array.unsafe_get t.keys (id - 1)) cols p 0
  then id - 1
  else find t h cols p ((s + 1) land (Array.length t.slots - 1))

(* The first empty slot of [slots] from [s] on. *)
let rec free slots s =
  if slots.(s) = 0 then s
  else free slots ((s + 1) land (Array.length slots - 1))

(* Room for more groups, [v] the first group's value. A full table
   doubles by appending each array to itself, and the copied half is
   overwritten as groups open: an [Array.make] past 256 words filled with
   a young value would force a minor collection. *)
let grow t v =
  if t.size = 0 then begin
    t.hashes <- Array.make 16 0;
    t.keys <- Array.make 16 [||];
    t.vals <- Array.make 16 v
  end
  else begin
    t.hashes <- Array.append t.hashes t.hashes;
    t.keys <- Array.append t.keys t.keys;
    t.vals <- Array.append t.vals t.vals
  end

(* File group [v] of key [key] (hashing [h]) in the empty slot [s]. *)
let add t s h key v =
  let g = t.size in
  if g = Array.length t.hashes then grow t v;
  t.hashes.(g) <- h;
  t.keys.(g) <- key;
  t.vals.(g) <- v;
  t.slots.(s) <- g + 1;
  t.size <- g + 1;
  if 2 * t.size > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    for g = 0 to t.size - 1 do
      slots.(free slots (t.hashes.(g) land mask)) <- g + 1
    done;
    t.slots <- slots
  end

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

(* The grouping kernel: [grouper ~spill ~what lay keys open_group b k]
   calls [k p g] on every live row [p] of batch [b], in order, with its
   group [g] under key identity ([Tuple.equal]); [open_group key] makes a
   key's group on its first row. Aggregation, group annotation, the
   representative flag, DISTINCT, UNION and INTERSECT/EXCEPT all group
   through it, so a flag always agrees with the DISTINCT it stands for.
   It runs the row loop itself, so finding a row's group costs no closure
   call. Every key, of no column (a global aggregate's one group), one
   or several, goes through one flat table: a row is hashed and compared
   straight from the batch's key columns, and its key is copied out only
   when it opens a group. Past the budget the statement dies with
   Resource_exhausted ([what] names the operator): the table cannot
   spill. Called with [~absent:g], it only looks keys up: an unseen key
   opens no group and gets [g]. *)
let grouper ~spill ~what lay (keys : Expr.t list) =
  let kcols = key_columns lay keys in
  fun (open_group : Tuple.t -> 'g) ->
    let t =
      {
        slots = Array.make 64 0;
        hashes = [||];
        keys = [||];
        vals = [||];
        size = 0;
      }
    in
    fun ?absent b k ->
      let cols = kcols b in
      for i = 0 to Batch.live b - 1 do
        let p = if b.Batch.all then i else b.Batch.sel.(i) in
        let h = row_hash cols p in
        let g = find t h cols p (h land (Array.length t.slots - 1)) in
        k p
          (if g >= 0 then Array.unsafe_get t.vals g
           else
             match absent with
             | Some g -> g
             | None ->
               budget_materialized spill ~what (t.size + 1);
               let key = row cols p in
               let v = open_group key in
               add t (-1 - g) h key v;
               v)
      done

(* Per group, by id in first-seen order, what a grouping operator keeps:
   its key, and its aggregate states. Group ids are the grouper's values,
   so its table holds no pointer. A group annotation's group with a
   representative flag is [unkeyed] until its first representative row
   gives it a key. *)
type groups = { keys : Tuple.t Vec.t; states : agg_state array Vec.t }

let unkeyed : Tuple.t = [| Value.Null |]

(* A fresh group store and the [open_group] that files a group in it
   under [key], with states [fresh ()]. *)
let group_store fresh =
  let gs = { keys = Vec.create (); states = Vec.create () } in
  ( gs,
    fun key ->
      Vec.push gs.keys key;
      Vec.push gs.states (fresh ());
      Vec.length gs.keys - 1 )

(* The head columns of the groups, by id: each group's key columns, then
   its aggregate values ([results] of its states); NULL throughout for a
   group left [unkeyed]. Each column is made with an immediate fill and
   then written ({!Gather.column}). *)
let head_columns results ~arity gs =
  let n = Vec.length gs.keys in
  let cols = Array.init arity (fun _ -> Array.make n Value.Null) in
  for g = 0 to n - 1 do
    let key = Vec.get gs.keys g in
    if key != unkeyed then begin
      let res = results (Vec.get gs.states g) and nk = Array.length key in
      for c = 0 to arity - 1 do
        cols.(c).(g) <- (if c < nk then key.(c) else res.(c - nk))
      done
    end
  done;
  cols

(* A group's aggregates over batch rows: [fresh ()] is a group's initial
   states, [feed feeder states b p] feeds it a row (a direct call: it runs
   once per row), [results states] reads the aggregate values. *)
let agg_feeder lay (aggs : Plan.agg_call list) =
  let calls = Array.of_list aggs in
  let args =
    Array.map (fun (c : Plan.agg_call) -> Option.map (bexpr_of lay) c.arg) calls
  in
  let fresh () = Array.map new_agg_state calls in
  let results states = Array.mapi (fun k c -> agg_result c states.(k)) calls in
  (fresh, (calls, args), results)

let feed (calls, args) states b p =
  for k = 0 to Array.length calls - 1 do
    agg_feed calls.(k) states.(k)
      (match args.(k) with None -> None | Some g -> Some (g b p))
  done

(* [firsts grouper b]: by physical index, whether a live row of [b] opens
   a new group of a fresh [grouper] table: the first row of every key. *)
let firsts grouper =
  let opened = ref false in
  let group = grouper (fun _ -> opened := true) in
  fun b ->
    let first = Array.make b.Batch.rows false in
    group ?absent:None b (fun p () ->
        first.(p) <- !opened;
        opened := false);
    first

(* Keep the first row of every key, in order (DISTINCT, UNION). *)
let first_rows grouper =
  let firsts = firsts grouper in
  fun b -> narrow_live (Array.get (firsts b)) b
