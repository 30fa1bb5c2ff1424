(* Grouping and aggregation state: the grouping kernel every grouping
   operator runs its rows through, the aggregate state machines a group
   feeds, and the budget on the group tables, which cannot spill. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch
module Spill = Perm_storage.Spill
open Eval
open Gather

(* Monomorphic hash tables for the single-column aggregate fast paths:
   grouping on an immediate int avoids per-row key-tuple allocation and
   polymorphic [caml_hash]; strings hash with the stdlib string hash. *)
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
  seen : unit Tuple.Hash.t option;  (* distinct filter *)
}

let new_agg_state (call : Plan.agg_call) =
  {
    count = 0;
    sum = Value.Null;
    sum_count = 0;
    extreme = Value.Null;
    seen = (if call.distinct then Some (Tuple.Hash.create 16) else None);
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
        let key = [| v |] in
        if Tuple.Hash.mem seen key then false
        else begin
          Tuple.Hash.replace seen key ();
          true
        end
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

(* The grouping kernel: [grouper ~spill ~what lay keys open_group b k]
   calls [k p g] on every live row [p] of batch [b], in order, with its
   group [g] under key identity ([Tuple.equal]); [open_group key] makes a
   key's group on its first row. Aggregation, group annotation, the
   representative flag, DISTINCT, UNION and set-form INTERSECT/EXCEPT all
   group through it, so a flag always agrees with the DISTINCT it stands
   for. It runs the row loop itself, so finding a row's group costs no
   closure call. A single attribute key of an immediate dtype hashes the unboxed
   int or raw string; NULL has its own slot and off-dtype stragglers use
   the tuple table. Past the budget the statement dies with
   Resource_exhausted ([what] names the operator): the table cannot
   spill. Called with [~absent:g], it only looks keys up: an unseen key
   opens no group and gets [g]. *)
let grouper ~spill ~what lay (keys : Expr.t list) =
  let gkey = key_filler lay keys in
  let single =
    match keys with
    | [ Expr.Attr a ] -> Option.map (fun i -> (i, a.Attr.ty)) (lay.pos a)
    | _ -> None
  in
  fun (open_group : Tuple.t -> 'g) ->
    let groups = ref 0 in
    let absent = ref None in
    (* an unseen key's group, which [add] files under the key *)
    let opened k add =
      match !absent with
      | Some g -> g
      | None ->
        incr groups;
        budget_materialized spill ~what !groups;
        let g = open_group k in
        add g;
        g
    in
    let tuples = Tuple.Hash.create 64 in
    let by_tuple k =
      match Tuple.Hash.find_opt tuples k with
      | Some g -> g
      | None -> opened k (Tuple.Hash.replace tuples k)
    in
    (* a group of its own: NULL's, or a global aggregate's only one *)
    let only key =
      let slot = ref None in
      fun () ->
        match !slot with
        | Some g -> g
        | None -> opened key (fun g -> slot := Some g)
    in
    let by_null = only [| Value.Null |] in
    let run =
      match keys, single with
      | [], _ ->
        let global = only [||] in
        fun b k ->
          if Batch.live b > 0 then begin
            let g = global () in
            for i = 0 to Batch.live b - 1 do
              k (if b.Batch.all then i else b.Batch.sel.(i)) g
            done
          end
      | _, Some (ci, (Dtype.Int | Dtype.Date | Dtype.Bool)) -> (
        let ints = Int_hash.create 64 in
        let by_int k v =
          match Int_hash.find_opt ints k with
          | Some g -> g
          | None -> opened [| v |] (Int_hash.replace ints k)
        in
        fun b k ->
          let col = Batch.col b ci in
          for i = 0 to Batch.live b - 1 do
            let p = if b.Batch.all then i else b.Batch.sel.(i) in
            k p
              (match Array.unsafe_get col p with
              | (Value.Int n | Value.Date n) as v -> by_int n v
              | Value.Bool n as v -> by_int (Bool.to_int n) v
              | Value.Null -> by_null ()
              | v -> by_tuple [| v |])
          done)
      | _, Some (ci, Dtype.Text) -> (
        let strs = Str_hash.create 64 in
        let by_str s v =
          match Str_hash.find_opt strs s with
          | Some g -> g
          | None -> opened [| v |] (Str_hash.replace strs s)
        in
        fun b k ->
          let col = Batch.col b ci in
          for i = 0 to Batch.live b - 1 do
            let p = if b.Batch.all then i else b.Batch.sel.(i) in
            k p
              (match Array.unsafe_get col p with
              | Value.Text s as v -> by_str s v
              | Value.Null -> by_null ()
              | v -> by_tuple [| v |])
          done)
      | _ ->
        fun b k ->
          for i = 0 to Batch.live b - 1 do
            let p = if b.Batch.all then i else b.Batch.sel.(i) in
            k p (by_tuple (gkey b p))
          done
    in
    fun ?absent:g b k ->
      absent := g;
      run b k

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
