module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Builtins = Perm_algebra.Builtins
module Value = Perm_value.Value
module Tristate = Perm_value.Tristate
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch
module Dtype = Perm_value.Dtype

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

exception Runtime_error of string

let err msg = raise (Runtime_error msg)
let errf fmt = Printf.ksprintf err fmt

module Token = Perm_err.Token
module Spill = Perm_storage.Spill

(* Chaos-harness injection points (no-ops unless armed via Perm_fault). *)
let fp_join_build = Perm_fault.point "join.build"
let fp_agg_merge = Perm_fault.point "agg.merge"
let fp_sort = Perm_fault.point "sort.materialize"

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

type provider = {
  probe_index : string -> int -> Value.t -> Tuple.t Seq.t;
  scan_batches : string -> int -> Perm_storage.Batch.t array;
      (* columnar batches of at most [batch_rows] live rows, in scan order.
         Storage backends may serve these from a cached columnar image;
         callers must never mutate the column arrays. *)
}

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* Attribute resolution: position in the current row, or an outer accessor
   installed by an enclosing Apply. *)
type resolver = Attr.t -> (Tuple.t -> Value.t) option

(* Attribute -> column position over a schema. *)
let positions_of_schema (schema : Attr.t list) : Attr.t -> int option =
  let table = Hashtbl.create 16 in
  List.iteri (fun i (a : Attr.t) -> Hashtbl.replace table a.Attr.id i) schema;
  fun a -> Hashtbl.find_opt table a.Attr.id

let resolver_of_schema schema : resolver =
  let pos = positions_of_schema schema in
  fun a -> Option.map (fun i row -> row.(i)) (pos a)

let no_outer : resolver = fun _ -> None

let unwrap = function Ok v -> v | Error msg -> err msg

(* Constant subtrees built from Binop/Unop/Cast over literals: safe to
   evaluate once at compile time. Func is excluded deliberately (builtins
   may grow impure members), as is anything touching a row. *)
let rec is_const_subtree (e : Expr.t) =
  match e with
  | Expr.Const _ -> true
  | Expr.Binop (_, a, b) -> is_const_subtree a && is_const_subtree b
  | Expr.Unop (_, a) | Expr.Cast (a, _) -> is_const_subtree a
  | Expr.Attr _ | Expr.Case _ | Expr.Func _ -> false

(* Pre-evaluate a compiled closure whose source expression is constant, so
   predicates like [x > 1 + 1] pay for the constant once per statement, not
   per tuple. Evaluation errors (e.g. division by zero) keep the dynamic
   closure so they still surface per-row, exactly as before. *)
let constantize (e : Expr.t) (f : Tuple.t -> Value.t) =
  if is_const_subtree e then
    match f [||] with
    | v -> fun _ -> v
    | exception Runtime_error _ -> f
  else f

let rec compile_expr (resolve : resolver) (e : Expr.t) : Tuple.t -> Value.t =
  match e with
  | Expr.Const v -> fun _ -> v
  | Expr.Attr a -> (
    match resolve a with
    | Some f -> f
    | None -> errf "internal: unbound attribute %s#%d" a.Attr.name a.Attr.id)
  | Expr.Binop (op, a, b) -> constantize e (compile_binop resolve op a b)
  | Expr.Unop (Expr.Not, a) ->
    let fa = compile_expr resolve a in
    constantize e (fun row ->
        Tristate.to_value (Tristate.not_ (unwrap (Tristate.of_value (fa row)))))
  | Expr.Unop (Expr.Neg, a) ->
    let fa = compile_expr resolve a in
    constantize e (fun row -> unwrap (Value.neg (fa row)))
  | Expr.Unop (Expr.Is_null, a) ->
    let fa = compile_expr resolve a in
    constantize e (fun row -> Value.Bool (Value.is_null (fa row)))
  | Expr.Case { branches; else_ } ->
    let branches =
      List.map
        (fun (c, r) -> (compile_expr resolve c, compile_expr resolve r))
        branches
    in
    let felse =
      match else_ with
      | Some e -> compile_expr resolve e
      | None -> fun _ -> Value.Null
    in
    fun row ->
      let rec go = function
        | [] -> felse row
        | (fc, fr) :: rest ->
          if Tristate.is_true (unwrap (Tristate.of_value (fc row))) then fr row
          else go rest
      in
      go branches
  | Expr.Cast (inner, ty) ->
    let fe = compile_expr resolve inner in
    constantize e (fun row -> unwrap (Value.cast ty (fe row)))
  | Expr.Func (name, args) -> (
    match Builtins.find name with
    | None -> errf "unknown function %S" name
    | Some s ->
      let fargs = List.map (compile_expr resolve) args in
      fun row -> unwrap (s.Builtins.eval (List.map (fun f -> f row) fargs)))

and compile_binop resolve op a b =
  let fa = compile_expr resolve a and fb = compile_expr resolve b in
  match op with
  | Expr.And ->
    fun row ->
      let va = unwrap (Tristate.of_value (fa row)) in
      if va = Tristate.False then Value.Bool false
      else
        Tristate.to_value
          Tristate.(va &&& unwrap (Tristate.of_value (fb row)))
  | Expr.Or ->
    fun row ->
      let va = unwrap (Tristate.of_value (fa row)) in
      if va = Tristate.True then Value.Bool true
      else
        Tristate.to_value
          Tristate.(va ||| unwrap (Tristate.of_value (fb row)))
  | Expr.Add -> fun row -> unwrap (Value.add (fa row) (fb row))
  | Expr.Sub -> fun row -> unwrap (Value.sub (fa row) (fb row))
  | Expr.Mul -> fun row -> unwrap (Value.mul (fa row) (fb row))
  | Expr.Div -> fun row -> unwrap (Value.div (fa row) (fb row))
  | Expr.Mod -> (
    fun row ->
      match fa row, fb row with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Int _, Value.Int 0 -> err "division by zero"
      | Value.Int x, Value.Int y -> Value.Int (x mod y)
      | x, y ->
        errf "%% expects integers, got %s and %s" (Value.to_string x)
          (Value.to_string y))
  | Expr.Eq -> fun row -> Value.sql_eq (fa row) (fb row)
  | Expr.Neq -> fun row -> Value.sql_neq (fa row) (fb row)
  | Expr.Lt -> fun row -> Value.sql_lt (fa row) (fb row)
  | Expr.Leq -> fun row -> Value.sql_leq (fa row) (fb row)
  | Expr.Gt -> fun row -> Value.sql_gt (fa row) (fb row)
  | Expr.Geq -> fun row -> Value.sql_geq (fa row) (fb row)
  | Expr.Concat -> fun row -> unwrap (Value.concat (fa row) (fb row))
  | Expr.Like -> fun row -> Value.like (fa row) (fb row)

let compile_pred resolve pred =
  let f = compile_expr resolve pred in
  fun row -> Tristate.is_true (unwrap (Tristate.of_value (f row)))

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
  let conjuncts = Expr.conjuncts pred in
  let keys = ref [] and residual = ref [] in
  List.iter
    (fun c ->
      let recognized =
        match c with
        | Expr.Binop (Expr.Eq, a, b) ->
          orient left_schema right_schema a b ~null_safe:false
        | Expr.Binop (Expr.Or, Expr.Binop (Expr.Eq, a, b), _)
          when Expr.equal c (Expr.key_eq a b) ->
          orient left_schema right_schema a b ~null_safe:true
        | _ -> None
      in
      match recognized with
      | Some k -> keys := k :: !keys
      | None -> residual := c :: !residual)
    conjuncts;
  (List.rev !keys, List.rev !residual)

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
          | v -> errf "%s expects booleans, got %s"
                   (if agg = Plan.Bool_and then "bool_and" else "bool_or")
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

(* ------------------------------------------------------------------ *)
(* Batch-at-a-time execution                                           *)
(* ------------------------------------------------------------------ *)

(* The executor exchanges columnar batches (column arrays + a selection
   vector, [Perm_storage.Batch]) between operators instead of pulling one
   tuple at a time through per-row closures. Filters narrow the selection
   vector with tight kernels specialized on the constant's constructor;
   projections on dense batches share column pointers (the provenance
   rewrites are projection-heavy, so attribute moves become free); joins
   expand matches out of line into capped output batches; aggregation
   feeds group states from column reads. Every operator emits its rows in
   a documented order — joins in left order with matches in right order,
   groups and DISTINCT in first-seen order, stable sorts — whatever the
   batch size, so results are byte-identical across batch sizes and the
   serial/parallel determinism contract holds by construction. *)

let default_batch_rows = Perm_storage.Heap.chunk_rows

type bop = unit -> Batch.t Seq.t
type bwrapper = Plan.t -> bop -> bop

let no_bwrap : bwrapper = fun _ thunk -> thunk

let rec batch_eligible (p : Plan.t) =
  match p with
  | Plan.Prov _ -> false
  | _ -> List.for_all batch_eligible (Plan.children p)

(* How an operator's expressions read attributes: a column of its input
   batch, or — for an attribute its input lacks — the [outer] resolver,
   which reads the current row of an enclosing Apply's left side. The
   choice is made at compile time, so plans without Apply pay nothing per
   row for it. *)
type layout = { pos : Attr.t -> int option; outer : resolver }

(* Batch expression evaluator: [f b p] evaluates over physical row [p] of
   batch [b]. Plain attributes and constants compile to direct array
   reads; everything else reuses the scalar compiler through a current-row
   cursor, so semantics and error messages are shared by construction.
   The cursor makes general evaluators stateful: NOT shareable across
   domains — the parallel path instantiates them per morsel. *)
let bexpr_of lay (e : Expr.t) : Batch.t -> int -> Value.t =
  match e with
  | Expr.Const v -> fun _ _ -> v
  | Expr.Attr a -> (
    match lay.pos a, lay.outer a with
    | Some i, _ -> fun b p -> (Batch.col b i).(p)
    | None, Some f -> fun _ _ -> f [||]
    | None, None ->
      errf "internal: unbound attribute %s#%d" a.Attr.name a.Attr.id)
  | e ->
    let cur = ref (Batch.dense [||] 0) in
    let cp = ref 0 in
    let resolve : resolver =
     fun a ->
      match lay.pos a with
      | Some i -> Some (fun _ -> (Batch.col !cur i).(!cp))
      | None -> lay.outer a
    in
    let f = compile_expr resolve e in
    fun b p ->
      cur := b;
      cp := p;
      f [||]

let bpred_of lay e =
  let f = bexpr_of lay e in
  fun b p -> Tristate.is_true (unwrap (Tristate.of_value (f b p)))

(* Multi-column key extraction by physical index (join keys, group keys). *)
let key_filler lay exprs : Batch.t -> int -> Tuple.t =
  let gets = Array.of_list (List.map (bexpr_of lay) exprs) in
  let n = Array.length gets in
  fun b p ->
    let key = Array.make n Value.Null in
    for i = 0 to n - 1 do
      key.(i) <- (Array.unsafe_get gets i) b p
    done;
    key

let brow (b : Batch.t) p = Array.map (fun col -> col.(p)) b.Batch.cols

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
   spill. *)
let grouper ~spill ~what lay (keys : Expr.t list) =
  let gkey = key_filler lay keys in
  let single =
    match keys with
    | [ Expr.Attr a ] -> Option.map (fun i -> (i, a.Attr.ty)) (lay.pos a)
    | _ -> None
  in
  fun (open_group : Tuple.t -> 'g) ->
    let groups = ref 0 in
    let opened k =
      incr groups;
      budget_materialized spill ~what !groups;
      open_group k
    in
    let tuples = Tuple.Hash.create 64 in
    let by_tuple k =
      match Tuple.Hash.find_opt tuples k with
      | Some g -> g
      | None ->
        let g = opened k in
        Tuple.Hash.replace tuples k g;
        g
    in
    (* a group of its own: NULL's, or a global aggregate's only one *)
    let only key =
      let slot = ref None in
      fun () ->
        match !slot with
        | Some g -> g
        | None ->
          let g = opened key in
          slot := Some g;
          g
    in
    let by_null = only [| Value.Null |] in
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
        | None ->
          let g = opened [| v |] in
          Int_hash.replace ints k g;
          g
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
        | None ->
          let g = opened [| v |] in
          Str_hash.replace strs s g;
          g
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

(* [firsts grouper b]: by physical index, whether a live row of [b] opens
   a new group of a fresh [grouper] table: the first row of every key. *)
let firsts grouper =
  let opened = ref false in
  let group = grouper (fun _ -> opened := true) in
  fun b ->
    let first = Array.make b.Batch.rows false in
    group b (fun p () ->
        first.(p) <- !opened;
        opened := false);
    first

(* Keep the first row of every key, in order (DISTINCT, UNION). *)
let first_rows grouper =
  let firsts = firsts grouper in
  fun b -> narrow_live (Array.get (firsts b)) b

(* Chunk a row list into dense batches of at most [batch_rows] rows. *)
let batches_of_tuple_list ~arity ~batch_rows rows : Batch.t Seq.t =
  let rows = Array.of_list rows in
  let len = Array.length rows and size = max 1 batch_rows in
  Seq.init
    ((len + size - 1) / size)
    (fun i ->
      let pos = i * size in
      Batch.of_rows ~arity rows ~pos ~len:(min size (len - pos)))

(* Default batch slicing for providers without native columnar storage. *)
let batches_of_list ~arity ~batch_rows rows =
  Array.of_seq (batches_of_tuple_list ~arity ~batch_rows rows)

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
      Spill.push f
        (Array.map (fun col -> col.(r)) kcols, brow batches.(rb.(r)) rp.(r)))
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

(* ---- filter kernels ---------------------------------------------- *)

(* A conjunct kernel narrows sel[0..n-1] in place and returns the new live
   count. Hot comparison shapes get a [Value.t -> bool] test specialized
   on the constant's constructor; every non-matching arm falls back to the
   generic SQL operator, so numeric promotion, NULL handling and the
   type-rank total order behave exactly as in the scalar compiler. *)
let generic_keep op v k =
  match op v k with Value.Bool b -> b | _ -> false

(* Ordered comparisons: int/date arms use [rel_i], an inline primitive
   comparison on unboxed ints (no polymorphic-compare C call per row);
   float arms take [Stdlib.compare] through [rel] so they keep
   [Value.compare]'s total order (NaN included). *)
let test_rel sqlop (rel : int -> bool) (rel_i : int -> int -> bool) k =
  match k with
  | Value.Int y -> (
    function
    | Value.Int x -> rel_i x y
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | Value.Float y -> (
    function
    | Value.Float x -> rel (Stdlib.compare x y)
    | Value.Int x -> rel (Stdlib.compare (float_of_int x) y)
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | Value.Text y -> (
    function
    | Value.Text x -> rel (String.compare x y)
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | Value.Date y -> (
    function
    | Value.Date x -> rel_i x y
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | k -> fun v -> generic_keep sqlop v k

let test_eq k =
  match k with
  | Value.Int y -> (
    function
    | Value.Int x -> x = y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | Value.Float y -> (
    function
    | Value.Float x -> x = y
    | Value.Int x -> float_of_int x = y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | Value.Text y -> (
    function
    | Value.Text x -> String.equal x y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | Value.Date y -> (
    function
    | Value.Date x -> x = y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | k -> fun v -> generic_keep Value.sql_eq v k

let test_neq k =
  let eq = test_eq k in
  fun v -> if Value.is_null v then false else not (eq v)

let test_for op k =
  match op with
  | Expr.Eq -> Some (test_eq k)
  | Expr.Neq -> Some (test_neq k)
  | Expr.Lt ->
    Some (test_rel Value.sql_lt (fun c -> c < 0) (fun (x : int) y -> x < y) k)
  | Expr.Leq ->
    Some (test_rel Value.sql_leq (fun c -> c <= 0) (fun (x : int) y -> x <= y) k)
  | Expr.Gt ->
    Some (test_rel Value.sql_gt (fun c -> c > 0) (fun (x : int) y -> x > y) k)
  | Expr.Geq ->
    Some (test_rel Value.sql_geq (fun c -> c >= 0) (fun (x : int) y -> x >= y) k)
  | _ -> None

(* [attr OP const] with the constant on the left flips to the mirrored
   operator over the attribute. *)
let flip_op = function
  | Expr.Eq -> Expr.Eq
  | Expr.Neq -> Expr.Neq
  | Expr.Lt -> Expr.Gt
  | Expr.Leq -> Expr.Geq
  | Expr.Gt -> Expr.Lt
  | Expr.Geq -> Expr.Leq
  | op -> op

let narrow_col ci (test : Value.t -> bool) : Batch.t -> int array -> int -> int
    =
 fun b sel n ->
  let col = b.Batch.cols.(ci) in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get sel i in
    if test (Array.unsafe_get col p) then begin
      Array.unsafe_set sel !m p;
      incr m
    end
  done;
  !m

let narrow_generic (keep : Batch.t -> int -> bool) :
    Batch.t -> int array -> int -> int =
 fun b sel n ->
  let m = ref 0 in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get sel i in
    if keep b p then begin
      Array.unsafe_set sel !m p;
      incr m
    end
  done;
  !m

(* NOT thread-safe in general (generic fallback kernels carry a row
   cursor): instantiate per worker on the parallel path. *)
let conjunct_kernel lay (c : Expr.t) : Batch.t -> int array -> int -> int =
  let col a = lay.pos a in
  let fallback () = narrow_generic (bpred_of lay c) in
  match c with
  | Expr.Binop
      ( (Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq) as op,
        Expr.Attr a,
        Expr.Const k ) -> (
    match col a, test_for op k with
    | Some ci, Some test -> narrow_col ci test
    | _ -> fallback ())
  | Expr.Binop
      ( (Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq) as op,
        Expr.Const k,
        Expr.Attr a ) -> (
    match col a, test_for (flip_op op) k with
    | Some ci, Some test -> narrow_col ci test
    | _ -> fallback ())
  | Expr.Binop
      ( Expr.Eq,
        Expr.Binop (Expr.Mod, Expr.Attr a, Expr.Const (Value.Int m)),
        Expr.Const (Value.Int r) )
    when m <> 0 -> (
    match col a with
    | Some ci ->
      narrow_col ci (function
        | Value.Int x -> x mod m = r
        | Value.Null -> false
        | v ->
          errf "%% expects integers, got %s and %s" (Value.to_string v)
            (Value.to_string (Value.Int m)))
    | None -> fallback ())
  | Expr.Binop ((Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq) as op,
                Expr.Attr a, Expr.Attr b) -> (
    match col a, col b with
    | Some ci, Some cj ->
      let sqlop =
        match op with
        | Expr.Eq -> Value.sql_eq
        | Expr.Neq -> Value.sql_neq
        | Expr.Lt -> Value.sql_lt
        | Expr.Leq -> Value.sql_leq
        | Expr.Gt -> Value.sql_gt
        | Expr.Geq -> Value.sql_geq
        | _ -> assert false
      in
      narrow_generic (fun bt p ->
          generic_keep sqlop bt.Batch.cols.(ci).(p) bt.Batch.cols.(cj).(p))
    | _ -> fallback ())
  | Expr.Unop (Expr.Is_null, Expr.Attr a) -> (
    match col a with
    | Some ci -> narrow_col ci Value.is_null
    | None -> fallback ())
  | Expr.Unop (Expr.Not, Expr.Unop (Expr.Is_null, Expr.Attr a)) -> (
    match col a with
    | Some ci -> narrow_col ci (fun v -> not (Value.is_null v))
    | None -> fallback ())
  | Expr.Binop (Expr.Like, Expr.Attr a, Expr.Const (Value.Text _ as pat)) -> (
    match col a with
    | Some ci -> narrow_col ci (fun v -> generic_keep Value.like v pat)
    | None -> fallback ())
  | _ -> fallback ()

let filter_kernels lay pred = List.map (conjunct_kernel lay) (Expr.conjuncts pred)

(* Conjunct-wise narrowing evaluates exactly the (row, conjunct) pairs a
   short-circuiting AND would: rows failing conjunct i never see conjunct
   i+1. *)
let apply_filter kernels b =
  let n0 = Batch.live b in
  if n0 = 0 then None
  else
    let sel = Batch.sel_array b in
    let n =
      List.fold_left (fun n k -> if n = 0 then 0 else k b sel n) n0 kernels
    in
    if n = 0 then None else Some (Batch.with_sel b sel n)

(* ---- projection kernels ------------------------------------------ *)

type col_builder =
  | Share of int  (* plain attribute: share the column pointer when dense *)
  | Compute of (Batch.t -> int -> Value.t)

let project_builders lay cols =
  Array.of_list
    (List.map
       (fun (e, _) ->
         match e with
         | Expr.Attr a -> (
           match lay.pos a with
           | Some i -> Share i
           | None -> Compute (bexpr_of lay e))
         | e -> Compute (bexpr_of lay e))
       cols)

let apply_project builders b =
  let all_share =
    Array.for_all (function Share _ -> true | Compute _ -> false) builders
  in
  if all_share then
    (* plain-attribute projection: share column pointers and keep the
       selection vector — no per-row copying even on filtered batches *)
    Batch.with_cols b
      (Array.map
         (function Share i -> Batch.col b i | Compute _ -> assert false)
         builders)
  else
    let n = Batch.live b in
    let dense = Batch.is_dense b in
    let cols =
      Array.map
        (function
          | Share i ->
            if dense then Batch.col b i
            else begin
              let src = Batch.col b i in
              let dst = Array.make n Value.Null in
              for j = 0 to n - 1 do
                dst.(j) <- src.(Batch.idx b j)
              done;
              dst
            end
          | Compute f ->
            let dst = Array.make n Value.Null in
            for j = 0 to n - 1 do
              dst.(j) <- f b (Batch.idx b j)
            done;
            dst)
        builders
    in
    Batch.dense cols n

(* ---- hash join build and probe ----------------------------------- *)

(* A hash-join build: the build input as dense columns, its rows chained
   by key in ascending row order ([next.(i)] is the next row with row
   [i]'s key, -1 ends a chain), and [head (lay, keys)], which compiles
   the chain-head lookup for the probe-side key expressions over [lay]:
   the first build row whose key matches probe row [p] of batch [b], or
   -1. Read-only once built, so the parallel gather shares one build
   across its morsel tasks, each compiling its own lookup (key
   evaluators carry row cursors). *)
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
   on both sides goes through the grouping kernel's unboxed tables. Every
   other key, and a build holding a value off the dtype, goes through the
   tuple table under key identity ({!Tuple.equal}): a key with NULL or
   NaN in a plain [=] column never matches. *)
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

(* The build rows a FULL join matched nowhere, in build order, padded on
   the left with NULLs. *)
let unmatched_build ~l_arity ~batch_rows jb (matched : bool array) =
  let idx = indices (Array.length matched) (fun i -> not matched.(i)) in
  let n = Array.length idx and size = max 1 batch_rows in
  Seq.init
    ((n + size - 1) / size)
    (fun i ->
      let len = min size (n - (i * size)) in
      pairs_batch (Array.make l_arity [||]) (Array.make len (-1)) jb.jb_cols
        (Array.sub idx (i * size) len) len)

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
   matched, in right order. At most one chunk is in memory. *)
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
        (Array.iteri (fun i m ->
             if not m then
               Spill.push right_pads
                 (Tuple.concat (Array.make l_arity Value.Null) (brow chunk i))))
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
    let merged =
      merge_runs ~desc:[| false |]
        (Array.of_list (List.rev !runs))
        ~emit:(fun _ row -> Some row)
    in
    batches_of_rows ~arity:(l_arity + r_arity) ~batch_rows (fun () ->
        match merged () with
        | Some _ as row -> row
        | None ->
          let pad = Spill.next right_pads in
          if Option.is_none pad then Spill.release right_pads;
          pad)

(* ---- batch operator compilation ---------------------------------- *)

(* What running a build side yields: the build, or — past the spill
   threshold — what the Grace join needs: the build input in pieces and
   the function that builds one. *)
type build_side =
  | Built of join_build
  | Over_budget of {
      cfg : Spill.config;
      pieces : Batch.t array Seq.t;
      build : Batch.t -> join_build;
    }

(* Batch compilation context. [spill] is the statement's spill
   configuration; [outer] resolves the attributes bound by enclosing
   Apply operators (none at the root). Both substitution lists are empty
   on the serial path; {!run_parallel} fills [gather] with the morsel
   gather standing in for the spine root, and [builds] with the spine
   joins' prebuilt build sides. Nodes match by physical identity. *)
type bcx = {
  provider : provider;
  batch_rows : int;
  bwrap : bwrapper;
  spill : Spill.config option;
  outer : resolver;
  builds : (Plan.t * join_build) list;
  gather : (Plan.t * bop) option;
}

let layout cx schema = { pos = positions_of_schema schema; outer = cx.outer }

let join_keys left right pred =
  match pred with
  | None -> ([], [])
  | Some p -> split_join_pred (Plan.schema left) (Plan.schema right) p

(* The dtype of a plain [=] key that is one column of the same immediate
   dtype on both sides: the key the unboxed tables hold. *)
let single_key = function
  | [ { l_expr = Expr.Attr a; r_expr = Expr.Attr b; null_safe = false } ]
    when a.Attr.ty = b.Attr.ty
         && List.mem a.Attr.ty Dtype.[ Int; Date; Bool; Text ] ->
    Some a.Attr.ty
  | _ -> None

(* A join's residual conjuncts over row [p] of a left batch and row [r]
   of the build columns [cols], read through cursors: NOT shareable
   across domains. *)
let residual_of cx left_schema right_schema = function
  | [] -> None
  | preds ->
    let lpos = positions_of_schema left_schema
    and rpos = positions_of_schema right_schema in
    let lb = ref (Batch.dense [||] 0) and lp = ref 0 in
    let rcols = ref [||] and rr = ref 0 in
    let resolve a =
      match lpos a, rpos a with
      | Some i, _ -> Some (fun _ -> (Batch.col !lb i).(!lp))
      | None, Some j -> Some (fun _ -> !rcols.(j).(!rr))
      | None, None -> cx.outer a
    in
    let f = compile_pred resolve (Expr.conjoin preds) in
    Some
      (fun cols b p r ->
        rcols := cols;
        lb := b;
        lp := p;
        rr := r;
        f [||])

(* ORDER BY keys over [lay]: their evaluators and descending flags. *)
let sort_keys lay keys =
  ( Array.of_list (List.map (fun (e, _) -> bexpr_of lay e) keys),
    Array.of_list (List.map (fun (_, d) -> d = Plan.Desc) keys) )

(* A permutation sort of the numbered rows of [batches]: keys evaluated
   once per row into columns, a stable sort of row numbers. Returns the
   numbering, the key columns and the permutation. A lone row is never
   compared, so its keys are evaluated only for a run ([runs]). *)
let sort_rows (gets, desc) ~runs batches =
  let rb, rp, _ = number_rows batches in
  let n = Array.length rb in
  let perm = Array.init n Fun.id in
  let kcols =
    if n > 1 || runs then
      Array.map
        (fun get -> Array.init n (fun r -> get batches.(rb.(r)) rp.(r)))
        gets
    else [||]
  in
  if n > 1 then Array.stable_sort (fun i j -> compare_keys desc kcols i j) perm;
  ((rb, rp), kcols, perm)

(* The group annotation under a sort (and the filter between them, if
   any) when every sort key and the filter read only the annotation's
   head columns: its group-by outputs and aggregates. *)
let sorted_groups (child : Plan.t) keys =
  let over_heads (ga : Plan.t) exprs =
    match ga with
    | Plan.Group_annotate { group_by; aggs; _ } ->
      let heads =
        List.map snd group_by
        @ List.map (fun (c : Plan.agg_call) -> c.agg_out) aggs
      in
      List.for_all (fun e -> subset_of (Expr.attrs e) heads) exprs
    | _ -> false
  in
  let keys = List.map fst keys in
  match child with
  | Plan.Group_annotate _ when over_heads child keys -> Some (child, None)
  | Plan.Filter { child = ga; pred } when over_heads ga (pred :: keys) ->
    Some (ga, Some (child, pred))
  | _ -> None

let rec compile_batch cx (plan : Plan.t) : bop =
  match cx.gather with
  | Some (root, gathered) when root == plan -> gathered
  | _ ->
    (* children compile, and so wrap, before their parent *)
    let op = compile_batch_node cx plan in
    cx.bwrap plan op

and compile_batch_node cx (plan : Plan.t) : bop =
  let batch_rows = cx.batch_rows in
  match plan with
  | Plan.Scan { table; _ } ->
    fun () -> Array.to_seq (cx.provider.scan_batches table batch_rows)
  | Plan.Index_scan { table; key_col; key; _ } ->
    let arity = List.length (Plan.schema plan) in
    let fkey = compile_expr cx.outer key in
    fun () ->
      batches_of_tuple_list ~arity ~batch_rows
        (List.of_seq (cx.provider.probe_index table key_col (fkey [||])))
  | Plan.Values { rows; _ } ->
    let arity = List.length (Plan.schema plan) in
    let compiled =
      List.map (fun row -> List.map (compile_expr no_outer) row) rows
    in
    fun () ->
      batches_of_tuple_list ~arity ~batch_rows
        (List.map
           (fun row -> Array.of_list (List.map (fun f -> f [||]) row))
           compiled)
  | Plan.Project { child; cols } ->
    let builders = project_builders (layout cx (Plan.schema child)) cols in
    let run_child = compile_batch cx child in
    fun () -> Seq.map (apply_project builders) (run_child ())
  | Plan.Filter { child; pred } ->
    let kernels = filter_kernels (layout cx (Plan.schema child)) pred in
    let run_child = compile_batch cx child in
    fun () -> Seq.filter_map (apply_filter kernels) (run_child ())
  | Plan.Join { kind; left; right; pred } ->
    compile_batch_join cx plan kind left right pred
  | Plan.Apply { kind; left; right } -> compile_batch_apply cx kind left right
  | Plan.Aggregate { child; group_by; aggs } ->
    compile_batch_aggregate cx child group_by aggs
  | Plan.Group_annotate { child; group_by; aggs; rep } ->
    compile_batch_group_annotate cx child group_by aggs rep
  | Plan.Mark_first { child; keys; among; _ } ->
    (* the flag column is the input's with TRUE on the first row of every
       key among the representative rows *)
    let lay = layout cx (Plan.schema child) in
    let group_of =
      grouper ~spill:cx.spill ~what:"DISTINCT" lay
        (List.map (fun a -> Expr.Attr a) keys)
    in
    let among = Option.map (bpred_of lay) among in
    let run_child = compile_batch cx child in
    fun () ->
      Seq.memoize (fun () ->
          let firsts = firsts group_of in
          Seq.map
            (fun b ->
              let first =
                Option.fold ~none:[||] ~some:firsts
                  (Option.fold among ~none:(Some b) ~some:(fun f ->
                       narrow_live (f b) b))
              in
              let flag p =
                if p < Array.length first && first.(p) then Value.Bool true
                else Value.Bool false
              in
              Batch.with_cols b
                (Array.append b.Batch.cols [| Array.init b.Batch.rows flag |]))
            (run_child ()) ())
  | Plan.Distinct child ->
    let schema = Plan.schema child in
    let group_of =
      grouper ~spill:cx.spill ~what:"DISTINCT" (layout cx schema)
        (List.map (fun a -> Expr.Attr a) schema)
    in
    let run_child = compile_batch cx child in
    fun () ->
      Seq.memoize (fun () ->
          Seq.filter_map (first_rows group_of) (run_child ()) ())
  | Plan.Set_op { kind; all; left; right; attrs } ->
    compile_batch_set_op cx kind all left right attrs
  | Plan.Sort { child; keys } -> (
    let sort = compile_sort cx (Plan.schema child) keys in
    match sorted_groups child keys with
    | Some (Plan.Group_annotate { child; group_by; aggs; rep } as ga, filter) ->
      (* the annotation sorts its groups, and the filter between them is
         its group-level keep: both nodes still count their rows *)
      let op =
        compile_batch_group_annotate cx child group_by aggs rep
          ~sorted:(keys, Option.map snd filter, sort)
      in
      let run = cx.bwrap ga op in
      Option.fold filter ~none:run ~some:(fun (node, _) -> cx.bwrap node run)
    | _ ->
      let run_child = compile_batch cx child in
      fun () -> sort run_child)
  | Plan.Limit { child; limit; offset } ->
    let run_child = compile_batch cx child in
    fun () ->
      let rec go skip rem s () =
        if rem = 0 then Seq.Nil
        else
          match s () with
          | Seq.Nil -> Seq.Nil
          | Seq.Cons (b, rest) ->
            let n = Batch.live b in
            if skip >= n then go (skip - n) rem rest ()
            else
              let take_n = min rem (n - skip) in
              let b' =
                if skip = 0 && take_n = n then b
                else
                  let sel = Batch.sel_array b in
                  Batch.with_sel b (Array.sub sel skip take_n) take_n
              in
              Seq.Cons (b', go 0 (rem - take_n) rest)
      in
      go offset
        (match limit with Some n -> n | None -> max_int)
        (run_child ())
  | Plan.Prov _ ->
    err "internal: provenance marker reached the executor (rewriter not run)"
  | Plan.Baserel { child; _ } | Plan.External { child; _ } ->
    compile_batch cx child

(* A permutation sort of the stream [run_child ()] yields
   ({!sort_rows}): in memory every column is then gathered once, past
   the threshold each sorted piece is a run to merge. *)
and compile_sort cx schema keys =
  let batch_rows = cx.batch_rows in
  let arity = List.length schema in
  let keys = sort_keys (layout cx schema) keys in
  let sort = sort_rows keys in
  fun run_child ->
    Perm_fault.trip fp_sort;
    match input_of cx.spill (run_child ()) with
    | Fits s ->
      let batches = Array.of_seq s in
      let rows, _, perm = sort ~runs:false batches in
      gather_rows ~batch_rows ~arity batches rows perm
    | Spills (cfg, pieces) ->
      cfg.Spill.note Spill.Spilled;
      let runs =
        Array.of_seq
          (Seq.map
             (fun piece ->
               let rows, kcols, perm = sort ~runs:true piece in
               write_run cfg piece rows kcols perm)
             pieces)
      in
      batches_of_rows ~arity ~batch_rows
        (merge_runs ~desc:(snd keys) runs ~emit:(fun _ row -> Some row))

(* The build half of a hash join: run the right input once, as one dense
   batch, and chain its rows by key ({!build_join}). Under a spill
   configuration it stops at the threshold and hands the rest to the
   Grace join instead. *)
and compile_join_build cx (join : Plan.t) : unit -> build_side =
  let left, right, pred =
    match join with
    | Plan.Join { left; right; pred; _ } -> (left, right, pred)
    | _ -> err "internal: join build over a non-join node"
  in
  let keys, _ = join_keys left right pred in
  let r_lay = layout cx (Plan.schema right) in
  let build =
    build_join ~single:(single_key keys)
      ~null_safety:(Array.of_list (List.map (fun k -> k.null_safe) keys))
      (r_lay, List.map (fun k -> k.r_expr) keys)
  in
  let arity = List.length (Plan.schema right) in
  let run_right = compile_batch cx right in
  fun () ->
    Perm_fault.trip fp_join_build;
    match input_of cx.spill (run_right ()) with
    | Fits s -> Built (build (concat_live ~arity (Array.of_seq s)))
    | Spills (cfg, pieces) -> Over_budget { cfg; pieces; build }

and compile_batch_join cx plan kind left right pred =
  let left_schema = Plan.schema left and right_schema = Plan.schema right in
  let l_arity = List.length left_schema
  and r_arity = List.length right_schema in
  let batch_rows = cx.batch_rows in
  match kind with
  | Plan.Right ->
    (* evaluate as a left join with sides swapped, then permute the column
       arrays back — a pointer shuffle per batch, no row rebuilds *)
    let swapped =
      Plan.Join { kind = Plan.Left; left = right; right = left; pred }
    in
    let run = compile_batch cx swapped in
    fun () ->
      Seq.map
        (fun b ->
          let b = Batch.compact b in
          let cols =
            Array.append
              (Array.sub b.Batch.cols r_arity l_arity)
              (Array.sub b.Batch.cols 0 r_arity)
          in
          Batch.dense cols b.Batch.rows)
        (run ())
  | _ ->
    let run_left = compile_batch cx left in
    let build =
      match List.assq_opt plan cx.builds with
      | Some built -> fun () -> Built built
      | None -> compile_join_build cx plan
    in
    let keys, residual = join_keys left right pred in
    let l_lay = layout cx left_schema in
    let lkeys = (l_lay, List.map (fun k -> k.l_expr) keys) in
    let residual = residual_of cx left_schema right_schema residual in
    let probe ~kind ~matched_right ~tap jb =
      probe_batch ~kind ~batch_rows ~jb ~head:(jb.jb_head lkeys)
        ~residual:(Option.map (fun f -> f jb.jb_cols) residual)
        ~matched_right ~pads:(Option.is_none tap) ?tap
    in
    fun () ->
      Seq.memoize
        (fun () ->
          match build () with
          | Over_budget { cfg; pieces; build } ->
            grace_join cfg ~kind ~l_arity ~r_arity ~batch_rows ~build ~probe
              pieces (run_left ()) ()
          | Built jb ->
            let matched_right =
              if kind = Plan.Full then
                Some (Array.make (Array.length jb.jb_next) false)
              else None
            in
            let probe = probe ~kind ~matched_right ~tap:None jb in
            let main =
              Seq.concat_map (fun lb -> List.to_seq (probe lb)) (run_left ())
            in
            (* main must be fully consumed before the tail is forced so the
               matched flags are complete; Seq.append guarantees that *)
            Option.fold matched_right ~none:main ~some:(fun matched () ->
                Seq.append main (fun () ->
                    unmatched_build ~l_arity ~batch_rows jb matched ()) ()) ())

(* Correlated evaluation. The right side is compiled once, with an outer
   resolver that reads the current left row, and re-run for every live
   left row in order — one evaluation (one [loops] tick per right-side
   operator) per left row. Its rows are consumed whole before the next
   left row is bound. *)
and compile_batch_apply cx kind left right =
  let l_pos = positions_of_schema (Plan.schema left) in
  let current : Tuple.t ref = ref [||] in
  let outer a =
    match l_pos a with
    | Some i -> Some (fun _ -> !current.(i))
    | None -> cx.outer a
  in
  let run_left = compile_batch cx left in
  let run_right = compile_batch { cx with outer } right in
  let r_arity = List.length (Plan.schema right) in
  let arity = List.length (Plan.schema left) + r_arity in
  let right_rows lrow =
    current := lrow;
    List.concat_map Batch.to_tuples (List.of_seq (run_right ()))
  in
  fun () ->
    Seq.concat_map
      (fun lb ->
        match kind with
        | Plan.A_semi | Plan.A_anti ->
          let want = kind = Plan.A_semi in
          Option.to_seq
            (narrow_live (fun p -> (right_rows (brow lb p) <> []) = want) lb)
        | Plan.A_cross | Plan.A_outer | Plan.A_scalar _ ->
          let out = ref [] in
          let emit row = out := row :: !out in
          Batch.iter_live
            (fun p ->
              let lrow = brow lb p in
              match kind, right_rows lrow with
              | Plan.A_outer, [] ->
                emit (Tuple.concat lrow (Array.make r_arity Value.Null))
              | (Plan.A_cross | Plan.A_outer), rows ->
                List.iter (fun r -> emit (Tuple.concat lrow r)) rows
              | Plan.A_scalar _, [] -> emit (Tuple.concat lrow [| Value.Null |])
              | Plan.A_scalar _, [ r ] -> emit (Tuple.concat lrow [| r.(0) |])
              | Plan.A_scalar _, _ ->
                err "scalar subquery returned more than one row"
              | (Plan.A_semi | Plan.A_anti), _ -> assert false)
            lb;
          batches_of_tuple_list ~arity ~batch_rows:cx.batch_rows
            (List.rev !out))
      (run_left ())

and compile_batch_aggregate cx child group_by aggs =
  let lay = layout cx (Plan.schema child) in
  let group_of =
    grouper ~spill:cx.spill ~what:"GROUP BY" lay (List.map fst group_by)
  in
  let fresh, feeder, results = agg_feeder lay aggs in
  let run_child = compile_batch cx child in
  let arity = List.length group_by + List.length aggs in
  fun () ->
    Seq.memoize (fun () ->
        Perm_fault.trip fp_agg_merge;
        let order = ref [] in
        let group_of =
          group_of (fun key ->
              let states = fresh () in
              order := (key, states) :: !order;
              states)
        in
        Seq.iter
          (fun b -> group_of b (fun p states -> feed feeder states b p))
          (run_child ());
        let rows =
          if group_by = [] && !order = [] then [ results (fresh ()) ]
          else
            List.rev_map (fun (key, states) -> Array.append key (results states))
              !order
        in
        batches_of_tuple_list ~arity ~batch_rows:cx.batch_rows rows ())

(* In memory the annotation keeps the input batches (immutable once
   emitted) and addresses rows as (batch, position), so no row is
   materialized as a tuple: output columns gather straight from the input
   columns, in group order ({!grouped_order}). Past the threshold each
   piece of the input is put in group order the same way and written as
   a run keyed by group id; the merge (ties to the earlier piece) gives
   the same order while only group states stay in memory. Every run is
   written before the merge starts, so every group is final by then.
   With a representative flag, only flagged rows feed the aggregates, and
   a group's first flagged row gives it its key.

   [sorted] is an ORDER BY over the head columns, with the filter under
   it ({!sorted_groups}), and the sort it replaces. In memory the filter
   keeps groups and the keys order the k groups stably; each group's rows
   follow in input order. Groups are contiguous in first-seen order, so
   this is the stable row sort's order. Past the threshold the merged
   stream is filtered and sorted as rows. *)
and compile_batch_group_annotate ?sorted cx child group_by aggs rep =
  let batch_rows = cx.batch_rows in
  let child_schema = Plan.schema child in
  let lay = layout cx child_schema in
  let keys = List.map fst group_by in
  let gkey = key_filler lay keys in
  let group_of = grouper ~spill:cx.spill ~what:"GROUP BY" lay keys in
  let fresh, feeder, results = agg_feeder lay aggs in
  let represents =
    match rep with None -> fun _ _ -> true | Some e -> bpred_of lay e
  in
  let run_child = compile_batch cx child in
  let child_arity = List.length child_schema in
  let head_schema =
    List.map snd group_by @ List.map (fun (c : Plan.agg_call) -> c.agg_out) aggs
  in
  let head_arity = List.length head_schema in
  let arity = head_arity + child_arity in
  let head_lay = layout cx head_schema in
  let keep =
    match sorted with
    | Some (_, Some pred, _) -> filter_kernels head_lay pred
    | _ -> []
  in
  (* each group's output position, -1 for the groups left out *)
  let rank_groups heads =
    let rank = Array.make (Array.length heads) (-1) in
    (match sorted with
    | None ->
      Array.iteri (fun g h -> if Option.is_some h then rank.(g) <- g) heads
    | Some (skeys, _, _) -> (
      Perm_fault.trip fp_sort;
      let skeys = sort_keys head_lay skeys in
      let ids = indices (Array.length heads) (fun g -> heads.(g) <> None) in
      let hb =
        Batch.of_rows ~arity:head_arity
          (Array.map (fun g -> Option.get heads.(g)) ids)
          ~pos:0 ~len:(Array.length ids)
      in
      match apply_filter keep hb with
      | None -> ()
      | Some hb ->
        let (_, rp), _, perm = sort_rows skeys ~runs:false [| hb |] in
        Array.iteri (fun r j -> rank.(ids.(rp.(j))) <- r) perm));
    rank
  in
  fun () ->
    Seq.memoize (fun () ->
        Perm_fault.trip fp_agg_merge;
        let groups = ref [] and count = ref 0 in
        let group_of =
          group_of (fun key ->
              let head = if rep = None || keys = [] then Some key else None in
              let g = (!count, ref head, fresh ()) in
              incr count;
              groups := g :: !groups;
              g)
        in
        let assign b k =
          group_of b (fun p (gid, key, states) ->
              if represents b p then begin
                if Option.is_none !key then key := Some (gkey b p);
                feed feeder states b p
              end;
              k p gid)
        in
        (* a group no representative reaches is no group of the original
           aggregate: like the rejoin it stands for, emit none of its rows *)
        let heads () =
          Array.of_list
            (List.rev_map
               (fun (_, key, states) ->
                 Option.map (fun key -> Array.append key (results states)) !key)
               !groups)
        in
        match input_of cx.spill (run_child ()) with
        | Fits s ->
          let batches = Array.of_seq s in
          let rb, rp, gids = number_rows ~each:assign batches in
          if gids = [||] && group_by = [] then
            Seq.filter_map (apply_filter keep)
              (batches_of_tuple_list ~arity ~batch_rows
                 [
                   Array.append (results (fresh ()))
                     (Array.make child_arity Value.Null);
                 ])
              ()
          else
            let heads = heads () in
            gather_rows
              ~heads:(Array.map (Option.value ~default:[||]) heads, gids)
              ~batch_rows ~arity:child_arity batches (rb, rp)
              (grouped_order (rank_groups heads) gids)
              ()
        | Spills (cfg, pieces) ->
          cfg.Spill.note Spill.Spilled;
          let runs =
            Array.of_seq
              (Seq.map
                 (fun piece ->
                   let rb, rp, gids = number_rows ~each:assign piece in
                   write_run cfg piece (rb, rp)
                     [| Array.map (fun g -> Value.Int g) gids |]
                     (grouped_order (Array.init !count Fun.id) gids))
                 pieces)
          in
          let heads = heads () in
          let head = function
            | Value.Int g -> heads.(g)
            | _ -> err "internal: untagged group annotation row"
          in
          let merged =
            batches_of_rows ~arity ~batch_rows
              (merge_runs ~desc:[| false |] runs ~emit:(fun key row ->
                   Option.map (fun h -> Tuple.concat h row) (head key.(0))))
          in
          match sorted with
          | None -> merged ()
          | Some (_, _, sort) ->
            sort (fun () -> Seq.filter_map (apply_filter keep) merged) ())

and compile_batch_set_op cx kind all left right attrs =
  let run_left = compile_batch cx left in
  let run_right = compile_batch cx right in
  let narrow_rows keep b = narrow_live (fun p -> keep (brow b p)) b in
  match kind, all with
  | Plan.Union, true -> fun () -> Seq.append (run_left ()) (run_right ())
  | Plan.Union, false ->
    (* the branches are positional, so one layout over the output
       attributes (unified types) reads both *)
    let group_of =
      grouper ~spill:cx.spill ~what:"UNION" (layout cx attrs)
        (List.map (fun a -> Expr.Attr a) attrs)
    in
    fun () ->
      Seq.memoize (fun () ->
          Seq.filter_map (first_rows group_of)
            (Seq.append (run_left ()) (run_right ()))
            ())
  | (Plan.Intersect | Plan.Except), _ ->
    (* the set forms keep the first of the surviving left rows of a key *)
    let group_of =
      grouper ~spill:cx.spill ~what:"INTERSECT/EXCEPT" (layout cx attrs)
        (List.map (fun a -> Expr.Attr a) attrs)
    in
    fun () ->
      Seq.memoize
        (fun () ->
          let counts = Tuple.Hash.create 64 in
          let matches row =
            Option.value (Tuple.Hash.find_opt counts row) ~default:0
          in
          Seq.iter
            (fun b ->
              Batch.iter_live
                (fun p ->
                  let row = brow b p in
                  let c = matches row in
                  if c = 0 then
                    budget_materialized cx.spill ~what:"INTERSECT/EXCEPT"
                      (Tuple.Hash.length counts + 1);
                  Tuple.Hash.replace counts row (c + 1))
                b)
            (run_right ());
          (* under ALL each right row cancels one equal left row *)
          let cancels row =
            let rc = matches row in
            if rc > 0 then Tuple.Hash.replace counts row (rc - 1);
            rc > 0
          in
          let keep =
            match kind, all with
            | Plan.Intersect, true -> cancels
            | Plan.Except, true -> fun row -> not (cancels row)
            | Plan.Intersect, false -> fun row -> matches row > 0
            | Plan.Except, false -> fun row -> matches row = 0
            | Plan.Union, _ -> assert false
          in
          let left = Seq.filter_map (narrow_rows keep) (run_left ()) in
          (if all then left else Seq.filter_map (first_rows group_of) left) ())

(* ------------------------------------------------------------------ *)
(* Guardrails and root materialization                                 *)
(* ------------------------------------------------------------------ *)

(* The guard only wraps operators that can *create* row multiplicity —
   sources, joins, aggregations, sorts, set ops, applies. Pass-through
   nodes (Project/Filter/Limit) emit at most one row per guarded input
   row, so wrapping them too would add a Seq.map per batch per node
   without tightening the cancellation bound: every stream is charged at
   its multiplicity source, and every operator (re)invocation — the
   Apply case — re-checks the deadline at thunk start. *)
let guard_this_node (node : Plan.t) =
  match node with
  | Plan.Project _ | Plan.Filter _ | Plan.Limit _ -> false
  | _ -> true

(* Cancel-token checks sit at batch boundaries: one [Token.charge] per
   batch (of its live row count) at every multiplicity-source node, plus a
   deadline check at operator start. Kill latency is bounded by one batch
   per operator. Installed only when the token is active — the unguarded
   path compiles the exact same closures. *)
let guard_bwrap (token : Token.t) : bwrapper =
 fun node thunk ->
  if not (guard_this_node node) then thunk
  else
    fun () ->
      Token.check token;
      Seq.map
        (fun b ->
          Token.charge token (Batch.live b);
          b)
        (thunk ())

let over_row_limit limit =
  raise
    (Perm_err.Cancel
       ( Perm_err.Resource_exhausted,
         Printf.sprintf "row limit exceeded (limit %d)" limit ))

(* Root materialization: the one place every result passes through, so the
   row-limit guardrail and the live row-progress counter live here. *)
let materialize_batches ?row_limit ?progress (bs : Batch.t Seq.t) =
  let acc = ref [] in
  let count = ref 0 in
  Seq.iter
    (fun b ->
      let n = Batch.live b in
      (match progress with None -> () | Some p -> Progress.add_rows p n);
      (match row_limit with
      | Some limit when !count + n > limit -> over_row_limit limit
      | _ -> ());
      count := !count + n;
      List.iter (fun t -> acc := t :: !acc) (Batch.to_tuples b))
    bs;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Instrumented execution (EXPLAIN ANALYZE, \trace on)                 *)
(* ------------------------------------------------------------------ *)

type node_stats = {
  stat_kind : string;
  mutable stat_id : int;  (* stable pre-order id within the plan; -1 until
                             [finalize], and stays -1 for helper nodes the
                             executor synthesizes (e.g. the swapped join a
                             Right join compiles into) *)
  mutable stat_invocations : int;
  mutable stat_rows : int;
  mutable stat_time_s : float;
  mutable stat_self_s : float;  (* exclusive time, derived by [finalize] *)
  mutable stat_peak_rows : int;  (* max rows out of a single invocation *)
  mutable stat_peak_bytes : int;  (* largest measured heap footprint
                                     of one batch *)
}

(* Stats are keyed by the physical identity of the plan node: the plan is a
   tree built once per statement, so [==] identifies each operator uniquely
   and survives the trip through [Pretty.plan_to_string ~annotate]. *)
type exec_stats = { mutable entries : (Plan.t * node_stats) list }

let lookup stats node = List.assq_opt node stats.entries

let stats_entries stats = List.rev_map snd stats.entries
let stats_nodes stats = List.rev stats.entries

(* Stable node ids: pre-order over the plan tree, so the same statement
   shape yields the same numbering on every execution. Ids advance even
   for nodes that never executed (short-circuited subtrees), which keeps
   the numbering a function of the plan alone. *)
let node_ids plan =
  let id = ref 0 in
  let rec walk acc node =
    let this = !id in
    incr id;
    List.fold_left walk ((node, this) :: acc) (Plan.children node)
  in
  List.rev (walk [] plan)

(* Derive the per-node columns that need the whole tree: stable ids and
   self time (inclusive minus the children's inclusive time — children of
   an Apply right side re-run per outer row, and their cumulative time is
   already cumulative across invocations, so the subtraction stays
   exact). *)
let finalize stats plan =
  List.iter
    (fun (node, id) ->
      match lookup stats node with
      | None -> ()
      | Some ns ->
        ns.stat_id <- id;
        let child_s =
          List.fold_left
            (fun acc c ->
              match lookup stats c with
              | Some cns -> acc +. cns.stat_time_s
              | None -> acc)
            0. (Plan.children node)
        in
        ns.stat_self_s <- Float.max 0. (ns.stat_time_s -. child_s))
    (node_ids plan)

(* Per-base-relation view of the recorded stats: the leaf scans, labelled
   with the table they read. Feeds the perm_stat_relations system view. *)
let scan_stats stats =
  List.rev
    (List.filter_map
       (fun (p, ns) ->
         match p with
         | Plan.Scan { table; _ } | Plan.Index_scan { table; _ } ->
           Some (table, ns)
         | _ -> None)
       stats.entries)

let now_s () = Perm_obs.Trace.now ()

(* Operator counters: rows accumulate by live count per batch, and
   peak_bytes is the largest reachable-heap footprint
   ([Batch.measured_bytes]) among the batches the node measured, less the
   column arrays it shares with its children's latest batches: a filter
   or a projection passes its input's columns on, and those belong to
   the input. Measuring walks the batch, so a node measures its first
   batch and then only a batch with more live rows than any it measured
   before: a stream of equal batches costs one walk, not one per batch.
   Every pull is timed,
   so the measured interval covers the operator AND its children
   (inclusive time, as in Postgres EXPLAIN ANALYZE). A child measures its
   batch inside its parent's pull, so each interval gives back the
   measuring time that accrued during it: no node is charged for byte
   counts. *)
let instrumenting_bwrap stats : bwrapper =
  let measuring = ref 0. in
  (* each wrapped node's latest batch columns; children wrap first *)
  let latest = ref [] in
  fun node thunk ->
    let inputs =
      List.filter_map (fun c -> List.assq_opt c !latest) (Plan.children node)
    in
    let last = ref [||] in
    latest := (node, last) :: !latest;
    let ns =
      {
        stat_kind = Plan.operator_kind node;
        stat_id = -1;
        stat_invocations = 0;
        stat_rows = 0;
        stat_time_s = 0.;
        stat_self_s = 0.;
        stat_peak_rows = 0;
        stat_peak_bytes = 0;
      }
    in
    stats.entries <- (node, ns) :: stats.entries;
    let widest = ref 0 in
    let timed f =
      let t0 = now_s () and m0 = !measuring in
      let r = f () in
      ns.stat_time_s <-
        ns.stat_time_s +. (now_s () -. t0) -. (!measuring -. m0);
      r
    in
    fun () ->
      ns.stat_invocations <- ns.stat_invocations + 1;
      let inv_rows = ref 0 in
      let rec step s () =
        match timed s with
        | Seq.Nil -> Seq.Nil
        | Seq.Cons (b, rest) ->
          let live = Batch.live b in
          last := b.Batch.cols;
          ns.stat_rows <- ns.stat_rows + live;
          inv_rows := !inv_rows + live;
          if !inv_rows > ns.stat_peak_rows then ns.stat_peak_rows <- !inv_rows;
          if live > !widest || ns.stat_peak_bytes = 0 then begin
            widest := max live !widest;
            let t0 = now_s () in
            let bytes = Batch.measured_bytes (List.map ( ! ) inputs) b in
            measuring := !measuring +. (now_s () -. t0);
            if bytes > ns.stat_peak_bytes then ns.stat_peak_bytes <- bytes
          end;
          Seq.Cons (b, step rest)
      in
      step (timed thunk)

(* The batch wrapper of one compile: operator counters when [stats] is
   given, under the cancel guard when the token is armed. *)
let batch_wrap token stats =
  let w = match stats with Some s -> instrumenting_bwrap s | None -> no_bwrap in
  if Token.active token then fun node thunk -> guard_bwrap token node (w node thunk)
  else w

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let statement_cx ?spill ~provider ~batch_rows bwrap =
  {
    provider;
    batch_rows = max 1 batch_rows;
    bwrap;
    spill = spill_of spill;
    outer = no_outer;
    builds = [];
    gather = None;
  }

(* Compile and drain [plan]. Spill files an abandoned lazy consumer left
   behind (LIMIT over a spilled sort never reaches the sort's own
   cleanup) are released when the statement ends, however it ends. *)
let execute ?row_limit ?progress cx plan =
  Fun.protect ~finally:Spill.release_all (fun () ->
      materialize_batches ?row_limit ?progress ((compile_batch cx plan) ()))

let run ?(token = Token.none) ?row_limit ?progress
    ?(batch_rows = default_batch_rows) ?spill ~provider plan =
  let cx = statement_cx ?spill ~provider ~batch_rows (batch_wrap token None) in
  match execute ?row_limit ?progress cx plan with
  | rows -> Ok rows
  | exception Runtime_error msg -> Error msg

let run_instrumented ?(token = Token.none) ?row_limit ?progress
    ?(batch_rows = default_batch_rows) ?spill ~provider plan =
  let stats = { entries = [] } in
  let cx =
    statement_cx ?spill ~provider ~batch_rows (batch_wrap token (Some stats))
  in
  match execute ?row_limit ?progress cx plan with
  | rows ->
    finalize stats plan;
    Ok (rows, stats)
  | exception Runtime_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Morsel-driven parallel execution (Leis et al., SIGMOD 2014)         *)
(* ------------------------------------------------------------------ *)

(* Parallel execution is a gather inside the ordinary batch plan. One
   spine — Filter, Project and probe-side Join operators over a base-table
   Scan — runs once per morsel on the domain pool. Everything else runs
   serially through the same batch compiler: the spine joins' build sides,
   built once before the fan-out and shared read-only by every task, and
   the Aggregate/Sort/Limit/Project operators above the spine, which
   consume the gathered batches. A morsel is a run of whole batches of the
   driving table's cached columnar image, sliced without copying; each
   task compiles the spine against a provider that serves only its
   morsel, so the stateful expression cursors stay domain-local. Morsel
   outputs concatenate in morsel order, which is scan order, so the
   operators above the gather see exactly the serial batch stream and
   results are byte-identical by construction. *)

module Par = struct
  type report = {
    par_domains : int;  (* pool size, caller included *)
    par_morsels : int;  (* tasks fanned out *)
    par_participants : int;  (* workers that executed at least one morsel *)
    par_pool : Pool.report;  (* per-worker accounting and morsel slices *)
  }
end

type spine = { sp_root : Plan.t; sp_table : string; sp_joins : Plan.t list }

let default_parallel_threshold = 2048

(* The one parallel-eligibility decision. It descends from the root through
   the operators that run serially above a gather (Sort, Limit, Project,
   Aggregate) to the highest spine: Filter/Project/Join operators, entered
   through the left input of Inner/Cross/Left/Semi/Anti joins, down to a
   base-table Scan. The spine must do per-row work (at least one Filter
   or Join) and the driving table must hold at least [threshold] rows.
   [Error] carries a reason slug for the engine's fallback counters. *)
let parallel_spine ~threshold ~table_rows plan =
  let rec walk ~work joins (p : Plan.t) =
    match p with
    | Plan.Scan { table; _ } ->
      if work then Ok (table, List.rev joins) else Error "shape"
    | Plan.Filter { child; _ } -> walk ~work:true joins child
    | Plan.Project { child; _ } | Plan.Baserel { child; _ }
    | Plan.External { child; _ } ->
      walk ~work joins child
    | Plan.Join
        { kind = Plan.Inner | Plan.Cross | Plan.Left | Plan.Semi | Plan.Anti;
          left; _ } ->
      walk ~work:true (p :: joins) left
    | Plan.Join _ -> Error "outer-join"
    | Plan.Index_scan _ -> Error "index-scan"
    | Plan.Values _ -> Error "values"
    | _ -> Error "shape"
  in
  let rec find (p : Plan.t) =
    let here () =
      Result.map
        (fun (table, joins) ->
          { sp_root = p; sp_table = table; sp_joins = joins })
        (walk ~work:false [] p)
    in
    match p with
    | Plan.Sort { child; _ } | Plan.Limit { child; _ }
    | Plan.Aggregate { child; _ } | Plan.Group_annotate { child; _ } ->
      find child
    | Plan.Project { child; _ } -> (
      match here () with Ok _ as ok -> ok | Error _ -> find child)
    | _ -> here ()
  in
  match find plan with
  | Ok sp when table_rows sp.sp_table < threshold -> Error "small"
  | r -> r

(* Fold one task's operator counters into the statement's: counts and
   times add up across morsels, peaks take the maximum. *)
let merge_stats into (task : exec_stats) =
  List.iter
    (fun (node, ns) ->
      match lookup into node with
      | None -> into.entries <- (node, ns) :: into.entries
      | Some acc ->
        acc.stat_invocations <- acc.stat_invocations + ns.stat_invocations;
        acc.stat_rows <- acc.stat_rows + ns.stat_rows;
        acc.stat_time_s <- acc.stat_time_s +. ns.stat_time_s;
        acc.stat_peak_rows <- max acc.stat_peak_rows ns.stat_peak_rows;
        acc.stat_peak_bytes <- max acc.stat_peak_bytes ns.stat_peak_bytes)
    (List.rev task.entries)

(* A spine join's build side is shared read-only by every morsel task, so
   it cannot take the Grace join: past the spill threshold the gather
   gives up and the engine re-runs the statement serially, where the
   build spills in place. The exception carries the reason to the
   engine's recorder. *)
let shared_build cx join =
  match compile_join_build cx join () with
  | Built jb -> jb
  | Over_budget { cfg; _ } ->
    raise
      (Spill.Fallback_needed
         (Printf.sprintf "parallel join build passed the spill threshold %d"
            cfg.Spill.threshold))

let run_parallel ?(token = Token.none) ?row_limit ?progress ?spill
    ?(instrument = false) ~pool ~batch_rows ~provider spine plan =
  let stats = if instrument then Some { entries = [] } else None in
  let cx = statement_cx ?spill ~provider ~batch_rows (batch_wrap token stats) in
  let report = ref None in
  let gathered () =
    Token.check token;
    let builds = List.map (fun j -> (j, shared_build cx j)) spine.sp_joins in
    let image = provider.scan_batches spine.sp_table cx.batch_rows in
    let nb = Array.length image in
    (* whole batches per morsel, about four morsels per domain so fast
       workers can steal the tail *)
    let target = 4 * Pool.size pool in
    let per = max 1 ((nb + target - 1) / target) in
    let n = (nb + per - 1) / per in
    Option.iter (fun p -> Progress.set_morsels_total p n) progress;
    let outs = Array.make n [] in
    let task_stats =
      Array.init n (fun _ -> Option.map (fun _ -> { entries = [] }) stats)
    in
    let task i () =
      Token.check token;
      let morsel = Array.sub image (i * per) (min per (nb - (i * per))) in
      (* the driving scan is the only one compiled here: every spine
         join's right input is prebuilt in [builds] *)
      let provider = { provider with scan_batches = (fun _ _ -> morsel) } in
      let run =
        compile_batch
          { cx with provider; bwrap = batch_wrap token task_stats.(i); builds }
          spine.sp_root
      in
      let out = List.of_seq (run ()) in
      outs.(i) <- out;
      Option.iter Progress.incr_morsels_done progress;
      List.fold_left (fun acc b -> acc + Batch.live b) 0 out
    in
    let rp = Pool.run pool (Array.init n task) in
    Option.iter
      (fun s -> Array.iter (Option.iter (merge_stats s)) task_stats)
      stats;
    report :=
      Some
        {
          Par.par_domains = Pool.size pool;
          par_morsels = n;
          par_participants = rp.Pool.rp_participants;
          par_pool = rp;
        };
    Seq.concat_map List.to_seq (Array.to_seq outs)
  in
  let cx = { cx with gather = Some (spine.sp_root, gathered) } in
  match execute ?row_limit ?progress cx plan with
  | rows ->
    Option.iter (fun s -> finalize s plan) stats;
    (* every operator above the spine pulls its input, so the gather ran *)
    Ok (rows, Option.get !report, stats)
  | exception Runtime_error msg -> Error msg

let eval_const e =
  match (compile_expr no_outer e) [||] with
  | v -> Ok v
  | exception Runtime_error msg -> Error msg

let compile_row_predicate ~schema pred =
  let resolve = resolver_of_schema schema in
  fun row ->
    match (compile_pred resolve pred) row with
    | b -> Ok b
    | exception Runtime_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Structural plan hashing                                             *)
(* ------------------------------------------------------------------ *)

(* A stable digest of the compiled plan's *shape*: operator tree, table
   names, expression structure, attribute names and types — but not
   attribute ids (gensym'd afresh on every analysis of the same SQL),
   not literal values (two bindings of one parameterized statement share
   a hash, like they share a fingerprint), and not planner estimates
   (the hash may only change when the plan itself changes). Attributes
   are renumbered in first-visit order over the pre-order traversal, so
   the same plan shape always serializes identically. The execution mode
   is mixed in so the parallel verdict flipping is itself a plan change
   the regression watchdog can attribute. *)
let plan_hash ?(mode = "serial") plan =
  let buf = Buffer.create 256 in
  let canon : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let next = ref 0 in
  let add s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\x00'
  in
  let attr (a : Attr.t) =
    let k =
      match Hashtbl.find_opt canon a.Attr.id with
      | Some k -> k
      | None ->
        let k = !next in
        incr next;
        Hashtbl.replace canon a.Attr.id k;
        k
    in
    Printf.sprintf "%s@%d:%s" a.Attr.name k
      (Perm_value.Dtype.to_string a.Attr.ty)
  in
  let attrs l = String.concat "," (List.map attr l) in
  let rec expr (e : Expr.t) =
    match e with
    | Expr.Const _ -> "?"
    | Expr.Attr a -> attr a
    | Expr.Binop (op, l, r) ->
      Printf.sprintf "(%s %s %s)" (expr l) (Expr.binop_name op) (expr r)
    | Expr.Unop (Expr.Not, x) -> "not(" ^ expr x ^ ")"
    | Expr.Unop (Expr.Neg, x) -> "neg(" ^ expr x ^ ")"
    | Expr.Unop (Expr.Is_null, x) -> "isnull(" ^ expr x ^ ")"
    | Expr.Case { branches; else_ } ->
      Printf.sprintf "case(%s%s)"
        (String.concat ";"
           (List.map (fun (c, v) -> expr c ^ ">" ^ expr v) branches))
        (match else_ with None -> "" | Some e -> ";else:" ^ expr e)
    | Expr.Cast (x, ty) ->
      Printf.sprintf "cast(%s:%s)" (expr x) (Perm_value.Dtype.to_string ty)
    | Expr.Func (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat "," (List.map expr args))
  in
  let agg_name = function
    | Plan.Count_star -> "count*"
    | Plan.Count -> "count"
    | Plan.Sum -> "sum"
    | Plan.Avg -> "avg"
    | Plan.Min -> "min"
    | Plan.Max -> "max"
    | Plan.Bool_and -> "bool_and"
    | Plan.Bool_or -> "bool_or"
  in
  let rec go (p : Plan.t) =
    (match p with
    | Plan.Scan { table; attrs = a } -> add ("scan:" ^ table ^ ":" ^ attrs a)
    | Plan.Index_scan { table; attrs = a; key_col; key } ->
      add (Printf.sprintf "iscan:%s:%d:%s:%s" table key_col (expr key) (attrs a))
    | Plan.Values { attrs = a; rows = _ } ->
      (* row count and row contents are literal-derived: arity only *)
      add ("values:" ^ attrs a)
    | Plan.Project { cols; _ } ->
      add
        ("project:"
        ^ String.concat ","
            (List.map (fun (e, a) -> expr e ^ ">" ^ attr a) cols))
    | Plan.Filter { pred; _ } -> add ("filter:" ^ expr pred)
    | Plan.Join { kind; pred; _ } ->
      add
        ("join:"
        ^ Plan.join_kind_name kind
        ^ ":"
        ^ (match pred with None -> "" | Some p -> expr p))
    | Plan.Apply { kind; _ } ->
      add
        ("apply:"
        ^ Plan.apply_kind_name kind
        ^ (match kind with Plan.A_scalar a -> ":" ^ attr a | _ -> ""))
    | Plan.Aggregate { group_by; aggs; _ }
    | Plan.Group_annotate { group_by; aggs; _ } ->
      add
        ((match p with Plan.Aggregate _ -> "agg:" | _ -> "gannot:")
        ^ String.concat ","
            (List.map (fun (e, a) -> expr e ^ ">" ^ attr a) group_by)
        ^ ":"
        ^ String.concat ","
            (List.map
               (fun (c : Plan.agg_call) ->
                 Printf.sprintf "%s%s(%s)>%s" (agg_name c.Plan.agg)
                   (if c.Plan.distinct then ":distinct" else "")
                   (match c.Plan.arg with None -> "" | Some e -> expr e)
                   (attr c.Plan.agg_out))
               aggs)
        ^ (match p with
          | Plan.Group_annotate { rep = Some e; _ } -> ":rep:" ^ expr e
          | _ -> ""))
    | Plan.Mark_first { keys; among; flag; _ } ->
      add
        (Printf.sprintf "markfirst:%s:%s>%s" (attrs keys)
           (match among with None -> "" | Some e -> expr e)
           (attr flag))
    | Plan.Distinct _ -> add "distinct"
    | Plan.Set_op { kind; all; attrs = a; _ } ->
      add
        (Printf.sprintf "setop:%s:%s:%s"
           (match kind with
           | Plan.Union -> "union"
           | Plan.Intersect -> "intersect"
           | Plan.Except -> "except")
           (if all then "all" else "distinct")
           (attrs a))
    | Plan.Sort { keys; _ } ->
      add
        ("sort:"
        ^ String.concat ","
            (List.map
               (fun (e, dir) ->
                 expr e ^ (match dir with Plan.Asc -> ":asc" | Plan.Desc -> ":desc"))
               keys))
    | Plan.Limit { limit; offset; _ } ->
      (* limit/offset magnitudes are literal-derived: presence only *)
      add
        (Printf.sprintf "limit:%s:%s"
           (match limit with None -> "all" | Some _ -> "n")
           (if offset > 0 then "ofs" else "-"))
    | Plan.Prov { semantics; sources; _ } ->
      add
        (Printf.sprintf "prov:%s:%s"
           (match semantics with
           | Plan.Influence -> "influence"
           | Plan.Copy_partial -> "copy-partial"
           | Plan.Copy_complete -> "copy-complete")
           (String.concat ","
              (List.map
                 (fun (s : Plan.prov_source) ->
                   Printf.sprintf "%s.%s>%s" s.Plan.prov_rel s.Plan.prov_col
                     (attr s.Plan.prov_attr))
                 sources)))
    | Plan.Baserel { rel_name; _ } -> add ("baserel:" ^ rel_name)
    | Plan.External { ext_attrs; _ } -> add ("external:" ^ attrs ext_attrs));
    List.iter go (Plan.children p)
  in
  add ("mode:" ^ mode);
  go plan;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents buf))) 0 12
