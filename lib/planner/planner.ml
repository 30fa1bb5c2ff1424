module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Value = Perm_value.Value

type stats = {
  table_rows : string -> int;
  table_distinct : string -> string -> int;
  has_index : string -> string -> bool;
}

let no_stats =
  {
    table_rows = (fun _ -> 1000);
    table_distinct = (fun _ _ -> 100);
    has_index = (fun _ _ -> false);
  }

(* ------------------------------------------------------------------ *)
(* Cardinality estimation                                              *)
(* ------------------------------------------------------------------ *)

(* Track which base column each attribute aliases, to look up distinct
   counts through projections and joins. *)
let rec column_origin (plan : Plan.t) (a : Attr.t) : (string * string) option =
  match plan with
  | Plan.Scan { table; attrs } | Plan.Index_scan { table; attrs; _ } ->
    if List.exists (fun (x : Attr.t) -> Attr.equal x a) attrs then
      Some (table, a.Attr.name)
    else None
  | Plan.Project { child; cols } -> (
    match List.find_opt (fun (_, out) -> Attr.equal out a) cols with
    | Some (Expr.Attr src, _) -> column_origin child src
    | Some _ -> None
    | None -> None)
  | Plan.Filter { child; _ }
  | Plan.Distinct child
  | Plan.Sort { child; _ }
  | Plan.Limit { child; _ } ->
    column_origin child a
  | Plan.Join { left; right; _ } | Plan.Apply { left; right; _ } -> (
    match column_origin left a with
    | Some o -> Some o
    | None -> column_origin right a)
  | Plan.Aggregate { child; group_by; _ } -> (
    match List.find_opt (fun (_, out) -> Attr.equal out a) group_by with
    | Some (Expr.Attr src, _) -> column_origin child src
    | _ -> None)
  | Plan.Group_annotate { child; group_by; _ } -> (
    match List.find_opt (fun (_, out) -> Attr.equal out a) group_by with
    | Some (Expr.Attr src, _) -> column_origin child src
    | Some _ -> None
    | None -> column_origin child a)
  | Plan.Mark_first { child; _ } -> column_origin child a
  | Plan.Values _ | Plan.Set_op _ | Plan.Prov _ | Plan.Baserel _
  | Plan.External _ ->
    None

let attrs_subset set (schema : Attr.t list) =
  Attr.Set.for_all
    (fun (a : Attr.t) -> List.exists (fun (x : Attr.t) -> Attr.equal x a) schema)
    set

let distinct_of stats plan (e : Expr.t) ~rows =
  match e with
  | Expr.Attr a -> (
    match column_origin plan a with
    | Some (table, col) -> float_of_int (max 1 (stats.table_distinct table col))
    | None -> max 1. (rows /. 10.))
  | _ -> max 1. (rows /. 10.)

(* [distinct e] estimates the distinct values of [e] among the rows the
   predicate filters. *)
let rec selectivity ~distinct (pred : Expr.t) =
  match pred with
  | Expr.Binop (Expr.And, a, b) ->
    selectivity ~distinct a *. selectivity ~distinct b
  | Expr.Binop (Expr.Or, a, b) ->
    let sa = selectivity ~distinct a and sb = selectivity ~distinct b in
    min 1. (sa +. sb -. (sa *. sb))
  | Expr.Unop (Expr.Not, a) -> 1. -. selectivity ~distinct a
  | Expr.Binop (Expr.Eq, (Expr.Attr _ as a), Expr.Const _)
  | Expr.Binop (Expr.Eq, Expr.Const _, (Expr.Attr _ as a)) ->
    1. /. distinct a
  (* a computed value against a constant ([m.mid % 7 = 0]): no statistics
     describe it *)
  | Expr.Binop (Expr.Eq, _, Expr.Const _)
  | Expr.Binop (Expr.Eq, Expr.Const _, _) ->
    0.1
  | Expr.Binop (Expr.Eq, a, b) -> 1. /. max (distinct a) (distinct b)
  | Expr.Binop (Expr.Neq, _, _) -> 0.9
  | Expr.Binop ((Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq), _, _) -> 0.33
  | Expr.Binop (Expr.Like, _, _) -> 0.1
  | Expr.Unop (Expr.Is_null, _) -> 0.05
  | Expr.Const (Value.Bool true) -> 1.
  | Expr.Const (Value.Bool false) -> 0.
  | _ -> 0.5

let rec estimate_rows stats (plan : Plan.t) : float =
  match plan with
  | Plan.Scan { table; _ } -> float_of_int (max 1 (stats.table_rows table))
  | Plan.Index_scan { table; attrs; key_col; _ } ->
    let rows = float_of_int (max 1 (stats.table_rows table)) in
    let distinct =
      match List.nth_opt attrs key_col with
      | Some (a : Attr.t) ->
        float_of_int (max 1 (stats.table_distinct table a.Attr.name))
      | None -> 10.
    in
    max 1. (rows /. distinct)
  | Plan.Values { rows; _ } -> float_of_int (max 1 (List.length rows))
  | Plan.Project { child; _ } | Plan.Sort { child; _ } ->
    estimate_rows stats child
  | Plan.Group_annotate { child; _ } | Plan.Mark_first { child; _ } ->
    max 1. (estimate_rows stats child)
  | Plan.Filter { child; pred } ->
    let rows = estimate_rows stats child in
    max 1. (rows *. selectivity ~distinct:(distinct_of stats child ~rows) pred)
  | Plan.Join { kind; left; right; pred } -> (
    let l = estimate_rows stats left and r = estimate_rows stats right in
    let cross = l *. r in
    (* a join key counts its distinct values on its own side: one with no
       base-column origin guesses from that side's rows, not the cross
       product's *)
    let distinct e =
      let on side = attrs_subset (Expr.attrs e) (Plan.schema side) in
      if on left then distinct_of stats left e ~rows:l
      else if on right then distinct_of stats right e ~rows:r
      else distinct_of stats plan e ~rows:cross
    in
    let matched =
      match pred with
      | None -> cross
      | Some p -> max 1. (cross *. selectivity ~distinct p)
    in
    match kind with
    | Plan.Inner | Plan.Cross -> matched
    | Plan.Left -> max l matched
    | Plan.Right -> max r matched
    | Plan.Full -> max (max l r) matched
    | Plan.Semi -> max 1. (l /. 2.)
    | Plan.Anti -> max 1. (l /. 2.))
  | Plan.Apply { kind; left; right } -> (
    let l = estimate_rows stats left and r = estimate_rows stats right in
    match kind with
    | Plan.A_cross -> l *. r
    | Plan.A_outer -> max l (l *. r)
    | Plan.A_scalar _ -> l
    | Plan.A_semi | Plan.A_anti -> max 1. (l /. 2.))
  | Plan.Aggregate { child; group_by; _ } ->
    let rows = estimate_rows stats child in
    if group_by = [] then 1.
    else
      let groups =
        List.fold_left
          (fun acc (e, _) -> acc *. distinct_of stats child e ~rows)
          1. group_by
      in
      max 1. (min rows groups)
  | Plan.Distinct child ->
    let rows = estimate_rows stats child in
    max 1. (rows /. 2.)
  | Plan.Set_op { kind; all; left; right; _ } -> (
    let l = estimate_rows stats left and r = estimate_rows stats right in
    match kind, all with
    | Plan.Union, true -> l +. r
    | Plan.Union, false -> max 1. ((l +. r) /. 2.)
    | Plan.Intersect, _ -> max 1. (min l r /. 2.)
    | Plan.Except, _ -> max 1. (l /. 2.))
  | Plan.Limit { child; limit; offset } -> (
    let rows = estimate_rows stats child in
    match limit with
    | Some n -> max 1. (min rows (float_of_int (n + offset)) -. float_of_int offset)
    | None -> max 1. (rows -. float_of_int offset))
  | Plan.Prov { child; _ } | Plan.Baserel { child; _ } | Plan.External { child; _ }
    ->
    estimate_rows stats child

(* Per-node estimates over the whole tree, in pre-order — the same order
   the executor numbers plan nodes, so index i is the estimate for node id
   i. Feeds the EXPLAIN ANALYZE est/act annotations and perm_stat_plans. *)
let node_estimates stats (plan : Plan.t) : (Plan.t * float) list =
  let rec walk acc node =
    List.fold_left walk ((node, estimate_rows stats node) :: acc)
      (Plan.children node)
  in
  List.rev (walk [] plan)

(* Total estimated row traffic of the plan — the scalar the telemetry
   history retains per execution so the regression watchdog can tell
   "the input grew" apart from "the plan changed". Estimates never feed
   the plan hash itself: Executor.plan_hash is computed from plan
   structure alone, so refreshed statistics move this total without
   moving the hash (unless the optimizer actually picks another plan). *)
let estimate_total stats (plan : Plan.t) : float =
  List.fold_left (fun acc (_, est) -> acc +. est) 0. (node_estimates stats plan)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* CPU-centric costs: one unit per produced tuple plus operator-specific
   work. Joins are costed as hash joins when an equality conjunct exists,
   nested loops otherwise; Apply is inherently nested. *)
let rec cost stats (plan : Plan.t) : float =
  let out = estimate_rows stats plan in
  match plan with
  | Plan.Scan _ | Plan.Values _ -> out
  | Plan.Index_scan _ -> 1. +. out (* probe + emit, no full scan *)
  | Plan.Project { child; _ } -> cost stats child +. out
  | Plan.Filter { child; _ } -> cost stats child +. estimate_rows stats child
  | Plan.Join { left; right; pred; _ } ->
    let l = estimate_rows stats left and r = estimate_rows stats right in
    let has_equality =
      match pred with
      | None -> false
      | Some p ->
        List.exists
          (function
            | Expr.Binop (Expr.Eq, _, _) -> true
            | Expr.Binop (Expr.Or, Expr.Binop (Expr.Eq, _, _), _) -> true
            | _ -> false)
          (Expr.conjuncts p)
    in
    let join_work = if has_equality then l +. r else l *. r in
    cost stats left +. cost stats right +. join_work +. out
  | Plan.Apply { left; right; _ } ->
    let l = estimate_rows stats left in
    cost stats left +. (l *. cost stats right) +. out
  | Plan.Aggregate { child; _ } | Plan.Group_annotate { child; _ } ->
    cost stats child +. estimate_rows stats child +. out
  | Plan.Distinct child | Plan.Mark_first { child; _ } ->
    cost stats child +. estimate_rows stats child
  | Plan.Set_op { left; right; _ } ->
    cost stats left +. cost stats right
    +. estimate_rows stats left +. estimate_rows stats right
  | Plan.Sort { child; _ } ->
    let n = estimate_rows stats child in
    cost stats child +. (n *. log (max 2. n) /. log 2.)
  | Plan.Limit { child; _ } -> cost stats child
  | Plan.Prov { child; _ } | Plan.Baserel { child; _ } | Plan.External { child; _ }
    ->
    cost stats child

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let try_fold_binop op (a : Value.t) (b : Value.t) : Value.t option =
  let of_result = function Ok v -> Some v | Error _ -> None in
  match (op : Expr.binop) with
  | Expr.Add -> of_result (Value.add a b)
  | Expr.Sub -> of_result (Value.sub a b)
  | Expr.Mul -> of_result (Value.mul a b)
  | Expr.Div -> of_result (Value.div a b)
  | Expr.Mod -> (
    match a, b with
    | Value.Int x, Value.Int y when y <> 0 -> Some (Value.Int (x mod y))
    | Value.Null, _ | _, Value.Null -> Some Value.Null
    | _ -> None)
  | Expr.Eq -> Some (Value.sql_eq a b)
  | Expr.Neq -> Some (Value.sql_neq a b)
  | Expr.Lt -> Some (Value.sql_lt a b)
  | Expr.Leq -> Some (Value.sql_leq a b)
  | Expr.Gt -> Some (Value.sql_gt a b)
  | Expr.Geq -> Some (Value.sql_geq a b)
  | Expr.Concat -> of_result (Value.concat a b)
  | Expr.Like -> Some (Value.like a b)
  | Expr.And | Expr.Or -> None (* handled with Kleene shortcuts below *)

(* [e] rebuilt over operands [a'] and [b'], or [e] itself when they are
   its own: folding a plan without constants allocates nothing. *)
let binop e op a' b' =
  match e with
  | Expr.Binop (_, a, b) when a == a' && b == b' -> e
  | _ -> Expr.Binop (op, a', b')

let unop e op a' =
  match e with
  | Expr.Unop (_, a) when a == a' -> e
  | _ -> Expr.Unop (op, a')

let rec fold_expr (e : Expr.t) : Expr.t =
  match e with
  | Expr.Const _ | Expr.Attr _ -> e
  | Expr.Binop (Expr.And, a, b) -> (
    match fold_expr a, fold_expr b with
    | Expr.Const (Value.Bool false), _ | _, Expr.Const (Value.Bool false) ->
      Expr.Const (Value.Bool false)
    | Expr.Const (Value.Bool true), x | x, Expr.Const (Value.Bool true) -> x
    | a, b -> binop e Expr.And a b)
  | Expr.Binop (Expr.Or, a, b) -> (
    match fold_expr a, fold_expr b with
    | Expr.Const (Value.Bool true), _ | _, Expr.Const (Value.Bool true) ->
      Expr.Const (Value.Bool true)
    | Expr.Const (Value.Bool false), x | x, Expr.Const (Value.Bool false) -> x
    | a, b -> binop e Expr.Or a b)
  | Expr.Binop (op, a, b) -> (
    let a = fold_expr a and b = fold_expr b in
    match a, b with
    | Expr.Const va, Expr.Const vb -> (
      match try_fold_binop op va vb with
      | Some v -> Expr.Const v
      | None -> binop e op a b)
    | _ -> binop e op a b)
  | Expr.Unop (Expr.Not, a) -> (
    match fold_expr a with
    | Expr.Const (Value.Bool b) -> Expr.Const (Value.Bool (not b))
    | Expr.Const Value.Null -> Expr.Const Value.Null
    | a -> unop e Expr.Not a)
  | Expr.Unop (Expr.Neg, a) -> (
    match fold_expr a with
    | Expr.Const v -> (
      match Value.neg v with
      | Ok v' -> Expr.Const v'
      | Error _ -> unop e Expr.Neg (Expr.Const v))
    | a -> unop e Expr.Neg a)
  | Expr.Unop (Expr.Is_null, a) -> (
    match fold_expr a with
    | Expr.Const v -> Expr.Const (Value.Bool (Value.is_null v))
    | a -> unop e Expr.Is_null a)
  | Expr.Case { branches; else_ } ->
    Expr.Case
      {
        branches = List.map (fun (c, r) -> (fold_expr c, fold_expr r)) branches;
        else_ = Option.map fold_expr else_;
      }
  | Expr.Cast (a, ty) -> (
    match fold_expr a with
    | Expr.Const v -> (
      match Value.cast ty v with
      | Ok v' -> Expr.Const v'
      | Error _ -> Expr.Cast (Expr.Const v, ty))
    | a' -> if a' == a then e else Expr.Cast (a', ty))
  | Expr.Func (name, args) -> Expr.Func (name, List.map fold_expr args)

(* [l] itself when [f] maps every element to itself. *)
let rec map_same f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x in
    let rest' = map_same f rest in
    if x' == x && rest' == rest then l else x' :: rest'

let map_cols f cols =
  map_same
    (fun ((e, a) as col) ->
      let e' = f e in
      if e' == e then col else (e', a))
    cols

let map_opt f o =
  match o with
  | Some e ->
    let e' = f e in
    if e' == e then o else Some e'
  | None -> o

let rec map_exprs f (plan : Plan.t) : Plan.t =
  let plan = Plan.map_children (map_exprs f) plan in
  let map_aggs =
    map_same (fun (c : Plan.agg_call) ->
        let arg = map_opt f c.arg in
        if arg == c.arg then c else { c with arg })
  in
  match plan with
  | Plan.Scan _ | Plan.Index_scan _ | Plan.Values _ | Plan.Distinct _
  | Plan.Prov _ | Plan.Baserel _ | Plan.External _ | Plan.Apply _
  | Plan.Set_op _ | Plan.Limit _ ->
    plan
  | Plan.Project r ->
    let cols = map_cols f r.cols in
    if cols == r.cols then plan else Plan.Project { r with cols }
  | Plan.Filter r ->
    let pred = f r.pred in
    if pred == r.pred then plan else Plan.Filter { r with pred }
  | Plan.Join r ->
    let pred = map_opt f r.pred in
    if pred == r.pred then plan else Plan.Join { r with pred }
  | Plan.Aggregate r ->
    let aggs = map_aggs r.aggs in
    let group_by = map_cols f r.group_by in
    if group_by == r.group_by && aggs == r.aggs then plan
    else Plan.Aggregate { r with group_by; aggs }
  | Plan.Group_annotate r ->
    let rep = map_opt f r.rep in
    let aggs = map_aggs r.aggs in
    let group_by = map_cols f r.group_by in
    if group_by == r.group_by && aggs == r.aggs && rep == r.rep then plan
    else Plan.Group_annotate { r with group_by; aggs; rep }
  | Plan.Mark_first r ->
    let among = map_opt f r.among in
    if among == r.among then plan else Plan.Mark_first { r with among }
  | Plan.Sort r ->
    let keys =
      map_same
        (fun ((e, d) as key) ->
          let e' = f e in
          if e' == e then key else (e', d))
        r.keys
    in
    if keys == r.keys then plan else Plan.Sort { r with keys }

(* ------------------------------------------------------------------ *)
(* Predicate pushdown                                                  *)
(* ------------------------------------------------------------------ *)

(* Push one conjunct as far down as it goes; returns None if it was absorbed
   into the plan, or Some pred if it must stay above. *)
let rec push_conjunct (pred : Expr.t) (plan : Plan.t) : Plan.t option =
  match plan with
  | Plan.Filter { child; pred = p } -> (
    match push_conjunct pred child with
    | Some child' -> Some (Plan.Filter { child = child'; pred = p })
    | None -> None)
  | Plan.Project { child; cols } ->
    (* substitute projection definitions into the predicate *)
    let pred' = Expr.substitute cols pred in
    (* only push when the rewritten predicate is strictly over child attrs
       (it always is, since projections define all their outputs) *)
    if attrs_subset (Expr.attrs pred') (Plan.schema child) then
      Some
        (Plan.Project
           { child = with_filter child pred'; cols })
    else None
  | Plan.Join { kind = (Plan.Inner | Plan.Cross) as kind; left; right; pred = jp }
    ->
    let pa = Expr.attrs pred in
    if attrs_subset pa (Plan.schema left) then
      Some (Plan.Join { kind; left = with_filter left pred; right; pred = jp })
    else if attrs_subset pa (Plan.schema right) then
      Some (Plan.Join { kind; left; right = with_filter right pred; pred = jp })
    else if attrs_subset pa (Plan.schema plan) then
      (* over both sides: a join predicate, so a comma join hashes *)
      let pred =
        Option.fold jp ~none:pred ~some:(fun p ->
            Expr.Binop (Expr.And, p, pred))
      in
      Some (Plan.Join { kind = Plan.Inner; left; right; pred = Some pred })
    else None
  | Plan.Join { kind = Plan.Semi | Plan.Anti; left; right; pred = jp } ->
    let pa = Expr.attrs pred in
    if attrs_subset pa (Plan.schema left) then
      let kind = (match plan with Plan.Join { kind; _ } -> kind | _ -> assert false) in
      Some (Plan.Join { kind; left = with_filter left pred; right; pred = jp })
    else None
  | Plan.Sort { child; keys } ->
    Some (Plan.Sort { child = with_filter child pred; keys })
  | Plan.Distinct child -> Some (Plan.Distinct (with_filter child pred))
  | Plan.Scan _ | Plan.Index_scan _ | Plan.Values _ | Plan.Join _
  | Plan.Apply _ | Plan.Aggregate _ | Plan.Group_annotate _ | Plan.Mark_first _
  | Plan.Set_op _ | Plan.Limit _ | Plan.Prov _ | Plan.Baserel _
  | Plan.External _ ->
    None

and with_filter plan pred =
  match push_conjunct pred plan with
  | Some plan' -> plan'
  | None -> (
    match plan with
    | Plan.Filter { child; pred = p } ->
      Plan.Filter { child; pred = Expr.Binop (Expr.And, p, pred) }
    | _ -> Plan.Filter { child = plan; pred })

let rec pushdown (plan : Plan.t) : Plan.t =
  let plan = Plan.map_children pushdown plan in
  match plan with
  | Plan.Filter { child; pred } ->
    let conjuncts = Expr.conjuncts pred in
    List.fold_left (fun acc c -> with_filter acc c) child conjuncts
  | Plan.Join { kind = (Plan.Inner | Plan.Left) as kind; left; right; pred = Some p }
    ->
    (* an inner join's ON conjuncts over one side filter that side, as the
       comma spelling's WHERE does (an inner join left with none is the
       comma's cross join); a LEFT join's over its right side filter its
       right input (those over its left side decide padding, not
       survival, and stay) *)
    let over side c =
      let a = Expr.attrs c in
      (not (Attr.Set.is_empty a)) && attrs_subset a (Plan.schema side)
    in
    let l, rest =
      List.partition
        (fun c -> kind = Plan.Inner && over left c)
        (Expr.conjuncts p)
    in
    let r, rest = List.partition (over right) rest in
    if l = [] && r = [] then plan
    else
      Plan.Join
        {
          kind = (if rest = [] && kind = Plan.Inner then Plan.Cross else kind);
          left = List.fold_left with_filter left l;
          right = List.fold_left with_filter right r;
          pred = (if rest = [] then None else Some (Expr.conjoin rest));
        }
  | p -> p

(* ------------------------------------------------------------------ *)
(* Projection pruning                                                  *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Apply de-correlation                                                 *)
(* ------------------------------------------------------------------ *)

(* Attributes a subtree references but does not itself produce: non-empty
   means the subtree is correlated with an enclosing Apply. *)
let free_attrs plan =
  let produced = ref Attr.Set.empty in
  let referenced = ref Attr.Set.empty in
  let ref_expr e = referenced := Attr.Set.union !referenced (Expr.attrs e) in
  let rec go (p : Plan.t) =
    produced :=
      List.fold_left (fun acc a -> Attr.Set.add a acc) !produced (Plan.schema p);
    (match p with
    | Plan.Scan _ -> ()
    | Plan.Index_scan { key; _ } -> ref_expr key
    | Plan.Values { rows; _ } -> List.iter (List.iter ref_expr) rows
    | Plan.Project { cols; _ } -> List.iter (fun (e, _) -> ref_expr e) cols
    | Plan.Filter { pred; _ } -> ref_expr pred
    | Plan.Join { pred; _ } -> Option.iter ref_expr pred
    | Plan.Apply _ -> ()
    | Plan.Mark_first { among; _ } -> Option.iter ref_expr among
    | Plan.Aggregate { group_by; aggs; _ }
    | Plan.Group_annotate { group_by; aggs; _ } ->
      (match p with
      | Plan.Group_annotate { rep = Some e; _ } -> ref_expr e
      | _ -> ());
      List.iter (fun (e, _) -> ref_expr e) group_by;
      List.iter
        (fun (c : Plan.agg_call) -> Option.iter ref_expr c.arg)
        aggs;
      (* group-by output attrs are produced but not part of schema when
         pruned; they are in the schema, handled above *)
      ()
    | Plan.Distinct _ | Plan.Set_op _ | Plan.Limit _ -> ()
    | Plan.Sort { keys; _ } -> List.iter (fun (e, _) -> ref_expr e) keys
    | Plan.Prov _ | Plan.Baserel _ | Plan.External _ -> ());
    List.iter go (Plan.children p)
  in
  go plan;
  Attr.Set.diff !referenced !produced

(* Rewrite [Apply] over an uncorrelated right side into the equivalent join:
   the analyzer and the provenance rewriter always produce Apply for
   subqueries, with the correlation predicate as a Filter stack on the right
   — when the filtered core is uncorrelated, a (semi/anti/inner/left) hash
   join computes the same result without per-row re-evaluation. *)
let rec decorrelate (plan : Plan.t) : Plan.t =
  let plan = Plan.map_children decorrelate plan in
  match plan with
  | Plan.Apply { kind; left; right } -> (
    let rec peel preds = function
      | Plan.Filter { child; pred } -> peel (pred :: preds) child
      | core -> (core, preds)
    in
    let core, preds = peel [] right in
    if not (Attr.Set.is_empty (free_attrs core)) then plan
    else
      let pred = match preds with [] -> None | ps -> Some (Expr.conjoin ps) in
      match kind with
      | Plan.A_semi -> Plan.Join { kind = Plan.Semi; left; right = core; pred }
      | Plan.A_anti -> Plan.Join { kind = Plan.Anti; left; right = core; pred }
      | Plan.A_cross ->
        let kind = if pred = None then Plan.Cross else Plan.Inner in
        Plan.Join { kind; left; right = core; pred }
      | Plan.A_outer -> Plan.Join { kind = Plan.Left; left; right = core; pred }
      | Plan.A_scalar _ -> plan)
  | p -> p

(* Collapse adjacent projections by substituting the inner definitions into
   the outer expressions — the provenance rewrite stacks projections (one
   per rule application), which this flattens back. *)
let rec merge_projects (plan : Plan.t) : Plan.t =
  let plan = Plan.map_children merge_projects plan in
  match plan with
  | Plan.Project { child = Plan.Project { child; cols = inner }; cols = outer } ->
    merge_projects
      (Plan.Project
         {
           child;
           cols =
             List.map (fun (e, out) -> (Expr.substitute inner e, out)) outer;
         })
  | p -> p

let rec prune ~(needed : Attr.Set.t option) (plan : Plan.t) : Plan.t =
  let keep (a : Attr.t) =
    match needed with None -> true | Some s -> Attr.Set.mem a s
  in
  match plan with
  | Plan.Scan _ | Plan.Index_scan _ | Plan.Values _ -> plan
  | Plan.Project { child; cols } ->
    let cols = List.filter (fun (_, out) -> keep out) cols in
    let cols =
      (* never produce a zero-column projection *)
      match cols, plan with
      | [], Plan.Project { cols = c :: _; _ } -> [ c ]
      | cols, _ -> cols
    in
    let child_needed =
      List.fold_left
        (fun acc (e, _) -> Expr.add_attrs e acc)
        Attr.Set.empty cols
    in
    let child' = prune ~needed:(Some child_needed) child in
    (* drop identity projections *)
    let identity =
      let schema = Plan.schema child' in
      List.compare_lengths cols schema = 0
      && List.for_all2
           (fun (e, out) (src : Attr.t) ->
             match e with
             | Expr.Attr a -> Attr.equal a src && Attr.equal out src
             | _ -> false)
           cols schema
    in
    if identity then child' else Plan.Project { child = child'; cols }
  | Plan.Filter { child; pred } ->
    let child_needed =
      Option.map (Expr.add_attrs pred) needed
    in
    Plan.Filter { child = prune ~needed:child_needed child; pred }
  | Plan.Join { kind; left; right; pred } ->
    let pred_attrs =
      match pred with Some p -> Expr.attrs p | None -> Attr.Set.empty
    in
    let split side_schema =
      match needed with
      | None -> None
      | Some s ->
        Some
          (Attr.Set.union
             (Attr.Set.filter
                (fun a ->
                  List.exists (fun (x : Attr.t) -> Attr.equal x a) side_schema)
                s)
             (Attr.Set.filter
                (fun a ->
                  List.exists (fun (x : Attr.t) -> Attr.equal x a) side_schema)
                pred_attrs))
    in
    Plan.Join
      {
        kind;
        left = prune ~needed:(split (Plan.schema left)) left;
        right = prune ~needed:(split (Plan.schema right)) right;
        pred;
      }
  | Plan.Apply { kind; left; right } ->
    (* the right side may reference any left attribute; be conservative *)
    Plan.Apply { kind; left = prune ~needed:None left; right = prune ~needed:None right }
  | Plan.Aggregate { child; group_by; aggs } ->
    let aggs = List.filter (fun (c : Plan.agg_call) -> keep c.agg_out) aggs in
    let child_needed =
      List.fold_left
        (fun acc (e, _) -> Expr.add_attrs e acc)
        Attr.Set.empty group_by
    in
    let child_needed =
      List.fold_left
        (fun acc (c : Plan.agg_call) ->
          match c.arg with
          | Some e -> Expr.add_attrs e acc
          | None -> acc)
        child_needed aggs
    in
    Plan.Aggregate
      { child = prune ~needed:(Some child_needed) child; group_by; aggs }
  | Plan.Group_annotate { child; group_by; aggs; rep } ->
    (* the child's columns pass through: needed ones stay needed, plus
       everything the grouping, the surviving aggregates and the
       representative flag read *)
    let aggs = List.filter (fun (c : Plan.agg_call) -> keep c.agg_out) aggs in
    let child_needed =
      Option.map
        (fun s ->
          let s =
            List.fold_left
              (fun acc e -> Expr.add_attrs e acc)
              s
              (Option.to_list rep @ List.map fst group_by)
          in
          List.fold_left
            (fun acc (c : Plan.agg_call) ->
              match c.arg with
              | Some e -> Expr.add_attrs e acc
              | None -> acc)
            s aggs)
        needed
    in
    Plan.Group_annotate
      { child = prune ~needed:child_needed child; group_by; aggs; rep }
  | Plan.Mark_first { child; flag; _ } when not (keep flag) ->
    (* nothing reads the flag (the lateral strategy's input) *)
    prune ~needed child
  | Plan.Mark_first { child; keys; among; flag } ->
    let child_needed =
      Option.map
        (fun s ->
          List.fold_left (fun acc a -> Attr.Set.add a acc)
            (Attr.Set.union s
               (Option.fold ~none:Attr.Set.empty ~some:Expr.attrs among))
            keys)
        needed
    in
    Plan.Mark_first { child = prune ~needed:child_needed child; keys; among; flag }
  | Plan.Distinct child -> Plan.Distinct (prune ~needed:None child)
  | Plan.Set_op { kind; all; left; right; attrs } ->
    (* positional: keep every column *)
    Plan.Set_op
      {
        kind;
        all;
        left = prune ~needed:None left;
        right = prune ~needed:None right;
        attrs;
      }
  | Plan.Sort { child; keys } ->
    let child_needed =
      Option.map
        (fun s ->
          List.fold_left
            (fun acc (e, _) -> Expr.add_attrs e acc)
            s keys)
        needed
    in
    Plan.Sort { child = prune ~needed:child_needed child; keys }
  | Plan.Limit { child; limit; offset } ->
    Plan.Limit { child = prune ~needed child; limit; offset }
  | Plan.Prov _ | Plan.Baserel _ | Plan.External _ ->
    Plan.map_children (prune ~needed:None) plan

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type config = {
  fold_constants : bool;
  push_predicates : bool;
  prune_projections : bool;
  decorrelate_applies : bool;
  use_indexes : bool;
}

let default_config =
  {
    fold_constants = true;
    push_predicates = true;
    prune_projections = true;
    decorrelate_applies = true;
    use_indexes = true;
  }

let disabled_config =
  {
    fold_constants = false;
    push_predicates = false;
    prune_projections = false;
    decorrelate_applies = false;
    use_indexes = false;
  }

(* Index selection: an equality-with-constant conjunct directly over a base
   table scan becomes a hash-index probe when the session has the index;
   other conjuncts stay as a residual filter. Runs after pushdown so single-
   table conjuncts have already descended to their scans. *)
let rec select_indexes stats (plan : Plan.t) : Plan.t =
  let plan = Plan.map_children (select_indexes stats) plan in
  match plan with
  | Plan.Filter { child = Plan.Scan { table; attrs }; pred } -> (
    let conjuncts = Expr.conjuncts pred in
    let position_of a =
      let rec go i = function
        | [] -> None
        | (x : Attr.t) :: _ when Attr.equal x a -> Some i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 attrs
    in
    let usable = function
      | Expr.Binop (Expr.Eq, Expr.Attr a, (Expr.Const _ as key))
      | Expr.Binop (Expr.Eq, (Expr.Const _ as key), Expr.Attr a) -> (
        match position_of a with
        | Some pos when stats.has_index table a.Attr.name -> Some (pos, key)
        | _ -> None)
      | _ -> None
    in
    let rec pick seen = function
      | [] -> None
      | c :: rest -> (
        match usable c with
        | Some (pos, key) -> Some (pos, key, List.rev_append seen rest)
        | None -> pick (c :: seen) rest)
    in
    match pick [] conjuncts with
    | None -> plan
    | Some (key_col, key, residual) ->
      let scan = Plan.Index_scan { table; attrs; key_col; key } in
      if residual = [] then scan
      else Plan.Filter { child = scan; pred = Expr.conjoin residual })
  | p -> p

(* The hash join builds its right input. An inner equi-join whose left
   input is estimated smaller swaps its inputs, under an identity
   projection that restores the column order (folded into a projection
   above it); the join then emits in the order of its new probe side,
   the old right input. *)
let rec build_smaller stats (plan : Plan.t) : Plan.t =
  let plan = Plan.map_children (build_smaller stats) plan in
  match plan with
  | Plan.Project
      { child = Plan.Project { child = Plan.Join _ as join; cols = id }; cols }
    when List.for_all
           (function Expr.Attr a, out -> Attr.equal a out | _ -> false)
           id ->
    Plan.Project { child = join; cols }
  | Plan.Join { kind = Plan.Inner; left; right; pred = Some p }
    when estimate_rows stats left < estimate_rows stats right
         && List.exists
              (function
                | Expr.Binop (Expr.Eq, a, b) ->
                  let on side e =
                    attrs_subset (Expr.attrs e) (Plan.schema side)
                  in
                  (on left a && on right b) || (on left b && on right a)
                | _ -> false)
              (Expr.conjuncts p) ->
    Plan.Project
      {
        child =
          Plan.Join
            { kind = Plan.Inner; left = right; right = left; pred = Some p };
        cols = Plan.identity_project plan;
      }
  | p -> p

let optimize ?(config = default_config) stats plan =
  let plan = if config.fold_constants then map_exprs fold_expr plan else plan in
  let plan =
    (* drop filters that folded to TRUE *)
    if config.fold_constants then
      let rec clean p =
        let p = Plan.map_children clean p in
        match p with
        | Plan.Filter { child; pred = Expr.Const (Value.Bool true) } -> child
        | p -> p
      in
      clean plan
    else plan
  in
  let plan = if config.decorrelate_applies then decorrelate plan else plan in
  let plan = if config.push_predicates then pushdown plan else plan in
  let plan =
    if config.prune_projections then prune ~needed:None (merge_projects plan)
    else plan
  in
  let plan = if config.use_indexes then select_indexes stats plan else plan in
  (* with pushdown, the pass that turns WHERE equi-joins into hash joins *)
  if config.push_predicates then build_smaller stats plan else plan
