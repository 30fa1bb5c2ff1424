module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr

module Pair_set = Set.Make (struct
  type t = int * string

  let compare = compare
end)

(* Map from attribute id to the set of (instance index, column name) pairs
   whose values the attribute copies verbatim. *)
type env = { mutable map : Pair_set.t Attr.Map.t; mutable next_instance : int }

let lookup env (a : Attr.t) =
  match Attr.Map.find_opt a env.map with
  | Some s -> s
  | None -> Pair_set.empty

let bind env (a : Attr.t) s = env.map <- Attr.Map.add a s env.map

let copy_of_expr env = function
  | Expr.Attr a -> lookup env a
  | Expr.Const _ | Expr.Binop _ | Expr.Unop _ | Expr.Case _ | Expr.Cast _
  | Expr.Func _ ->
    Pair_set.empty

(* Walks the plan allocating instance indices in Sources.instances order and
   populating the copy map for every node's output attributes. *)
let rec walk env (plan : Plan.t) =
  match plan with
  | Plan.Scan { attrs; _ } | Plan.Index_scan { attrs; _ } ->
    let idx = env.next_instance in
    env.next_instance <- idx + 1;
    List.iter
      (fun (a : Attr.t) -> bind env a (Pair_set.singleton (idx, a.Attr.name)))
      attrs
  | Plan.Values _ -> ()
  | Plan.Baserel { child; _ } ->
    let idx = env.next_instance in
    env.next_instance <- idx + 1;
    List.iter
      (fun (a : Attr.t) -> bind env a (Pair_set.singleton (idx, a.Attr.name)))
      (Plan.schema child)
  | Plan.External { ext_attrs; _ } ->
    (* one instance, always-qualifying; no copy tracking needed *)
    env.next_instance <- env.next_instance + 1;
    ignore ext_attrs
  | Plan.Prov { sources; _ } ->
    env.next_instance <- env.next_instance + List.length sources
  | Plan.Project { child; cols } ->
    walk env child;
    List.iter (fun (e, out) -> bind env out (copy_of_expr env e)) cols
  | Plan.Filter { child; _ }
  | Plan.Distinct child
  | Plan.Sort { child; _ }
  | Plan.Limit { child; _ }
  | Plan.Mark_first { child; _ } ->
    walk env child
  | Plan.Join { kind = Plan.Anti; left; _ } -> walk env left
  | Plan.Apply { kind = Plan.A_anti; left; _ } -> walk env left
  | Plan.Join { left; right; _ } ->
    walk env left;
    walk env right
  | Plan.Apply { kind; left; right } -> (
    walk env left;
    walk env right;
    match kind with
    | Plan.A_scalar a -> (
      match Plan.schema right with
      | [ r0 ] -> bind env a (lookup env r0)
      | _ -> bind env a Pair_set.empty)
    | Plan.A_cross | Plan.A_outer | Plan.A_semi | Plan.A_anti -> ())
  | Plan.Aggregate { child; group_by; aggs }
  | Plan.Group_annotate { child; group_by; aggs; _ } ->
    walk env child;
    List.iter (fun (e, out) -> bind env out (copy_of_expr env e)) group_by;
    List.iter
      (fun (c : Plan.agg_call) -> bind env c.agg_out Pair_set.empty)
      aggs
  | Plan.Set_op { left; right; attrs; _ } ->
    walk env left;
    walk env right;
    let ls = Plan.schema left and rs = Plan.schema right in
    List.iteri
      (fun i (out : Attr.t) ->
        let l = List.nth ls i and r = List.nth rs i in
        bind env out (Pair_set.union (lookup env l) (lookup env r)))
      attrs

let qualifying semantics plan =
  let insts = Sources.instances plan in
  match semantics with
  | Plan.Influence -> List.map (fun _ -> true) insts
  | Plan.Copy_partial | Plan.Copy_complete ->
    let env = { map = Attr.Map.empty; next_instance = 0 } in
    walk env plan;
    let copied =
      List.fold_left
        (fun acc (a : Attr.t) -> Pair_set.union acc (lookup env a))
        Pair_set.empty (Plan.schema plan)
    in
    List.mapi
      (fun idx inst ->
        match inst.Sources.inst_origin with
        | Sources.From_external | Sources.From_nested_prov -> true
        | Sources.From_scan _ | Sources.From_baserel -> (
          let col_copied col = Pair_set.mem (idx, col) copied in
          match semantics with
          | Plan.Copy_partial ->
            List.exists (fun (col, _) -> col_copied col) inst.Sources.inst_cols
          | Plan.Copy_complete ->
            List.for_all (fun (col, _) -> col_copied col) inst.Sources.inst_cols
          | Plan.Influence -> true))
      insts
