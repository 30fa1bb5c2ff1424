module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Value = Perm_value.Value

type agg_strategy = Agg_join | Agg_lateral

type strategy_mode =
  | Fixed of agg_strategy
  | Heuristic
  | Cost_based of (Plan.t -> float)

type config = { agg_mode : strategy_mode }

let default_config = { agg_mode = Heuristic }

type report = {
  agg_choices : agg_strategy list;
  rewritten_markers : int;
  rule_counts : (string * int) list;
}

exception Rewrite_error of string

type ctx = {
  config : config;
  mutable choices : agg_strategy list;  (* reverse order *)
  mutable markers : int;
  rules : (string, int) Hashtbl.t;  (* rewrite rule name -> times fired *)
}

let fired ctx rule =
  let n = Option.value ~default:0 (Hashtbl.find_opt ctx.rules rule) in
  Hashtbl.replace ctx.rules rule (n + 1)

(* Duplicate a plan's output columns as provenance copies, named after the
   given relation display name. Returns the projection and the bindings. *)
let duplicate_as_provenance rel_name plan =
  let attrs = Plan.schema plan in
  let copies =
    List.map
      (fun (a : Attr.t) ->
        Attr.fresh (Printf.sprintf "prov_%s_%s" rel_name a.Attr.name) a.Attr.ty)
      attrs
  in
  let cols =
    List.map (fun a -> (Expr.Attr a, a)) attrs
    @ List.map2 (fun (a : Attr.t) c -> (Expr.Attr a, c)) attrs copies
  in
  (Plan.Project { child = plan; cols }, List.map (fun c -> Expr.Attr c) copies)

(* Rename a rewritten plan's copy of the original output columns so a rejoin
   against the original operator cannot capture attribute ids, and
   materialize the bindings as real columns at the same time. Returns
   (projection, fresh copies of [orig_attrs], fresh binding attrs). *)
let rename_for_rejoin orig_attrs plan bindings =
  let data_copies =
    List.map (fun (a : Attr.t) -> Attr.renamed (a.Attr.name ^ "_rw") a) orig_attrs
  in
  let prov_attrs =
    List.map (fun b -> Attr.fresh "prov" (Expr.type_of b)) bindings
  in
  let cols =
    List.map2 (fun (a : Attr.t) c -> (Expr.Attr a, c)) orig_attrs data_copies
    @ List.map2 (fun b p -> (b, p)) bindings prov_attrs
  in
  (Plan.Project { child = plan; cols }, data_copies, prov_attrs)

(* Whether [rw plan] yields exactly one rewritten row per row of [plan],
   carrying that row's original column values — the precondition for
   aggregating the rewritten input in place of the original one. Rules
   that replicate (semi joins and semi/scalar applies expose witnesses),
   rejoin (aggregation, LIMIT, INTERSECT, EXCEPT) or drop the original's
   duplicate elimination (DISTINCT, UNION) break it. *)
let rec preserves_rows (plan : Plan.t) =
  match plan with
  | Plan.Scan _ | Plan.Index_scan _ | Plan.Values _ | Plan.Baserel _
  | Plan.External _ | Plan.Prov _ ->
    true
  | Plan.Project { child; _ } | Plan.Filter { child; _ } | Plan.Sort { child; _ }
    ->
    preserves_rows child
  | Plan.Join { kind = Plan.Anti; left; _ }
  | Plan.Apply { kind = Plan.A_anti; left; _ } ->
    preserves_rows left
  | Plan.Join
      { kind = Plan.Inner | Plan.Left | Plan.Right | Plan.Full | Plan.Cross;
        left; right; _ }
  | Plan.Set_op { kind = Plan.Union; all = true; left; right; _ } ->
    preserves_rows left && preserves_rows right
  | Plan.Join { kind = Plan.Semi; _ } | Plan.Apply _ | Plan.Aggregate _
  | Plan.Group_annotate _ | Plan.Distinct _ | Plan.Set_op _ | Plan.Limit _ ->
    false

let rec eliminate ctx (plan : Plan.t) =
  match plan with
  | Plan.Prov { child; semantics; sources } ->
    rewrite_prov ctx ~child ~semantics ~sources
  | Plan.Baserel { child; _ } | Plan.External { child; _ } ->
    eliminate ctx child
  | other -> Plan.map_children (eliminate ctx) other

(* The influence rewrite: returns the rewritten plan and the provenance
   bindings, one expression per column of Sources.instances, in the same
   order (the structural mirror of Sources.instances). *)
and rw ctx (plan : Plan.t) : Plan.t * Expr.t list =
  match plan with
  | Plan.Scan { table; _ } | Plan.Index_scan { table; _ } ->
    fired ctx "base_relation";
    duplicate_as_provenance table plan
  | Plan.Values _ ->
    fired ctx "values";
    (plan, [])
  | Plan.Baserel { child; rel_name } ->
    fired ctx "baserelation";
    duplicate_as_provenance rel_name (eliminate ctx child)
  | Plan.External { child; ext_attrs } ->
    fired ctx "external_provenance";
    (eliminate ctx child, List.map (fun a -> Expr.Attr a) ext_attrs)
  | Plan.Prov { child; semantics; sources } ->
    let rewritten = rewrite_prov ctx ~child ~semantics ~sources in
    ( rewritten,
      List.map (fun (s : Plan.prov_source) -> Expr.Attr s.prov_attr) sources )
  | Plan.Project { child; cols } ->
    fired ctx "project";
    let child', bindings = rw ctx child in
    let prov_attrs =
      List.map (fun b -> Attr.fresh "prov" (Expr.type_of b)) bindings
    in
    let cols' = cols @ List.map2 (fun b p -> (b, p)) bindings prov_attrs in
    ( Plan.Project { child = child'; cols = cols' },
      List.map (fun p -> Expr.Attr p) prov_attrs )
  | Plan.Filter { child; pred } ->
    fired ctx "filter";
    let child', bindings = rw ctx child in
    (Plan.Filter { child = child'; pred }, bindings)
  | Plan.Join { kind = Plan.Anti; left; right; pred } ->
    fired ctx "join_anti";
    let left', bl = rw ctx left in
    ( Plan.Join
        { kind = Plan.Anti; left = left'; right = eliminate ctx right; pred },
      bl )
  | Plan.Join { kind = Plan.Semi; left; right; pred } ->
    (* Witness tuples of the right side become visible: one output row per
       witness, the provenance replication of §2.1. *)
    fired ctx "join_semi";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    (Plan.Join { kind = Plan.Inner; left = left'; right = right'; pred }, bl @ br)
  | Plan.Join { kind; left; right; pred } ->
    fired ctx "join";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    (Plan.Join { kind; left = left'; right = right'; pred }, bl @ br)
  | Plan.Apply { kind = Plan.A_anti; left; right } ->
    fired ctx "apply_anti";
    let left', bl = rw ctx left in
    (Plan.Apply { kind = Plan.A_anti; left = left'; right = eliminate ctx right }, bl)
  | Plan.Apply { kind = Plan.A_semi; left; right } ->
    fired ctx "apply_semi";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    (Plan.Apply { kind = Plan.A_cross; left = left'; right = right' }, bl @ br)
  | Plan.Apply { kind = Plan.A_scalar out; left; right } ->
    fired ctx "apply_scalar";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    let r0 =
      match Plan.schema right with
      | r0 :: _ -> r0
      | [] -> raise (Rewrite_error "scalar subquery with empty schema")
    in
    let prov_attrs =
      List.map (fun b -> Attr.fresh "prov" (Expr.type_of b)) br
    in
    let right'' =
      Plan.Project
        {
          child = right';
          cols =
            ((Expr.Attr r0, out) :: List.map2 (fun b p -> (b, p)) br prov_attrs);
        }
    in
    ( Plan.Apply { kind = Plan.A_outer; left = left'; right = right'' },
      bl @ List.map (fun p -> Expr.Attr p) prov_attrs )
  | Plan.Apply { kind = (Plan.A_cross | Plan.A_outer) as kind; left; right } ->
    fired ctx "apply";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    (Plan.Apply { kind; left = left'; right = right' }, bl @ br)
  | Plan.Aggregate { child; group_by; aggs } ->
    rw_aggregate ctx ~child ~group_by ~aggs
  | Plan.Group_annotate _ ->
    raise (Rewrite_error "group annotation under a provenance marker")
  | Plan.Distinct child ->
    (* every rewritten input row equals exactly one DISTINCT result row, so
       the rewritten input already is the answer: one row per witness *)
    fired ctx "distinct";
    rw ctx child
  | Plan.Sort { child; keys } ->
    fired ctx "sort";
    let child', bindings = rw ctx child in
    (Plan.Sort { child = child'; keys }, bindings)
  | Plan.Limit { child; limit; offset } ->
    fired ctx "limit_rejoin";
    let child', bindings = rw ctx child in
    let orig_attrs = Plan.schema child in
    let renamed, data_copies, prov_attrs =
      rename_for_rejoin orig_attrs child' bindings
    in
    let pred =
      Expr.null_safe_eq_all
        (List.map2
           (fun (a : Attr.t) c -> (Expr.Attr a, Expr.Attr c))
           orig_attrs data_copies)
    in
    ( Plan.Join
        {
          kind = Plan.Inner;
          left = Plan.Limit { child; limit; offset };
          right = renamed;
          pred = Some pred;
        },
      List.map (fun p -> Expr.Attr p) prov_attrs )
  | Plan.Set_op { kind; all; left; right; attrs } ->
    rw_set_op ctx ~kind ~all ~left ~right ~attrs

and rw_aggregate ctx ~child ~group_by ~aggs =
  let child', bindings = rw ctx child in
  let original = Plan.Aggregate { child; group_by; aggs } in
  let pred =
    Expr.null_safe_eq_all
      (List.map (fun (e, out) -> (e, Expr.Attr out)) group_by)
  in
  let join_candidate () =
    (* a row-preserving rewrite carries the original input, so one pass
       over it computes the aggregate and annotates its rows; otherwise
       the aggregate runs over the original input and is rejoined *)
    if preserves_rows child then
      Plan.Group_annotate { child = child'; group_by; aggs }
    else
      Plan.Join
        { kind = Plan.Left; left = original; right = child'; pred = Some pred }
  in
  let lateral_candidate () =
    Plan.Apply
      {
        kind = Plan.A_outer;
        left = original;
        right = Plan.Filter { child = child'; pred };
      }
  in
  let choice =
    match ctx.config.agg_mode with
    | Fixed s -> s
    | Heuristic -> Agg_join
    | Cost_based cost ->
      if cost (join_candidate ()) <= cost (lateral_candidate ()) then Agg_join
      else Agg_lateral
  in
  ctx.choices <- choice :: ctx.choices;
  fired ctx
    (match choice with
    | Agg_join -> "aggregate_join"
    | Agg_lateral -> "aggregate_lateral");
  let plan =
    match choice with
    | Agg_join -> join_candidate ()
    | Agg_lateral -> lateral_candidate ()
  in
  (plan, bindings)

and rw_set_op ctx ~kind ~all ~left ~right ~attrs =
  let left', bl = rw ctx left in
  let right', br = rw ctx right in
  let l_attrs = Plan.schema left and r_attrs = Plan.schema right in
  (* Pad each branch with NULLs for the other branch's provenance columns
     and union-all them positionally (the Figure 2 shape). [data_outs] are
     the positional result attributes of the union. *)
  let union_all ~data_outs =
    let bl_outs = List.map (fun b -> Attr.fresh "prov" (Expr.type_of b)) bl in
    let br_outs = List.map (fun b -> Attr.fresh "prov" (Expr.type_of b)) br in
    let l_cols =
      List.map2 (fun (a : Attr.t) d -> (Expr.Attr a, d)) l_attrs data_outs
      @ List.map2 (fun b p -> (b, p)) bl bl_outs
      @ List.map
          (fun (p : Attr.t) -> (Expr.Const Value.Null, Attr.renamed p.Attr.name p))
          br_outs
    in
    let r_cols =
      List.map2 (fun (a : Attr.t) d -> (Expr.Attr a, Attr.renamed d.Attr.name d)) r_attrs data_outs
      @ List.map
          (fun (p : Attr.t) -> (Expr.Const Value.Null, Attr.renamed p.Attr.name p))
          bl_outs
      @ List.map2 (fun b p -> (b, p)) br br_outs
    in
    let lproj = Plan.Project { child = left'; cols = l_cols } in
    let rproj = Plan.Project { child = right'; cols = r_cols } in
    let out_attrs = data_outs @ bl_outs @ br_outs in
    ( Plan.Set_op
        {
          kind = Plan.Union;
          all = true;
          left = lproj;
          right = rproj;
          attrs = out_attrs;
        },
      bl_outs @ br_outs )
  in
  match kind, all with
  | Plan.Union, _ ->
    (* no rejoin needed: every padded branch row equals exactly one result
       row (for UNION, the one its duplicates collapse into), so the union
       keeps the original output attribute identities *)
    fired ctx (if all then "union_all" else "union_distinct");
    let u, prov_outs = union_all ~data_outs:attrs in
    (u, List.map (fun p -> Expr.Attr p) prov_outs)
  | Plan.Intersect, _ ->
    fired ctx "intersect";
    let original = Plan.Set_op { kind; all; left; right; attrs } in
    let l_renamed, l_copies, l_prov = rename_for_rejoin l_attrs left' bl in
    let r_renamed, r_copies, r_prov = rename_for_rejoin r_attrs right' br in
    let match_pred copies =
      Expr.null_safe_eq_all
        (List.map2
           (fun (a : Attr.t) c -> (Expr.Attr a, Expr.Attr c))
           attrs copies)
    in
    let with_left =
      Plan.Join
        {
          kind = Plan.Inner;
          left = original;
          right = l_renamed;
          pred = Some (match_pred l_copies);
        }
    in
    let with_both =
      Plan.Join
        {
          kind = Plan.Inner;
          left = with_left;
          right = r_renamed;
          pred = Some (match_pred r_copies);
        }
    in
    (with_both, List.map (fun p -> Expr.Attr p) (l_prov @ r_prov))
  | Plan.Except, _ ->
    fired ctx "except";
    (* Result tuples stem from the left branch only; the right branch has no
       witness tuples (a tuple survives because of an absence), so its
       provenance columns are NULL. *)
    let original = Plan.Set_op { kind; all; left; right; attrs } in
    let l_renamed, l_copies, l_prov = rename_for_rejoin l_attrs left' bl in
    let pred =
      Expr.null_safe_eq_all
        (List.map2
           (fun (a : Attr.t) c -> (Expr.Attr a, Expr.Attr c))
           attrs l_copies)
    in
    ( Plan.Join
        { kind = Plan.Inner; left = original; right = l_renamed; pred = Some pred },
      List.map (fun p -> Expr.Attr p) l_prov
      @ List.map (fun _ -> Expr.Const Value.Null) br )

and rewrite_prov ctx ~child ~semantics ~sources =
  ctx.markers <- ctx.markers + 1;
  fired ctx "provenance_marker";
  let child', bindings = rw ctx child in
  if List.length bindings <> List.length sources then
    raise
      (Rewrite_error
         (Printf.sprintf
            "provenance binding mismatch: %d sources but %d bindings"
            (List.length sources) (List.length bindings)));
  (* Copy semantics: NULL the provenance of instances whose values are not
     copied to the result. *)
  let instance_quals = Copy_analysis.qualifying semantics child in
  let col_quals =
    List.concat
      (List.map2
         (fun inst q -> List.map (fun _ -> q) inst.Sources.inst_cols)
         (Sources.instances child) instance_quals)
  in
  let prov_cols =
    List.map2
      (fun (s : Plan.prov_source) (b, qual) ->
        ((if qual then b else Expr.Const Value.Null), s.prov_attr))
      sources
      (List.combine bindings col_quals)
  in
  let cols =
    List.map (fun a -> (Expr.Attr a, a)) (Plan.schema child) @ prov_cols
  in
  Plan.Project { child = child'; cols }

let rewrite ?(config = default_config) plan =
  let ctx = { config; choices = []; markers = 0; rules = Hashtbl.create 16 } in
  let plan' = eliminate ctx plan in
  let rule_counts =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) ctx.rules [])
  in
  ( plan',
    {
      agg_choices = List.rev ctx.choices;
      rewritten_markers = ctx.markers;
      rule_counts;
    } )
