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
  mutable rules : (string * int ref) list;  (* rule name -> times fired *)
}

(* A handful of rules fire per statement: an association list, bumped in
   place, beats hashing the rule name. *)
let fired ctx rule =
  match List.find_opt (fun (r, _) -> String.equal r rule) ctx.rules with
  | Some (_, n) -> incr n
  | None -> ctx.rules <- (rule, ref 1) :: ctx.rules

(* Duplicate a plan's output columns as provenance copies, named after the
   given relation display name. Returns the projection and the bindings. *)
let duplicate_as_provenance rel_name plan =
  let attrs = Plan.schema plan in
  let prefix = "prov_" ^ rel_name ^ "_" in
  let copies =
    List.map (fun (a : Attr.t) -> Attr.fresh (prefix ^ a.Attr.name) a.Attr.ty) attrs
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

(* Whether [e] takes key-identical values ([Value.key_equal]) on rows
   whose columns are key-identical. Comparisons, connectives and IS NULL
   of such expressions do, and so does any expression over text, bool and
   date columns, where key identity is equality. Over numbers it is
   coarser: 0.0 and -0.0 are one key, and so are 1 and 1.0, which
   CAST(k AS text) or 1 / k tell apart. *)
let rec key_determined (e : Expr.t) =
  match e with
  | Expr.Const _ | Expr.Attr _ -> true
  | Expr.Binop
      ((Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq | Expr.And
       | Expr.Or), a, b) ->
    key_determined a && key_determined b
  | Expr.Unop ((Expr.Not | Expr.Is_null), a) -> key_determined a
  | _ ->
    Attr.Set.for_all
      (fun (a : Attr.t) ->
        match a.ty with
        | Perm_value.Dtype.Text | Perm_value.Dtype.Bool | Perm_value.Dtype.Date
          ->
          true
        | _ -> false)
      (Expr.attrs e)

let rec dedups (plan : Plan.t) =
  match plan with
  | Plan.Distinct _ | Plan.Set_op { kind = Plan.Union; all = false; _ } -> true
  | _ -> List.exists dedups (Plan.children plan)

(* Whether every projection, filter and join predicate over the output of
   a duplicate elimination in [plan] is {!key_determined}. The witnesses
   of one distinct row are key-identical, not equal (0.0 and -0.0 are one
   key). Over such expressions a witness passes the filters and joins its
   representative passes, an outer join pads it where it pads its
   representative, and it falls in its representative's group; so the
   flagged rows are the rows the original input yields. An expression that
   tells witnesses apart breaks that: a row matching only a witness loses
   the padding the original gives it, and a filter the planner pushes
   below the original DISTINCT, but not below the flag, keeps a witness
   the flag never marks. *)
let rec key_determined_over_dedups (plan : Plan.t) =
  (not (dedups plan))
  || (match plan with
     | Plan.Project { cols; _ } ->
       List.for_all (fun (e, _) -> key_determined e) cols
     | Plan.Filter { pred; _ } | Plan.Join { pred = Some pred; _ } ->
       key_determined pred
     | _ -> true)
     && List.for_all key_determined_over_dedups (Plan.children plan)

(* Whether an aggregate over [plan] can read [rw plan] in one pass, with
   no rejoin. A rewrite that keeps one row per row of [plan], carrying its
   original column values, can be aggregated in place of the original
   input. Duplicate elimination (DISTINCT, UNION) keeps every witness of a
   result row instead, and a representative flag ({!rw_rep}) picks one
   rewritten row per original row. Rules that replicate (semi joins and
   semi/scalar applies expose witnesses) or rejoin (aggregation, LIMIT,
   INTERSECT, EXCEPT) break both; the flag also needs
   {!key_determined_over_dedups}. *)
let rec one_pass (plan : Plan.t) =
  match plan with
  | Plan.Scan _ | Plan.Index_scan _ | Plan.Values _ | Plan.Baserel _
  | Plan.External _ | Plan.Prov _ ->
    true
  | Plan.Project { child; _ } | Plan.Filter { child; _ } | Plan.Sort { child; _ }
  | Plan.Distinct child ->
    one_pass child
  | Plan.Join { kind = Plan.Anti; left; _ }
  | Plan.Apply { kind = Plan.A_anti; left; _ } ->
    one_pass left
  | Plan.Join
      { kind = Plan.Inner | Plan.Left | Plan.Right | Plan.Full | Plan.Cross;
        left; right; _ }
  | Plan.Set_op { kind = Plan.Union; left; right; _ } ->
    one_pass left && one_pass right
  | Plan.Join { kind = Plan.Semi; _ } | Plan.Apply _ | Plan.Aggregate _
  | Plan.Group_annotate _ | Plan.Mark_first _ | Plan.Set_op _ | Plan.Limit _ ->
    false

(* Representative flags are boolean expressions over a rewritten plan,
   TRUE on exactly one rewritten row per original row; [None] when every
   rewritten row is its own representative. The side an outer join pads
   stands for no row, and its flag reads NULL there. *)
let both_flags a b =
  match a, b with
  | None, f | f, None -> f
  | Some a, Some b -> Some (Expr.Binop (Expr.And, a, b))

let padded_flag f =
  Option.map (fun f -> Expr.Binop (Expr.Or, f, Expr.Unop (Expr.Is_null, f))) f

let flag_attr () = Attr.fresh "rep" Perm_value.Dtype.Bool

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
and rw ctx plan =
  let plan', bindings, _ = rw_rep ctx ~rep:false plan in
  (plan', bindings)

(* [rw] that also returns the representative flag. Under [~rep] (an
   aggregate reads the result in one pass, see {!one_pass}) each
   duplicate elimination flags the first witness of every distinct row
   among its input's representatives, and joins, UNION ALL, filters,
   projections and sorts combine their inputs' flags; without it no rule
   adds a flag. *)
and rw_rep ctx ~rep (plan : Plan.t) : Plan.t * Expr.t list * Expr.t option =
  let plain (plan', bindings) = (plan', bindings, None) in
  match plan with
  | Plan.Scan { table; _ } | Plan.Index_scan { table; _ } ->
    fired ctx "base_relation";
    plain (duplicate_as_provenance table plan)
  | Plan.Values _ ->
    fired ctx "values";
    (plan, [], None)
  | Plan.Baserel { child; rel_name } ->
    fired ctx "baserelation";
    plain (duplicate_as_provenance rel_name (eliminate ctx child))
  | Plan.External { child; ext_attrs } ->
    fired ctx "external_provenance";
    (eliminate ctx child, List.map (fun a -> Expr.Attr a) ext_attrs, None)
  | Plan.Prov { child; semantics; sources } ->
    let rewritten = rewrite_prov ctx ~child ~semantics ~sources in
    ( rewritten,
      List.map (fun (s : Plan.prov_source) -> Expr.Attr s.prov_attr) sources,
      None )
  | Plan.Project { child; cols } ->
    fired ctx "project";
    let child', bindings, flag = rw_rep ctx ~rep child in
    let prov_attrs =
      List.map (fun b -> Attr.fresh "prov" (Expr.type_of b)) bindings
    in
    let flag_col = Option.map (fun f -> (f, flag_attr ())) flag in
    let cols' =
      cols
      @ List.map2 (fun b p -> (b, p)) bindings prov_attrs
      @ Option.to_list flag_col
    in
    ( Plan.Project { child = child'; cols = cols' },
      List.map (fun p -> Expr.Attr p) prov_attrs,
      Option.map (fun (_, a) -> Expr.Attr a) flag_col )
  | Plan.Filter { child; pred } ->
    fired ctx "filter";
    let child', bindings, flag = rw_rep ctx ~rep child in
    (Plan.Filter { child = child'; pred }, bindings, flag)
  | Plan.Join { kind = Plan.Anti; left; right; pred } ->
    fired ctx "join_anti";
    let left', bl, flag = rw_rep ctx ~rep left in
    ( Plan.Join
        { kind = Plan.Anti; left = left'; right = eliminate ctx right; pred },
      bl,
      flag )
  | Plan.Join { kind = Plan.Semi; left; right; pred } ->
    (* Witness tuples of the right side become visible: one output row per
       witness, the provenance replication of §2.1. *)
    fired ctx "join_semi";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    plain
      (Plan.Join { kind = Plan.Inner; left = left'; right = right'; pred }, bl @ br)
  | Plan.Join { kind; left; right; pred } ->
    fired ctx "join";
    let left', bl, lf = rw_rep ctx ~rep left in
    let right', br, rf = rw_rep ctx ~rep right in
    let pads_left = kind = Plan.Right || kind = Plan.Full
    and pads_right = kind = Plan.Left || kind = Plan.Full in
    ( Plan.Join { kind; left = left'; right = right'; pred },
      bl @ br,
      both_flags
        (if pads_left then padded_flag lf else lf)
        (if pads_right then padded_flag rf else rf) )
  | Plan.Apply { kind = Plan.A_anti; left; right } ->
    fired ctx "apply_anti";
    let left', bl, flag = rw_rep ctx ~rep left in
    ( Plan.Apply
        { kind = Plan.A_anti; left = left'; right = eliminate ctx right },
      bl,
      flag )
  | Plan.Apply { kind = Plan.A_semi; left; right } ->
    fired ctx "apply_semi";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    plain
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
    plain
      ( Plan.Apply { kind = Plan.A_outer; left = left'; right = right'' },
        bl @ List.map (fun p -> Expr.Attr p) prov_attrs )
  | Plan.Apply { kind = (Plan.A_cross | Plan.A_outer) as kind; left; right } ->
    fired ctx "apply";
    let left', bl = rw ctx left in
    let right', br = rw ctx right in
    plain (Plan.Apply { kind; left = left'; right = right' }, bl @ br)
  | Plan.Aggregate { child; group_by; aggs } ->
    plain (rw_aggregate ctx ~child ~group_by ~aggs)
  | Plan.Group_annotate _ | Plan.Mark_first _ ->
    raise (Rewrite_error "provenance-only operator under a provenance marker")
  | Plan.Distinct child ->
    (* every rewritten input row equals exactly one DISTINCT result row, so
       the rewritten input already is the answer: one row per witness *)
    fired ctx "distinct";
    let child', bindings, flag = rw_rep ctx ~rep child in
    if rep then first_witness child' bindings (Plan.schema child) flag
    else (child', bindings, flag)
  | Plan.Sort { child; keys } ->
    fired ctx "sort";
    let child', bindings, flag = rw_rep ctx ~rep child in
    (Plan.Sort { child = child'; keys }, bindings, flag)
  | Plan.Limit { child; limit; offset } ->
    fired ctx "limit_rejoin";
    let child', bindings = rw ctx child in
    let orig_attrs = Plan.schema child in
    let renamed, data_copies, prov_attrs =
      rename_for_rejoin orig_attrs child' bindings
    in
    let pred =
      Expr.key_eq_all
        (List.map2
           (fun (a : Attr.t) c -> (Expr.Attr a, Expr.Attr c))
           orig_attrs data_copies)
    in
    plain
      ( Plan.Join
          {
            kind = Plan.Inner;
            left = Plan.Limit { child; limit; offset };
            right = renamed;
            pred = Some pred;
          },
        List.map (fun p -> Expr.Attr p) prov_attrs )
  | Plan.Set_op { kind; all; left; right; attrs } ->
    rw_set_op ctx ~rep ~kind ~all ~left ~right ~attrs

(* The representative flag of a duplicate elimination over [keys]: TRUE on
   the first witness of every distinct row among the input's
   representatives. *)
and first_witness plan' bindings keys among =
  let flag = flag_attr () in
  ( Plan.Mark_first { child = plan'; keys; among; flag },
    bindings,
    Some (Expr.Attr flag) )

and rw_aggregate ctx ~child ~group_by ~aggs =
  (* one pass: the rewritten input carries the original input's rows (the
     flagged ones, under a representative flag), so one pass over it
     computes the aggregate and annotates its rows; otherwise the
     aggregate runs over the original input and is rejoined *)
  let fused =
    one_pass child
    && ((not (dedups child))
       || List.for_all (fun (e, _) -> key_determined e) group_by
          && key_determined_over_dedups child)
  in
  let child', bindings, rep =
    if fused then rw_rep ctx ~rep:true child
    else
      let child', bindings = rw ctx child in
      (child', bindings, None)
  in
  let original = Plan.Aggregate { child; group_by; aggs } in
  let pred =
    Expr.key_eq_all
      (List.map (fun (e, out) -> (e, Expr.Attr out)) group_by)
  in
  let join_candidate () =
    if fused then Plan.Group_annotate { child = child'; group_by; aggs; rep }
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

and rw_set_op ctx ~rep ~kind ~all ~left ~right ~attrs =
  let left', bl, lf = rw_rep ctx ~rep left in
  let right', br, rf = rw_rep ctx ~rep right in
  let l_attrs = Plan.schema left and r_attrs = Plan.schema right in
  (* Pad each branch with NULLs for the other branch's provenance columns
     and union-all them positionally (the Figure 2 shape). [data_outs] are
     the positional result attributes of the union. A branch without a
     representative flag represents itself, so it reads TRUE in the flag
     column. *)
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
    let l_flag, r_flag, flag =
      match lf, rf with
      | None, None -> ([], [], None)
      | _ ->
        let out = flag_attr () in
        let side f = Option.value f ~default:(Expr.Const (Value.Bool true)) in
        ( [ (side lf, out) ],
          [ (side rf, Attr.renamed out.Attr.name out) ],
          Some out )
    in
    let lproj = Plan.Project { child = left'; cols = l_cols @ l_flag } in
    let rproj = Plan.Project { child = right'; cols = r_cols @ r_flag } in
    let out_attrs = data_outs @ bl_outs @ br_outs @ Option.to_list flag in
    ( Plan.Set_op
        {
          kind = Plan.Union;
          all = true;
          left = lproj;
          right = rproj;
          attrs = out_attrs;
        },
      bl_outs @ br_outs,
      Option.map (fun a -> Expr.Attr a) flag )
  in
  match kind, all with
  | Plan.Union, _ ->
    (* no rejoin needed: every padded branch row equals exactly one result
       row (for UNION, the one its duplicates collapse into), so the union
       keeps the original output attribute identities *)
    fired ctx (if all then "union_all" else "union_distinct");
    let u, prov_outs, flag = union_all ~data_outs:attrs in
    let bindings = List.map (fun p -> Expr.Attr p) prov_outs in
    if rep && not all then first_witness u bindings attrs flag
    else (u, bindings, flag)
  | Plan.Intersect, _ ->
    fired ctx "intersect";
    let original = Plan.Set_op { kind; all; left; right; attrs } in
    let l_renamed, l_copies, l_prov = rename_for_rejoin l_attrs left' bl in
    let r_renamed, r_copies, r_prov = rename_for_rejoin r_attrs right' br in
    let match_pred copies =
      Expr.key_eq_all
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
    (with_both, List.map (fun p -> Expr.Attr p) (l_prov @ r_prov), None)
  | Plan.Except, _ ->
    fired ctx "except";
    (* Result tuples stem from the left branch only; the right branch has no
       witness tuples (a tuple survives because of an absence), so its
       provenance columns are NULL. *)
    let original = Plan.Set_op { kind; all; left; right; attrs } in
    let l_renamed, l_copies, l_prov = rename_for_rejoin l_attrs left' bl in
    let pred =
      Expr.key_eq_all
        (List.map2
           (fun (a : Attr.t) c -> (Expr.Attr a, Expr.Attr c))
           attrs l_copies)
    in
    ( Plan.Join
        { kind = Plan.Inner; left = original; right = l_renamed; pred = Some pred },
      List.map (fun p -> Expr.Attr p) l_prov
      @ List.map (fun _ -> Expr.Const Value.Null) br,
      None )

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
  let prov_cols =
    match semantics with
    | Plan.Influence ->
      List.map2 (fun (s : Plan.prov_source) b -> (b, s.prov_attr)) sources bindings
    | Plan.Copy_partial | Plan.Copy_complete ->
      (* Copy semantics: NULL the provenance of instances whose values are
         not copied to the result. *)
      let instance_quals = Copy_analysis.qualifying semantics child in
      let col_quals =
        List.concat
          (List.map2
             (fun inst q -> List.map (fun _ -> q) inst.Sources.inst_cols)
             (Sources.instances child) instance_quals)
      in
      List.map2
        (fun (s : Plan.prov_source) (b, qual) ->
          ((if qual then b else Expr.Const Value.Null), s.prov_attr))
        sources
        (List.combine bindings col_quals)
  in
  let cols =
    List.map (fun a -> (Expr.Attr a, a)) (Plan.schema child) @ prov_cols
  in
  match child' with
  | Plan.Project { child = below; cols = inner } ->
    (* fold into the rewritten projection, as the planner's merge would:
       the statement's plan gets one projection fewer to walk *)
    Plan.Project
      {
        child = below;
        cols = List.map (fun (e, out) -> (Expr.substitute inner e, out)) cols;
      }
  | _ -> Plan.Project { child = child'; cols }

let rewrite ?(config = default_config) plan =
  let ctx = { config; choices = []; markers = 0; rules = [] } in
  let plan' = eliminate ctx plan in
  let rule_counts =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (r, n) -> (r, !n)) ctx.rules)
  in
  ( plan',
    {
      agg_choices = List.rev ctx.choices;
      rewritten_markers = ctx.markers;
      rule_counts;
    } )
