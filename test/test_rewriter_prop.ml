(* Property tests of the provenance rewriter at the algebra level.

   A random-plan generator builds logical plans directly (reaching operator
   nestings the SQL surface cannot easily produce — outer joins under set
   operations, aggregates over semi joins, stacked DISTINCT/LIMIT), wraps
   them in a [Prov] marker, and checks:

   (1) the rewrite succeeds and its binding list matches the computed
       sources (the structural-mirror contract of Sources/Rewriter);
   (2) the rewritten plan type-checks operationally: it executes without
       internal errors;
   (3) the rewritten schema extends the original one (same prefix ids);
   (4) projecting the provenance result onto the original columns yields
       the original result as a set;
   (5) the planner's optimizations preserve the provenance result. A
       LIMIT over an input whose order the plan does not fix may keep any
       of its rows, and the optimizer may reorder that input (a join
       swap), so under a LIMIT the check is what the LIMIT guarantees:
       equal row counts where the LIMIT fixes the count, and rows
       contained in the result of the same plan without its LIMITs where
       every operator above a LIMIT is monotone. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Pretty = Perm_algebra.Pretty
module Rewriter = Perm_provenance.Rewriter
module Sources = Perm_provenance.Sources
module Planner = Perm_planner.Planner
module Executor = Perm_executor.Executor
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Tuple = Perm_storage.Tuple
open Perm_testkit.Kit

(* fixed base data, provided straight to the executor *)
let r_rows = [ [ i 1; s "x" ]; [ i 2; s "y" ]; [ i 2; s "y" ]; [ i 3; nl ] ]
let s_rows = [ [ i 2; s "u" ]; [ i 3; s "v" ]; [ i 3; s "w" ]; [ i 9; nl ] ]

let provider : Executor.provider =
  {
    Executor.probe_index = (fun _ _ _ -> Seq.empty);
    Executor.scan_batches =
      (fun table rows ->
        Executor.batches_of_list ~arity:2 ~batch_rows:rows
          (List.map row (if table = "r" then r_rows else s_rows)));
  }

let scan table =
  let cols =
    if table = "r" then [ ("a", Dtype.Int); ("b", Dtype.Text) ]
    else [ ("c", Dtype.Int); ("d", Dtype.Text) ]
  in
  Plan.Scan { table; attrs = List.map (fun (n, ty) -> Attr.fresh n ty) cols }

(* random predicate over a schema: compares its first int attr / text attr *)
let random_pred schema rnd =
  let int_attr =
    List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Int) schema
  in
  let text_attr =
    List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Text) schema
  in
  match int_attr, text_attr, QCheck.Gen.int_bound 3 rnd with
  | Some a, _, 0 -> Expr.Binop (Expr.Gt, Expr.Attr a, Expr.Const (Value.Int 1))
  | Some a, _, 1 -> Expr.Binop (Expr.Eq, Expr.Attr a, Expr.Const (Value.Int 2))
  | _, Some t, 2 -> Expr.Unop (Expr.Is_null, Expr.Attr t)
  | Some a, _, _ -> Expr.Binop (Expr.Leq, Expr.Attr a, Expr.Const (Value.Int 2))
  | None, Some t, _ -> Expr.Unop (Expr.Not, Expr.Unop (Expr.Is_null, Expr.Attr t))
  | None, None, _ -> Expr.Const (Value.Bool true)

let join_pred left right =
  let li =
    List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Int) (Plan.schema left)
  in
  let ri =
    List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Int) (Plan.schema right)
  in
  match li, ri with
  | Some l, Some r -> Some (Expr.Binop (Expr.Eq, Expr.Attr l, Expr.Attr r))
  | _ -> None

(* A plan projected to (int, text) for an aligned set operation. *)
let aligned plan =
  let schema = Plan.schema plan in
  let int_e =
    match List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Int) schema with
    | Some a -> Expr.Attr a
    | None -> Expr.Const (Value.Int 0)
  in
  let text_e =
    match List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Text) schema with
    | Some a -> Expr.Attr a
    | None -> Expr.Const (Value.Text "-")
  in
  Plan.Project
    {
      child = plan;
      cols = [ (int_e, Attr.fresh "n" Dtype.Int); (text_e, Attr.fresh "t" Dtype.Text) ];
    }

(* random plan generator; [size] bounds operator count *)
let rec gen_plan size rnd : Plan.t =
  if size <= 1 then scan (if QCheck.Gen.bool rnd then "r" else "s")
  else
    match QCheck.Gen.int_bound 8 rnd with
    | 0 ->
      let child = gen_plan (size - 1) rnd in
      Plan.Filter { child; pred = random_pred (Plan.schema child) rnd }
    | 1 ->
      (* projection keeping a shuffled subset plus one computed column *)
      let child = gen_plan (size - 1) rnd in
      let schema = Plan.schema child in
      let kept = List.filteri (fun idx _ -> idx mod 2 = 0 || List.length schema <= 2) schema in
      let kept = if kept = [] then [ List.hd schema ] else kept in
      let cols =
        List.map (fun (a : Attr.t) -> (Expr.Attr a, Attr.renamed a.Attr.name a)) kept
      in
      let extra =
        match List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Int) schema with
        | Some a ->
          [ (Expr.Binop (Expr.Add, Expr.Attr a, Expr.Const (Value.Int 10)),
             Attr.fresh "a10" Dtype.Int) ]
        | None -> []
      in
      Plan.Project { child; cols = cols @ extra }
    | 2 ->
      let half = size / 2 in
      let left = gen_plan half rnd and right = gen_plan half rnd in
      let kind =
        match QCheck.Gen.int_bound 4 rnd with
        | 0 -> Plan.Inner
        | 1 -> Plan.Left
        | 2 -> Plan.Full
        | 3 -> Plan.Semi
        | _ -> Plan.Anti
      in
      (match join_pred left right with
      | Some pred -> Plan.Join { kind; left; right; pred = Some pred }
      | None -> Plan.Join { kind = Plan.Cross; left; right; pred = None })
    | 3 ->
      (* aligned set operation: project both sides to (int, text) *)
      let half = size / 2 in
      let left = gen_plan half rnd and right = gen_plan half rnd in
      let kind =
        match QCheck.Gen.int_bound 2 rnd with
        | 0 -> Plan.Union
        | 1 -> Plan.Intersect
        | _ -> Plan.Except
      in
      Plan.Set_op
        {
          kind;
          all = QCheck.Gen.bool rnd;
          left = aligned left;
          right = aligned right;
          attrs = [ Attr.fresh "n" Dtype.Int; Attr.fresh "t" Dtype.Text ];
        }
    | 4 ->
      let child = gen_plan (size - 1) rnd in
      let schema = Plan.schema child in
      let group =
        match List.find_opt (fun (a : Attr.t) -> Dtype.equal a.Attr.ty Dtype.Text) schema with
        | Some a -> [ (Expr.Attr a, Attr.fresh "g" Dtype.Text) ]
        | None -> [ (Expr.Attr (List.hd schema), Attr.renamed "g" (List.hd schema)) ]
      in
      Plan.Aggregate
        {
          child;
          group_by = group;
          aggs =
            [ { Plan.agg = Plan.Count_star; distinct = false; arg = None;
                agg_out = Attr.fresh "cnt" Dtype.Int } ];
        }
    | 5 -> Plan.Distinct (gen_plan (size - 1) rnd)
    | 6 ->
      let child = gen_plan (size - 1) rnd in
      Plan.Limit { child; limit = Some (1 + QCheck.Gen.int_bound 4 rnd); offset = 0 }
    | 7 ->
      let child = gen_plan (size - 1) rnd in
      let keys = [ (Expr.Attr (List.hd (Plan.schema child)), Plan.Asc) ] in
      Plan.Sort { child; keys }
    | _ -> scan "r"

let gen_marked =
  QCheck.Gen.(
    sized_size (int_range 2 7) (fun size rnd ->
        let plan = gen_plan size rnd in
        let sources = Sources.prov_sources plan in
        Plan.Prov { child = plan; semantics = Plan.Influence; sources }))

let arb_marked =
  QCheck.make
    ~print:(fun p -> Pretty.plan_to_string ~show_attrs:false p)
    gen_marked

let run_plan plan =
  match Executor.run ~provider plan with
  | Ok rows -> rows
  | Error msg ->
    QCheck.Test.fail_reportf "execution failed: %s\n%s" msg
      (Pretty.plan_to_string plan)

let rewrite_ok plan =
  try Rewriter.rewrite plan
  with Rewriter.Rewrite_error msg ->
    QCheck.Test.fail_reportf "rewrite failed: %s\n%s" msg
      (Pretty.plan_to_string plan)

let strings rows =
  List.map (fun r -> Array.to_list (Array.map Value.to_string r)) rows

let prop_rewrite_and_execute marked =
  let rewritten, _ = rewrite_ok marked in
  ignore (run_plan rewritten);
  true

let prop_schema_extends marked =
  let child_schema =
    match marked with
    | Plan.Prov { child; _ } -> Plan.schema child
    | _ -> assert false
  in
  let rewritten, _ = rewrite_ok marked in
  let out = Plan.schema rewritten in
  List.for_all2
    (fun (a : Attr.t) (b : Attr.t) -> Attr.equal a b)
    child_schema
    (List.filteri (fun idx _ -> idx < List.length child_schema) out)
  && List.length out
     = List.length child_schema
       + (match marked with
         | Plan.Prov { sources; _ } -> List.length sources
         | _ -> 0)

let prop_projection_invariant marked =
  let child =
    match marked with Plan.Prov { child; _ } -> child | _ -> assert false
  in
  let arity = List.length (Plan.schema child) in
  let orig = List.sort_uniq compare (strings (run_plan child)) in
  let rewritten, _ = rewrite_ok marked in
  let prov = strings (run_plan rewritten) in
  let projected =
    List.sort_uniq compare
      (List.map (fun r -> List.filteri (fun idx _ -> idx < arity) r) prov)
  in
  if orig <> projected then
    QCheck.Test.fail_reportf "projection mismatch\norig: %s\nprov: %s\nplan:\n%s"
      (String.concat " | " (List.map (String.concat ",") orig))
      (String.concat " | " (List.map (String.concat ",") projected))
      (Pretty.plan_to_string marked)
  else true

let rec has_limit = function
  | Plan.Limit _ -> true
  | p -> List.exists has_limit (Plan.children p)

let rec strip_limits = function
  | Plan.Limit { child; _ } -> strip_limits child
  | p -> Plan.map_children strip_limits p

(* The row count is the same under any choice of the LIMITs' rows: every
   LIMIT sits on a chain of projections, sorts and LIMITs from the root,
   over an input without one. *)
let rec count_fixed = function
  | Plan.Limit { child; _ } | Plan.Project { child; _ } | Plan.Sort { child; _ } ->
    count_fixed child
  | p -> not (has_limit p)

(* Every operator above a LIMIT is monotone, so the rows of the plan, and
   of its provenance, are contained in those of the plan without its
   LIMITs. *)
let rec monotone_above (p : Plan.t) =
  match p with
  | Plan.Limit { child; _ } | Plan.Project { child; _ } | Plan.Filter { child; _ }
  | Plan.Sort { child; _ } | Plan.Distinct child ->
    monotone_above child
  | Plan.Join { kind = Plan.Inner | Plan.Cross | Plan.Semi; left; right; _ }
  | Plan.Set_op { kind = Plan.Union | Plan.Intersect; left; right; _ } ->
    monotone_above left && monotone_above right
  | p -> not (has_limit p)

let prop_optimizer_preserves marked =
  let child, semantics =
    match marked with
    | Plan.Prov { child; semantics; _ } -> (child, semantics)
    | _ -> assert false
  in
  let rewritten, _ = rewrite_ok marked in
  let plain = List.sort compare (strings (run_plan rewritten)) in
  let optimized = Planner.optimize Planner.no_stats rewritten in
  let opt = List.sort compare (strings (run_plan optimized)) in
  let fail what =
    QCheck.Test.fail_reportf "optimizer changed provenance result: %s\nplan:\n%s"
      what (Pretty.plan_to_string marked)
  in
  if not (has_limit child) then plain = opt || fail "other rows"
  else begin
    (if count_fixed child then
       let count plan = List.length (run_plan plan) in
       if count child <> count (Planner.optimize Planner.no_stats child) then
         fail "another row count under LIMIT");
    (if monotone_above child then
       let child = strip_limits child in
       let unlimited, _ =
         rewrite_ok
           (Plan.Prov { child; semantics; sources = Sources.prov_sources child })
       in
       let all = List.sort_uniq compare (strings (run_plan unlimited)) in
       let within rows = List.for_all (fun r -> List.mem r all) rows in
       if not (within plain && within opt) then
         fail "rows outside the result without LIMIT");
    true
  end

(* The plan QCHECK_SEED=333166077 drew: LIMIT 5 over an inner join that
   the optimizer reorders, so its five rows differ once optimized. *)
let limit_over_reordered_join () =
  let union =
    Plan.Set_op
      {
        kind = Plan.Union;
        all = true;
        left = aligned (scan "s");
        right = aligned (scan "r");
        attrs = [ Attr.fresh "n" Dtype.Int; Attr.fresh "t" Dtype.Text ];
      }
  in
  let s = scan "s" and r = scan "r" in
  let full = Plan.Join { kind = Plan.Full; left = s; right = r; pred = join_pred s r } in
  let child =
    Plan.Limit
      {
        child =
          Plan.Join
            { kind = Plan.Inner; left = union; right = full; pred = join_pred union full };
        limit = Some 5;
        offset = 0;
      }
  in
  Plan.Prov { child; semantics = Plan.Influence; sources = Sources.prov_sources child }

let prop_strategies_agree marked =
  let run config =
    let rewritten, _ =
      try Rewriter.rewrite ~config marked
      with Rewriter.Rewrite_error msg -> QCheck.Test.fail_reportf "rewrite failed: %s" msg
    in
    List.sort compare (strings (run_plan rewritten))
  in
  run { Rewriter.agg_mode = Rewriter.Fixed Rewriter.Agg_join }
  = run { Rewriter.agg_mode = Rewriter.Fixed Rewriter.Agg_lateral }

let t name count prop = qcheck (QCheck.Test.make ~name ~count arb_marked prop)

let () =
  Alcotest.run "rewriter-prop"
    [
      ( "random-plans",
        [
          t "rewrite succeeds and executes" 300 prop_rewrite_and_execute;
          t "rewritten schema = original ++ sources" 300 prop_schema_extends;
          t "projection onto original columns" 300 prop_projection_invariant;
          t "optimizer preserves provenance results" 200 prop_optimizer_preserves;
          t "aggregation strategies agree" 200 prop_strategies_agree;
        ] );
      ( "fixed-plans",
        [
          case "optimizer preserves provenance results: LIMIT over a reordered join"
            (fun () ->
              Alcotest.(check bool) "holds" true
                (prop_optimizer_preserves (limit_over_reordered_join ())));
        ] );
    ]
