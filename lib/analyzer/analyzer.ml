module Ast = Perm_sql.Ast
module Parser = Perm_sql.Parser
module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Builtins = Perm_algebra.Builtins
module Catalog = Perm_catalog.Catalog
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Sources = Perm_provenance.Sources

exception Error of string

let errf fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

(* A range variable: one FROM item visible under an alias. *)
type rv = { rv_name : string; rv_cols : (string * Attr.t) list }

type scope = { rvs : rv list; parent : scope option }

let rec resolve_in_scope scope qualifier name =
  let matches =
    match qualifier with
    | Some q ->
      List.concat_map
        (fun rv ->
          if String.equal rv.rv_name q then
            List.filter (fun (n, _) -> String.equal n name) rv.rv_cols
          else [])
        scope.rvs
    | None ->
      List.concat_map
        (fun rv -> List.filter (fun (n, _) -> String.equal n name) rv.rv_cols)
        scope.rvs
  in
  match matches with
  | [ (_, attr) ] -> attr
  | [] -> (
    match scope.parent with
    | Some parent -> resolve_in_scope parent qualifier name
    | None -> (
      match qualifier with
      | Some q -> errf "column %s.%s does not exist" q name
      | None -> errf "column %S does not exist" name))
  | _ :: _ ->
    errf "column reference %S is ambiguous"
      (match qualifier with Some q -> q ^ "." ^ name | None -> name)

let rv_exists scope name = List.exists (fun rv -> String.equal rv.rv_name name) scope.rvs

(* ------------------------------------------------------------------ *)
(* Typing helpers                                                      *)
(* ------------------------------------------------------------------ *)

let expect_unifiable what a b =
  match Dtype.unify a b with
  | Some t -> t
  | None ->
    errf "%s: incompatible types %s and %s" what (Dtype.to_string a)
      (Dtype.to_string b)

let expect_numeric what ty =
  if Dtype.is_numeric ty || Dtype.equal ty Dtype.Any then ()
  else errf "%s requires a numeric operand, got %s" what (Dtype.to_string ty)

let expect_bool what ty =
  if Dtype.equal ty Dtype.Bool || Dtype.equal ty Dtype.Any then ()
  else errf "%s requires a boolean operand, got %s" what (Dtype.to_string ty)

let expect_text what ty =
  if Dtype.equal ty Dtype.Text || Dtype.equal ty Dtype.Any then ()
  else errf "%s requires a text operand, got %s" what (Dtype.to_string ty)

let check_binop op a b =
  let ta = Expr.type_of a and tb = Expr.type_of b in
  (match (op : Expr.binop) with
  | Expr.Add
    when (Dtype.equal ta Dtype.Date && (Dtype.equal tb Dtype.Int || Dtype.equal tb Dtype.Any))
         || (Dtype.equal tb Dtype.Date && (Dtype.equal ta Dtype.Int || Dtype.equal ta Dtype.Any)) ->
    () (* date + days *)
  | Expr.Sub
    when Dtype.equal ta Dtype.Date
         && (Dtype.equal tb Dtype.Date || Dtype.equal tb Dtype.Int || Dtype.equal tb Dtype.Any) ->
    () (* date - days, date - date *)
  | Expr.Add | Expr.Sub | Expr.Mul | Expr.Div ->
    expect_numeric (Expr.binop_name op) ta;
    expect_numeric (Expr.binop_name op) tb
  | Expr.Mod ->
    expect_numeric "%" ta;
    expect_numeric "%" tb
  | Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq ->
    ignore (expect_unifiable ("comparison " ^ Expr.binop_name op) ta tb)
  | Expr.And | Expr.Or ->
    expect_bool (Expr.binop_name op) ta;
    expect_bool (Expr.binop_name op) tb
  | Expr.Concat ->
    expect_text "||" ta;
    expect_text "||" tb
  | Expr.Like ->
    expect_text "LIKE" ta;
    expect_text "LIKE" tb);
  Expr.Binop (op, a, b)

let binop_of_ast = function
  | Ast.Add -> Expr.Add
  | Ast.Sub -> Expr.Sub
  | Ast.Mul -> Expr.Mul
  | Ast.Div -> Expr.Div
  | Ast.Mod -> Expr.Mod
  | Ast.Eq -> Expr.Eq
  | Ast.Neq -> Expr.Neq
  | Ast.Lt -> Expr.Lt
  | Ast.Leq -> Expr.Leq
  | Ast.Gt -> Expr.Gt
  | Ast.Geq -> Expr.Geq
  | Ast.And -> Expr.And
  | Ast.Or -> Expr.Or
  | Ast.Concat -> Expr.Concat
  | Ast.Like -> Expr.Like

(* ------------------------------------------------------------------ *)
(* Aggregate collection                                                *)
(* ------------------------------------------------------------------ *)

type collector = { mutable calls : Plan.agg_call list (* reverse order *) }

let agg_func_of_ast distinct arg = function
  | Ast.Count -> ( match arg with None -> Plan.Count_star | Some _ -> Plan.Count)
  | Ast.Sum ->
    ignore distinct;
    Plan.Sum
  | Ast.Avg -> Plan.Avg
  | Ast.Min -> Plan.Min
  | Ast.Max -> Plan.Max
  | Ast.Bool_and -> Plan.Bool_and
  | Ast.Bool_or -> Plan.Bool_or

let agg_result_type func (arg : Expr.t option) =
  match func with
  | Plan.Count_star | Plan.Count -> Dtype.Int
  | Plan.Avg -> Dtype.Float
  | Plan.Bool_and | Plan.Bool_or -> Dtype.Bool
  | Plan.Sum | Plan.Min | Plan.Max -> (
    match arg with
    | Some e -> Expr.type_of e
    | None -> Dtype.Any)

(* Reuse an existing structurally-equal call so e.g. a count-star in the
   select list and in HAVING share one aggregate column. *)
let collect_agg collector func distinct arg =
  let existing =
    List.find_opt
      (fun (c : Plan.agg_call) ->
        c.agg = func && c.distinct = distinct
        && Option.equal Expr.equal c.arg arg)
      collector.calls
  in
  match existing with
  | Some c -> c.agg_out
  | None ->
    let out = Attr.fresh (Plan.agg_name func) (agg_result_type func arg) in
    collector.calls <- { agg = func; distinct; arg; agg_out = out } :: collector.calls;
    out

(* ------------------------------------------------------------------ *)
(* Translation context                                                 *)
(* ------------------------------------------------------------------ *)

type ctx = {
  catalog : Catalog.t;
  view_stack : string list;  (* views being unfolded; cycle guard *)
}

(* A block being translated: the current relational plan and its scope.
   Subquery expressions (scalar, EXISTS, IN) graft Apply nodes onto [plan],
   which is why it is mutable. *)
type block = { mutable plan : Plan.t; scope : scope }

type expr_env = {
  block : block;
  collector : collector option;  (* Some = aggregates allowed here *)
  subqueries_allowed : bool;  (* scalar subqueries may wrap block.plan *)
  in_agg : bool;  (* inside an aggregate argument: no nesting *)
  where : string;  (* clause name for error messages *)
}

let rec translate_expr ctx env (e : Ast.expr) : Expr.t =
  match e with
  | Ast.Lit v -> Expr.Const v
  | Ast.Param n ->
    errf "parameter $%d was not bound (use Engine.query_params)" n
  | Ast.Ref (q, name) -> Expr.Attr (resolve_in_scope env.block.scope q name)
  | Ast.Binop (op, a, b) ->
    let a = translate_expr ctx env a and b = translate_expr ctx env b in
    check_binop (binop_of_ast op) a b
  | Ast.Unop (Ast.Not, a) ->
    let a = translate_expr ctx env a in
    expect_bool "NOT" (Expr.type_of a);
    Expr.Unop (Expr.Not, a)
  | Ast.Unop (Ast.Neg, a) ->
    let a = translate_expr ctx env a in
    expect_numeric "unary -" (Expr.type_of a);
    Expr.Unop (Expr.Neg, a)
  | Ast.Is_null { negated; arg } ->
    let a = translate_expr ctx env arg in
    let e = Expr.Unop (Expr.Is_null, a) in
    if negated then Expr.Unop (Expr.Not, e) else e
  | Ast.Between { negated; arg; low; high } ->
    let a = translate_expr ctx env arg in
    let lo = translate_expr ctx env low in
    let hi = translate_expr ctx env high in
    let e =
      Expr.Binop
        ( Expr.And,
          check_binop Expr.Geq a lo,
          check_binop Expr.Leq a hi )
    in
    if negated then Expr.Unop (Expr.Not, e) else e
  | Ast.In_list { negated; arg; candidates } ->
    let a = translate_expr ctx env arg in
    let disjuncts =
      List.map (fun c -> check_binop Expr.Eq a (translate_expr ctx env c)) candidates
    in
    let e =
      match disjuncts with
      | [] -> Expr.Const (Value.Bool false)
      | d :: rest -> List.fold_left (fun acc d -> Expr.Binop (Expr.Or, acc, d)) d rest
    in
    if negated then Expr.Unop (Expr.Not, e) else e
  | Ast.Case { operand; branches; else_ } ->
    let operand = Option.map (translate_expr ctx env) operand in
    let branches =
      List.map
        (fun (cond, result) ->
          let cond_e = translate_expr ctx env cond in
          let cond_e =
            match operand with
            | Some op -> check_binop Expr.Eq op cond_e
            | None ->
              expect_bool "CASE WHEN" (Expr.type_of cond_e);
              cond_e
          in
          (cond_e, translate_expr ctx env result))
        branches
    in
    let else_ = Option.map (translate_expr ctx env) else_ in
    (* result types must unify *)
    let _ =
      List.fold_left
        (fun acc (_, r) -> expect_unifiable "CASE branches" acc (Expr.type_of r))
        (match else_ with Some e -> Expr.type_of e | None -> Dtype.Any)
        branches
    in
    Expr.Case { branches; else_ }
  | Ast.Cast (e, ty) -> Expr.Cast (translate_expr ctx env e, ty)
  | Ast.Func (name, args) -> (
    match Builtins.find name with
    | None -> errf "unknown function %S" name
    | Some s ->
      let args = List.map (translate_expr ctx env) args in
      (match s.Builtins.check (List.map Expr.type_of args) with
      | Ok _ -> ()
      | Error msg -> raise (Error msg));
      Expr.Func (name, args))
  | Ast.Agg { func; distinct; arg } -> (
    if env.in_agg then errf "aggregate calls cannot be nested";
    match env.collector with
    | None -> errf "aggregate functions are not allowed in %s" env.where
    | Some collector ->
      let arg =
        Option.map
          (fun a -> translate_expr ctx { env with in_agg = true } a)
          arg
      in
      (match func, arg with
      | (Ast.Sum | Ast.Avg), Some a ->
        expect_numeric (Ast.agg_name func) (Expr.type_of a)
      | (Ast.Bool_and | Ast.Bool_or), Some a ->
        expect_bool (Ast.agg_name func) (Expr.type_of a)
      | _ -> ());
      Expr.Attr (collect_agg collector (agg_func_of_ast distinct arg func) distinct arg))
  | Ast.Scalar_subquery q ->
    if not env.subqueries_allowed then
      errf "subqueries are not allowed in %s" env.where;
    let subplan = translate_query ctx (Some env.block.scope) q in
    (match Plan.schema subplan with
    | [ col ] ->
      let out = Attr.fresh col.Attr.name col.Attr.ty in
      env.block.plan <-
        Plan.Apply
          { kind = Plan.A_scalar out; left = env.block.plan; right = subplan };
      Expr.Attr out
    | cols ->
      errf "scalar subquery must return exactly one column, returns %d"
        (List.length cols))
  | Ast.In_query _ | Ast.Exists _ ->
    errf
      "IN/EXISTS subqueries are only supported as top-level conjuncts of a \
       WHERE clause"

(* ------------------------------------------------------------------ *)
(* FROM items                                                          *)
(* ------------------------------------------------------------------ *)

and scan_of_table table_name (schema : Schema.t) =
  let attrs =
    List.map (fun (c : Column.t) -> Attr.fresh c.name c.ty) (Schema.columns schema)
  in
  (Plan.Scan { table = table_name; attrs }, attrs)

and translate_from_item ctx outer (item : Ast.from_item) : Plan.t * rv list =
  let plan, rvs =
    match item.source with
    | Ast.From_table name -> (
      match Catalog.find_table ctx.catalog name with
      | Some def ->
        let plan, attrs = scan_of_table def.Catalog.table_name def.Catalog.table_schema in
        let rv_name = Option.value item.alias ~default:name in
        ( plan,
          [
            {
              rv_name = String.lowercase_ascii rv_name;
              rv_cols = List.map (fun (a : Attr.t) -> (a.Attr.name, a)) attrs;
            };
          ] )
      | None -> (
        match Catalog.find_view ctx.catalog name with
        | Some vdef ->
          if List.mem vdef.Catalog.view_name ctx.view_stack then
            errf "infinite recursion detected in view %S" vdef.Catalog.view_name;
          let view_ast =
            match Parser.parse_query vdef.Catalog.view_sql with
            | Ok q -> q
            | Error e ->
              errf "stored definition of view %S no longer parses: %s"
                vdef.Catalog.view_name e.Parser.message
          in
          let ctx' = { ctx with view_stack = vdef.Catalog.view_name :: ctx.view_stack } in
          (* Views cannot be correlated: translated in a fresh scope. *)
          let plan = translate_query ctx' None view_ast in
          let rv_name = Option.value item.alias ~default:name in
          let cols =
            List.map2
              (fun (c : Column.t) (a : Attr.t) -> (c.name, a))
              (Schema.columns vdef.Catalog.view_schema)
              (first_n (Plan.schema plan) (Schema.arity vdef.Catalog.view_schema))
          in
          ( plan,
            [ { rv_name = String.lowercase_ascii rv_name; rv_cols = cols } ] )
        | None -> (
          (* Virtual system relations (perm_stat_statements, perm_metrics,
             ...) analyze exactly like base tables: a Scan whose rows the
             engine's provider materializes at execution time. *)
          match Catalog.find_virtual ctx.catalog name with
          | Some vdef ->
            let plan, attrs =
              scan_of_table vdef.Catalog.virtual_name vdef.Catalog.virtual_schema
            in
            let rv_name = Option.value item.alias ~default:name in
            ( plan,
              [
                {
                  rv_name = String.lowercase_ascii rv_name;
                  rv_cols =
                    List.map (fun (a : Attr.t) -> (a.Attr.name, a)) attrs;
                };
              ] )
          | None -> errf "relation %S does not exist" name)))
    | Ast.From_subquery q ->
      let plan = translate_query ctx None q in
      let rv_name = Option.value item.alias ~default:"subquery" in
      ( plan,
        [
          {
            rv_name = String.lowercase_ascii rv_name;
            rv_cols =
              List.map (fun (a : Attr.t) -> (a.Attr.name, a)) (Plan.schema plan);
          };
        ] )
    | Ast.From_join { kind; left; right; cond } ->
      let lplan, lrvs = translate_from_item ctx outer left in
      let rplan, rrvs = translate_from_item ctx outer right in
      check_duplicate_rvs (lrvs @ rrvs);
      let pred =
        match cond with
        | None -> None
        | Some c ->
          let scope = { rvs = lrvs @ rrvs; parent = outer } in
          let block = { plan = Plan.Values { attrs = []; rows = [] }; scope } in
          let env =
            {
              block;
              collector = None;
              subqueries_allowed = false;
              in_agg = false;
              where = "a JOIN condition";
            }
          in
          let p = translate_expr ctx env c in
          expect_bool "JOIN ... ON" (Expr.type_of p);
          Some p
      in
      let kind' =
        match kind with
        | Ast.Inner -> Plan.Inner
        | Ast.Left -> Plan.Left
        | Ast.Right -> Plan.Right
        | Ast.Full -> Plan.Full
        | Ast.Cross -> Plan.Cross
      in
      (Plan.Join { kind = kind'; left = lplan; right = rplan; pred }, lrvs @ rrvs)
  in
  (* SQL-PLE FROM-item modifiers *)
  let plan =
    if item.baserelation && item.prov_attrs <> None then
      errf "BASERELATION and PROVENANCE (...) cannot be combined on one FROM item"
    else if item.baserelation then begin
      match item.source with
      | Ast.From_join _ -> errf "BASERELATION cannot be applied to a join"
      | _ ->
        let rel_name =
          match rvs with { rv_name; _ } :: _ -> rv_name | [] -> "subquery"
        in
        Plan.Baserel { child = plan; rel_name }
    end
    else plan
  in
  let plan =
    match item.prov_attrs with
    | None -> plan
    | Some names ->
      let cols = List.concat_map (fun rv -> rv.rv_cols) rvs in
      let ext_attrs =
        List.map
          (fun n ->
            let n = String.lowercase_ascii n in
            match List.assoc_opt n cols with
            | Some a -> a
            | None -> errf "PROVENANCE attribute %S does not exist in this FROM item" n)
          names
      in
      Plan.External { child = plan; ext_attrs }
  in
  (plan, rvs)

and first_n lst n =
  if List.length lst < n then errf "internal: view schema wider than its plan"
  else List.filteri (fun i _ -> i < n) lst

and check_duplicate_rvs rvs =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun rv ->
      if Hashtbl.mem seen rv.rv_name then
        errf "table name %S specified more than once" rv.rv_name
      else Hashtbl.add seen rv.rv_name ())
    rvs

(* ------------------------------------------------------------------ *)
(* WHERE clause: IN/EXISTS de-correlation                              *)
(* ------------------------------------------------------------------ *)

and split_where_conjuncts (e : Ast.expr) =
  match e with
  | Ast.Binop (Ast.And, a, b) -> split_where_conjuncts a @ split_where_conjuncts b
  | e -> [ e ]

and apply_where ctx block (e : Ast.expr) =
  let conjuncts = split_where_conjuncts e in
  let plain = ref [] in
  let translate_plain c =
    let env =
      {
        block;
        collector = None;
        subqueries_allowed = true;
        in_agg = false;
        where = "the WHERE clause";
      }
    in
    let p = translate_expr ctx env c in
    expect_bool "WHERE" (Expr.type_of p);
    plain := p :: !plain
  in
  let handle_semi_anti negated build =
    (* translate the subquery against the current scope, graft an Apply *)
    let kind = if negated then Plan.A_anti else Plan.A_semi in
    let right = build () in
    block.plan <- Plan.Apply { kind; left = block.plan; right }
  in
  let handle_in negated arg subquery =
    handle_semi_anti negated (fun () ->
        let subplan = translate_query ctx (Some block.scope) subquery in
        match Plan.schema subplan with
        | [ col ] ->
          let env =
            {
              block;
              collector = None;
              subqueries_allowed = false;
              in_agg = false;
              where = "the WHERE clause";
            }
          in
          let arg_e = translate_expr ctx env arg in
          let pred = check_binop Expr.Eq arg_e (Expr.Attr col) in
          Plan.Filter { child = subplan; pred }
        | cols ->
          errf "IN subquery must return exactly one column, returns %d"
            (List.length cols))
  in
  List.iter
    (fun c ->
      match c with
      | Ast.Exists { negated; subquery } ->
        handle_semi_anti negated (fun () ->
            translate_query ctx (Some block.scope) subquery)
      | Ast.Unop (Ast.Not, Ast.Exists { negated; subquery }) ->
        handle_semi_anti (not negated) (fun () ->
            translate_query ctx (Some block.scope) subquery)
      | Ast.In_query { negated; arg; subquery } -> handle_in negated arg subquery
      | Ast.Unop (Ast.Not, Ast.In_query { negated; arg; subquery }) ->
        handle_in (not negated) arg subquery
      | c -> translate_plain c)
    conjuncts;
  List.rev !plain

(* ------------------------------------------------------------------ *)
(* SELECT blocks                                                       *)
(* ------------------------------------------------------------------ *)

and name_of_item (item : Ast.select_item) (e : Expr.t) =
  match item with
  | Ast.Sel_expr (_, Some alias) -> alias
  | Ast.Sel_expr (ast, None) -> (
    match ast with
    | Ast.Ref (_, name) -> name
    | Ast.Agg { func; _ } -> Ast.agg_name func
    | Ast.Func (name, _) -> name
    | Ast.Cast _ -> ( match e with Expr.Cast _ -> "cast" | _ -> "column")
    | Ast.Case _ -> "case"
    | _ -> "column")
  | Ast.Star | Ast.Table_star _ -> "column"

and expand_stars scope (items : Ast.select_item list) =
  List.concat_map
    (fun item ->
      match item with
      | Ast.Star ->
        List.concat_map
          (fun rv ->
            List.map
              (fun (name, _) -> Ast.Sel_expr (Ast.Ref (Some rv.rv_name, name), Some name))
              rv.rv_cols)
          scope.rvs
      | Ast.Table_star t ->
        let t = String.lowercase_ascii t in
        if not (rv_exists scope t) then
          errf "missing FROM-clause entry for table %S" t;
        List.concat_map
          (fun rv ->
            if String.equal rv.rv_name t then
              List.map
                (fun (name, _) ->
                  Ast.Sel_expr (Ast.Ref (Some rv.rv_name, name), Some name))
                rv.rv_cols
            else [])
          scope.rvs
      | Ast.Sel_expr _ -> [ item ])
    items

and translate_select ctx outer (s : Ast.select)
    ~(order_by : (Ast.expr * Ast.order_dir) list) ~limit ~offset : Plan.t =
  if s.items = [] then errf "SELECT list cannot be empty";
  (* 1. FROM *)
  let from_plan, rvs =
    match s.from with
    | [] -> (Plan.Values { attrs = []; rows = [ [] ] }, [])
    | first :: rest ->
      let p0, rv0 = translate_from_item ctx outer first in
      List.fold_left
        (fun (plan, rvs) item ->
          let p, rv = translate_from_item ctx outer item in
          ( Plan.Join { kind = Plan.Cross; left = plan; right = p; pred = None },
            rvs @ rv ))
        (p0, rv0) rest
  in
  check_duplicate_rvs rvs;
  let scope = { rvs; parent = outer } in
  let block = { plan = from_plan; scope } in
  (* 2. WHERE *)
  (match s.where with
  | Some w ->
    let preds = apply_where ctx block w in
    if preds <> [] then
      block.plan <- Plan.Filter { child = block.plan; pred = Expr.conjoin preds }
  | None -> ());
  (* 3. grouping decision: translate group-by keys and select items *)
  let items = expand_stars scope s.items in
  let group_exprs =
    List.map
      (fun g ->
        let env =
          {
            block;
            collector = None;
            subqueries_allowed = false;
            in_agg = false;
            where = "the GROUP BY clause";
          }
        in
        translate_expr ctx env g)
      s.group_by
  in
  let collector = { calls = [] } in
  let grouped_hint = group_exprs <> [] || s.having <> None in
  let env_items =
    {
      block;
      collector = Some collector;
      subqueries_allowed = not grouped_hint;
      in_agg = false;
      where = "the select list";
    }
  in
  let raw_items =
    List.map (fun item ->
        match item with
        | Ast.Sel_expr (e, _) ->
          let e' = translate_expr ctx env_items e in
          (item, e')
        | Ast.Star | Ast.Table_star _ -> assert false (* expanded above *))
      items
  in
  let having_pred =
    match s.having with
    | None -> None
    | Some h ->
      let env =
        {
          block;
          collector = Some collector;
          subqueries_allowed = false;
          in_agg = false;
          where = "the HAVING clause";
        }
      in
      let p = translate_expr ctx env h in
      expect_bool "HAVING" (Expr.type_of p);
      Some p
  in
  (* ORDER BY keys: aliases first, then positions, then full expressions. *)
  let alias_table =
    List.filter_map
      (fun (item, e) ->
        match item with
        | Ast.Sel_expr (_, Some a) -> Some (String.lowercase_ascii a, e)
        | _ -> None)
      raw_items
  in
  let order_keys =
    List.map
      (fun (e, dir) ->
        let dir' = match dir with Ast.Asc -> Plan.Asc | Ast.Desc -> Plan.Desc in
        let key =
          match e with
          | Ast.Ref (None, name)
            when List.mem_assoc (String.lowercase_ascii name) alias_table ->
            List.assoc (String.lowercase_ascii name) alias_table
          | Ast.Lit (Value.Int i) ->
            if i < 1 || i > List.length raw_items then
              errf "ORDER BY position %d is not in the select list" i
            else snd (List.nth raw_items (i - 1))
          | e ->
            let env =
              {
                block;
                collector = Some collector;
                subqueries_allowed = false;
                in_agg = false;
                where = "the ORDER BY clause";
              }
            in
            translate_expr ctx env e
        in
        (key, dir'))
      order_by
  in
  let aggs = List.rev collector.calls in
  let grouped = grouped_hint || aggs <> [] in
  (* 4. build Aggregate and substitute grouped expressions *)
  let final_items, having_pred, order_keys =
    if not grouped then (raw_items, having_pred, order_keys)
    else begin
      let group_cols =
        List.map
          (fun e ->
            let name = match e with Expr.Attr a -> a.Attr.name | _ -> "group" in
            (e, Attr.fresh name (Expr.type_of e)))
          group_exprs
      in
      block.plan <- Plan.Aggregate { child = block.plan; group_by = group_cols; aggs };
      (* replace group expressions by their output attributes *)
      let substitute e =
        let rec go e =
          match
            List.find_opt (fun (g, _) -> Expr.equal g e) group_cols
          with
          | Some (_, out) -> Expr.Attr out
          | None -> (
            match e with
            | Expr.Const _ | Expr.Attr _ -> e
            | Expr.Binop (op, a, b) -> Expr.Binop (op, go a, go b)
            | Expr.Unop (op, a) -> Expr.Unop (op, go a)
            | Expr.Case { branches; else_ } ->
              Expr.Case
                {
                  branches = List.map (fun (c, r) -> (go c, go r)) branches;
                  else_ = Option.map go else_;
                }
            | Expr.Cast (a, ty) -> Expr.Cast (go a, ty)
            | Expr.Func (name, args) -> Expr.Func (name, List.map go args))
        in
        go e
      in
      let allowed =
        Attr.Set.of_list
          (List.map snd group_cols @ List.map (fun c -> c.Plan.agg_out) aggs)
      in
      let rec outer_attrs scope acc =
        match scope with
        | None -> acc
        | Some s ->
          outer_attrs s.parent
            (List.fold_left
               (fun acc rv ->
                 List.fold_left (fun acc (_, a) -> Attr.Set.add a acc) acc rv.rv_cols)
               acc s.rvs)
      in
      let allowed = outer_attrs outer allowed in
      let check what e =
        let bad = Attr.Set.diff (Expr.attrs e) allowed in
        match Attr.Set.choose_opt bad with
        | Some a ->
          errf "column %S must appear in the GROUP BY clause or be used in an aggregate function (%s)"
            a.Attr.name what
        | None -> e
      in
      ( List.map
          (fun (item, e) -> (item, check "select list" (substitute e)))
          raw_items,
        Option.map (fun p -> check "HAVING" (substitute p)) having_pred,
        List.map (fun (k, d) -> (check "ORDER BY" (substitute k), d)) order_keys )
    end
  in
  (* 5. HAVING *)
  (match having_pred with
  | Some p -> block.plan <- Plan.Filter { child = block.plan; pred = p }
  | None -> ());
  (* 6. Sort below the projection (so keys may reference any scope attr) —
     except for DISTINCT, where SQL requires sort keys to be output columns,
     handled by sorting above the Distinct instead. *)
  let sort_below = order_keys <> [] && not s.distinct in
  if sort_below then block.plan <- Plan.Sort { child = block.plan; keys = order_keys };
  (* 7. projection *)
  let cols =
    List.map
      (fun (item, e) ->
        let name = String.lowercase_ascii (name_of_item item e) in
        (e, Attr.fresh name (Expr.type_of e)))
      final_items
  in
  block.plan <- Plan.Project { child = block.plan; cols };
  (* 8. DISTINCT *)
  if s.distinct then begin
    block.plan <- Plan.Distinct block.plan;
    if order_keys <> [] then begin
      (* keys must be output columns: replace a key that matches a select
         item's expression by that item's output attribute *)
      let out_attrs = Attr.Set.of_list (List.map snd cols) in
      let order_keys =
        List.map
          (fun (k, d) ->
            match List.find_opt (fun (e, _) -> Expr.equal e k) cols with
            | Some (_, out) -> (Expr.Attr out, d)
            | None ->
              if Attr.Set.subset (Expr.attrs k) out_attrs then (k, d)
              else
                errf
                  "for SELECT DISTINCT, ORDER BY expressions must appear in \
                   the select list")
          order_keys
      in
      block.plan <- Plan.Sort { child = block.plan; keys = order_keys }
    end
  end;
  (* 9. SQL-PLE provenance marker *)
  (match s.provenance with
  | Some contribution ->
    let semantics =
      match contribution with
      | Ast.Influence -> Plan.Influence
      | Ast.Copy_partial -> Plan.Copy_partial
      | Ast.Copy_complete -> Plan.Copy_complete
    in
    let sources = Sources.prov_sources block.plan in
    block.plan <- Plan.Prov { child = block.plan; semantics; sources }
  | None -> ());
  (* 10. LIMIT / OFFSET *)
  (match limit, offset with
  | None, None -> ()
  | limit, offset ->
    block.plan <-
      Plan.Limit
        { child = block.plan; limit; offset = Option.value offset ~default:0 });
  block.plan

(* ------------------------------------------------------------------ *)
(* Queries (set operations, ORDER BY / LIMIT at the top)               *)
(* ------------------------------------------------------------------ *)

(* A PROVENANCE marker on the leftmost SELECT of a set operation applies to
   the whole set operation — that is how the paper's q1 is phrased
   ([SELECT PROVENANCE ... UNION SELECT ...], Figure 2 computes the union's
   provenance). Strip it here; the caller wraps the combined plan. *)
and strip_leading_provenance (q : Ast.query) =
  match q.body with
  | Ast.Select s when s.provenance <> None ->
    ({ q with body = Ast.Select { s with provenance = None } }, s.provenance)
  | Ast.Select _ -> (q, None)
  | Ast.Set_op r ->
    let left', c = strip_leading_provenance r.left in
    ({ q with body = Ast.Set_op { r with left = left' } }, c)

and translate_query ctx outer (q : Ast.query) : Plan.t =
  match q.body with
  | Ast.Select s ->
    translate_select ctx outer s ~order_by:q.order_by ~limit:q.limit
      ~offset:q.offset
  | Ast.Set_op _ ->
    let q, leading_prov = strip_leading_provenance q in
    translate_set_query ctx outer q leading_prov

and translate_set_query ctx outer (q : Ast.query) leading_prov : Plan.t =
  match q.body with
  | Ast.Select _ -> assert false
  | Ast.Set_op { kind; all; left; right } ->
    let lplan = translate_query ctx outer left in
    let rplan = translate_query ctx outer right in
    let ls = Plan.schema lplan and rs = Plan.schema rplan in
    if List.length ls <> List.length rs then
      errf "each %s query must have the same number of columns"
        (match kind with
        | Ast.Union -> "UNION"
        | Ast.Intersect -> "INTERSECT"
        | Ast.Except -> "EXCEPT");
    let attrs =
      List.map2
        (fun (l : Attr.t) (r : Attr.t) ->
          let ty =
            expect_unifiable
              (Printf.sprintf "set operation column %S" l.Attr.name)
              l.Attr.ty r.Attr.ty
          in
          Attr.fresh l.Attr.name ty)
        ls rs
    in
    let kind' =
      match kind with
      | Ast.Union -> Plan.Union
      | Ast.Intersect -> Plan.Intersect
      | Ast.Except -> Plan.Except
    in
    let plan =
      Plan.Set_op { kind = kind'; all; left = lplan; right = rplan; attrs }
    in
    let plan =
      match leading_prov with
      | None -> plan
      | Some contribution ->
        let semantics =
          match contribution with
          | Ast.Influence -> Plan.Influence
          | Ast.Copy_partial -> Plan.Copy_partial
          | Ast.Copy_complete -> Plan.Copy_complete
        in
        let sources = Sources.prov_sources plan in
        Plan.Prov { child = plan; semantics; sources }
    in
    (* ORDER BY on a set operation: output column names or positions only *)
    let plan =
      if q.order_by = [] then plan
      else begin
        let keys =
          List.map
            (fun (e, dir) ->
              let dir' =
                match dir with Ast.Asc -> Plan.Asc | Ast.Desc -> Plan.Desc
              in
              match e with
              | Ast.Ref (None, name) -> (
                let name = String.lowercase_ascii name in
                match
                  List.find_opt (fun (a : Attr.t) -> String.equal a.Attr.name name) attrs
                with
                | Some a -> (Expr.Attr a, dir')
                | None -> errf "ORDER BY column %S is not in the result" name)
              | Ast.Lit (Value.Int i) ->
                if i < 1 || i > List.length attrs then
                  errf "ORDER BY position %d is not in the result" i
                else (Expr.Attr (List.nth attrs (i - 1)), dir')
              | _ ->
                errf
                  "ORDER BY on a set operation must name an output column or position")
            q.order_by
        in
        Plan.Sort { child = plan; keys }
      end
    in
    (match q.limit, q.offset with
    | None, None -> plan
    | limit, offset ->
      Plan.Limit { child = plan; limit; offset = Option.value offset ~default:0 })

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let analyze_query catalog q =
  match translate_query { catalog; view_stack = [] } None q with
  | plan -> Ok plan
  | exception Error msg -> Error msg

let const_expr e =
  let catalog = Catalog.create () in
  let ctx = { catalog; view_stack = [] } in
  let scope = { rvs = []; parent = None } in
  let block = { plan = Plan.Values { attrs = []; rows = [] }; scope } in
  let env =
    {
      block;
      collector = None;
      subqueries_allowed = false;
      in_agg = false;
      where = "a VALUES row";
    }
  in
  match translate_expr ctx env e with
  | e' -> Ok e'
  | exception Error msg -> Error msg

let output_names plan =
  List.map (fun (a : Attr.t) -> a.Attr.name) (Plan.schema plan)
