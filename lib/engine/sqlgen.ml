module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype

(* ------------------------------------------------------------------ *)
(* Attribute aliases                                                   *)
(* ------------------------------------------------------------------ *)

(* Unique column aliases: an attribute keeps its display name unless the
   same name is used by another attribute somewhere in the plan, in which
   case its id is appended. *)
let build_alias_map plan =
  let attrs = Hashtbl.create 64 in
  let name_count = Hashtbl.create 64 in
  let add (a : Attr.t) =
    if not (Hashtbl.mem attrs a.Attr.id) then begin
      Hashtbl.replace attrs a.Attr.id a;
      let c =
        match Hashtbl.find_opt name_count a.Attr.name with
        | Some c -> c
        | None -> 0
      in
      Hashtbl.replace name_count a.Attr.name (c + 1)
    end
  in
  let rec collect plan =
    List.iter add (Plan.schema plan);
    (match (plan : Plan.t) with
    | Plan.Aggregate { group_by; _ } -> List.iter (fun (_, a) -> add a) group_by
    | _ -> ());
    List.iter collect (Plan.children plan)
  in
  collect plan;
  let aliases = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id (a : Attr.t) ->
      let alias =
        if Hashtbl.find name_count a.Attr.name = 1 then a.Attr.name
        else Printf.sprintf "%s_%d" a.Attr.name id
      in
      Hashtbl.replace aliases id alias)
    attrs;
  fun (a : Attr.t) ->
    match Hashtbl.find_opt aliases a.Attr.id with
    | Some alias -> alias
    | None -> Printf.sprintf "%s_%d" a.Attr.name a.Attr.id

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec expr_sql alias (e : Expr.t) =
  match e with
  | Expr.Const v -> Value.to_sql v
  | Expr.Attr a -> alias a
  | Expr.Binop (Expr.And, _, _) | Expr.Binop (Expr.Or, _, _) ->
    let rec flat op e acc =
      match e with
      | Expr.Binop (op', a, b) when op' = op -> flat op a (flat op b acc)
      | e -> e :: acc
    in
    let op, sep =
      match e with
      | Expr.Binop (Expr.And, _, _) -> (Expr.And, " AND ")
      | _ -> (Expr.Or, " OR ")
    in
    "(" ^ String.concat sep (List.map (expr_sql alias) (flat op e [])) ^ ")"
  | Expr.Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (expr_sql alias a) (Expr.binop_name op)
      (expr_sql alias b)
  | Expr.Unop (Expr.Not, a) -> Printf.sprintf "(NOT %s)" (expr_sql alias a)
  | Expr.Unop (Expr.Neg, a) -> Printf.sprintf "(- %s)" (expr_sql alias a)
  | Expr.Unop (Expr.Is_null, a) ->
    Printf.sprintf "(%s IS NULL)" (expr_sql alias a)
  | Expr.Case { branches; else_ } ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf "CASE";
    List.iter
      (fun (c, r) ->
        Buffer.add_string buf
          (Printf.sprintf " WHEN %s THEN %s" (expr_sql alias c)
             (expr_sql alias r)))
      branches;
    (match else_ with
    | Some e -> Buffer.add_string buf (" ELSE " ^ expr_sql alias e)
    | None -> ());
    Buffer.add_string buf " END";
    Buffer.contents buf
  | Expr.Cast (a, ty) ->
    Printf.sprintf "CAST(%s AS %s)" (expr_sql alias a) (Dtype.to_string ty)
  | Expr.Func (name, args) ->
    Printf.sprintf "%s(%s)" name
      (String.concat ", " (List.map (expr_sql alias) args))

let agg_sql alias (c : Plan.agg_call) =
  let arg =
    match c.arg with
    | Some e -> (if c.distinct then "DISTINCT " else "") ^ expr_sql alias e
    | None -> "*"
  in
  let name =
    match c.agg with
    | Plan.Count_star | Plan.Count -> "count"
    | Plan.Sum -> "sum"
    | Plan.Avg -> "avg"
    | Plan.Min -> "min"
    | Plan.Max -> "max"
    | Plan.Bool_and -> "bool_and"
    | Plan.Bool_or -> "bool_or"
  in
  Printf.sprintf "%s(%s)" name arg

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* The original input of an aggregate with a representative flag,
   recovered from its rewritten input: each duplicate elimination keeps
   its representatives only (a DISTINCT over its keys), and the columns
   that read what this drops (its witnesses' provenance, flags) go with
   it; a UNION ALL drops a position only from both branches at once. The
   aggregate over the result is the one the fused node replaces. *)
let rec representatives (plan : Plan.t) : Plan.t =
  let available (child : Plan.t) (e, _) =
    Attr.Set.for_all
      (fun a -> List.exists (Attr.equal a) (Plan.schema child))
      (Expr.attrs e)
  in
  match plan with
  | Plan.Mark_first { child; keys; _ } ->
    Plan.Distinct
      (Plan.Project
         {
           child = representatives child;
           cols = List.map (fun a -> (Expr.Attr a, a)) keys;
         })
  | Plan.Project { child; cols } ->
    let child = representatives child in
    Plan.Project { child; cols = List.filter (available child) cols }
  | Plan.Set_op
      ({ kind = Plan.Union; all = true; left = Plan.Project l;
         right = Plan.Project r; _ } as u) ->
    let lc = representatives l.child and rc = representatives r.child in
    let keep =
      List.map2 (fun lcol rcol -> available lc lcol && available rc rcol)
        l.cols r.cols
    in
    let pick xs = List.filteri (fun i _ -> List.nth keep i) xs in
    Plan.Set_op
      {
        u with
        left = Plan.Project { child = lc; cols = pick l.cols };
        right = Plan.Project { child = rc; cols = pick r.cols };
        attrs = pick u.attrs;
      }
  | Plan.Filter _ | Plan.Sort _ | Plan.Join _ | Plan.Apply _ ->
    Plan.map_children representatives plan
  | _ -> plan

let plan_to_sql plan =
  let alias = build_alias_map plan in
  let counter = ref 0 in
  let fresh_t () =
    incr counter;
    Printf.sprintf "t%d" !counter
  in
  let rec go (plan : Plan.t) =
    match plan with
    | Plan.Scan { table; attrs } ->
      let cols =
        List.map
          (fun (a : Attr.t) -> Printf.sprintf "%s AS %s" a.Attr.name (alias a))
          attrs
      in
      Printf.sprintf "SELECT %s FROM %s" (String.concat ", " cols) table
    | Plan.Index_scan { table; attrs; key_col; key } ->
      let cols =
        List.map
          (fun (a : Attr.t) -> Printf.sprintf "%s AS %s" a.Attr.name (alias a))
          attrs
      in
      let col =
        match List.nth_opt attrs key_col with
        | Some (a : Attr.t) -> a.Attr.name
        | None -> "?"
      in
      Printf.sprintf "SELECT %s FROM %s WHERE %s = %s" (String.concat ", " cols)
        table col (expr_sql alias key)
    | Plan.Values { attrs; rows } -> (
      let render_row row =
        match attrs, row with
        | [], _ | _, [] -> "SELECT 1 AS one"
        | attrs, row ->
          "SELECT "
          ^ String.concat ", "
              (List.map2
                 (fun e (a : Attr.t) ->
                   Printf.sprintf "%s AS %s" (expr_sql alias e) (alias a))
                 row attrs)
      in
      match rows with
      | [] -> "SELECT 1 AS one WHERE FALSE"
      | rows -> String.concat " UNION ALL " (List.map render_row rows))
    | Plan.Project { child; cols } ->
      let cols =
        List.map
          (fun (e, out) ->
            Printf.sprintf "%s AS %s" (expr_sql alias e) (alias out))
          cols
      in
      Printf.sprintf "SELECT %s FROM (%s) AS %s" (String.concat ", " cols)
        (go child) (fresh_t ())
    | Plan.Filter { child; pred } ->
      Printf.sprintf "SELECT * FROM (%s) AS %s WHERE %s" (go child) (fresh_t ())
        (expr_sql alias pred)
    | Plan.Join { kind = Plan.Semi | Plan.Anti; left; right; pred } ->
      let neg =
        match plan with
        | Plan.Join { kind = Plan.Anti; _ } -> "NOT "
        | _ -> ""
      in
      Printf.sprintf "SELECT * FROM (%s) AS %s WHERE %sEXISTS (SELECT 1 FROM (%s) AS %s%s)"
        (go left) (fresh_t ()) neg (go right) (fresh_t ())
        (match pred with
        | Some p -> " WHERE " ^ expr_sql alias p
        | None -> "")
    | Plan.Join { kind; left; right; pred } ->
      let kw =
        match kind with
        | Plan.Inner -> "JOIN"
        | Plan.Left -> "LEFT OUTER JOIN"
        | Plan.Right -> "RIGHT OUTER JOIN"
        | Plan.Full -> "FULL OUTER JOIN"
        | Plan.Cross -> "CROSS JOIN"
        | Plan.Semi | Plan.Anti -> assert false
      in
      Printf.sprintf "SELECT * FROM (%s) AS %s %s (%s) AS %s%s" (go left)
        (fresh_t ()) kw (go right) (fresh_t ())
        (match pred with
        | Some p -> " ON " ^ expr_sql alias p
        | None -> "")
    | Plan.Apply { kind; left; right } -> (
      match kind with
      | Plan.A_scalar out ->
        Printf.sprintf "SELECT %s.*, (%s) AS %s FROM (%s) AS %s"
          "t_outer" (go right) (alias out) (go left) "t_outer"
      | Plan.A_semi ->
        Printf.sprintf "SELECT * FROM (%s) AS %s WHERE EXISTS (%s)" (go left)
          (fresh_t ()) (go right)
      | Plan.A_anti ->
        Printf.sprintf "SELECT * FROM (%s) AS %s WHERE NOT EXISTS (%s)"
          (go left) (fresh_t ()) (go right)
      | Plan.A_cross ->
        Printf.sprintf "SELECT * FROM (%s) AS %s CROSS JOIN LATERAL (%s) AS %s"
          (go left) (fresh_t ()) (go right) (fresh_t ())
      | Plan.A_outer ->
        Printf.sprintf
          "SELECT * FROM (%s) AS %s LEFT OUTER JOIN LATERAL (%s) AS %s ON true"
          (go left) (fresh_t ()) (go right) (fresh_t ()))
    | Plan.Aggregate { child; group_by; aggs } ->
      let gcols =
        List.map
          (fun (e, out) ->
            Printf.sprintf "%s AS %s" (expr_sql alias e) (alias out))
          group_by
      in
      let acols =
        List.map
          (fun (c : Plan.agg_call) ->
            Printf.sprintf "%s AS %s" (agg_sql alias c) (alias c.agg_out))
          aggs
      in
      let group_clause =
        if group_by = [] then ""
        else
          " GROUP BY "
          ^ String.concat ", " (List.map (fun (e, _) -> expr_sql alias e) group_by)
      in
      Printf.sprintf "SELECT %s FROM (%s) AS %s%s"
        (String.concat ", " (gcols @ acols))
        (go child) (fresh_t ()) group_clause
    | Plan.Group_annotate { child; group_by; aggs; rep } ->
      (* the rejoin it fuses: the aggregate (over the original input, if
         a representative flag picks it out) left-joined back to its
         input on group-key identity, which yields the same rows *)
      let input = if rep = None then child else representatives child in
      go
        (Plan.Join
           {
             kind = Plan.Left;
             left = Plan.Aggregate { child = input; group_by; aggs };
             right = child;
             pred =
               Some
                 (Expr.key_eq_all
                    (List.map (fun (e, out) -> (e, Expr.Attr out)) group_by));
           })
    | Plan.Distinct child ->
      Printf.sprintf "SELECT DISTINCT * FROM (%s) AS %s" (go child) (fresh_t ())
    | Plan.Mark_first { child; flag; _ } ->
      (* the flag only steers a fused aggregate, which renders as the
         rejoin it replaces and reads no flag *)
      Printf.sprintf "SELECT *, CAST(NULL AS bool) AS %s FROM (%s) AS %s"
        (alias flag) (go child) (fresh_t ())
    | Plan.Set_op { kind; all; left; right; attrs } ->
      let kw =
        match kind with
        | Plan.Union -> "UNION"
        | Plan.Intersect -> "INTERSECT"
        | Plan.Except -> "EXCEPT"
      in
      let inner =
        Printf.sprintf "(%s) %s%s (%s)" (go left) kw
          (if all then " ALL" else "")
          (go right)
      in
      (* rename the left branch's output names to the node's attributes *)
      let lcols = Plan.schema left in
      let cols =
        List.map2
          (fun (l : Attr.t) (out : Attr.t) ->
            Printf.sprintf "%s AS %s" (alias l) (alias out))
          lcols attrs
      in
      Printf.sprintf "SELECT %s FROM (%s) AS %s" (String.concat ", " cols) inner
        (fresh_t ())
    | Plan.Sort { child; keys } ->
      let key_sql =
        List.map
          (fun (e, dir) ->
            expr_sql alias e
            ^ match dir with Plan.Asc -> " ASC" | Plan.Desc -> " DESC")
          keys
      in
      Printf.sprintf "SELECT * FROM (%s) AS %s ORDER BY %s" (go child)
        (fresh_t ()) (String.concat ", " key_sql)
    | Plan.Limit { child; limit; offset } ->
      Printf.sprintf "SELECT * FROM (%s) AS %s%s%s" (go child) (fresh_t ())
        (match limit with
        | Some n -> Printf.sprintf " LIMIT %d" n
        | None -> "")
        (if offset > 0 then Printf.sprintf " OFFSET %d" offset else "")
    | Plan.Prov { child; _ } ->
      Printf.sprintf "SELECT PROVENANCE * FROM (%s) AS %s" (go child) (fresh_t ())
    | Plan.Baserel { child; _ } ->
      Printf.sprintf "SELECT * FROM (%s) AS %s BASERELATION" (go child) (fresh_t ())
    | Plan.External { child; ext_attrs } ->
      Printf.sprintf "SELECT * FROM (%s) AS %s PROVENANCE (%s)" (go child)
        (fresh_t ())
        (String.concat ", " (List.map alias ext_attrs))
  in
  go plan
