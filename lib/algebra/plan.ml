module Dtype = Perm_value.Dtype

type join_kind = Inner | Left | Right | Full | Cross | Semi | Anti

type apply_kind =
  | A_cross
  | A_outer
  | A_scalar of Attr.t
  | A_semi
  | A_anti

type agg_func = Count_star | Count | Sum | Avg | Min | Max | Bool_and | Bool_or

let agg_name = function
  | Count_star | Count -> "count"
  | Sum -> "sum"
  | Avg -> "avg"
  | Min -> "min"
  | Max -> "max"
  | Bool_and -> "bool_and"
  | Bool_or -> "bool_or"

type agg_call = {
  agg : agg_func;
  distinct : bool;
  arg : Expr.t option;
  agg_out : Attr.t;
}

type sort_dir = Asc | Desc
type set_kind = Union | Intersect | Except
type prov_semantics = Influence | Copy_partial | Copy_complete
type prov_source = { prov_attr : Attr.t; prov_rel : string; prov_col : string }

type t =
  | Scan of { table : string; attrs : Attr.t list }
  | Index_scan of {
      table : string;
      attrs : Attr.t list;
      key_col : int;
      key : Expr.t;
    }
  | Values of { attrs : Attr.t list; rows : Expr.t list list }
  | Project of { child : t; cols : (Expr.t * Attr.t) list }
  | Filter of { child : t; pred : Expr.t }
  | Join of { kind : join_kind; left : t; right : t; pred : Expr.t option }
  | Apply of { kind : apply_kind; left : t; right : t }
  | Aggregate of {
      child : t;
      group_by : (Expr.t * Attr.t) list;
      aggs : agg_call list;
    }
  | Group_annotate of {
      child : t;
      group_by : (Expr.t * Attr.t) list;
      aggs : agg_call list;
      rep : Expr.t option;
    }
  | Mark_first of {
      child : t;
      keys : Attr.t list;
      among : Expr.t option;
      flag : Attr.t;
    }
  | Distinct of t
  | Set_op of {
      kind : set_kind;
      all : bool;
      left : t;
      right : t;
      attrs : Attr.t list;
    }
  | Sort of { child : t; keys : (Expr.t * sort_dir) list }
  | Limit of { child : t; limit : int option; offset : int }
  | Prov of { child : t; semantics : prov_semantics; sources : prov_source list }
  | Baserel of { child : t; rel_name : string }
  | External of { child : t; ext_attrs : Attr.t list }

let rec schema = function
  | Scan { attrs; _ } | Index_scan { attrs; _ } | Values { attrs; _ }
  | Set_op { attrs; _ } ->
    attrs
  | Project { cols; _ } -> List.map snd cols
  | Filter { child; _ } | Distinct child | Sort { child; _ } | Limit { child; _ }
    ->
    schema child
  | Prov { child; sources; _ } ->
    schema child @ List.map (fun s -> s.prov_attr) sources
  | Baserel { child; _ } | External { child; _ } -> schema child
  | Join { kind = Semi | Anti; left; _ } -> schema left
  | Join { left; right; _ } -> schema left @ schema right
  | Apply { kind; left; right } -> (
    match kind with
    | A_cross | A_outer -> schema left @ schema right
    | A_scalar a -> schema left @ [ a ]
    | A_semi | A_anti -> schema left)
  | Aggregate { group_by; aggs; _ } ->
    List.map snd group_by @ List.map (fun c -> c.agg_out) aggs
  | Group_annotate { child; group_by; aggs; _ } ->
    List.map snd group_by @ List.map (fun c -> c.agg_out) aggs @ schema child
  | Mark_first { child; flag; _ } -> schema child @ [ flag ]

let arity t = List.length (schema t)

let attr_types_compatible a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Attr.t) (y : Attr.t) -> Dtype.unify x.ty y.ty <> None)
       a b

let identity_project t = List.map (fun a -> (Expr.Attr a, a)) (schema t)

let children = function
  | Scan _ | Index_scan _ | Values _ -> []
  | Project { child; _ }
  | Filter { child; _ }
  | Distinct child
  | Sort { child; _ }
  | Limit { child; _ }
  | Aggregate { child; _ }
  | Group_annotate { child; _ }
  | Mark_first { child; _ }
  | Prov { child; _ }
  | Baserel { child; _ }
  | External { child; _ } ->
    [ child ]
  | Join { left; right; _ } | Apply { left; right; _ } | Set_op { left; right; _ }
    ->
    [ left; right ]

(* The node itself when [f] returns every child physically unchanged, so
   a pass that rewrites nothing allocates nothing. A binary node maps its
   right child first, the order the record update this replaced evaluated
   them in: the rewriter's [f] mints attribute ids and records its
   choices as it goes. *)
let map_children f t =
  match t with
  | Scan _ | Index_scan _ | Values _ -> t
  | Project r ->
    let c = f r.child in
    if c == r.child then t else Project { r with child = c }
  | Filter r ->
    let c = f r.child in
    if c == r.child then t else Filter { r with child = c }
  | Distinct child ->
    let c = f child in
    if c == child then t else Distinct c
  | Sort r ->
    let c = f r.child in
    if c == r.child then t else Sort { r with child = c }
  | Limit r ->
    let c = f r.child in
    if c == r.child then t else Limit { r with child = c }
  | Aggregate r ->
    let c = f r.child in
    if c == r.child then t else Aggregate { r with child = c }
  | Group_annotate r ->
    let c = f r.child in
    if c == r.child then t else Group_annotate { r with child = c }
  | Mark_first r ->
    let c = f r.child in
    if c == r.child then t else Mark_first { r with child = c }
  | Join r ->
    let rt = f r.right in
    let l = f r.left in
    if l == r.left && rt == r.right then t else Join { r with left = l; right = rt }
  | Apply r ->
    let rt = f r.right in
    let l = f r.left in
    if l == r.left && rt == r.right then t else Apply { r with left = l; right = rt }
  | Set_op r ->
    let rt = f r.right in
    let l = f r.left in
    if l == r.left && rt == r.right then t else Set_op { r with left = l; right = rt }
  | Prov r ->
    let c = f r.child in
    if c == r.child then t else Prov { r with child = c }
  | Baserel r ->
    let c = f r.child in
    if c == r.child then t else Baserel { r with child = c }
  | External r ->
    let c = f r.child in
    if c == r.child then t else External { r with child = c }

let join_kind_name = function
  | Inner -> "Join"
  | Left -> "LeftJoin"
  | Right -> "RightJoin"
  | Full -> "FullJoin"
  | Cross -> "CrossJoin"
  | Semi -> "SemiJoin"
  | Anti -> "AntiJoin"

let apply_kind_name = function
  | A_cross -> "ApplyCross"
  | A_outer -> "ApplyOuter"
  | A_scalar _ -> "ApplyScalar"
  | A_semi -> "ApplySemi"
  | A_anti -> "ApplyAnti"

let operator_name = function
  | Scan { table; _ } -> Printf.sprintf "Scan(%s)" table
  | Index_scan { table; _ } -> Printf.sprintf "IndexScan(%s)" table
  | Values { rows; _ } -> Printf.sprintf "Values(%d rows)" (List.length rows)
  | Project _ -> "Project"
  | Filter _ -> "Select"  (* σ: displayed with the algebra's name, not SQL's *)
  | Join { kind; _ } -> join_kind_name kind
  | Apply { kind; _ } -> apply_kind_name kind
  | Aggregate _ -> "Aggregate"
  | Group_annotate _ -> "GroupAnnotate"
  | Mark_first _ -> "MarkFirst"
  | Distinct _ -> "Distinct"
  | Set_op { kind; all; _ } ->
    let base =
      match kind with
      | Union -> "Union"
      | Intersect -> "Intersect"
      | Except -> "Except"
    in
    if all then base ^ "All" else base
  | Sort _ -> "Sort"
  | Limit _ -> "Limit"
  | Prov { semantics; _ } ->
    let sem =
      match semantics with
      | Influence -> "influence"
      | Copy_partial -> "copy"
      | Copy_complete -> "copy complete"
    in
    Printf.sprintf "Provenance(%s)" sem
  | Baserel { rel_name; _ } -> Printf.sprintf "BaseRelation(%s)" rel_name
  | External _ -> "ExternalProvenance"

let operator_kind = function
  | Scan _ | Index_scan _ -> "scan"
  | Values _ -> "values"
  | Project _ -> "project"
  | Filter _ -> "filter"
  | Join _ -> "join"
  | Apply _ -> "apply"
  | Aggregate _ | Group_annotate _ -> "aggregate"
  | Distinct _ | Mark_first _ -> "distinct"
  | Set_op _ -> "set_op"
  | Sort _ -> "sort"
  | Limit _ -> "limit"
  | Prov _ -> "prov"
  | Baserel _ -> "baserel"
  | External _ -> "external"

let rec count_operators t =
  1 + List.fold_left (fun acc c -> acc + count_operators c) 0 (children t)
