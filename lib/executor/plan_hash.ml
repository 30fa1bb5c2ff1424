module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr

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
    | agg -> Plan.agg_name agg
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
