module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Dtype = Perm_value.Dtype

(* ------------------------------------------------------------------ *)
(* Structural plan hashing                                             *)
(* ------------------------------------------------------------------ *)

(* A stable digest of the compiled plan's *shape*: operator tree, table
   names, expression structure, attribute names and types — but not
   attribute ids (gensym'd afresh on every analysis of the same SQL),
   not literal values (two bindings of one parameterized statement share
   a hash, like they share a fingerprint), and not planner estimates
   (the hash may only change when the plan itself changes). The execution
   mode is mixed in so the parallel verdict flipping is itself a plan
   change the regression watchdog can attribute.

   The digest is the MD5 of a byte string written in one pass into one
   buffer: ["mode:<mode>"], then one record per operator in pre-order,
   each record followed by a NUL byte. An attribute is written
   [name@k:type], where [k] renumbers attribute ids from 0 in the order
   they are first met. That order is not the byte order: the hashes
   stored in history and pinned by tests were taken by a writer that
   built each record from nested [^] and [Printf] calls, whose operands
   OCaml evaluates right to left. So within one record, a projection
   column's output attribute is numbered before its expression, a
   binary operator's right operand before its left, an aggregate record
   numbers [rep], then the aggregate calls (output before argument),
   then the group keys (output before expression), and so on. [number]
   below replays that order for a record before [write] emits its bytes;
   a change to either must keep every hash (test_planner pins them). *)

(* Attribute id -> number, open addressing over a power-of-two table. *)
type canon = {
  mutable ids : int array;  (* [empty] marks a free slot *)
  mutable ks : int array;
  mutable next : int;
}

let empty = min_int

let slot c id =
  let mask = Array.length c.ids - 1 in
  let rec probe i =
    let x = c.ids.(i) in
    if x = id || x = empty then i else probe ((i + 1) land mask)
  in
  probe (id * 0x9E3779B1 land mask)

let rec number_attr c (a : Attr.t) =
  let i = slot c a.Attr.id in
  if c.ids.(i) = empty then begin
    if 2 * (c.next + 1) > Array.length c.ids then begin
      let ids = c.ids and ks = c.ks in
      c.ids <- Array.make (2 * Array.length ids) empty;
      c.ks <- Array.make (2 * Array.length ids) 0;
      Array.iteri
        (fun j id ->
          if id <> empty then begin
            let s = slot c id in
            c.ids.(s) <- id;
            c.ks.(s) <- ks.(j)
          end)
        ids;
      number_attr c a
    end
    else begin
      c.ids.(i) <- a.Attr.id;
      c.ks.(i) <- c.next;
      c.next <- c.next + 1
    end
  end

let rec number_expr c (e : Expr.t) =
  match e with
  | Expr.Const _ -> ()
  | Expr.Attr a -> number_attr c a
  | Expr.Binop (_, l, r) ->
    number_expr c r;
    number_expr c l
  | Expr.Unop (_, x) | Expr.Cast (x, _) -> number_expr c x
  | Expr.Case { branches; else_ } ->
    Option.iter (number_expr c) else_;
    List.iter
      (fun (cond, v) ->
        number_expr c v;
        number_expr c cond)
      branches
  | Expr.Func (_, args) -> List.iter (number_expr c) args

let number_opt c = Option.iter (number_expr c)
let number_attrs c = List.iter (number_attr c)

let number_cols c =
  List.iter (fun (e, a) ->
      number_attr c a;
      number_expr c e)

(* One operator's attributes, in the order the old record builder met
   them. *)
let number c (p : Plan.t) =
  match p with
  | Plan.Scan { attrs; _ }
  | Plan.Values { attrs; _ }
  | Plan.Set_op { attrs; _ }
  | Plan.External { ext_attrs = attrs; _ } ->
    number_attrs c attrs
  | Plan.Index_scan { attrs; key; _ } ->
    number_attrs c attrs;
    number_expr c key
  | Plan.Project { cols; _ } -> number_cols c cols
  | Plan.Filter { pred; _ } -> number_expr c pred
  | Plan.Join { pred; _ } -> number_opt c pred
  | Plan.Apply { kind = Plan.A_scalar a; _ } -> number_attr c a
  | Plan.Aggregate { group_by; aggs; _ }
  | Plan.Group_annotate { group_by; aggs; _ } ->
    (match p with
    | Plan.Group_annotate { rep; _ } -> number_opt c rep
    | _ -> ());
    List.iter
      (fun (call : Plan.agg_call) ->
        number_attr c call.Plan.agg_out;
        number_opt c call.Plan.arg)
      aggs;
    number_cols c group_by
  | Plan.Mark_first { keys; among; flag; _ } ->
    number_attr c flag;
    number_opt c among;
    number_attrs c keys
  | Plan.Sort { keys; _ } -> List.iter (fun (e, _) -> number_expr c e) keys
  | Plan.Prov { sources; _ } ->
    List.iter (fun (s : Plan.prov_source) -> number_attr c s.Plan.prov_attr) sources
  | Plan.Apply _ | Plan.Distinct _ | Plan.Limit _ | Plan.Baserel _ -> ()

(* ------------------------------------------------------------------ *)
(* The writer                                                          *)
(* ------------------------------------------------------------------ *)

let str = Buffer.add_string
let chr = Buffer.add_char

let rec add_int buf n =
  if n < 0 then str buf (string_of_int n)
  else begin
    if n >= 10 then add_int buf (n / 10);
    chr buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let write_attr c buf (a : Attr.t) =
  str buf a.Attr.name;
  chr buf '@';
  add_int buf c.ks.(slot c a.Attr.id);
  chr buf ':';
  str buf (Dtype.to_string a.Attr.ty)

(* [x1 sep x2 sep ...] *)
let sep_list buf sep f = function
  | [] -> ()
  | x :: rest ->
    f x;
    List.iter
      (fun x ->
        chr buf sep;
        f x)
      rest

let write_attrs c buf = sep_list buf ',' (write_attr c buf)

let rec write_expr c buf (e : Expr.t) =
  match e with
  | Expr.Const _ -> chr buf '?'
  | Expr.Attr a -> write_attr c buf a
  | Expr.Binop (op, l, r) ->
    chr buf '(';
    write_expr c buf l;
    chr buf ' ';
    str buf (Expr.binop_name op);
    chr buf ' ';
    write_expr c buf r;
    chr buf ')'
  | Expr.Unop (op, x) ->
    str buf
      (match op with
      | Expr.Not -> "not("
      | Expr.Neg -> "neg("
      | Expr.Is_null -> "isnull(");
    write_expr c buf x;
    chr buf ')'
  | Expr.Case { branches; else_ } ->
    str buf "case(";
    sep_list buf ';'
      (fun (cond, v) ->
        write_expr c buf cond;
        chr buf '>';
        write_expr c buf v)
      branches;
    Option.iter
      (fun e ->
        str buf ";else:";
        write_expr c buf e)
      else_;
    chr buf ')'
  | Expr.Cast (x, ty) ->
    str buf "cast(";
    write_expr c buf x;
    chr buf ':';
    str buf (Dtype.to_string ty);
    chr buf ')'
  | Expr.Func (f, args) ->
    str buf f;
    chr buf '(';
    sep_list buf ',' (write_expr c buf) args;
    chr buf ')'

let write_opt c buf = Option.iter (write_expr c buf)

let write_cols c buf =
  sep_list buf ','
    (fun (e, a) ->
      write_expr c buf e;
      chr buf '>';
      write_attr c buf a)

let agg_name = function Plan.Count_star -> "count*" | agg -> Plan.agg_name agg

(* One operator's record, without its NUL terminator. *)
let write c buf (p : Plan.t) =
  match p with
  | Plan.Scan { table; attrs } ->
    str buf "scan:";
    str buf table;
    chr buf ':';
    write_attrs c buf attrs
  | Plan.Index_scan { table; attrs; key_col; key } ->
    str buf "iscan:";
    str buf table;
    chr buf ':';
    add_int buf key_col;
    chr buf ':';
    write_expr c buf key;
    chr buf ':';
    write_attrs c buf attrs
  | Plan.Values { attrs; rows = _ } ->
    (* row count and row contents are literal-derived: arity only *)
    str buf "values:";
    write_attrs c buf attrs
  | Plan.Project { cols; _ } ->
    str buf "project:";
    write_cols c buf cols
  | Plan.Filter { pred; _ } ->
    str buf "filter:";
    write_expr c buf pred
  | Plan.Join { kind; pred; _ } ->
    str buf "join:";
    str buf (Plan.join_kind_name kind);
    chr buf ':';
    write_opt c buf pred
  | Plan.Apply { kind; _ } -> (
    str buf "apply:";
    str buf (Plan.apply_kind_name kind);
    match kind with
    | Plan.A_scalar a ->
      chr buf ':';
      write_attr c buf a
    | _ -> ())
  | Plan.Aggregate { group_by; aggs; _ }
  | Plan.Group_annotate { group_by; aggs; _ } -> (
    str buf (match p with Plan.Aggregate _ -> "agg:" | _ -> "gannot:");
    write_cols c buf group_by;
    chr buf ':';
    sep_list buf ','
      (fun (call : Plan.agg_call) ->
        str buf (agg_name call.Plan.agg);
        if call.Plan.distinct then str buf ":distinct";
        chr buf '(';
        write_opt c buf call.Plan.arg;
        str buf ")>";
        write_attr c buf call.Plan.agg_out)
      aggs;
    match p with
    | Plan.Group_annotate { rep = Some e; _ } ->
      str buf ":rep:";
      write_expr c buf e
    | _ -> ())
  | Plan.Mark_first { keys; among; flag; _ } ->
    str buf "markfirst:";
    write_attrs c buf keys;
    chr buf ':';
    write_opt c buf among;
    chr buf '>';
    write_attr c buf flag
  | Plan.Distinct _ -> str buf "distinct"
  | Plan.Set_op { kind; all; attrs; _ } ->
    str buf "setop:";
    str buf
      (match kind with
      | Plan.Union -> "union"
      | Plan.Intersect -> "intersect"
      | Plan.Except -> "except");
    str buf (if all then ":all:" else ":distinct:");
    write_attrs c buf attrs
  | Plan.Sort { keys; _ } ->
    str buf "sort:";
    sep_list buf ','
      (fun (e, dir) ->
        write_expr c buf e;
        str buf (match dir with Plan.Asc -> ":asc" | Plan.Desc -> ":desc"))
      keys
  | Plan.Limit { limit; offset; _ } ->
    (* limit/offset magnitudes are literal-derived: presence only *)
    str buf "limit:";
    str buf (match limit with None -> "all" | Some _ -> "n");
    str buf (if offset > 0 then ":ofs" else ":-")
  | Plan.Prov { semantics; sources; _ } ->
    str buf "prov:";
    str buf
      (match semantics with
      | Plan.Influence -> "influence"
      | Plan.Copy_partial -> "copy-partial"
      | Plan.Copy_complete -> "copy-complete");
    chr buf ':';
    sep_list buf ','
      (fun (s : Plan.prov_source) ->
        str buf s.Plan.prov_rel;
        chr buf '.';
        str buf s.Plan.prov_col;
        chr buf '>';
        write_attr c buf s.Plan.prov_attr)
      sources
  | Plan.Baserel { rel_name; _ } ->
    str buf "baserel:";
    str buf rel_name
  | Plan.External { ext_attrs; _ } ->
    str buf "external:";
    write_attrs c buf ext_attrs

let hex = "0123456789abcdef"

let plan_hash ?(mode = "serial") plan =
  let buf = Buffer.create 512 in
  let c = { ids = Array.make 64 empty; ks = Array.make 64 0; next = 0 } in
  str buf "mode:";
  str buf mode;
  chr buf '\x00';
  let rec go p =
    number c p;
    write c buf p;
    chr buf '\x00';
    List.iter go (Plan.children p)
  in
  go plan;
  (* the first 12 hex digits of the digest *)
  let d = Digest.string (Buffer.contents buf) in
  String.init 12 (fun i ->
      let b = Char.code d.[i / 2] in
      hex.[if i land 1 = 0 then b lsr 4 else b land 15])
