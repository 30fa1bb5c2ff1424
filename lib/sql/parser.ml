module Value = Perm_value.Value
module Dtype = Perm_value.Dtype

type error = { message : string; pos : int }

exception Parse_error of error

type state = { tokens : Token.located array; mutable pos : int }

let fail st message =
  let pos =
    if st.pos < Array.length st.tokens then st.tokens.(st.pos).Token.pos else 0
  in
  raise (Parse_error { message; pos })

let peek st = st.tokens.(st.pos).Token.token

let peek_ahead st n =
  let i = st.pos + n in
  if i < Array.length st.tokens then st.tokens.(i).Token.token else Token.Eof

let advance st = st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

(* Keywords that terminate an expression/alias position; a bare identifier in
   alias position must not be one of these. *)
let reserved =
  [
    "select"; "from"; "where"; "group"; "having"; "order"; "limit"; "offset";
    "union"; "intersect"; "except"; "on"; "join"; "inner"; "left"; "right";
    "full"; "cross"; "outer"; "and"; "or"; "not"; "as"; "by"; "asc"; "desc";
    "in"; "is"; "null"; "like"; "between"; "exists"; "case"; "when"; "then";
    "else"; "end"; "distinct"; "all"; "into"; "values"; "set"; "using";
    "natural";
  ]
(* [provenance] and [baserelation] are context-sensitive SQL-PLE keywords:
   they stay valid column names and aliases in plain SQL positions. *)

(* The same words as [reserved], as one string match: the parser asks
   about every bare identifier it meets, several times per statement. *)
let is_reserved = function
  | "select" | "from" | "where" | "group" | "having" | "order" | "limit"
  | "offset" | "union" | "intersect" | "except" | "on" | "join" | "inner"
  | "left" | "right" | "full" | "cross" | "outer" | "and" | "or" | "not"
  | "as" | "by" | "asc" | "desc" | "in" | "is" | "null" | "like" | "between"
  | "exists" | "case" | "when" | "then" | "else" | "end" | "distinct" | "all"
  | "into" | "values" | "set" | "using" | "natural" ->
    true
  | _ -> false

let expect st tok what =
  if Token.equal (peek st) tok then advance st
  else
    fail st
      (Printf.sprintf "expected %s but found %s" what
         (Token.to_string (peek st)))

let accept st tok =
  if Token.equal (peek st) tok then begin
    advance st;
    true
  end
  else false

(* Keyword helpers: keywords arrive as lower-cased Ident tokens. *)
let accept_kw st kw =
  match peek st with
  | Token.Ident s when String.equal s kw ->
    advance st;
    true
  | _ -> false

let expect_kw st kw =
  if not (accept_kw st kw) then
    fail st
      (Printf.sprintf "expected keyword %s but found %s"
         (String.uppercase_ascii kw)
         (Token.to_string (peek st)))

let is_kw st kw =
  match peek st with Token.Ident s -> String.equal s kw | _ -> false

let is_kw_ahead st n kw =
  match peek_ahead st n with
  | Token.Ident s -> String.equal s kw
  | _ -> false

let parse_ident st what =
  match next st with
  | Token.Ident s -> s
  | Token.Quoted_ident s -> String.lowercase_ascii s
  | t ->
    fail st
      (Printf.sprintf "expected %s but found %s" what (Token.to_string t))

let parse_name st what =
  let name = parse_ident st what in
  if is_reserved name then
    fail st (Printf.sprintf "reserved word %S cannot be used as %s" name what)
  else name

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let agg_of_name = function
  | "count" -> Some Ast.Count
  | "sum" -> Some Ast.Sum
  | "avg" -> Some Ast.Avg
  | "min" -> Some Ast.Min
  | "max" -> Some Ast.Max
  | "bool_and" -> Some Ast.Bool_and
  | "bool_or" -> Some Ast.Bool_or
  | _ -> None

let rec parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  if accept_kw st "or" then Ast.Binop (Ast.Or, left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if accept_kw st "and" then Ast.Binop (Ast.And, left, parse_and st) else left

and parse_not st =
  if accept_kw st "not" then Ast.Unop (Ast.Not, parse_not st)
  else parse_comparison st

and parse_comparison st =
  let left = parse_additive st in
  let negated = accept_kw st "not" in
  match peek st with
  | Token.Eq ->
    advance st;
    let e = Ast.Binop (Ast.Eq, left, parse_additive st) in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Neq ->
    advance st;
    let e = Ast.Binop (Ast.Neq, left, parse_additive st) in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Lt ->
    advance st;
    let e = Ast.Binop (Ast.Lt, left, parse_additive st) in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Leq ->
    advance st;
    let e = Ast.Binop (Ast.Leq, left, parse_additive st) in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Gt ->
    advance st;
    let e = Ast.Binop (Ast.Gt, left, parse_additive st) in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Geq ->
    advance st;
    let e = Ast.Binop (Ast.Geq, left, parse_additive st) in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Ident "is" ->
    advance st;
    let neg2 = accept_kw st "not" in
    expect_kw st "null";
    let e = Ast.Is_null { negated = neg2; arg = left } in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Ident "like" ->
    advance st;
    let e = Ast.Binop (Ast.Like, left, parse_additive st) in
    if negated then Ast.Unop (Ast.Not, e) else e
  | Token.Ident "between" ->
    advance st;
    let low = parse_additive st in
    expect_kw st "and";
    let high = parse_additive st in
    Ast.Between { negated; arg = left; low; high }
  | Token.Ident "in" ->
    advance st;
    expect st Token.Lparen "'(' after IN";
    if is_kw st "select" then begin
      let q = parse_query_inner st in
      expect st Token.Rparen "')' closing IN subquery";
      Ast.In_query { negated; arg = left; subquery = q }
    end
    else begin
      let candidates = parse_expr_list st in
      expect st Token.Rparen "')' closing IN list";
      Ast.In_list { negated; arg = left; candidates }
    end
  | _ ->
    if negated then fail st "expected comparison after NOT";
    left

and parse_additive st =
  let rec go left =
    match peek st with
    | Token.Plus ->
      advance st;
      go (Ast.Binop (Ast.Add, left, parse_multiplicative st))
    | Token.Minus ->
      advance st;
      go (Ast.Binop (Ast.Sub, left, parse_multiplicative st))
    | Token.Concat ->
      advance st;
      go (Ast.Binop (Ast.Concat, left, parse_multiplicative st))
    | _ -> left
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go left =
    match peek st with
    | Token.Star ->
      advance st;
      go (Ast.Binop (Ast.Mul, left, parse_unary st))
    | Token.Slash ->
      advance st;
      go (Ast.Binop (Ast.Div, left, parse_unary st))
    | Token.Percent ->
      advance st;
      go (Ast.Binop (Ast.Mod, left, parse_unary st))
    | _ -> left
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.Minus ->
    advance st;
    Ast.Unop (Ast.Neg, parse_unary st)
  | Token.Plus ->
    advance st;
    parse_unary st
  | _ -> parse_atom st

and parse_atom st =
  match peek st with
  | Token.Int_lit i ->
    advance st;
    Ast.Lit (Value.Int i)
  | Token.Float_lit f ->
    advance st;
    Ast.Lit (Value.Float f)
  | Token.String_lit s ->
    advance st;
    Ast.Lit (Value.Text s)
  | Token.Param n ->
    advance st;
    Ast.Param n
  | Token.Lparen ->
    advance st;
    if is_kw st "select" then begin
      let q = parse_query_inner st in
      expect st Token.Rparen "')' closing scalar subquery";
      Ast.Scalar_subquery q
    end
    else begin
      let e = parse_expr st in
      expect st Token.Rparen "')' closing parenthesised expression";
      e
    end
  | Token.Ident "null" ->
    advance st;
    Ast.Lit Value.Null
  | Token.Ident "true" ->
    advance st;
    Ast.Lit (Value.Bool true)
  | Token.Ident "false" ->
    advance st;
    Ast.Lit (Value.Bool false)
  | Token.Ident "date" when (match peek_ahead st 1 with Token.String_lit _ -> true | _ -> false) ->
    advance st;
    (match next st with
    | Token.String_lit s -> (
      match Value.date_of_string s with
      | Ok v -> Ast.Lit v
      | Error msg -> fail st msg)
    | _ -> assert false)
  | Token.Ident "exists" ->
    advance st;
    expect st Token.Lparen "'(' after EXISTS";
    let q = parse_query_inner st in
    expect st Token.Rparen "')' closing EXISTS subquery";
    Ast.Exists { negated = false; subquery = q }
  | Token.Ident "case" -> parse_case st
  | Token.Ident "cast" ->
    advance st;
    expect st Token.Lparen "'(' after CAST";
    let e = parse_expr st in
    expect_kw st "as";
    let ty_name = parse_ident st "type name" in
    let ty =
      match Dtype.of_string ty_name with
      | Some ty -> ty
      | None -> fail st (Printf.sprintf "unknown type %S in CAST" ty_name)
    in
    expect st Token.Rparen "')' closing CAST";
    Ast.Cast (e, ty)
  | Token.Ident name when not (is_reserved name) -> parse_ident_expr st name
  | t ->
    fail st (Printf.sprintf "unexpected token %s in expression" (Token.to_string t))

and parse_ident_expr st name =
  advance st;
  match peek st with
  | Token.Lparen -> begin
    advance st;
    match agg_of_name name with
    | Some func ->
      if accept st Token.Star then begin
        if func <> Ast.Count then
          fail st "only COUNT may take * as its argument";
        expect st Token.Rparen "')' closing COUNT(*)";
        Ast.Agg { func; distinct = false; arg = None }
      end
      else begin
        let distinct = accept_kw st "distinct" in
        let arg = parse_expr st in
        expect st Token.Rparen "')' closing aggregate";
        Ast.Agg { func; distinct; arg = Some arg }
      end
    | None ->
      let args = if is_kw st "" then [] else parse_func_args st in
      expect st Token.Rparen "')' closing function call";
      Ast.Func (name, args)
  end
  | Token.Dot ->
    advance st;
    let col = parse_ident st "column name after '.'" in
    Ast.Ref (Some name, col)
  | _ -> Ast.Ref (None, name)

and parse_func_args st =
  if Token.equal (peek st) Token.Rparen then [] else parse_expr_list st

and parse_case st =
  expect_kw st "case";
  let operand =
    if is_kw st "when" || is_kw st "else" || is_kw st "end" then None
    else Some (parse_expr st)
  in
  let rec branches acc =
    if accept_kw st "when" then begin
      let cond = parse_expr st in
      expect_kw st "then";
      let result = parse_expr st in
      branches ((cond, result) :: acc)
    end
    else List.rev acc
  in
  let branches = branches [] in
  if branches = [] then fail st "CASE requires at least one WHEN branch";
  let else_ = if accept_kw st "else" then Some (parse_expr st) else None in
  expect_kw st "end";
  Ast.Case { operand; branches; else_ }

and parse_expr_list st =
  let first = parse_expr st in
  let rec go acc =
    if accept st Token.Comma then go (parse_expr st :: acc) else List.rev acc
  in
  go [ first ]

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

and parse_query_inner st =
  let body = parse_set_expr st in
  let order_by =
    if is_kw st "order" then begin
      expect_kw st "order";
      expect_kw st "by";
      let parse_key () =
        let e = parse_expr st in
        let dir =
          if accept_kw st "desc" then Ast.Desc
          else begin
            ignore (accept_kw st "asc");
            Ast.Asc
          end
        in
        (e, dir)
      in
      let first = parse_key () in
      let rec go acc =
        if accept st Token.Comma then go (parse_key () :: acc)
        else List.rev acc
      in
      go [ first ]
    end
    else []
  in
  let parse_count what =
    match next st with
    | Token.Int_lit i when i >= 0 -> i
    | t ->
      fail st
        (Printf.sprintf "expected a non-negative integer after %s, found %s"
           what (Token.to_string t))
  in
  (* LIMIT and OFFSET accepted in either order, as in PostgreSQL. *)
  let limit = ref None and offset = ref None in
  let rec tail () =
    if accept_kw st "limit" then begin
      limit := Some (parse_count "LIMIT");
      tail ()
    end
    else if accept_kw st "offset" then begin
      offset := Some (parse_count "OFFSET");
      tail ()
    end
  in
  tail ();
  { Ast.body; order_by; limit = !limit; offset = !offset }

(* Set operations: INTERSECT binds tighter than UNION/EXCEPT. *)
and parse_set_expr st =
  let left = parse_intersect st in
  let rec go left =
    let kind =
      if is_kw st "union" then Some Ast.Union
      else if is_kw st "except" then Some Ast.Except
      else None
    in
    match kind with
    | None -> left
    | Some kind ->
      advance st;
      let all = accept_kw st "all" in
      ignore (accept_kw st "distinct");
      let right = parse_intersect st in
      go
        (Ast.Set_op
           {
             kind;
             all;
             left = Ast.simple_query left;
             right = Ast.simple_query right;
           })
  in
  go left

and parse_intersect st =
  let left = parse_query_primary st in
  let rec go left =
    if is_kw st "intersect" then begin
      advance st;
      let all = accept_kw st "all" in
      ignore (accept_kw st "distinct");
      let right = parse_query_primary st in
      go
        (Ast.Set_op
           {
             kind = Ast.Intersect;
             all;
             left = Ast.simple_query left;
             right = Ast.simple_query right;
           })
    end
    else left
  in
  go left

and parse_query_primary st =
  if accept st Token.Lparen then begin
    let q = parse_query_inner st in
    expect st Token.Rparen "')' closing parenthesised query";
    q.Ast.body
  end
  else Ast.Select (parse_select st)

and parse_select st =
  expect_kw st "select";
  let provenance =
    if
      is_kw st "provenance"
      (* disambiguate the marker from a column named provenance: the marker
         is followed by another select item, never by , or FROM *)
      && not (Token.equal (peek_ahead st 1) Token.Comma)
      && not (is_kw_ahead st 1 "from")
    then begin
      advance st;
      if accept_kw st "on" then begin
        expect_kw st "contribution";
        expect st Token.Lparen "'(' after ON CONTRIBUTION";
        let c =
          if accept_kw st "influence" then Ast.Influence
          else if accept_kw st "copy" then
            if accept_kw st "complete" then Ast.Copy_complete
            else begin
              ignore (accept_kw st "partial");
              Ast.Copy_partial
            end
          else
            fail st "expected INFLUENCE or COPY in ON CONTRIBUTION (...)"
        in
        expect st Token.Rparen "')' closing ON CONTRIBUTION";
        Some c
      end
      else Some Ast.Influence
    end
    else None
  in
  let distinct =
    if accept_kw st "distinct" then true
    else begin
      ignore (accept_kw st "all");
      false
    end
  in
  let items = parse_select_items st in
  let from =
    if accept_kw st "from" then begin
      let first = parse_from_item st in
      let rec go acc =
        if accept st Token.Comma then go (parse_from_item st :: acc)
        else List.rev acc
      in
      go [ first ]
    end
    else []
  in
  let where = if accept_kw st "where" then Some (parse_expr st) else None in
  let group_by =
    if is_kw st "group" then begin
      expect_kw st "group";
      expect_kw st "by";
      parse_expr_list st
    end
    else []
  in
  let having = if accept_kw st "having" then Some (parse_expr st) else None in
  { Ast.provenance; distinct; items; from; where; group_by; having }

and parse_select_items st =
  let parse_item () =
    if accept st Token.Star then Ast.Star
    else
      match peek st, peek_ahead st 1, peek_ahead st 2 with
      | Token.Ident t, Token.Dot, Token.Star when not (is_reserved t) ->
        advance st;
        advance st;
        advance st;
        Ast.Table_star t
      | _ ->
        let e = parse_expr st in
        let alias =
          if accept_kw st "as" then Some (parse_ident st "alias after AS")
          else
            match peek st with
            | Token.Ident a when not (is_reserved a) ->
              advance st;
              Some a
            | Token.Quoted_ident a ->
              advance st;
              Some (String.lowercase_ascii a)
            | _ -> None
        in
        Ast.Sel_expr (e, alias)
  in
  let first = parse_item () in
  let rec go acc =
    if accept st Token.Comma then go (parse_item () :: acc) else List.rev acc
  in
  go [ first ]

(* ------------------------------------------------------------------ *)
(* FROM items with SQL-PLE modifiers                                   *)
(* ------------------------------------------------------------------ *)

and parse_from_item st =
  let rec joins left =
    let kind =
      if is_kw st "join" || is_kw st "inner" then begin
        ignore (accept_kw st "inner");
        expect_kw st "join";
        Some Ast.Inner
      end
      else if is_kw st "left" then begin
        advance st;
        ignore (accept_kw st "outer");
        expect_kw st "join";
        Some Ast.Left
      end
      else if is_kw st "right" then begin
        advance st;
        ignore (accept_kw st "outer");
        expect_kw st "join";
        Some Ast.Right
      end
      else if is_kw st "full" then begin
        advance st;
        ignore (accept_kw st "outer");
        expect_kw st "join";
        Some Ast.Full
      end
      else if is_kw st "cross" then begin
        advance st;
        expect_kw st "join";
        Some Ast.Cross
      end
      else None
    in
    match kind with
    | None -> left
    | Some kind ->
      let right = parse_from_primary st in
      let cond =
        if kind = Ast.Cross then None
        else begin
          expect_kw st "on";
          Some (parse_expr st)
        end
      in
      joins
        (Ast.plain_from (Ast.From_join { kind; left; right; cond }))
  in
  joins (parse_from_primary st)

and parse_from_primary st =
  let source =
    if accept st Token.Lparen then begin
      let q = parse_query_inner st in
      expect st Token.Rparen "')' closing subquery in FROM";
      Ast.From_subquery q
    end
    else Ast.From_table (parse_name st "table name in FROM")
  in
  let alias =
    if accept_kw st "as" then Some (parse_ident st "alias after AS")
    else
      match peek st with
      (* a bare alias must not swallow the SQL-PLE FROM-item modifiers *)
      | Token.Ident "baserelation" -> None
      | Token.Ident "provenance" when Token.equal (peek_ahead st 1) Token.Lparen ->
        None
      | Token.Ident a when not (is_reserved a) ->
        advance st;
        Some a
      | Token.Quoted_ident a ->
        advance st;
        Some (String.lowercase_ascii a)
      | _ -> None
  in
  (* SQL-PLE modifiers, in either order *)
  let baserelation = ref false and prov_attrs = ref None in
  let rec mods () =
    if accept_kw st "baserelation" then begin
      baserelation := true;
      mods ()
    end
    else if is_kw st "provenance" && Token.equal (peek_ahead st 1) Token.Lparen
    then begin
      advance st;
      advance st;
      let first = parse_ident st "provenance attribute name" in
      let rec go acc =
        if accept st Token.Comma then
          go (parse_ident st "provenance attribute name" :: acc)
        else List.rev acc
      in
      let attrs = go [ first ] in
      expect st Token.Rparen "')' closing PROVENANCE attribute list";
      prov_attrs := Some attrs;
      mods ()
    end
  in
  mods ();
  { Ast.source; alias; baserelation = !baserelation; prov_attrs = !prov_attrs }

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let parse_column_defs st =
  expect st Token.Lparen "'(' starting column definitions";
  let parse_col () =
    let name = parse_name st "column name" in
    let ty_name = parse_ident st "column type" in
    match Dtype.of_string ty_name with
    | Some ty -> (name, ty)
    | None -> fail st (Printf.sprintf "unknown column type %S" ty_name)
  in
  let first = parse_col () in
  let rec go acc =
    if accept st Token.Comma then go (parse_col () :: acc) else List.rev acc
  in
  let cols = go [ first ] in
  expect st Token.Rparen "')' closing column definitions";
  cols

let parse_statement_inner st =
  if is_kw st "select" || Token.equal (peek st) Token.Lparen then
    Ast.St_query (parse_query_inner st)
  else if accept_kw st "create" then
    if accept_kw st "table" then begin
      let name = parse_name st "table name" in
      if accept_kw st "as" then Ast.St_create_table_as (name, parse_query_inner st)
      else Ast.St_create_table (name, parse_column_defs st)
    end
    else if accept_kw st "view" then begin
      let name = parse_name st "view name" in
      expect_kw st "as";
      Ast.St_create_view (name, parse_query_inner st)
    end
    else if accept_kw st "index" then begin
      let index = parse_name st "index name" in
      expect_kw st "on";
      let table = parse_name st "table name" in
      expect st Token.Lparen "'(' before the indexed column";
      let column = parse_name st "column name" in
      expect st Token.Rparen "')' after the indexed column";
      Ast.St_create_index { index; table; column }
    end
    else fail st "expected TABLE, VIEW or INDEX after CREATE"
  else if accept_kw st "drop" then
    if accept_kw st "table" then Ast.St_drop_table (parse_name st "table name")
    else if accept_kw st "view" then Ast.St_drop_view (parse_name st "view name")
    else if accept_kw st "index" then Ast.St_drop_index (parse_name st "index name")
    else fail st "expected TABLE, VIEW or INDEX after DROP"
  else if accept_kw st "insert" then begin
    expect_kw st "into";
    let name = parse_name st "table name" in
    if accept_kw st "values" then begin
      let parse_row () =
        expect st Token.Lparen "'(' starting a VALUES row";
        let row = parse_expr_list st in
        expect st Token.Rparen "')' closing a VALUES row";
        row
      in
      let first = parse_row () in
      let rec go acc =
        if accept st Token.Comma then go (parse_row () :: acc)
        else List.rev acc
      in
      Ast.St_insert_values (name, go [ first ])
    end
    else Ast.St_insert_select (name, parse_query_inner st)
  end
  else if accept_kw st "delete" then begin
    expect_kw st "from";
    let name = parse_name st "table name" in
    let where = if accept_kw st "where" then Some (parse_expr st) else None in
    Ast.St_delete (name, where)
  end
  else if accept_kw st "update" then begin
    let name = parse_name st "table name" in
    expect_kw st "set";
    let parse_assign () =
      let col = parse_name st "column name" in
      expect st Token.Eq "'=' in SET assignment";
      (col, parse_expr st)
    in
    let first = parse_assign () in
    let rec go acc =
      if accept st Token.Comma then go (parse_assign () :: acc)
      else List.rev acc
    in
    let assigns = go [ first ] in
    let where = if accept_kw st "where" then Some (parse_expr st) else None in
    Ast.St_update (name, assigns, where)
  end
  else if accept_kw st "store" then begin
    expect_kw st "provenance";
    let q = parse_query_inner st in
    expect_kw st "into";
    Ast.St_store_provenance (q, parse_name st "table name")
  end
  else if accept_kw st "explain" then
    if accept_kw st "analyze" then Ast.St_explain_analyze (parse_query_inner st)
    else Ast.St_explain (parse_query_inner st)
  else if accept_kw st "begin" then begin
    ignore (accept_kw st "transaction");
    Ast.St_begin
  end
  else if accept_kw st "start" then begin
    expect_kw st "transaction";
    Ast.St_begin
  end
  else if accept_kw st "commit" then Ast.St_commit
  else if accept_kw st "rollback" then Ast.St_rollback
  else if accept_kw st "copy" then begin
    let name = parse_name st "table name" in
    let direction =
      if accept_kw st "from" then `From
      else if accept_kw st "to" then `To
      else fail st "expected FROM or TO after COPY <table>"
    in
    let path =
      match next st with
      | Token.String_lit s -> s
      | t ->
        fail st
          (Printf.sprintf "expected a quoted file path, found %s"
             (Token.to_string t))
    in
    match direction with
    | `From -> Ast.St_copy_from (name, path)
    | `To -> Ast.St_copy_to (name, path)
  end
  else
    fail st
      (Printf.sprintf "expected a statement, found %s"
         (Token.to_string (peek st)))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let on_tokens tokens f =
  let st = { tokens = Array.of_list tokens; pos = 0 } in
  try Ok (f st) with Parse_error e -> Error e

let with_tokens input f =
  match Lexer.tokenize input with
  | Error { Lexer.message; pos } -> Error { message; pos }
  | Ok tokens -> on_tokens tokens f

(* [inner], then at most one semicolon, then the end of the input. *)
let whole inner st =
  let x = inner st in
  ignore (accept st Token.Semicolon);
  if not (Token.equal (peek st) Token.Eof) then
    fail st
      (Printf.sprintf "unexpected trailing input: %s"
         (Token.to_string (peek st)));
  x

let parse_query input = with_tokens input (whole parse_query_inner)
let statement_of_tokens tokens = on_tokens tokens (whole parse_statement_inner)
let parse_statement input = with_tokens input (whole parse_statement_inner)

let parse_script input =
  with_tokens input (fun st ->
      let rec go acc =
        if Token.equal (peek st) Token.Eof then List.rev acc
        else if accept st Token.Semicolon then go acc
        else begin
          let s = parse_statement_inner st in
          if
            not
              (Token.equal (peek st) Token.Semicolon
              || Token.equal (peek st) Token.Eof)
          then
            fail st
              (Printf.sprintf "expected ';' between statements, found %s"
                 (Token.to_string (peek st)));
          go (s :: acc)
        end
      in
      go [])

let error_to_string ~input { message; pos } =
  Printf.sprintf "syntax error at %s: %s"
    (Lexer.describe_position input pos)
    message
