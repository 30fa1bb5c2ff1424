module Value = Perm_value.Value
module Dtype = Perm_value.Dtype

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | And
  | Or
  | Concat
  | Like

type unop = Not | Neg | Is_null

type t =
  | Const of Value.t
  | Attr of Attr.t
  | Binop of binop * t * t
  | Unop of unop * t
  | Case of { branches : (t * t) list; else_ : t option }
  | Cast of t * Dtype.t
  | Func of string * t list

let rec add_attrs e acc =
  match e with
  | Const _ -> acc
  | Attr a -> Attr.Set.add a acc
  | Binop (_, a, b) -> add_attrs b (add_attrs a acc)
  | Unop (_, a) | Cast (a, _) -> add_attrs a acc
  | Case { branches; else_ } ->
    let acc =
      List.fold_left (fun acc (c, r) -> add_attrs r (add_attrs c acc)) acc branches
    in
    (match else_ with Some e -> add_attrs e acc | None -> acc)
  | Func (_, args) -> List.fold_left (fun acc e -> add_attrs e acc) acc args

let attrs e = add_attrs e Attr.Set.empty

(* The expression of the last column in [cols] that outputs [a]. *)
let column_def cols (a : Attr.t) =
  List.fold_left
    (fun found (e, (out : Attr.t)) -> if out.Attr.id = a.Attr.id then Some e else found)
    None cols

(* [e] itself where no attribute of it is a column's output. *)
let rec substitute cols e =
  match e with
  | Const _ -> e
  | Attr a -> ( match column_def cols a with Some e' -> e' | None -> e)
  | Binop (op, a, b) ->
    let b' = substitute cols b in
    let a' = substitute cols a in
    if a' == a && b' == b then e else Binop (op, a', b')
  | Unop (op, a) ->
    let a' = substitute cols a in
    if a' == a then e else Unop (op, a')
  | Case { branches; else_ } ->
    Case
      {
        branches =
          List.map
            (fun (c, r) -> (substitute cols c, substitute cols r))
            branches;
        else_ = Option.map (substitute cols) else_;
      }
  | Cast (a, ty) -> Cast (substitute cols a, ty)
  | Func (name, args) -> Func (name, List.map (substitute cols) args)

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> Const (Value.Bool true)
  | e :: rest -> List.fold_left (fun acc c -> Binop (And, acc, c)) e rest

let rec type_of = function
  | Const v -> Value.type_of v
  | Attr a -> a.Attr.ty
  | Binop (op, a, b) -> (
    match op with
    | Eq | Neq | Lt | Leq | Gt | Geq | And | Or | Like -> Dtype.Bool
    | Concat -> Dtype.Text
    | Mod -> Dtype.Int
    | Add | Sub | Mul | Div -> (
      match type_of a, type_of b with
      | Dtype.Date, Dtype.Date -> Dtype.Int (* date - date = days *)
      | Dtype.Date, _ | _, Dtype.Date -> Dtype.Date (* date +/- days *)
      | ta, tb -> (
        match Dtype.unify ta tb with
        | Some t when Dtype.is_numeric t -> t
        | Some Dtype.Any -> Dtype.Int
        | _ -> Dtype.Float)))
  | Unop (Not, _) | Unop (Is_null, _) -> Dtype.Bool
  | Unop (Neg, a) -> type_of a
  | Case { branches; else_ } ->
    let tys =
      List.map (fun (_, r) -> type_of r) branches
      @ match else_ with Some e -> [ type_of e ] | None -> []
    in
    List.fold_left
      (fun acc ty -> match Dtype.unify acc ty with Some t -> t | None -> acc)
      Dtype.Any tys
  | Cast (_, ty) -> ty
  | Func (name, args) -> (
    match Builtins.find name with
    | Some s -> (
      match s.Builtins.check (List.map type_of args) with
      | Ok ty -> ty
      | Error _ -> Dtype.Any)
    | None -> Dtype.Any)

(* SQL = is three-valued and never matches NaN; a rejoin needs a
   predicate under which a key matches itself: [Value.key_equal] spelled
   in SQL. The NaN arm is only emitted where NaN can occur. *)
let key_eq a b =
  let nulls = Binop (And, Unop (Is_null, a), Unop (Is_null, b)) in
  let same =
    match type_of a, type_of b with
    | Dtype.Float, _ | _, Dtype.Float ->
      Binop (Or, nulls, Binop (And, Binop (Neq, a, a), Binop (Neq, b, b)))
    | _ -> nulls
  in
  Binop (Or, Binop (Eq, a, b), same)

let key_eq_all pairs = conjoin (List.map (fun (a, b) -> key_eq a b) pairs)

let rec equal a b =
  match a, b with
  | Const x, Const y -> Value.equal x y || (Value.is_null x && Value.is_null y)
  | Attr x, Attr y -> Attr.equal x y
  | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | Unop (o1, a1), Unop (o2, a2) -> o1 = o2 && equal a1 a2
  | Case c1, Case c2 ->
    List.length c1.branches = List.length c2.branches
    && List.for_all2
         (fun (x1, y1) (x2, y2) -> equal x1 x2 && equal y1 y2)
         c1.branches c2.branches
    && Option.equal equal c1.else_ c2.else_
  | Cast (e1, t1), Cast (e2, t2) -> Dtype.equal t1 t2 && equal e1 e2
  | Func (n1, a1), Func (n2, a2) ->
    String.equal n1 n2 && List.length a1 = List.length a2 && List.for_all2 equal a1 a2
  | (Const _ | Attr _ | Binop _ | Unop _ | Case _ | Cast _ | Func _), _ -> false

let is_const = function Const _ -> true | _ -> false

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="
  | And -> "AND"
  | Or -> "OR"
  | Concat -> "||"
  | Like -> "LIKE"

let rec pp ppf = function
  | Const v -> Format.pp_print_string ppf (Value.to_sql v)
  | Attr a -> Attr.pp ppf a
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Unop (Not, a) -> Format.fprintf ppf "(NOT %a)" pp a
  | Unop (Neg, a) -> Format.fprintf ppf "(- %a)" pp a
  | Unop (Is_null, a) -> Format.fprintf ppf "(%a IS NULL)" pp a
  | Case { branches; else_ } ->
    Format.fprintf ppf "CASE";
    List.iter
      (fun (c, r) -> Format.fprintf ppf " WHEN %a THEN %a" pp c pp r)
      branches;
    (match else_ with
    | Some e -> Format.fprintf ppf " ELSE %a" pp e
    | None -> ());
    Format.fprintf ppf " END"
  | Cast (e, ty) -> Format.fprintf ppf "CAST(%a AS %s)" pp e (Dtype.to_string ty)
  | Func (name, args) ->
    Format.fprintf ppf "%s(%a)" name
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
      args

let to_string e = Format.asprintf "%a" pp e
