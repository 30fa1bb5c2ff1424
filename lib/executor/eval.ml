(* Expression compilation. [bexpr_of] turns an expression into a closure
   over physical row [p] of batch [b], resolving attributes at compile
   time: a column of the operator's input batch, or an outer accessor an
   enclosing Apply (or a join residual) installs for a row that is not in
   that batch. The filter, projection, key and aggregate paths all
   compile through it, so semantics and error messages are shared by
   construction. *)

module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Builtins = Perm_algebra.Builtins
module Value = Perm_value.Value
module Tristate = Perm_value.Tristate
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch

exception Runtime_error of string

let err msg = raise (Runtime_error msg)
let errf fmt = Printf.ksprintf err fmt

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

(* How an operator's expressions read attributes: a column of its input
   batch, or — for an attribute its input lacks — the [outer] resolver,
   which reads the current row of an enclosing Apply's left side. The
   choice is made at compile time, so plans without Apply pay nothing per
   row for it. *)
type resolver = Attr.t -> (unit -> Value.t) option
type layout = { pos : Attr.t -> int option; outer : resolver }

(* Attribute -> column position over a schema. *)
let positions_of_schema (schema : Attr.t list) : Attr.t -> int option =
  let table = Hashtbl.create 16 in
  List.iteri (fun i (a : Attr.t) -> Hashtbl.replace table a.Attr.id i) schema;
  fun a -> Hashtbl.find_opt table a.Attr.id

let no_outer : resolver = fun _ -> None

let unwrap = function Ok v -> v | Error msg -> err msg

(* [Value.arith], its error a runtime error: no [result] per value *)
let arith op a b =
  match Value.arith op a b with
  | v -> v
  | exception Value.Arith_error msg -> err msg

(* Constant subtrees built from Binop/Unop/Cast over literals: safe to
   evaluate once at compile time. Func is excluded deliberately (builtins
   may grow impure members), as is anything touching a row. *)
let rec is_const_subtree (e : Expr.t) =
  match e with
  | Expr.Const _ -> true
  | Expr.Binop (_, a, b) -> is_const_subtree a && is_const_subtree b
  | Expr.Unop (_, a) | Expr.Cast (a, _) -> is_const_subtree a
  | Expr.Attr _ | Expr.Case _ | Expr.Func _ -> false

(* The batch a row-free evaluation reads nothing from. *)
let no_rows = Batch.dense [||] 0

(* Pre-evaluate a compiled closure whose source expression is constant, so
   predicates like [x > 1 + 1] pay for the constant once per statement, not
   per row. Evaluation errors (e.g. division by zero) keep the dynamic
   closure so they still surface per-row, exactly as before. *)
let constantize (e : Expr.t) (f : Batch.t -> int -> Value.t) =
  if is_const_subtree e then
    match f no_rows 0 with
    | v -> fun _ _ -> v
    | exception Runtime_error _ -> f
  else f

(* The batch expression evaluator: [bexpr_of lay e b p] evaluates [e] over
   physical row [p] of batch [b]. *)
let rec bexpr_of lay (e : Expr.t) : Batch.t -> int -> Value.t =
  match e with
  | Expr.Const v -> fun _ _ -> v
  | Expr.Attr a -> (
    match lay.pos a, lay.outer a with
    | Some i, _ -> fun b p -> (Batch.col b i).(p)
    | None, Some f -> fun _ _ -> f ()
    | None, None ->
      errf "internal: unbound attribute %s#%d" a.Attr.name a.Attr.id)
  | Expr.Binop (op, a, b) -> constantize e (compile_binop lay op a b)
  | Expr.Unop (Expr.Not, a) ->
    let fa = bexpr_of lay a in
    constantize e (fun b p ->
        Tristate.to_value (Tristate.not_ (unwrap (Tristate.of_value (fa b p)))))
  | Expr.Unop (Expr.Neg, a) ->
    let fa = bexpr_of lay a in
    constantize e (fun b p -> unwrap (Value.neg (fa b p)))
  | Expr.Unop (Expr.Is_null, a) ->
    let fa = bexpr_of lay a in
    constantize e (fun b p -> Value.Bool (Value.is_null (fa b p)))
  | Expr.Case { branches; else_ } ->
    let branches =
      List.map (fun (c, r) -> (bexpr_of lay c, bexpr_of lay r)) branches
    in
    let felse =
      match else_ with
      | Some e -> bexpr_of lay e
      | None -> fun _ _ -> Value.Null
    in
    fun b p ->
      let rec go = function
        | [] -> felse b p
        | (fc, fr) :: rest ->
          if Tristate.is_true (unwrap (Tristate.of_value (fc b p))) then fr b p
          else go rest
      in
      go branches
  | Expr.Cast (inner, ty) ->
    let fe = bexpr_of lay inner in
    constantize e (fun b p -> unwrap (Value.cast ty (fe b p)))
  | Expr.Func (name, args) -> (
    match Builtins.find name with
    | None -> errf "unknown function %S" name
    | Some s ->
      let fargs = List.map (bexpr_of lay) args in
      fun b p -> unwrap (s.Builtins.eval (List.map (fun f -> f b p) fargs)))

and compile_binop lay op a b =
  let fa = bexpr_of lay a and fb = bexpr_of lay b in
  match op with
  | Expr.And ->
    fun b p ->
      let va = unwrap (Tristate.of_value (fa b p)) in
      if va = Tristate.False then Value.Bool false
      else
        Tristate.to_value
          Tristate.(va &&& unwrap (Tristate.of_value (fb b p)))
  | Expr.Or ->
    fun b p ->
      let va = unwrap (Tristate.of_value (fa b p)) in
      if va = Tristate.True then Value.Bool true
      else
        Tristate.to_value
          Tristate.(va ||| unwrap (Tristate.of_value (fb b p)))
  | Expr.Add -> fun b p -> arith Value.Add (fa b p) (fb b p)
  | Expr.Sub -> fun b p -> arith Value.Sub (fa b p) (fb b p)
  | Expr.Mul -> fun b p -> arith Value.Mul (fa b p) (fb b p)
  | Expr.Div -> fun b p -> arith Value.Div (fa b p) (fb b p)
  | Expr.Mod -> (
    fun b p ->
      match fa b p, fb b p with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Int _, Value.Int 0 -> err "division by zero"
      | Value.Int x, Value.Int y -> Value.Int (x mod y)
      | x, y ->
        errf "%% expects integers, got %s and %s" (Value.to_string x)
          (Value.to_string y))
  | Expr.Eq -> fun b p -> Value.sql_eq (fa b p) (fb b p)
  | Expr.Neq -> fun b p -> Value.sql_neq (fa b p) (fb b p)
  | Expr.Lt -> fun b p -> Value.sql_lt (fa b p) (fb b p)
  | Expr.Leq -> fun b p -> Value.sql_leq (fa b p) (fb b p)
  | Expr.Gt -> fun b p -> Value.sql_gt (fa b p) (fb b p)
  | Expr.Geq -> fun b p -> Value.sql_geq (fa b p) (fb b p)
  | Expr.Concat -> fun b p -> unwrap (Value.concat (fa b p) (fb b p))
  | Expr.Like -> fun b p -> Value.like (fa b p) (fb b p)

(* An expression that reads no input row (a VALUES cell, an index key,
   a constant), evaluated on each call of the thunk. *)
let row_free outer e =
  let f = bexpr_of { pos = (fun _ -> None); outer } e in
  fun () -> f no_rows 0

let bpred_of lay e =
  let f = bexpr_of lay e in
  fun b p -> Tristate.is_true (unwrap (Tristate.of_value (f b p)))
