(* Filter and projection kernels: a filter narrows the selection vector
   one conjunct at a time, with tests specialized on the compared
   constant; a projection of plain attributes shares column pointers. *)

module Expr = Perm_algebra.Expr
module Value = Perm_value.Value
module Batch = Perm_storage.Batch
open Eval

(* ---- filter kernels ---------------------------------------------- *)

(* A conjunct kernel narrows sel[0..n-1] in place and returns the new live
   count. Hot comparison shapes get a [Value.t -> bool] test specialized
   on the constant's constructor; every non-matching arm falls back to the
   generic SQL operator, so numeric promotion, NULL handling and the
   type-rank total order behave exactly as in the expression evaluator. *)
let generic_keep op v k =
  match op v k with Value.Bool b -> b | _ -> false

(* Ordered comparisons: int/date arms use [rel_i], an inline primitive
   comparison on unboxed ints (no polymorphic-compare C call per row);
   float arms take [Stdlib.compare] through [rel] so they keep
   [Value.compare]'s total order (NaN included). *)
let test_rel sqlop (rel : int -> bool) (rel_i : int -> int -> bool) k =
  match k with
  | Value.Int y -> (
    function
    | Value.Int x -> rel_i x y
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | Value.Float y -> (
    function
    | Value.Float x -> rel (Stdlib.compare x y)
    | Value.Int x -> rel (Stdlib.compare (float_of_int x) y)
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | Value.Text y -> (
    function
    | Value.Text x -> rel (String.compare x y)
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | Value.Date y -> (
    function
    | Value.Date x -> rel_i x y
    | Value.Null -> false
    | v -> generic_keep sqlop v k)
  | k -> fun v -> generic_keep sqlop v k

let test_eq k =
  match k with
  | Value.Int y -> (
    function
    | Value.Int x -> x = y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | Value.Float y -> (
    function
    | Value.Float x -> x = y
    | Value.Int x -> float_of_int x = y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | Value.Text y -> (
    function
    | Value.Text x -> String.equal x y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | Value.Date y -> (
    function
    | Value.Date x -> x = y
    | Value.Null -> false
    | v -> generic_keep Value.sql_eq v k)
  | k -> fun v -> generic_keep Value.sql_eq v k

let test_neq k =
  let eq = test_eq k in
  fun v -> if Value.is_null v then false else not (eq v)

let test_for op k =
  match op with
  | Expr.Eq -> Some (test_eq k)
  | Expr.Neq -> Some (test_neq k)
  | Expr.Lt ->
    Some (test_rel Value.sql_lt (fun c -> c < 0) (fun (x : int) y -> x < y) k)
  | Expr.Leq ->
    Some (test_rel Value.sql_leq (fun c -> c <= 0) (fun (x : int) y -> x <= y) k)
  | Expr.Gt ->
    Some (test_rel Value.sql_gt (fun c -> c > 0) (fun (x : int) y -> x > y) k)
  | Expr.Geq ->
    Some (test_rel Value.sql_geq (fun c -> c >= 0) (fun (x : int) y -> x >= y) k)
  | _ -> None

(* [attr OP const] with the constant on the left flips to the mirrored
   operator over the attribute. *)
let flip_op = function
  | Expr.Eq -> Expr.Eq
  | Expr.Neq -> Expr.Neq
  | Expr.Lt -> Expr.Gt
  | Expr.Leq -> Expr.Geq
  | Expr.Gt -> Expr.Lt
  | Expr.Geq -> Expr.Leq
  | op -> op

let narrow_col ci (test : Value.t -> bool) : Batch.t -> int array -> int -> int
    =
 fun b sel n ->
  let col = b.Batch.cols.(ci) in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get sel i in
    if test (Array.unsafe_get col p) then begin
      Array.unsafe_set sel !m p;
      incr m
    end
  done;
  !m

let narrow_generic (keep : Batch.t -> int -> bool) :
    Batch.t -> int array -> int -> int =
 fun b sel n ->
  let m = ref 0 in
  for i = 0 to n - 1 do
    let p = Array.unsafe_get sel i in
    if keep b p then begin
      Array.unsafe_set sel !m p;
      incr m
    end
  done;
  !m

(* NOT thread-safe in general (generic fallback kernels carry a row
   cursor): instantiate per worker on the parallel path. *)
let conjunct_kernel lay (c : Expr.t) : Batch.t -> int array -> int -> int =
  let col a = lay.pos a in
  let fallback () = narrow_generic (bpred_of lay c) in
  match c with
  | Expr.Binop
      ( (Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq) as op,
        Expr.Attr a,
        Expr.Const k ) -> (
    match col a, test_for op k with
    | Some ci, Some test -> narrow_col ci test
    | _ -> fallback ())
  | Expr.Binop
      ( (Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq) as op,
        Expr.Const k,
        Expr.Attr a ) -> (
    match col a, test_for (flip_op op) k with
    | Some ci, Some test -> narrow_col ci test
    | _ -> fallback ())
  | Expr.Binop
      ( Expr.Eq,
        Expr.Binop (Expr.Mod, Expr.Attr a, Expr.Const (Value.Int m)),
        Expr.Const (Value.Int r) )
    when m <> 0 -> (
    match col a with
    | Some ci ->
      narrow_col ci (function
        | Value.Int x -> x mod m = r
        | Value.Null -> false
        | v ->
          errf "%% expects integers, got %s and %s" (Value.to_string v)
            (Value.to_string (Value.Int m)))
    | None -> fallback ())
  | Expr.Binop ((Expr.Eq | Expr.Neq | Expr.Lt | Expr.Leq | Expr.Gt | Expr.Geq) as op,
                Expr.Attr a, Expr.Attr b) -> (
    match col a, col b with
    | Some ci, Some cj ->
      let sqlop =
        match op with
        | Expr.Eq -> Value.sql_eq
        | Expr.Neq -> Value.sql_neq
        | Expr.Lt -> Value.sql_lt
        | Expr.Leq -> Value.sql_leq
        | Expr.Gt -> Value.sql_gt
        | Expr.Geq -> Value.sql_geq
        | _ -> assert false
      in
      narrow_generic (fun bt p ->
          generic_keep sqlop bt.Batch.cols.(ci).(p) bt.Batch.cols.(cj).(p))
    | _ -> fallback ())
  | Expr.Unop (Expr.Is_null, Expr.Attr a) -> (
    match col a with
    | Some ci -> narrow_col ci Value.is_null
    | None -> fallback ())
  | Expr.Unop (Expr.Not, Expr.Unop (Expr.Is_null, Expr.Attr a)) -> (
    match col a with
    | Some ci -> narrow_col ci (fun v -> not (Value.is_null v))
    | None -> fallback ())
  | Expr.Binop (Expr.Like, Expr.Attr a, Expr.Const (Value.Text _ as pat)) -> (
    match col a with
    | Some ci -> narrow_col ci (fun v -> generic_keep Value.like v pat)
    | None -> fallback ())
  | _ -> fallback ()

let filter_kernels lay pred = List.map (conjunct_kernel lay) (Expr.conjuncts pred)

(* Conjunct-wise narrowing evaluates exactly the (row, conjunct) pairs a
   short-circuiting AND would: rows failing conjunct i never see conjunct
   i+1. *)
let apply_filter kernels b =
  let n0 = Batch.live b in
  if n0 = 0 then None
  else
    let sel = Batch.sel_array b in
    let n =
      List.fold_left (fun n k -> if n = 0 then 0 else k b sel n) n0 kernels
    in
    if n = 0 then None else Some (Batch.with_sel b sel n)

(* ---- projection kernels ------------------------------------------ *)

type col_builder =
  | Share of int  (* plain attribute: share the column pointer when dense *)
  | Compute of (Batch.t -> int -> Value.t)

let project_builders lay cols =
  Array.of_list
    (List.map
       (fun (e, _) ->
         match e with
         | Expr.Attr a -> (
           match lay.pos a with
           | Some i -> Share i
           | None -> Compute (bexpr_of lay e))
         | e -> Compute (bexpr_of lay e))
       cols)

let apply_project builders b =
  let all_share =
    Array.for_all (function Share _ -> true | Compute _ -> false) builders
  in
  if all_share then
    (* plain-attribute projection: share column pointers and keep the
       selection vector — no per-row copying even on filtered batches *)
    Batch.with_cols b
      (Array.map
         (function Share i -> Batch.col b i | Compute _ -> assert false)
         builders)
  else
    let n = Batch.live b in
    let dense = Batch.is_dense b in
    let cols =
      Array.map
        (function
          | Share i ->
            if dense then Batch.col b i
            else begin
              let src = Batch.col b i in
              let dst = Array.make n Value.Null in
              for j = 0 to n - 1 do
                dst.(j) <- src.(Batch.idx b j)
              done;
              dst
            end
          | Compute f ->
            let dst = Array.make n Value.Null in
            for j = 0 to n - 1 do
              dst.(j) <- f b (Batch.idx b j)
            done;
            dst)
        builders
    in
    Batch.dense cols n
