(* A naive reference evaluator, the oracle the executor is tested against.

   It runs the same optimized plan as the engine, but over plain lists of
   rows: no batches, no hash tables, no spill, no compiled closures.
   Joins are nested loops, grouping and duplicate elimination are linear
   searches, and expressions are interpreted against an environment. Only
   the base tables come from the engine, through a bare Scan.

   It reproduces the executor's documented row order, so tests can compare
   results in order:
   - joins: left rows in order, each with its matches in right order; a
     FULL join appends its unmatched right rows in right order; a RIGHT
     join runs over the right rows, each with its left matches in order;
   - aggregates, group annotation and DISTINCT: groups in first-seen
     order (rows of a group in input order); a flagged group annotation
     takes each group's key from its first representative row and emits
     no rows for a group without one;
   - sorts: stable;
   - Apply: the right side evaluated once per left row, in order. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Builtins = Perm_algebra.Builtins
module Value = Perm_value.Value
module Tristate = Perm_value.Tristate
module Tuple = Perm_storage.Tuple
module Engine = Perm_engine.Engine

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Eval_error msg)) fmt
let ok = function Ok v -> v | Error msg -> raise (Eval_error msg)

(* ---- expressions ---------------------------------------------------- *)

(* An environment maps an attribute to its value in the current row, or
   in an enclosing Apply's current left row. *)
type env = Attr.t -> Value.t option

let empty : env = fun _ -> None

let bind schema (row : Tuple.t) (outer : env) : env =
 fun a ->
  let rec find i = function
    | [] -> outer a
    | (b : Attr.t) :: rest -> if b.Attr.id = a.Attr.id then Some row.(i) else find (i + 1) rest
  in
  find 0 schema

let truth v = ok (Tristate.of_value v)

let rec eval (env : env) (e : Expr.t) : Value.t =
  match e with
  | Expr.Const v -> v
  | Expr.Attr a -> (
    match env a with
    | Some v -> v
    | None -> fail "unbound attribute %s#%d" a.Attr.name a.Attr.id)
  | Expr.Binop (Expr.And, a, b) ->
    let va = truth (eval env a) in
    if va = Tristate.False then Value.Bool false
    else Tristate.to_value Tristate.(va &&& truth (eval env b))
  | Expr.Binop (Expr.Or, a, b) ->
    let va = truth (eval env a) in
    if va = Tristate.True then Value.Bool true
    else Tristate.to_value Tristate.(va ||| truth (eval env b))
  | Expr.Binop (op, a, b) -> binop op (eval env a) (eval env b)
  | Expr.Unop (Expr.Not, a) -> Tristate.to_value (Tristate.not_ (truth (eval env a)))
  | Expr.Unop (Expr.Neg, a) -> ok (Value.neg (eval env a))
  | Expr.Unop (Expr.Is_null, a) -> Value.Bool (Value.is_null (eval env a))
  | Expr.Case { branches; else_ } -> (
    match List.find_opt (fun (c, _) -> Tristate.is_true (truth (eval env c))) branches with
    | Some (_, r) -> eval env r
    | None -> ( match else_ with Some e -> eval env e | None -> Value.Null))
  | Expr.Cast (a, ty) -> ok (Value.cast ty (eval env a))
  | Expr.Func (name, args) -> (
    match Builtins.find name with
    | None -> fail "unknown function %S" name
    | Some s -> ok (s.Builtins.eval (List.map (eval env) args)))

and binop op x y =
  match op with
  | Expr.Add -> ok (Value.add x y)
  | Expr.Sub -> ok (Value.sub x y)
  | Expr.Mul -> ok (Value.mul x y)
  | Expr.Div -> ok (Value.div x y)
  | Expr.Mod -> (
    match x, y with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | Value.Int _, Value.Int 0 -> fail "division by zero"
    | Value.Int a, Value.Int b -> Value.Int (a mod b)
    | a, b -> fail "%% expects integers, got %s and %s" (Value.to_string a) (Value.to_string b))
  | Expr.Eq -> Value.sql_eq x y
  | Expr.Neq -> Value.sql_neq x y
  | Expr.Lt -> Value.sql_lt x y
  | Expr.Leq -> Value.sql_leq x y
  | Expr.Gt -> Value.sql_gt x y
  | Expr.Geq -> Value.sql_geq x y
  | Expr.Concat -> ok (Value.concat x y)
  | Expr.Like -> Value.like x y
  | Expr.And | Expr.Or -> assert false

let holds env pred = Tristate.is_true (truth (eval env pred))

(* ---- aggregates ----------------------------------------------------- *)

(* First occurrences, in order, under [eq]. *)
let dedup eq xs =
  List.rev (List.fold_left (fun acc x -> if List.exists (eq x) acc then acc else x :: acc) [] xs)

(* One aggregate over a group's rows (in input order). *)
let aggregate env_of (call : Plan.agg_call) rows =
  let values () =
    let arg = Option.get call.Plan.arg in
    let vs =
      List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> eval (env_of r) arg) rows)
    in
    if call.Plan.distinct then dedup Value.key_equal vs else vs
  in
  let fold f = List.fold_left f Value.Null (values ()) in
  let sum () = fold (fun acc v -> if Value.is_null acc then v else ok (Value.add acc v)) in
  let extreme keep = fold (fun acc v -> if Value.is_null acc || keep (Value.compare v acc) then v else acc) in
  let boolean name combine =
    fold (fun acc v ->
        match acc, v with
        | _, Value.Bool b -> (
          match acc with Value.Bool a -> Value.Bool (combine a b) | _ -> Value.Bool b)
        | _, v -> fail "%s expects booleans, got %s" name (Value.to_string v))
  in
  match call.Plan.agg with
  | Plan.Count_star -> Value.Int (List.length rows)
  | Plan.Count -> Value.Int (List.length (values ()))
  | Plan.Sum -> sum ()
  | Plan.Avg -> (
    match List.length (values ()) with
    | 0 -> Value.Null
    | n ->
      let total =
        match sum () with
        | Value.Int i -> float_of_int i
        | Value.Float f -> f
        | v -> fail "avg over non-numeric value %s" (Value.to_string v)
      in
      Value.Float (total /. float_of_int n))
  | Plan.Min -> extreme (fun c -> c < 0)
  | Plan.Max -> extreme (fun c -> c > 0)
  | Plan.Bool_and -> boolean "bool_and" ( && )
  | Plan.Bool_or -> boolean "bool_or" ( || )

(* Rows grouped by key, groups in first-seen order, rows of a group in
   input order. *)
let group_rows key rows =
  let groups =
    List.fold_left
      (fun groups r ->
        let k = key r in
        if List.exists (fun (k', _) -> Tuple.equal k k') groups then
          List.map (fun (k', rs) -> if Tuple.equal k k' then (k', r :: rs) else (k', rs)) groups
        else (k, [ r ]) :: groups)
      [] rows
  in
  List.rev_map (fun (k, rs) -> (k, List.rev rs)) groups

(* ---- plans ---------------------------------------------------------- *)

let nulls n = Array.make n Value.Null

(* Remove the first row equal to [row]; [None] when there is none. *)
let rec remove_one row = function
  | [] -> None
  | r :: rest ->
    if Tuple.equal r row then Some rest
    else Option.map (fun rest -> r :: rest) (remove_one row rest)

let mem row rows = List.exists (Tuple.equal row) rows

(* [table] serves a base table's rows in scan order. *)
let rec run ~table (outer : env) (p : Plan.t) : Tuple.t list =
  let run = run ~table in
  match p with
  | Plan.Scan { table = name; _ } -> table name
  | Plan.Index_scan { table = name; key_col; key; _ } ->
    let k = eval outer key in
    if Value.is_null k then []
    else List.filter (fun r -> Value.equal r.(key_col) k) (table name)
  | Plan.Values { rows; _ } ->
    List.map (fun row -> Array.of_list (List.map (eval empty) row)) rows
  | Plan.Project { child; cols } ->
    let schema = Plan.schema child in
    List.map
      (fun r ->
        let env = bind schema r outer in
        Array.of_list (List.map (fun (e, _) -> eval env e) cols))
      (run outer child)
  | Plan.Filter { child; pred } ->
    let schema = Plan.schema child in
    List.filter (fun r -> holds (bind schema r outer) pred) (run outer child)
  | Plan.Join { kind; left; right; pred } ->
    join kind (Plan.schema left) (Plan.schema right) pred (run outer left) (run outer right) outer
  | Plan.Apply { kind; left; right } ->
    let schema = Plan.schema left in
    List.concat_map
      (fun l ->
        let rows = run (bind schema l outer) right in
        match kind, rows with
        | Plan.A_semi, _ -> if rows <> [] then [ l ] else []
        | Plan.A_anti, _ -> if rows = [] then [ l ] else []
        | Plan.A_outer, [] -> [ Tuple.concat l (nulls (Plan.arity right)) ]
        | (Plan.A_cross | Plan.A_outer), _ -> List.map (Tuple.concat l) rows
        | Plan.A_scalar _, [] -> [ Tuple.concat l [| Value.Null |] ]
        | Plan.A_scalar _, [ r ] -> [ Tuple.concat l [| r.(0) |] ]
        | Plan.A_scalar _, _ -> fail "scalar subquery returned more than one row")
      (run outer left)
  | Plan.Aggregate { child; group_by; aggs } ->
    let rows = run outer child in
    let env_of = let schema = Plan.schema child in fun r -> bind schema r outer in
    let head rs = Array.of_list (List.map (fun c -> aggregate env_of c rs) aggs) in
    if group_by = [] then [ head rows ]
    else
      List.map
        (fun (k, rs) -> Tuple.concat k (head rs))
        (group_rows (fun r -> Array.of_list (List.map (fun (e, _) -> eval (env_of r) e) group_by)) rows)
  | Plan.Group_annotate { child; group_by; aggs; rep } ->
    (* groups over every row; the representative rows (all of them
       without a flag) give each group its key and aggregate values *)
    let rows = run outer child in
    let schema = Plan.schema child in
    let env_of r = bind schema r outer in
    let key r = Array.of_list (List.map (fun (e, _) -> eval (env_of r) e) group_by) in
    let represents r = match rep with None -> true | Some e -> holds (env_of r) e in
    let head k reps = Tuple.concat k (Array.of_list (List.map (fun c -> aggregate env_of c reps) aggs)) in
    (* a group without a representative is no group of the original
       aggregate (the rejoin finds no partner for its rows): no rows *)
    let annotate rs =
      match List.filter represents rs, group_by with
      | [], _ :: _ -> []
      | reps, _ -> List.map (Tuple.concat (head (match reps with r :: _ -> key r | [] -> [||]) reps)) rs
    in
    if group_by = [] && rows = [] then [ Tuple.concat (head [||] []) (nulls (List.length schema)) ]
    else List.concat_map (fun (_, rs) -> annotate rs) (group_rows key rows)
  | Plan.Mark_first { child; keys; among; _ } ->
    (* TRUE on the first row of each key among the rows [among] admits *)
    let schema = Plan.schema child in
    let key r = Array.of_list (List.map (fun a -> eval (bind schema r outer) (Expr.Attr a)) keys) in
    let admits r = match among with None -> true | Some e -> holds (bind schema r outer) e in
    let _, out =
      List.fold_left
        (fun (seen, out) r ->
          let first = admits r && not (List.exists (Tuple.equal (key r)) seen) in
          let seen = if first then key r :: seen else seen in
          (seen, Tuple.concat r [| Value.Bool first |] :: out))
        ([], []) (run outer child)
    in
    List.rev out
  | Plan.Distinct child -> dedup Tuple.equal (run outer child)
  | Plan.Set_op { kind; all; left; right; _ } -> (
    let l = run outer left and r = run outer right in
    match kind, all with
    | Plan.Union, true -> l @ r
    | Plan.Union, false -> dedup Tuple.equal (l @ r)
    | Plan.Intersect, false -> dedup Tuple.equal (List.filter (fun row -> mem row r) l)
    | Plan.Except, false -> dedup Tuple.equal (List.filter (fun row -> not (mem row r)) l)
    | (Plan.Intersect | Plan.Except), true ->
      let keep = kind = Plan.Intersect in
      let _, out =
        List.fold_left
          (fun (rest, out) row ->
            match remove_one row rest with
            | Some rest -> (rest, if keep then row :: out else out)
            | None -> (rest, if keep then out else row :: out))
          (r, []) l
      in
      List.rev out)
  | Plan.Sort { child; keys } ->
    let schema = Plan.schema child in
    let cmp a b =
      let ea = bind schema a outer and eb = bind schema b outer in
      let rec go = function
        | [] -> 0
        | (e, dir) :: rest ->
          let c = Value.compare (eval ea e) (eval eb e) in
          let c = match dir with Plan.Asc -> c | Plan.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go keys
    in
    List.stable_sort cmp (run outer child)
  | Plan.Limit { child; limit; offset } ->
    let rows = List.filteri (fun i _ -> i >= offset) (run outer child) in
    (match limit with Some n -> List.filteri (fun i _ -> i < n) rows | None -> rows)
  | Plan.Prov _ -> fail "provenance marker reached the reference evaluator"
  | Plan.Baserel { child; _ } | Plan.External { child; _ } -> run outer child

and join kind l_schema r_schema pred lrows rrows outer =
  let matches l r =
    match pred with
    | None -> true
    | Some p -> holds (bind (l_schema @ r_schema) (Tuple.concat l r) outer) p
  in
  let l_arity = List.length l_schema and r_arity = List.length r_schema in
  let left_outer lrows rrows ~pad_right =
    List.concat_map
      (fun l ->
        match List.filter (matches l) rrows with
        | [] -> [ pad_right l ]
        | ms -> List.map (Tuple.concat l) ms)
      lrows
  in
  match kind with
  | Plan.Inner | Plan.Cross ->
    List.concat_map (fun l -> List.map (Tuple.concat l) (List.filter (matches l) rrows)) lrows
  | Plan.Semi -> List.filter (fun l -> List.exists (matches l) rrows) lrows
  | Plan.Anti -> List.filter (fun l -> not (List.exists (matches l) rrows)) lrows
  | Plan.Left -> left_outer lrows rrows ~pad_right:(fun l -> Tuple.concat l (nulls r_arity))
  | Plan.Full ->
    left_outer lrows rrows ~pad_right:(fun l -> Tuple.concat l (nulls r_arity))
    @ List.filter_map
        (fun r -> if List.exists (fun l -> matches l r) lrows then None else Some (Tuple.concat (nulls l_arity) r))
        rrows
  | Plan.Right ->
    List.concat_map
      (fun r ->
        match List.filter (fun l -> matches l r) lrows with
        | [] -> [ Tuple.concat (nulls l_arity) r ]
        | ms -> List.map (fun l -> Tuple.concat l r) ms)
      rrows

(* ---- engine glue ---------------------------------------------------- *)

(* Evaluate a marker-free plan over the engine's base tables; each table is
   read once, with a bare Scan. *)
let eval_plan e plan =
  let cache = Hashtbl.create 8 in
  let rec attrs_of name (p : Plan.t) =
    match p with
    | Plan.Scan { table; attrs } | Plan.Index_scan { table; attrs; _ } when table = name -> Some attrs
    | p -> List.find_map (attrs_of name) (Plan.children p)
  in
  let table name =
    match Hashtbl.find_opt cache name with
    | Some rows -> rows
    | None ->
      let attrs = Option.get (attrs_of name plan) in
      let rows =
        match Engine.run_plan e (Plan.Scan { table = name; attrs }) with
        | Ok rows -> rows
        | Error msg -> fail "scan of %s failed: %s" name msg
      in
      Hashtbl.replace cache name rows;
      rows
  in
  run ~table empty plan

(* Plan [sql] with the engine's analyzer, provenance rewriter and
   optimizer, then evaluate the optimized plan here. [Error] carries a
   planning or evaluation error message. *)
let query e sql =
  match Engine.plan_query e sql with
  | Error msg -> Error msg
  | Ok (_, optimized) -> (
    match eval_plan e optimized with
    | rows -> Ok rows
    | exception Eval_error msg -> Error msg)

(* The reference rows of [sql], rendered like [Kit.strings_of_rows]. *)
let rows e sql =
  match query e sql with
  | Ok rows -> Kit.strings_of_rows rows
  | Error msg -> Alcotest.failf "reference evaluator failed on %S: %s" sql msg
