(* Shared helpers for the Perm test suites. *)

module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Tuple = Perm_storage.Tuple
module Engine = Perm_engine.Engine

(* Value shorthands *)
let i n = Value.Int n
let f x = Value.Float x
let s x = Value.Text x
let b x = Value.Bool x
let nl = Value.Null

let row vs = Array.of_list vs

(* A fresh engine; [forum] loads the paper's Figure 1 data. *)
let engine () = Engine.create ()

let forum_engine () =
  let e = Engine.create () in
  Perm_workload.Forum.load e;
  e

let exec_ok e sql =
  match Engine.execute e sql with
  | Ok outcome -> outcome
  | Error msg -> Alcotest.failf "unexpected error on %S: %s" sql msg

let exec_all e statements = List.iter (fun sql -> ignore (exec_ok e sql)) statements

let query_ok e sql =
  match Engine.query e sql with
  | Ok rs -> rs
  | Error msg -> Alcotest.failf "unexpected error on %S: %s" sql msg

let query_err e sql =
  match Engine.query e sql with
  | Ok _ -> Alcotest.failf "expected an error on %S" sql
  | Error msg -> msg

(* Render rows as string lists for readable assertions. *)
let strings_of_rows rows =
  List.map (fun r -> Array.to_list (Array.map Value.to_string r)) rows

let rows_testable = Alcotest.(list (list string))

let check_rows ?(ordered = false) e sql expected =
  let rs = query_ok e sql in
  let actual = strings_of_rows rs.Engine.rows in
  let norm l = if ordered then l else List.sort compare l in
  Alcotest.(check rows_testable) sql (norm expected) (norm actual)

let check_columns e sql expected =
  let rs = query_ok e sql in
  Alcotest.(check (list string)) (sql ^ " [columns]") expected rs.Engine.columns

let check_count e sql expected =
  let rs = query_ok e sql in
  Alcotest.(check int) (sql ^ " [row count]") expected (List.length rs.Engine.rows)

(* Two queries must return identical multisets of rows. *)
let check_same e sql_a sql_b =
  let a = strings_of_rows (query_ok e sql_a).Engine.rows in
  let b = strings_of_rows (query_ok e sql_b).Engine.rows in
  Alcotest.(check rows_testable)
    (Printf.sprintf "%s == %s" sql_a sql_b)
    (List.sort compare a) (List.sort compare b)

(* The planner's distinct-value count of every column of [table]
   ([Heap.distinct_estimate], read through [Engine.stats]) must equal a
   fresh count of the table's rows under key identity. *)
let check_distinct e table =
  let rs = query_ok e ("SELECT * FROM " ^ table) in
  let stats = Engine.stats e in
  List.iteri
    (fun k col ->
      let fresh =
        List.fold_left
          (fun seen r ->
            if List.exists (Value.key_equal r.(k)) seen then seen else r.(k) :: seen)
          [] rs.Engine.rows
      in
      Alcotest.(check int)
        (Printf.sprintf "distinct %s.%s" table col)
        (max 1 (List.length fresh))
        (stats.Perm_planner.Planner.table_distinct table col))
    rs.Engine.columns

let case name fn = Alcotest.test_case name `Quick fn
let qcheck t = QCheck_alcotest.to_alcotest t

(* ---- hash-join key identity ---------------------------------------- *)

(* Tables [ki] (int key), [kf] (float key), [kt] (text key) and [kd]
   (date key), each [(key, b text, v int)] over [rows] rows with
   repeated keys and NULLs: 1 = 1.0, 0.0 = -0.0 and NaN keys in [kf],
   the empty string in [kt], NULLs in [b] for two-column keys. *)
let load_join_keys ?(rows = 40) e =
  let table name ty key =
    exec_ok e (Printf.sprintf "CREATE TABLE %s (k %s, b text, v int)" name ty)
    |> ignore;
    exec_ok e
      (Printf.sprintf "INSERT INTO %s VALUES %s" name
         (String.concat ", "
            (List.init rows (fun i ->
                 Printf.sprintf "(%s, %s, %d)" (key i)
                   (if i mod 13 = 0 then "NULL"
                    else Printf.sprintf "'b%d'" (i mod 3))
                   i))))
    |> ignore
  in
  table "ki" "int" (fun i ->
      if i mod 11 = 0 then "NULL" else string_of_int (i mod 7));
  table "kf" "float" (fun i ->
      match i mod 9 with
      | 0 -> "NULL"
      | 1 -> "CAST('nan' AS float)"
      | 2 -> "0.0"
      | 3 -> "-0.0"
      | _ -> Printf.sprintf "%d.%d" (i mod 7) (if i mod 4 = 0 then 5 else 0));
  table "kt" "text" (fun i ->
      match i mod 10 with
      | 0 -> "NULL"
      | 1 -> "''"
      | _ -> Printf.sprintf "'t%d'" (i mod 6));
  table "kd" "date" (fun i ->
      if i mod 8 = 0 then "NULL"
      else Printf.sprintf "DATE '2020-01-0%d'" (1 + (i mod 5)))

(* Every join kind over every key pair of [load_join_keys]: same-dtype
   keys, int against float both ways, two-column keys, the comma
   spelling, and semi/anti joins. *)
let join_key_queries =
  List.concat_map
    (fun (l, r) ->
      let sel = Printf.sprintf "SELECT l.v, l.k, r.v, r.k FROM %s l " l in
      [
        sel ^ Printf.sprintf "JOIN %s r ON l.k = r.k" r;
        sel ^ Printf.sprintf ", %s r WHERE l.k = r.k" r;
        sel ^ Printf.sprintf "LEFT JOIN %s r ON l.k = r.k" r;
        sel ^ Printf.sprintf "RIGHT JOIN %s r ON l.k = r.k" r;
        sel ^ Printf.sprintf "FULL JOIN %s r ON l.k = r.k" r;
        sel ^ Printf.sprintf "JOIN %s r ON l.k = r.k AND l.b = r.b" r;
        sel ^ Printf.sprintf "JOIN %s r ON l.k = r.k AND l.v < r.v" r;
        Printf.sprintf "SELECT l.v FROM %s l WHERE l.k IN (SELECT r.k FROM %s r)"
          l r;
        Printf.sprintf
          "SELECT l.v FROM %s l WHERE l.k NOT IN (SELECT r.k FROM %s r)" l r;
      ])
    [ ("ki", "ki"); ("ki", "kf"); ("kf", "ki"); ("kf", "kf"); ("kt", "kt");
      ("kd", "kd") ]

(* Null-safe keys: the provenance rewrite of a LIMIT subquery rejoins
   its input on every column under key identity (NULL matches NULL, NaN
   matches NaN). *)
let null_safe_join_queries =
  List.map
    (fun (cols, t) ->
      Printf.sprintf "SELECT PROVENANCE %s FROM (SELECT %s FROM %s LIMIT 30) x"
        cols cols t)
    [ ("k", "ki"); ("k, b", "kf"); ("k", "kt"); ("k", "kd") ]
