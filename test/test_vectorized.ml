(* Batch-at-a-time execution against the row oracle.

   The row oracle is the naive reference evaluator in the test kit
   ([Reference]): it runs the same optimized plan over plain lists of
   rows, one row at a time. Every query must return byte-identical rows
   in identical order — across adversarial batch sizes (1, 7, and the
   default), on the serial path and on the parallel path at the
   PERM_PARALLEL domain count (CI runs 1, 2 and 4), including the
   provenance rewrites (influence + copy, lazy and eager) and correlated
   subqueries (Apply). *)

module Engine = Perm_engine.Engine
module Executor = Perm_executor.Executor
module Metrics = Perm_obs.Metrics
module Value = Perm_value.Value
module Reference = Perm_testkit.Reference
open Perm_testkit.Kit

let domains =
  match Sys.getenv_opt "PERM_PARALLEL" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

(* Batch sizes under test: degenerate (1), prime and misaligned with every
   morsel boundary (7), and the shipped default. *)
let batch_sizes = [ 1; 7; Executor.default_batch_rows ]

let ordered_rows e sql = strings_of_rows (query_ok e sql).Engine.rows

let row_oracle = Reference.rows

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Runs [f] at every batch size, serially and with the morsel gather on. *)
let each_mode e f =
  List.iter
    (fun bn ->
      Engine.set_batch_rows e bn;
      Engine.set_parallel e Engine.Par_off;
      f (Printf.sprintf "serial, batch_rows=%d" bn);
      Engine.set_parallel e (Engine.Par_domains domains);
      Engine.set_parallel_threshold e 1;
      f (Printf.sprintf "parallel, batch_rows=%d" bn))
    batch_sizes;
  Engine.set_parallel e Engine.Par_off;
  Engine.set_batch_rows e Executor.default_batch_rows

let check_against_oracle e sql =
  let oracle = row_oracle e sql in
  each_mode e (fun mode ->
      Alcotest.(check rows_testable)
        (Printf.sprintf "%s [row oracle = %s]" sql mode)
        oracle (ordered_rows e sql))

let forum_queries =
  [
    "SELECT mid, text FROM messages WHERE mid >= 0";
    "SELECT * FROM users";
    "SELECT mid, mid % 2, upper(text) FROM messages WHERE mid % 2 = 0";
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid";
    "SELECT uid, count(*) FROM messages GROUP BY uid";
    "SELECT count(*), min(mid), max(mid) FROM messages";
    "SELECT mid, text FROM messages ORDER BY mid DESC LIMIT 7";
    "SELECT DISTINCT uid FROM messages";
    (* outer joins that leave rows unmatched on both sides: the FULL pad
       tail and RIGHT join order show *)
    "SELECT m.mid, u.name FROM messages m FULL JOIN users u ON m.uid = u.uid \
     AND m.mid % 7 = 0";
    "SELECT m.mid, u.name FROM messages m RIGHT JOIN users u ON m.uid = \
     u.uid AND m.mid % 5 = 0";
    "SELECT PROVENANCE m.mid, u.name FROM messages m FULL JOIN users u ON \
     m.uid = u.uid AND m.mid % 7 = 0";
    Perm_workload.Forum.q1;
    Perm_workload.Forum.q3;
    (* provenance rewrites: influence through union/aggregate, and the
       copy-contribution variant *)
    Perm_workload.Forum.q1_provenance;
    "SELECT PROVENANCE m.text FROM messages m WHERE m.mid > 2";
    "SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid";
    "SELECT PROVENANCE ON CONTRIBUTION (COPY) mid, text FROM messages \
     WHERE mid > 1";
  ]

(* Single-pass provenance rewrites: DISTINCT and UNION without a rejoin,
   aggregates fused into GroupAnnotate (over a join, with HAVING, with
   count(DISTINCT) and float AVG, and a global aggregate over empty
   input), plus AGG q3, whose union child keeps the aggregate rejoin. *)
let single_pass_queries =
  [
    "SELECT PROVENANCE DISTINCT uid FROM messages";
    "SELECT PROVENANCE uid FROM messages UNION SELECT uid FROM users";
    "SELECT PROVENANCE u.name, count(*), avg(m.mid * 0.5) FROM messages m \
     JOIN users u ON m.uid = u.uid GROUP BY u.name HAVING count(*) > 1";
    "SELECT PROVENANCE uid, count(DISTINCT mid % 3) FROM messages GROUP BY uid";
    "SELECT PROVENANCE count(*), sum(mid), avg(mid) FROM messages WHERE mid < 0";
    "SELECT PROVENANCE " ^ String.sub Perm_workload.Forum.q3 7
      (String.length Perm_workload.Forum.q3 - 7);
  ]

(* Correlated subqueries: EXISTS / NOT EXISTS / IN with a correlation
   the planner cannot turn into a join (non-equality, or under a
   projection) and scalar subqueries in the SELECT list keep their Apply,
   which runs on the batch path with the left row bound per evaluation. *)
let correlated_queries =
  List.concat_map
    (fun q -> [ "SELECT " ^ q; "SELECT PROVENANCE " ^ q ])
    [
      "u.name FROM users u WHERE EXISTS (SELECT 1 FROM messages m WHERE \
       m.uid = u.uid)";
      "u.name FROM users u WHERE NOT EXISTS (SELECT 1 FROM messages m WHERE \
       m.uid = u.uid)";
      "u.name FROM users u WHERE EXISTS (SELECT 1 FROM messages m WHERE \
       m.uid < u.uid)";
      "u.name FROM users u WHERE NOT EXISTS (SELECT 1 FROM messages m WHERE \
       m.uid < u.uid AND m.mid % 2 = 0)";
      "m.mid, m.text FROM messages m WHERE m.uid IN (SELECT a.uid FROM \
       approved a WHERE a.mid = m.mid)";
      "m.mid FROM messages m WHERE m.mid IN (SELECT a.mid FROM approved a \
       WHERE a.uid <> m.uid)";
      "u.uid, u.name, (SELECT count(*) FROM messages m WHERE m.uid = u.uid) \
       FROM users u";
      "u.name, (SELECT max(m.mid) FROM messages m WHERE m.uid <= u.uid) FROM \
       users u";
    ]
  @ [
      (* the provenance rewrite turns a scalar subquery into an outer
         Apply: several rows join in, none pads with NULLs *)
      "SELECT PROVENANCE u.name, (SELECT m.mid FROM messages m WHERE m.uid = \
       u.uid) FROM users u";
      "SELECT PROVENANCE u.name, (SELECT m.mid FROM messages m WHERE m.uid = \
       u.uid AND m.mid % 50 = 0) FROM users u";
    ]

(* Aggregates whose provenance the lateral strategy computes with an
   outer Apply per group; the optimizer turns it into a left join unless
   it is off. *)
let lateral_queries =
  [
    "SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid";
    "SELECT PROVENANCE u.name, count(*), max(m.mid) FROM messages m JOIN \
     users u ON m.uid = u.uid GROUP BY u.name";
    "SELECT PROVENANCE count(*), sum(mid) FROM messages";
  ]

let suite_identity =
  [
    case "single-pass provenance rewrites: row oracle = batch paths"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        List.iter (check_against_oracle e) single_pass_queries;
        Engine.close e);
    case "correlated subqueries: row oracle = batch paths" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        List.iter (check_against_oracle e) correlated_queries;
        Engine.close e);
    (* the provenance rewrite of a scalar subquery joins the subquery's
       rows in, so only the plain query can fail *)
    case "scalar subquery returning several rows fails on every path"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        List.iter
          (fun sql ->
            let expected =
              match Reference.query e sql with
              | Ok _ -> Alcotest.failf "row oracle accepted %S" sql
              | Error msg -> msg
            in
            each_mode e (fun mode ->
                let msg = query_err e sql in
                Alcotest.(check bool)
                  (Printf.sprintf "%s [%s]: %s" sql mode msg)
                  true
                  (contains ~needle:expected msg)))
          [
            "SELECT u.name, (SELECT m.mid FROM messages m WHERE m.uid = \
             u.uid) FROM users u";
            "SELECT u.name FROM users u WHERE u.uid > (SELECT m.mid FROM \
             messages m WHERE m.uid = u.uid)";
          ];
        Engine.close e);
    case "lateral aggregation strategy: row oracle = batch paths" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        Engine.set_agg_strategy e Engine.Use_lateral;
        List.iter (check_against_oracle e) lateral_queries;
        Engine.set_optimizer_config e Perm_planner.Planner.disabled_config;
        List.iter (check_against_oracle e) lateral_queries;
        Engine.close e);
    case "forum figure-1 data: row oracle = batch paths at 1/7/default"
      (fun () ->
        let e = forum_engine () in
        List.iter (check_against_oracle e) forum_queries;
        Engine.close e);
    case "scaled forum: row oracle = batch paths, batch path engaged"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        List.iter (check_against_oracle e) forum_queries;
        Alcotest.(check bool) "parallel path engaged" true
          (Metrics.counter (Engine.metrics e) "executor.par.queries" > 0);
        Engine.close e);
    case "star workload: row oracle = batch paths incl. provenance"
      (fun () ->
        let e = engine () in
        Perm_workload.Star.load e ~scale:120 ();
        List.iter
          (fun (_, q, qp) ->
            check_against_oracle e q;
            check_against_oracle e qp)
          Perm_workload.Star.queries;
        Engine.close e);
    case "eager provenance stored through the batch path = lazy rows"
      (fun () ->
        let e = forum_engine () in
        (* lazy answer on the row oracle *)
        let lazy_rows =
          row_oracle e "SELECT PROVENANCE mid, text FROM messages"
        in
        Engine.set_batch_rows e 7;
        ignore
          (exec_ok e
             "STORE PROVENANCE SELECT mid, text FROM messages INTO vec_eager");
        let eager =
          List.sort compare (ordered_rows e "SELECT * FROM vec_eager")
        in
        Alcotest.(check rows_testable)
          "eager store = lazy provenance" (List.sort compare lazy_rows) eager;
        Engine.close e);
  ]

(* Keys that test key identity: duplicate base rows and NULL, NaN and
   -0.0 keys. *)
let key_engine () =
  let e = engine () in
  exec_all e
    [
      "CREATE TABLE kt (k float, g int, v int, t text)";
      "INSERT INTO kt VALUES (CAST('nan' AS float), 1, 10, 'a'), \
       (CAST('nan' AS float), 1, 10, 'a'), (0.0, 2, 20, 'b'), (-0.0, 2, 20, \
       'b'), (null, 3, 30, null), (null, 3, 30, null), (1.5, 4, null, 'c'), \
       (1.5, 5, 50, 'c'), (2.5, 6, 60, 'd'), (-0.0, 7, 20, 'b')";
      "CREATE TABLE kt2 (g int, w int)";
      "INSERT INTO kt2 VALUES (1, 100), (2, 200), (2, 201), (3, 300), (7, \
       700), (null, 0), (1, 100)";
    ];
  e

(* Aggregates whose input eliminates duplicates (DISTINCT, UNION) under
   joins, outer joins, UNION ALL, filters and sorts: the representative
   flag lets each run as one GroupAnnotate pass. *)
let one_pass_queries =
  List.map
    (fun q -> "SELECT PROVENANCE " ^ q)
    [
      "k, count(*), count(DISTINCT v), sum(v), avg(v), min(t), max(v) FROM \
       (SELECT DISTINCT k, v, t FROM kt) d GROUP BY k";
      "k, count(*), sum(g) FROM (SELECT k, g FROM kt UNION SELECT k, g FROM \
       kt WHERE g > 2) u GROUP BY k";
      "count(*), sum(v), avg(v) FROM (SELECT DISTINCT k, v FROM kt) d";
      "count(*), sum(v), max(t) FROM (SELECT DISTINCT v, t FROM kt WHERE g > \
       100) d";
      "d.g, count(*), sum(x.w) FROM (SELECT DISTINCT g, v FROM kt) d JOIN kt2 x \
       ON d.g = x.g GROUP BY d.g";
      "x.g, count(*), count(d.v), sum(x.w) FROM kt2 x LEFT JOIN (SELECT \
       DISTINCT g, v FROM kt) d ON x.g = d.g GROUP BY x.g";
      "x.g, d.g, count(*) FROM (SELECT DISTINCT g, w FROM kt2) x FULL JOIN \
       (SELECT DISTINCT g FROM kt WHERE g > 1) d ON x.g = d.g GROUP BY x.g, d.g";
      "g, count(*), sum(g) FROM (SELECT DISTINCT g FROM kt UNION ALL SELECT g \
       FROM kt2) u GROUP BY g";
      "k, count(*) FROM (SELECT DISTINCT k FROM (SELECT k, g FROM kt UNION \
       SELECT k, g FROM kt) u) d GROUP BY k";
      "t, count(*), sum(v) FROM (SELECT DISTINCT t, v FROM kt WHERE v > 10 \
       ORDER BY v DESC) d WHERE v < 60 GROUP BY t";
      "k, count(*) FROM (SELECT k FROM kt UNION SELECT k FROM kt) u WHERE k \
       IS NULL OR k <> 1.5 GROUP BY k HAVING count(*) > 0";
      (* the sort puts the -0.0 witness first; the group still takes its
         key from the representative, 0.0, as the plain query does *)
      "k, count(*), sum(k) FROM (SELECT k FROM (SELECT DISTINCT k FROM kt) d0 \
       ORDER BY CAST(k AS text)) d GROUP BY k";
    ]

let check_one_pass e sql =
  (match Engine.explain e sql with
  | Ok ex ->
    Alcotest.(check bool) (sql ^ " [one pass]") true
      (contains ~needle:"GroupAnnotate" ex.Engine.optimized_tree
      && contains ~needle:"MarkFirst" ex.Engine.optimized_tree
      && not (contains ~needle:"Aggregate" ex.Engine.optimized_tree))
  | Error msg -> Alcotest.fail msg);
  check_against_oracle e sql;
  let fused = List.sort compare (ordered_rows e sql) in
  Engine.set_agg_strategy e Engine.Use_lateral;
  Alcotest.(check rows_testable) (sql ^ " [= lateral]") fused
    (List.sort compare (ordered_rows e sql));
  Engine.set_agg_strategy e Engine.Use_heuristic

(* ORDER BY with ties (stability), DESC, several keys, expression keys,
   NULL and NaN. *)
let sort_queries =
  [
    "SELECT k, g, v FROM kt ORDER BY v";
    "SELECT k, g, v FROM kt ORDER BY k DESC";
    "SELECT k, g, t FROM kt ORDER BY t DESC, k";
    "SELECT k, g, v FROM kt ORDER BY g % 3, k DESC, v";
    "SELECT t, v FROM kt ORDER BY CASE WHEN v > 20 THEN k ELSE v * 1.0 END, t";
    "SELECT PROVENANCE k, count(*) AS c FROM kt GROUP BY k ORDER BY c DESC";
  ]

let suite_one_pass =
  [
    case "aggregates over DISTINCT/UNION: one pass = row oracle = lateral"
      (fun () ->
        let e = key_engine () in
        List.iter (check_one_pass e) one_pass_queries;
        Engine.close e);
    case "AGG q3 at scale: one pass = row oracle = lateral" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        check_one_pass e
          ("SELECT PROVENANCE " ^ String.sub Perm_workload.Forum.q3 7
             (String.length Perm_workload.Forum.q3 - 7));
        Engine.close e);
    (* The rewriter flags only inputs whose expressions cannot tell a
       distinct row's witnesses apart; should a group-by do so anyway, a
       group no flagged row reaches is no group of the original aggregate
       and, as in the rejoin, emits no rows. A global aggregate is always
       one group. *)
    case "a group without a representative row emits no rows" (fun () ->
        let module A = Perm_algebra.Attr in
        let module P = Perm_algebra.Plan in
        let module X = Perm_algebra.Expr in
        let module D = Perm_value.Dtype in
        let e = key_engine () in
        let k = A.fresh "k" D.Float and flag = A.fresh "rep" D.Bool in
        let g = A.fresh "g" D.Int in
        let attrs = [ k; g; A.fresh "v" D.Int; A.fresh "t" D.Text ] in
        let marked =
          P.Mark_first
            { child = P.Scan { table = "kt"; attrs }; keys = [ k ]; among = None; flag }
        in
        let annotate ?(child = marked) group_by rep =
          P.Group_annotate
            {
              child;
              group_by;
              aggs =
                [ { P.agg = P.Count_star; distinct = false; arg = None;
                    agg_out = A.fresh "c" D.Int } ];
              rep = Some rep;
            }
        in
        let run plan =
          match Engine.run_plan e plan with
          | Ok rows -> strings_of_rows rows
          | Error msg -> Alcotest.fail msg
        in
        List.iter
          (fun (name, plan, expected) ->
            let oracle = strings_of_rows (Reference.eval_plan e plan) in
            Alcotest.(check (list string)) (name ^ " [reference]") expected
              (List.map
                 (fun r -> String.concat "|" (List.filteri (fun i _ -> i < 2) r))
                 oracle);
            List.iter
              (fun bn ->
                Engine.set_batch_rows e bn;
                Alcotest.(check rows_testable)
                  (Printf.sprintf "%s [batch_rows=%d]" name bn) oracle (run plan))
              batch_sizes;
            Engine.set_tuple_budget e 7;
            Alcotest.(check rows_testable) (name ^ " [spilled]") oracle (run plan);
            Engine.set_tuple_budget e 0;
            Engine.set_batch_rows e Executor.default_batch_rows)
          [
            (* the two -0.0 witnesses form group '-0', which no flagged
               row reaches *)
            ( "group by CAST(k AS text)",
              annotate [ (X.Cast (X.Attr k, D.Text), A.fresh "s" D.Text) ] (X.Attr flag),
              [ "nan|1"; "nan|1"; "0|1"; "null|1"; "null|1"; "1.5|1"; "1.5|1"; "2.5|1" ] );
            (* without the last -0.0 row the input arrives grouped and
               passes through; group '-0' still emits nothing *)
            ( "group by CAST(k AS text), grouped",
              annotate
                ~child:
                  (P.Filter
                     {
                       child = marked;
                       pred = X.Binop (X.Neq, X.Attr g, X.Const (Value.Int 7));
                     })
                [ (X.Cast (X.Attr k, D.Text), A.fresh "s" D.Text) ] (X.Attr flag),
              [ "nan|1"; "nan|1"; "0|1"; "null|1"; "null|1"; "1.5|1"; "1.5|1"; "2.5|1" ] );
            ( "global, nothing flagged",
              annotate [] (X.Const (Value.Bool false)),
              [ "0|nan"; "0|nan"; "0|0.0"; "0|-0.0"; "0|null"; "0|null"; "0|1.5";
                "0|1.5"; "0|2.5"; "0|-0.0" ] );
          ];
        Engine.close e);
    case "permutation sort = row oracle's stable sort" (fun () ->
        let e = key_engine () in
        List.iter (check_against_oracle e) sort_queries;
        Engine.close e;
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        List.iter (check_against_oracle e)
          [
            "SELECT uid, mid, text FROM messages ORDER BY uid";
            "SELECT uid, mid, text FROM messages ORDER BY text DESC, uid";
            "SELECT mid, uid FROM messages ORDER BY mid % 7 DESC, uid % 3, mid";
            (* a lone row is never compared: its failing key is not
               evaluated, as in the stable sort of the oracle *)
            "SELECT mid FROM messages WHERE mid = 1 ORDER BY mid / 0";
          ];
        Engine.close e);
  ]

let suite_dispatch =
  [
    case "correlated Apply runs on the batch path, one loop per left row"
      (fun () ->
        let e = forum_engine () in
        (* a non-equality correlation keeps the Apply in the optimized
           plan; every operator of its right side runs once per user *)
        let sql =
          "SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM messages \
           m WHERE m.uid < u.uid)"
        in
        check_against_oracle e sql;
        let users = List.length (query_ok e "SELECT * FROM users").Engine.rows in
        let tree =
          match Engine.explain_analyze e sql with
          | Ok ea -> ea.Engine.ea_tree
          | Error msg -> Alcotest.fail msg
        in
        Alcotest.(check bool) "plan keeps the Apply" true
          (contains ~needle:"Apply" tree);
        Alcotest.(check bool)
          (Printf.sprintf "right side reports loops=%d:\n%s" users tree)
          true
          (contains ~needle:(Printf.sprintf "loops=%d " users) tree);
        Engine.close e);
    case "plan hash sees the execution mode (serial vs parallel)" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        let h = Engine.history e in
        Perm_obs.History.set_capacity h 8;
        Perm_obs.History.set_cadence h 0.;
        let sql = "SELECT mid FROM messages WHERE mid > 0" in
        let last_hash () =
          match List.rev (Perm_obs.History.executions h) with
          | r :: _ -> r.Perm_obs.History.ex_plan_hash
          | [] -> Alcotest.fail "no execution recorded"
        in
        ignore (query_ok e sql);
        let serial_hash = last_hash () in
        Engine.set_parallel e (Engine.Par_domains domains);
        Engine.set_parallel_threshold e 1;
        ignore (query_ok e sql);
        let parallel_hash = last_hash () in
        Alcotest.(check bool) "mode is part of the plan hash" true
          (serial_hash <> parallel_hash);
        Engine.close e);
    case "batch_rows floor is 1" (fun () ->
        let e = forum_engine () in
        Engine.set_batch_rows e 0;
        Alcotest.(check int) "clamped" 1 (Engine.batch_rows e);
        ignore (query_ok e "SELECT mid FROM messages");
        Engine.close e);
  ]

(* Hash-join key identity ({!Perm_testkit.Kit.load_join_keys}): every
   join kind over int, float, text and date keys, int against float both
   ways, two-column and null-safe keys, at every batch size, serially and
   in parallel. The oracle matches with nested loops, so the unboxed
   tables and ascending chains must give its rows in its order. *)
let suite_join_keys =
  [
    case "join key identity: row oracle = batch paths" (fun () ->
        let e = engine () in
        load_join_keys e;
        List.iter (check_against_oracle e)
          (join_key_queries @ null_safe_join_queries
          @ [
              "SELECT PROVENANCE k FROM ki INTERSECT SELECT k FROM kf";
              "SELECT PROVENANCE k, b FROM ki INTERSECT SELECT k, b FROM ki";
            ]);
        Engine.close e);
  ]

(* INTERSECT and EXCEPT, set and ALL forms, over keys with duplicates,
   NULL, NaN, 0.0 / -0.0, the empty string and int against float
   ({!Perm_testkit.Kit.load_join_keys}): row oracle = batch paths at every
   batch size, serially and in parallel. *)
let set_op_queries =
  List.concat_map
    (fun op ->
      List.map
        (fun (l, r) -> Printf.sprintf "%s %s %s" l op r)
        [
          ("SELECT k FROM ki", "SELECT k FROM kf");
          ("SELECT k FROM kf", "SELECT k FROM ki");
          ("SELECT k FROM kf", "SELECT k FROM kf WHERE v % 3 = 0");
          ("SELECT k, b FROM kf", "SELECT k, b FROM kf WHERE v < 20");
          ("SELECT k, b FROM ki", "SELECT k, b FROM ki WHERE v % 2 = 0");
          ("SELECT k FROM kt", "SELECT k FROM kt WHERE v > 10");
          ("SELECT k FROM kd", "SELECT k FROM kd WHERE v < 0");
          ("SELECT v, k FROM ki WHERE v < 30", "SELECT v, k FROM kf");
        ])
    [ "INTERSECT"; "EXCEPT"; "INTERSECT ALL"; "EXCEPT ALL" ]
  @ [
      "SELECT PROVENANCE k FROM kf INTERSECT SELECT k FROM ki";
      "SELECT PROVENANCE k, b FROM kf EXCEPT SELECT k, b FROM kf WHERE v < 20";
    ]

(* The Apply kinds in an optimized plan. *)
let rec apply_kinds (p : Perm_algebra.Plan.t) =
  (match p with
  | Perm_algebra.Plan.Apply { kind; _ } ->
    [ Perm_algebra.Plan.apply_kind_name kind ]
  | _ -> [])
  @ List.concat_map apply_kinds (Perm_algebra.Plan.children p)

let suite_set_ops =
  [
    case "INTERSECT/EXCEPT [ALL]: row oracle = batch paths" (fun () ->
        let e = engine () in
        load_join_keys e;
        List.iter (check_against_oracle e) set_op_queries;
        Engine.close e);
    case "INTERSECT/EXCEPT past the tuple budget" (fun () ->
        let e = engine () in
        load_join_keys e;
        let kill sql =
          match Engine.execute_err e sql with
          | Ok _ -> Alcotest.failf "%S ran within a budget of 5" sql
          | Error err ->
            Alcotest.(check string) (sql ^ " [kind]") "resource_exhausted"
              (Perm_err.kind_label err.Perm_err.kind);
            (* drop the progress note, which carries a time *)
            List.hd (String.split_on_char '[' err.Perm_err.msg)
        in
        (* one batch per scan: the token counts whole batches *)
        Engine.set_batch_rows e Executor.default_batch_rows;
        Engine.set_tuple_budget e 5;
        Engine.set_spill e false;
        Alcotest.(check string) "spill off: the token's kill"
          "tuple budget exceeded (40 tuples, budget 5) "
          (kill "SELECT k FROM ki INTERSECT SELECT k FROM kf");
        Engine.set_spill e true;
        List.iter
          (fun sql ->
            Alcotest.(check string) "spill on: the group table's kill"
              "tuple budget exceeded: INTERSECT/EXCEPT holds 6 rows (budget \
               5, not spillable) "
              (kill sql))
          [
            "SELECT k FROM ki INTERSECT SELECT k FROM kf";
            "SELECT k FROM ki EXCEPT ALL SELECT k FROM kf";
          ];
        Engine.close e);
    (* only the right side's keys and the surviving left keys count
       against the budget: 150 left keys (each twice) against 80 right
       keys stay within a budget of 100 *)
    case "INTERSECT/EXCEPT: many left keys within the tuple budget" (fun () ->
        let e = engine () in
        let values n f =
          String.concat ", " (List.init n (fun i -> f i))
        in
        exec_all e
          [
            "CREATE TABLE lk (k int, t text)";
            "INSERT INTO lk VALUES "
            ^ values 300 (fun i -> Printf.sprintf "(%d, 't%d')" (i / 2) (i / 2));
            "CREATE TABLE rk (k int, t text)";
            "INSERT INTO rk VALUES "
            ^ values 80 (fun i -> Printf.sprintf "(%d, 't%d')" i i);
          ];
        Engine.set_spill e true;
        Engine.set_tuple_budget e 100;
        List.iter
          (fun (op, n) ->
            List.iter
              (fun cols ->
                let sql =
                  Printf.sprintf "SELECT %s FROM lk %s SELECT %s FROM rk" cols
                    op cols
                in
                each_mode e (fun mode ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s [%s]" sql mode)
                      n
                      (List.length (query_ok e sql).Engine.rows)))
              [ "k"; "k, t" ])
          [
            ("INTERSECT", 80);
            ("EXCEPT", 70);
            ("INTERSECT ALL", 80);
            ("EXCEPT ALL", 220);
          ];
        Engine.close e);
    (* a right side that emits more rows per left row than a batch holds:
       an outer Apply of the provenance of a correlated aggregate, and a
       cross Apply of the provenance of a correlated EXISTS *)
    case "correlated Apply with wide right sides: row oracle = batch paths"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:2_000 ~users:40 ();
        List.iter
          (fun (kind, sql) ->
            (match Engine.plan_query e sql with
            | Ok (_, plan) ->
              Alcotest.(check bool) (sql ^ " keeps its " ^ kind) true
                (List.mem kind (apply_kinds plan))
            | Error msg -> Alcotest.failf "plan_query %S: %s" sql msg);
            check_against_oracle e sql)
          [
            ( "ApplyCross",
              "SELECT PROVENANCE u.name FROM users u WHERE EXISTS (SELECT 1 \
               FROM messages m WHERE m.uid < u.uid)" );
            ( "ApplyOuter",
              "SELECT PROVENANCE u.name, (SELECT max(m.mid) FROM messages m \
               WHERE m.uid <= u.uid) FROM users u" );
          ];
        Engine.close e);
  ]

(* The flat group table at scale: 7,000 rows of [gk] hold over 5,000
   distinct (a, b) keys, so the table grows several times. Column [a]
   holds NULL, NaN, 0.0 and -0.0 (rows 2 and 3 share b = 1, so 0.0 and
   -0.0 meet in one key) and integral floats that equal an int; rows
   6,000 and up repeat every third earlier row. A UNION ALL of [a] with
   the int column [b] mixes ints and floats in one key column, and as a
   single-column key it holds values off the column's float dtype. *)
let load_group_keys e =
  let a i =
    match i mod 50 with
    | 0 -> "NULL"
    | 1 -> "CAST('nan' AS float)"
    | 2 -> "0.0"
    | 3 -> "-0.0"
    | _ when i mod 2 = 0 -> Printf.sprintf "%d.0" (i / 2)
    | _ -> Printf.sprintf "%d.5" (i mod 997)
  in
  let row i =
    let j = if i >= 6000 then (i - 6000) * 3 else i in
    Printf.sprintf "(%s, %d, 't%d')" (a j) (j / 2) (j mod 97)
  in
  exec_all e
    [
      "CREATE TABLE gk (a float, b int, c text)";
      "INSERT INTO gk VALUES " ^ String.concat ", " (List.init 7000 row);
    ]

let mixed =
  "(SELECT a AS x, b AS y, c FROM gk UNION ALL SELECT b, b, c FROM gk WHERE \
   b % 5 = 0) u"
let mixed_one = "(SELECT a AS x FROM gk UNION ALL SELECT b FROM gk) u"

let group_table_queries =
  [
    "SELECT a, b, count(*) FROM gk GROUP BY a, b";
    "SELECT c, b, sum(b), min(a) FROM gk GROUP BY c, b";
    "SELECT x, y, count(*), min(c) FROM " ^ mixed ^ " GROUP BY x, y";
    "SELECT x, count(*) FROM " ^ mixed_one ^ " GROUP BY x";
    "SELECT DISTINCT a, b FROM gk";
    "SELECT DISTINCT x FROM " ^ mixed_one;
    "SELECT DISTINCT x, y FROM " ^ mixed;
    "SELECT a, b FROM gk UNION SELECT b, b FROM gk";
    "SELECT a FROM gk UNION SELECT b FROM gk";
    "SELECT PROVENANCE x, count(*) FROM (SELECT DISTINCT a AS x, b FROM gk) d \
     GROUP BY x";
    "SELECT PROVENANCE DISTINCT x, y FROM " ^ mixed;
  ]
  @ List.map
      (fun op -> Printf.sprintf "SELECT a, b FROM gk %s SELECT b, b FROM gk" op)
      [ "INTERSECT"; "EXCEPT"; "INTERSECT ALL"; "EXCEPT ALL" ]

let suite_group_table =
  [
    case "over 5,000 two-column keys: row oracle = batch paths" (fun () ->
        let e = engine () in
        load_group_keys e;
        let groups sql = List.length (query_ok e sql).Engine.rows in
        Alcotest.(check bool) "over 5,000 distinct (a, b)" true
          (groups "SELECT DISTINCT a, b FROM gk" > 5000);
        Alcotest.(check int) "0.0 and -0.0 are one key" 1
          (groups "SELECT DISTINCT a, b FROM gk WHERE b = 1");
        Alcotest.(check int) "int 3 meets float 3.0" 1
          (groups ("SELECT DISTINCT x FROM " ^ mixed_one ^ " WHERE x = 3"));
        List.iter (check_against_oracle e) group_table_queries;
        Engine.close e);
    case "count(DISTINCT) under key identity: row oracle = batch paths"
      (fun () ->
        let e = engine () in
        load_group_keys e;
        load_join_keys e;
        List.iter (check_against_oracle e)
          [
            "SELECT count(DISTINCT k) FROM kf";
            "SELECT b, count(DISTINCT k), count(k) FROM kf GROUP BY b";
            "SELECT count(DISTINCT x) FROM " ^ mixed_one;
            "SELECT y % 7, count(DISTINCT x) FROM " ^ mixed ^ " GROUP BY y % 7";
            "SELECT count(DISTINCT a), sum(DISTINCT a) FROM gk WHERE b < 40";
          ];
        (* 0.0 and -0.0 count once, every NaN once; int 3 and float 3.0
           once *)
        check_rows e "SELECT count(DISTINCT k) FROM kf WHERE k = 0 OR k <> k"
          [ [ "2" ] ];
        check_rows e
          ("SELECT count(DISTINCT x), count(x) FROM " ^ mixed_one
         ^ " WHERE x = 3")
          [ [ "1"; "5" ] ];
        Engine.close e);
    case "past the budget, the group table's message is unchanged" (fun () ->
        let e = engine () in
        load_group_keys e;
        Engine.set_spill e true;
        Engine.set_tuple_budget e 100;
        List.iter
          (fun (what, sql) ->
            match Engine.execute_err e sql with
            | Ok _ -> Alcotest.failf "%S ran within a budget of 100" sql
            | Error err ->
              Alcotest.(check string) (sql ^ " [kind]") "resource_exhausted"
                (Perm_err.kind_label err.Perm_err.kind);
              Alcotest.(check string) sql
                (Printf.sprintf
                   "tuple budget exceeded: %s holds 101 rows (budget 100, not \
                    spillable) "
                   what)
                (List.hd (String.split_on_char '[' err.Perm_err.msg)))
          [
            ("GROUP BY", "SELECT a, b, count(*) FROM gk GROUP BY a, b");
            ("DISTINCT", "SELECT DISTINCT a, b FROM gk");
            ("UNION", "SELECT a, b FROM gk UNION SELECT b, b FROM gk");
            ("INTERSECT/EXCEPT", "SELECT a, b FROM gk EXCEPT SELECT b, b FROM gk");
          ];
        Engine.close e);
  ]

(* Hash-join tables: [jb] and [jd] hold 5,000 build rows each, [jb]
   with unique keys in [k] and in [f] (NULL and NaN repeat, but join no
   chain; -0.0 once), [jd] with 100 keys of 50 rows in [k] and in [f]
   (NULL, NaN, 0.0 and -0.0 among them). The probe table [jp] (300
   rows): [k] matches a unique [jb.k] on every row, [s] on one row in
   five, [m] matches a [jd.k] chain on two rows in three; [f] holds NULL,
   NaN, 0.0, -0.0 and integral floats; [t] completes a two-column key on
   two rows in three. *)
let load_join_tables e =
  let f_of i = function
    | 0 -> "NULL"
    | 1 -> "CAST('nan' AS float)"
    | 2 -> "0.0"
    | 3 -> "-0.0"
    | _ -> Printf.sprintf "%d.0" i
  in
  let values n row = String.concat ", " (List.init n row) in
  exec_all e
    [
      "CREATE TABLE jb (k int, f float, v int, t text)";
      "INSERT INTO jb VALUES "
      ^ values 5000 (fun i ->
            Printf.sprintf "(%d, %s, %d, 't%d')" i
              (if i = 4 then "-0.0" else if i mod 100 < 2 then f_of i (i mod 100)
               else f_of i 9)
              i (i mod 7));
      "CREATE TABLE jd (k int, f float, v int, t text)";
      "INSERT INTO jd VALUES "
      ^ values 5000 (fun i ->
            Printf.sprintf "(%d, %s, %d, 't%d')" (i mod 100)
              (f_of (i mod 100) (i mod 100)) i (i mod 3));
      "CREATE TABLE jp (k int, s int, m int, f float, v int, t text)";
      "INSERT INTO jp VALUES "
      ^ values 300 (fun i ->
            Printf.sprintf "(%d, %d, %d, %s, %d, %s)" (i * 7)
              (if i mod 5 = 0 then i else 10000 + i)
              (i mod 150)
              (f_of (i * 7) (if i mod 10 < 4 then i mod 10 else 9))
              i
              (if i mod 3 = 0 then "'x'" else Printf.sprintf "'t%d'" (i mod 3)));
    ]

let join_table_queries =
  let sel = "SELECT l.v, l.k, r.v, r.k FROM " in
  [
    (* unique builds: most probe rows match, or few *)
    sel ^ "jp l LEFT JOIN jb r ON l.k = r.k";
    sel ^ "(SELECT * FROM jp WHERE v % 4 = 0) l LEFT JOIN jb r ON l.k = r.k";
    sel ^ "jp l LEFT JOIN jb r ON l.s = r.k";
    sel ^ "jp l FULL JOIN jb r ON l.s = r.k";
    sel ^ "jb l RIGHT JOIN jp r ON l.k = r.k";
    sel ^ "jd l JOIN jp r ON l.k = r.v";
    sel ^ "jd l JOIN jp r ON l.k = r.v AND l.v < 2500";
    sel ^ "jd l JOIN jp r ON l.k = r.v AND r.t <> 'x'";
    sel ^ "jb l JOIN jp r ON l.k = r.k";
    sel ^ "jp l LEFT JOIN jb r ON l.k = r.k AND l.t = r.t";
    sel ^ "jp l LEFT JOIN jb r ON l.k = r.k AND l.v < r.v - 3000";
    (* NULL, NaN, 0.0 / -0.0, int against float *)
    "SELECT l.v, l.f, r.v, r.f FROM jp l LEFT JOIN jb r ON l.f = r.f";
    "SELECT l.v, l.f, r.v, r.f FROM jp l FULL JOIN jd r ON l.f = r.f";
    "SELECT l.v, l.k, r.v, r.f FROM jp l LEFT JOIN jb r ON l.k = r.f";
    "SELECT l.v, l.f, r.v, r.k FROM jp l JOIN jd r ON l.f = r.k";
    (* long chains *)
    sel ^ "jp l LEFT JOIN jd r ON l.m = r.k";
    sel ^ "jd l RIGHT JOIN jp r ON l.k = r.m";
    sel ^ "jp l LEFT JOIN jd r ON l.m = r.k AND l.t = r.t";
    sel ^ "jp l LEFT JOIN jd r ON l.v % 97 = r.v % 97";
    sel ^ "jp l JOIN jb r ON l.v % 97 = r.v % 97";
    (* semi and anti joins *)
    "SELECT l.v FROM jp l WHERE l.s IN (SELECT k FROM jb)";
    "SELECT l.v FROM jp l WHERE l.s NOT IN (SELECT k FROM jb)";
    "SELECT l.v FROM jp l WHERE l.f IN (SELECT f FROM jd)";
    "SELECT l.v FROM jp l WHERE l.m NOT IN (SELECT k FROM jd)";
    (* null-safe keys: a LIMIT's provenance rejoins on every column *)
    "SELECT PROVENANCE f, t FROM (SELECT f, t FROM jb LIMIT 300) x";
    "SELECT PROVENANCE f, k FROM (SELECT f, k FROM jd LIMIT 100) x";
  ]

let suite_join_table =
  [
    case "5,000-row builds, unique and chained: row oracle = batch paths"
      (fun () ->
        let e = engine () in
        load_join_tables e;
        let chunks () = (Engine.spill_counts e).Engine.sc_chunks in
        let chunks0 = chunks () in
        List.iter
          (fun sql ->
            let oracle = row_oracle e sql in
            let check mode =
              Alcotest.(check rows_testable)
                (Printf.sprintf "%s [row oracle = %s]" sql mode)
                oracle (ordered_rows e sql)
            in
            each_mode e check;
            (* past the budget, a 5,000-row build is a Grace join *)
            Engine.set_tuple_budget e 1000;
            check "Grace join";
            Engine.set_tuple_budget e 0)
          join_table_queries;
        Alcotest.(check bool) "the Grace join ran" true (chunks () > chunks0);
        Engine.close e);
    case "a two-column key allocates under a minor word per probe row"
      (fun () ->
        let e = engine () in
        load_join_tables e;
        (* per-batch costs stay out of the slope at the default batch *)
        Engine.set_batch_rows e Executor.default_batch_rows;
        Engine.set_parallel e Engine.Par_off;
        (* [jb] probes 1,000 or 5,000 rows; [jp], the smaller, is built *)
        let words probe_rows =
          let sql =
            Printf.sprintf
              "SELECT count(*) FROM jb l JOIN jp r ON l.k = r.k AND l.t = r.t \
               WHERE l.v < %d"
              probe_rows
          in
          ignore (query_ok e sql);
          let best = ref infinity in
          for _ = 1 to 3 do
            let w0 = Gc.minor_words () in
            ignore (query_ok e sql);
            best := Float.min !best (Gc.minor_words () -. w0)
          done;
          !best
        in
        let slope = (words 5000 -. words 1000) /. 4000. in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f minor words per extra probe row" slope)
          true (slope < 1.);
        Engine.close e);
  ]

(* Group ids. [pg] holds 600 groups of [k] stored one after another
   (group k holds k mod 13 + 1 rows, so groups straddle every batch
   boundary), [ps] the same rows scattered. [w] is 0.0 on the first
   three rows of group 12 and -0.0 on its other ten, which a DISTINCT
   merges. *)
let load_group_ids e =
  let rows = ref [] and i = ref 0 in
  for k = 0 to 599 do
    let n = (k mod 13) + 1 in
    for j = 0 to n - 1 do
      let w =
        if k = 12 then if j < 3 then "0.0" else "-0.0"
        else Printf.sprintf "%d.5" (k mod 11)
      in
      rows := Printf.sprintf "(%d, %d, 't%d', %s)" k !i (j mod 5) w :: !rows;
      incr i
    done
  done;
  let rows = Array.of_list (List.rev !rows) in
  let n = Array.length rows in
  let scattered = Array.init n (fun r -> rows.(r * 7919 mod n)) in
  let insert name rows =
    Printf.sprintf "INSERT INTO %s VALUES %s" name
      (String.concat ", " (Array.to_list rows))
  in
  exec_all e
    [
      "CREATE TABLE pg (k int, v int, t text, w float)";
      insert "pg" rows;
      "CREATE TABLE ps (k int, v int, t text, w float)";
      insert "ps" scattered;
    ];
  n

let group_id_queries table =
  List.map
    (fun q -> Printf.sprintf q table)
    [
      (* one group *)
      "SELECT PROVENANCE count(*), sum(v) FROM %s";
      "SELECT PROVENANCE k, count(*) FROM %s WHERE k = 12 GROUP BY k";
      (* many groups *)
      "SELECT PROVENANCE k, count(*), sum(v), min(t), max(w) FROM %s GROUP BY k";
      "SELECT PROVENANCE k, w, count(DISTINCT t), avg(v) FROM %s GROUP BY k, w";
      (* the projection reads some head columns, or none *)
      "SELECT PROVENANCE sum(v) FROM %s GROUP BY k";
      "SELECT PROVENANCE v FROM (SELECT k, count(*) AS c, min(v) AS v FROM %s \
       GROUP BY k) g";
      (* a DISTINCT below: the rejoin (a CAST of a float key tells the
         -0.0 witnesses apart), or a representative flag *)
      "SELECT PROVENANCE s, count(*) FROM (SELECT DISTINCT w AS s FROM %s) d \
       GROUP BY CAST(s AS text), s";
      "SELECT PROVENANCE k, count(*) FROM (SELECT DISTINCT k, v %% 2 AS b FROM \
       %s) d GROUP BY k";
      (* an ORDER BY over the heads *)
      "SELECT PROVENANCE k, count(*) AS c FROM %s GROUP BY k ORDER BY c DESC, k";
    ]

(* A key's group keeps its first row's values, or under a representative
   flag its first representative row's: 1 and 1.0, 0, -0.0 and 0.0 are
   one key that prints as that row's. The rows are [ti]'s (ints) then
   [tf]'s (floats) where [k] is 1, 0 or either; the flag is [g > 1]. *)
let first_row_keys =
  let rows key n = List.init n (fun _ -> key) in
  [
    ("1 then 1.0", Some 1, false, rows "1|2" 2);
    ("1 then 1.0, flagged", Some 1, true, rows "1.0|1" 2);
    ("0, -0.0, 0.0", Some 0, false, rows "0|4" 4);
    ("0, -0.0, 0.0, flagged", Some 0, true, rows "-0.0|2" 4);
    ("two keys, not grouped", None, true, rows "1.0|1" 2 @ rows "-0.0|2" 4);
  ]

let suite_group_ids =
  [
    case "the pass-through returns the gather's rows in the gather's order"
      (fun () ->
        let e = engine () in
        let n = load_group_ids e in
        let spills () = (Engine.spill_counts e).Engine.sc_spills in
        List.iter
          (fun sql ->
            check_against_oracle e sql;
            (* past the budget the annotation spills its pieces as runs;
               its group table, of 600 groups, stays within it *)
            let oracle = row_oracle e sql and s0 = spills () in
            Engine.set_tuple_budget e 1500;
            Alcotest.(check rows_testable) (sql ^ " [spilled]") oracle
              (ordered_rows e sql);
            Engine.set_tuple_budget e 0;
            if not (contains ~needle:"WHERE k = 12" sql) then
              Alcotest.(check bool) (sql ^ " [spilled]") true (spills () > s0))
          (group_id_queries "pg" @ group_id_queries "ps");
        (* grouped input passes through: it allocates no row numbering,
           order or gathered child columns, which the scattered rows do *)
        Engine.set_batch_rows e Executor.default_batch_rows;
        Engine.set_parallel e Engine.Par_off;
        let words table =
          let sql =
            Printf.sprintf
              "SELECT PROVENANCE k, count(*), sum(v) FROM %s GROUP BY k" table
          in
          ignore (query_ok e sql);
          let best = ref infinity in
          for _ = 1 to 3 do
            let b0 = Gc.allocated_bytes () in
            ignore (query_ok e sql);
            best := Float.min !best (Gc.allocated_bytes () -. b0)
          done;
          !best /. float_of_int (Sys.word_size / 8)
        in
        let saved = (words "ps" -. words "pg") /. float_of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "grouped input allocates %.1f words less per row" saved)
          true (saved > 4.);
        Engine.close e);
    case "a group's key is its first row's, or first representative's"
      (fun () ->
        let module A = Perm_algebra.Attr in
        let module P = Perm_algebra.Plan in
        let module X = Perm_algebra.Expr in
        let module D = Perm_value.Dtype in
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE ti (k int, g int)";
            "INSERT INTO ti VALUES (1, 1), (0, 1)";
            "CREATE TABLE tf (k float, g int)";
            "INSERT INTO tf VALUES (1.0, 2), (-0.0, 2), (0.0, 2), (0.0, 1)";
          ];
        let k = A.fresh "k" D.Float and g = A.fresh "g" D.Int in
        let side table =
          let k' = A.fresh "k" (if table = "ti" then D.Int else D.Float)
          and g' = A.fresh "g" D.Int in
          (P.Scan { table; attrs = [ k'; g' ] }, k', g')
        in
        let run plan =
          match Engine.run_plan e plan with
          | Ok rows ->
            List.map
              (fun r -> String.concat "|" (List.filteri (fun i _ -> i < 2) r))
              (strings_of_rows rows)
          | Error msg -> Alcotest.fail msg
        in
        List.iter
          (fun (name, key, flagged, expected) ->
            let pick (scan, k', g') =
              let keep =
                match key with
                | Some i -> X.Binop (X.Eq, X.Attr k', X.Const (Value.Int i))
                | None -> X.Binop (X.Geq, X.Attr k', X.Const (Value.Int 0))
              in
              P.Project
                {
                  child = P.Filter { child = scan; pred = keep };
                  cols =
                    [ (X.Attr k', A.fresh "k" k'.A.ty); (X.Attr g', A.fresh "g" D.Int) ];
                }
            in
            let left = pick (side "ti") and right = pick (side "tf") in
            let union =
              P.Set_op
                { kind = P.Union; all = true; left; right; attrs = [ k; g ] }
            in
            let plan =
              P.Group_annotate
                {
                  child = union;
                  group_by = [ (X.Attr k, A.fresh "key" D.Float) ];
                  aggs =
                    [ { P.agg = P.Count_star; distinct = false; arg = None;
                        agg_out = A.fresh "c" D.Int } ];
                  rep =
                    (if flagged then
                       Some (X.Binop (X.Gt, X.Attr g, X.Const (Value.Int 1)))
                     else None);
                }
            in
            List.iter
              (fun bn ->
                Engine.set_batch_rows e bn;
                Alcotest.(check (list string))
                  (Printf.sprintf "%s [batch_rows=%d]" name bn)
                  expected (run plan);
                Engine.set_tuple_budget e 2;
                Alcotest.(check (list string))
                  (Printf.sprintf "%s [spilled, batch_rows=%d]" name bn)
                  expected (run plan);
                Engine.set_tuple_budget e 0)
              batch_sizes;
            Alcotest.(check (list string)) (name ^ " [reference]") expected
              (List.map
                 (fun r -> String.concat "|" (List.filteri (fun i _ -> i < 2) r))
                 (strings_of_rows (Reference.eval_plan e plan))))
          first_row_keys;
        Engine.set_batch_rows e Executor.default_batch_rows;
        Engine.close e);
    case "a group allocates no block of its own" (fun () ->
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE gt (k int, v int)";
            "INSERT INTO gt VALUES "
            ^ String.concat ", "
                (List.init 5000 (fun i -> Printf.sprintf "(%d, %d)" i (i mod 10)));
          ];
        (* per-batch costs stay out of the slope at the default batch *)
        Engine.set_batch_rows e Executor.default_batch_rows;
        Engine.set_parallel e Engine.Par_off;
        let words prefix groups =
          let sql =
            Printf.sprintf
              "SELECT %sk, count(*), sum(v) FROM gt WHERE k < %d GROUP BY k"
              prefix groups
          in
          ignore (query_ok e sql);
          let best = ref infinity in
          for _ = 1 to 3 do
            let w0 = Gc.minor_words () in
            ignore (query_ok e sql);
            best := Float.min !best (Gc.minor_words () -. w0)
          done;
          !best
        in
        List.iter
          (fun (prefix, bound) ->
            let slope = (words prefix 5000 -. words prefix 1000) /. 4000. in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %.2f minor words per extra group" prefix slope)
              true (slope < bound))
          [ ("", 14.); ("PROVENANCE ", 14.) ];
        Engine.close e);
    case "arithmetic allocates only its values" (fun () ->
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE ar (a int)";
            "INSERT INTO ar VALUES "
            ^ String.concat ", " (List.init 5000 (fun i -> Printf.sprintf "(%d)" i));
          ];
        Engine.set_batch_rows e Executor.default_batch_rows;
        Engine.set_parallel e Engine.Par_off;
        let words rows =
          let sql = Printf.sprintf "SELECT sum(a * 2) FROM ar WHERE a < %d" rows in
          ignore (query_ok e sql);
          let best = ref infinity in
          for _ = 1 to 3 do
            let w0 = Gc.minor_words () in
            ignore (query_ok e sql);
            best := Float.min !best (Gc.minor_words () -. w0)
          done;
          !best
        in
        let slope = (words 5000 -. words 1000) /. 4000. in
        Alcotest.(check bool)
          (Printf.sprintf "%.2f minor words per extra row" slope)
          true (slope < 6.);
        Engine.close e);
  ]

(* An ORDER BY over a group annotation's head columns sorts the groups
   and emits each group's rows in input order: exactly the stable row
   sort's order, ties between groups, a HAVING in between, LIMIT above,
   DESC over NULL keys and an empty global aggregate included. *)
let sorted_group_queries =
  [
    "SELECT PROVENANCE uid, count(*) AS c FROM messages GROUP BY uid ORDER BY \
     c DESC";
    "SELECT PROVENANCE uid, count(*) AS c FROM messages GROUP BY uid HAVING \
     count(*) > 7 ORDER BY c, uid DESC";
    "SELECT PROVENANCE uid, count(*) AS c FROM messages GROUP BY uid ORDER BY \
     c DESC LIMIT 10";
    "SELECT PROVENANCE k, count(*) FROM ki GROUP BY k ORDER BY k DESC";
    "SELECT PROVENANCE k, sum(v) AS s FROM ki GROUP BY k ORDER BY k";
    "SELECT PROVENANCE b, k, max(v) AS m FROM ki GROUP BY b, k ORDER BY b \
     DESC, m";
    "SELECT PROVENANCE count(*) AS c FROM ki WHERE v < 0 ORDER BY c";
    "SELECT PROVENANCE count(*) AS c FROM ki WHERE v < 0 HAVING count(*) > 0 \
     ORDER BY c";
  ]

let suite_sorted_groups =
  [
    case "ORDER BY over a group annotation: row oracle = batch paths"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        load_join_keys e;
        List.iter (check_against_oracle e) sorted_group_queries;
        Engine.close e);
  ]

let suite_profiler =
  [
    case "instrumented batch run reports exact peak bytes" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        Engine.set_instrumentation e true;
        let sql = "SELECT mid, text FROM messages WHERE mid % 2 = 0" in
        let serial = row_oracle e sql in
        Alcotest.(check rows_testable) "instrumented batch = row oracle"
          serial (ordered_rows e sql);
        let prof = Engine.plan_profile e in
        Alcotest.(check bool) "profile populated" true (prof <> []);
        List.iter
          (fun pn ->
            Alcotest.(check bool)
              (pn.Perm_obs.Profile.pn_operator ^ " has measured bytes")
              true
              (pn.Perm_obs.Profile.pn_peak_bytes > 0))
          prof;
        Engine.close e);
  ]

let suite_morsel_sizing =
  [
    case "morsels are whole batches, about four per domain" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        Engine.set_parallel_threshold e 1;
        let morsels () =
          Metrics.counter (Engine.metrics e) "executor.par.morsels"
        in
        List.iter
          (fun (batch_rows, d, expected) ->
            Engine.set_batch_rows e batch_rows;
            Engine.set_parallel e (Engine.Par_domains d);
            let before = morsels () in
            ignore (query_ok e "SELECT mid FROM messages WHERE mid > 0");
            Alcotest.(check int)
              (Printf.sprintf "batch_rows=%d, %d domains" batch_rows d)
              expected
              (morsels () - before))
          (* 300 rows in batches of 7 are 43 batches *)
          [ (1024, 2, 1); (100, 2, 3); (7, 1, 4); (7, 2, 8); (7, 4, 15) ];
        Engine.close e);
    case "derived morsels keep determinism" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:500 ~users:40 ();
        let sql =
          "SELECT uid, count(*) FROM messages WHERE mid % 3 <> 1 GROUP BY uid"
        in
        let oracle = row_oracle e sql in
        Engine.set_parallel e (Engine.Par_domains domains);
        Engine.set_parallel_threshold e 1;
        Alcotest.(check rows_testable) "auto-sized parallel = oracle" oracle
          (ordered_rows e sql);
        Alcotest.(check bool) "parallel path engaged" true
          (Metrics.counter (Engine.metrics e) "executor.par.queries" > 0);
        Engine.close e);
  ]

let () =
  Alcotest.run "vectorized"
    [
      ("identity", suite_identity);
      ("one-pass", suite_one_pass);
      ("dispatch", suite_dispatch);
      ("profiler", suite_profiler);
      ("join-keys", suite_join_keys);
      ("set-ops", suite_set_ops);
      ("group-table", suite_group_table);
      ("join-table", suite_join_table);
      ("group-ids", suite_group_ids);
      ("sorted-groups", suite_sorted_groups);
      ("morsel-sizing", suite_morsel_sizing);
    ]
