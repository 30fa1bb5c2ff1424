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
        let attrs = [ k; A.fresh "g" D.Int; A.fresh "v" D.Int; A.fresh "t" D.Text ] in
        let marked =
          P.Mark_first
            { child = P.Scan { table = "kt"; attrs }; keys = [ k ]; among = None; flag }
        in
        let annotate group_by rep =
          P.Group_annotate
            {
              child = marked;
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
      ("sorted-groups", suite_sorted_groups);
      ("morsel-sizing", suite_morsel_sizing);
    ]
