(* Provenance rewriter tests: one behavioural test per rewrite rule
   (paper §2.2), the source/naming computation, the copy-semantics
   analysis, and agreement between the aggregation strategies. *)

module Plan = Perm_algebra.Plan
module Attr = Perm_algebra.Attr
module Engine = Perm_engine.Engine
module Rewriter = Perm_provenance.Rewriter
module Sources = Perm_provenance.Sources
open Perm_testkit.Kit

let setup () =
  let e = engine () in
  exec_all e
    [
      "CREATE TABLE r (a int, b text)";
      "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (2, 'y'), (3, null)";
      "CREATE TABLE s (a int, c int)";
      "INSERT INTO s VALUES (2, 20), (3, 30), (3, 33), (9, 90)";
    ];
  e

(* Projecting the provenance result onto the original columns must give back
   the original rows for queries whose rewrite does not replicate (pure
   SPJ); for replicating rewrites, the original rows must equal the DISTINCT
   projection. *)
let originals rows arity =
  List.map (fun r -> List.filteri (fun idx _ -> idx < arity) r) rows

let rule_tests =
  [
    case "base relation: attributes duplicated" (fun () ->
        check_rows (setup ()) "SELECT PROVENANCE a, b FROM r WHERE a = 1"
          [ [ "1"; "x"; "1"; "x" ] ]);
    case "projection keeps provenance" (fun () ->
        check_rows (setup ()) "SELECT PROVENANCE b FROM r WHERE a = 3"
          [ [ "null"; "3"; "null" ] ]);
    case "selection commutes with rewrite" (fun () ->
        check_count (setup ()) "SELECT PROVENANCE a FROM r WHERE a = 2" 2);
    case "inner join concatenates provenance" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE r.a FROM r JOIN s ON r.a = s.a WHERE s.c = 20"
          [ [ "2"; "2"; "y"; "2"; "20" ]; [ "2"; "2"; "y"; "2"; "20" ] ]);
    case "left join NULL-pads right provenance" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE r.a FROM r LEFT JOIN s ON r.a = s.a WHERE r.a = 1"
          [ [ "1"; "1"; "x"; "null"; "null" ] ]);
    case "full join pads both sides" (fun () ->
        let rs = query_ok (setup ())
            "SELECT PROVENANCE r.a, s.a FROM r FULL JOIN s ON r.a = s.a" in
        (* the s-only row a=9 must appear with NULL r-provenance *)
        let rows = strings_of_rows rs.Engine.rows in
        Alcotest.(check bool) "" true
          (List.exists
             (fun row -> List.nth row 1 = "9" && List.nth row 2 = "null")
             rows));
    case "aggregation: each group joined with its witnesses" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE count(*) AS c, a FROM s GROUP BY a"
          [
            [ "1"; "2"; "2"; "20" ];
            [ "2"; "3"; "3"; "30" ];
            [ "2"; "3"; "3"; "33" ];
            [ "1"; "9"; "9"; "90" ];
          ]);
    case "global aggregate over empty input keeps its row, NULL provenance" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE count(*) FROM r WHERE a > 100"
          [ [ "0"; "null"; "null" ] ]);
    case "group by null groups rejoin null-safely" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE count(*), b FROM r WHERE a = 3 GROUP BY b"
          [ [ "1"; "null"; "3"; "null" ] ]);
    case "distinct: one row per duplicate witness" (fun () ->
        check_rows (setup ()) "SELECT PROVENANCE DISTINCT a FROM r WHERE a = 2"
          [ [ "2"; "2"; "y" ]; [ "2"; "2"; "y" ] ]);
    case "union all pads the other branch" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE a FROM r WHERE a = 1 UNION ALL SELECT a FROM s WHERE a = 9"
          [
            [ "1"; "1"; "x"; "null"; "null" ];
            [ "9"; "null"; "null"; "9"; "90" ];
          ]);
    case "union distinct rejoins each result tuple with all witnesses" (fun () ->
        (* a=2 appears twice in r and once in s: 3 provenance rows for 1 result *)
        check_rows (setup ())
          "SELECT PROVENANCE a FROM r WHERE a = 2 UNION SELECT a FROM s WHERE a = 2"
          [
            [ "2"; "2"; "y"; "null"; "null" ];
            [ "2"; "2"; "y"; "null"; "null" ];
            [ "2"; "null"; "null"; "2"; "20" ];
          ]);
    case "intersect joins witnesses from both branches" (fun () ->
        (* a=3: one r witness x two s witnesses *)
        check_rows (setup ())
          "SELECT PROVENANCE a FROM r WHERE a = 3 INTERSECT SELECT a FROM s WHERE a = 3"
          [
            [ "3"; "3"; "null"; "3"; "30" ];
            [ "3"; "3"; "null"; "3"; "33" ];
          ]);
    case "except keeps left witnesses, right provenance NULL" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE a FROM r EXCEPT SELECT a FROM s"
          [ [ "1"; "1"; "x"; "null"; "null" ] ]);
    case "limit rejoins only surviving tuples" (fun () ->
        check_rows ~ordered:true (setup ())
          "SELECT PROVENANCE a FROM r WHERE a < 2 ORDER BY a LIMIT 1"
          [ [ "1"; "1"; "x" ] ]);
    case "semi join (IN) exposes subquery witnesses" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE b FROM r WHERE a IN (SELECT a FROM s WHERE c = 20)"
          [ [ "y"; "2"; "y"; "2"; "20" ]; [ "y"; "2"; "y"; "2"; "20" ] ]);
    case "anti join (NOT IN): subquery contributes nothing" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE a FROM r WHERE a NOT IN (SELECT a FROM s)"
          [ [ "1"; "1"; "x" ] ]);
    case "correlated EXISTS provenance" (fun () ->
        (* a=2 twice x 1 witness, a=3 once x 2 witnesses *)
        check_count (setup ())
          "SELECT PROVENANCE a FROM r WHERE EXISTS (SELECT 1 FROM s WHERE s.a = r.a)"
          4);
    case "scalar subquery contributes provenance" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE a, (SELECT max(c) FROM s) AS mx FROM r WHERE a = 1"
          [
            [ "1"; "90"; "1"; "x"; "2"; "20" ];
            [ "1"; "90"; "1"; "x"; "3"; "30" ];
            [ "1"; "90"; "1"; "x"; "3"; "33" ];
            [ "1"; "90"; "1"; "x"; "9"; "90" ];
          ]);
    case "baserelation stops rewriting" (fun () ->
        let e = setup () in
        exec_all e [ "CREATE VIEW rv AS SELECT a + 1 AS a1 FROM r" ];
        check_rows e "SELECT PROVENANCE a1 FROM rv BASERELATION WHERE a1 = 2"
          [ [ "2"; "2" ] ]);
    case "external provenance passes through" (fun () ->
        let e = setup () in
        exec_all e
          [
            "CREATE TABLE ext (v int, prov_x text)";
            "INSERT INTO ext VALUES (1, 'p1'), (2, 'p2')";
          ];
        check_rows e "SELECT PROVENANCE v FROM ext PROVENANCE (prov_x) WHERE v = 2"
          [ [ "2"; "p2" ] ]);
    case "no marker means no rewrite effect" (fun () ->
        check_same (setup ()) "SELECT a FROM r" "SELECT a FROM r");
  ]

let invariant_tests =
  [
    case "projection of q+ onto original columns = distinct q (replicating query)" (fun () ->
        let e = setup () in
        let q = "SELECT count(*), a FROM s GROUP BY a" in
        let qp = "SELECT PROVENANCE count(*), a FROM s GROUP BY a" in
        let orig = strings_of_rows (query_ok e q).Engine.rows in
        let prov = strings_of_rows (query_ok e qp).Engine.rows in
        let projected = List.sort_uniq compare (originals prov 2) in
        Alcotest.(check rows_testable) "" (List.sort compare orig) projected);
    case "spj query: q+ projection equals q exactly (no replication)" (fun () ->
        let e = setup () in
        let q = "SELECT b FROM r WHERE a = 2" in
        let qp = "SELECT PROVENANCE b FROM r WHERE a = 2" in
        let orig = strings_of_rows (query_ok e q).Engine.rows in
        let prov = strings_of_rows (query_ok e qp).Engine.rows in
        Alcotest.(check rows_testable) "" (List.sort compare orig)
          (List.sort compare (originals prov 1)));
    case "provenance tuples exist in their base relations" (fun () ->
        let e = setup () in
        let prov =
          strings_of_rows
            (query_ok e "SELECT PROVENANCE r.b FROM r JOIN s ON r.a = s.a").Engine.rows
        in
        let r_rows = strings_of_rows (query_ok e "SELECT a, b FROM r").Engine.rows in
        let s_rows = strings_of_rows (query_ok e "SELECT a, c FROM s").Engine.rows in
        List.iter
          (fun row ->
            match row with
            | [ _; ra; rb; sa; sc ] ->
              if ra <> "null" || rb <> "null" then
                Alcotest.(check bool) "r witness exists" true
                  (List.mem [ ra; rb ] r_rows);
              if sa <> "null" || sc <> "null" then
                Alcotest.(check bool) "s witness exists" true
                  (List.mem [ sa; sc ] s_rows)
            | _ -> Alcotest.fail "unexpected arity")
          prov);
  ]

let strategy_tests =
  [
    case "join and lateral aggregation strategies agree" (fun () ->
        let sqls =
          [
            "SELECT PROVENANCE count(*), a FROM s GROUP BY a";
            "SELECT PROVENANCE sum(c) FROM s";
            "SELECT PROVENANCE count(*), b FROM r GROUP BY b HAVING count(*) >= 1";
          ]
        in
        List.iter
          (fun sql ->
            let run strategy =
              let e = setup () in
              Engine.set_agg_strategy e strategy;
              List.sort compare (strings_of_rows (query_ok e sql).Engine.rows)
            in
            Alcotest.(check rows_testable) sql (run Engine.Use_join) (run Engine.Use_lateral))
          sqls);
    case "report records strategy choice" (fun () ->
        let e = setup () in
        Engine.set_agg_strategy e Engine.Use_lateral;
        ignore (query_ok e "SELECT PROVENANCE count(*) FROM r");
        match Engine.last_report e with
        | Some r ->
          Alcotest.(check bool) "" true (r.Rewriter.agg_choices = [ Rewriter.Agg_lateral ])
        | None -> Alcotest.fail "no report");
    case "cost-based mode picks a strategy and stays correct" (fun () ->
        let e = setup () in
        Engine.set_agg_strategy e Engine.Use_cost_based;
        check_count e "SELECT PROVENANCE count(*), a FROM s GROUP BY a" 4;
        match Engine.last_report e with
        | Some r -> Alcotest.(check int) "one choice" 1 (List.length r.Rewriter.agg_choices)
        | None -> Alcotest.fail "no report");
    case "heuristic default picks the join strategy" (fun () ->
        let e = setup () in
        ignore (query_ok e "SELECT PROVENANCE count(*) FROM r");
        match Engine.last_report e with
        | Some r ->
          Alcotest.(check bool) "" true (r.Rewriter.agg_choices = [ Rewriter.Agg_join ])
        | None -> Alcotest.fail "no report");
    case "marker count reported" (fun () ->
        let e = setup () in
        ignore (query_ok e "SELECT PROVENANCE a FROM (SELECT PROVENANCE a, b FROM r) x");
        match Engine.last_report e with
        | Some r -> Alcotest.(check int) "" 2 r.Rewriter.rewritten_markers
        | None -> Alcotest.fail "no report");
    case "strategy counter matches explain's agg_strategies (heuristic)" (fun () ->
        let e = setup () in
        Engine.set_agg_strategy e Engine.Use_heuristic;
        let sql = "SELECT PROVENANCE count(*), a FROM s GROUP BY a" in
        let ex =
          match Engine.explain e sql with
          | Ok ex -> ex
          | Error msg -> Alcotest.fail msg
        in
        let count_of name =
          List.length (List.filter (( = ) name) ex.Engine.agg_strategies)
        in
        let m = Engine.metrics e in
        Alcotest.(check int) "rewriter.strategy.join counter"
          (count_of "join")
          (Perm_obs.Metrics.counter m "rewriter.strategy.join");
        Alcotest.(check int) "rewriter.strategy.lateral counter"
          (count_of "lateral")
          (Perm_obs.Metrics.counter m "rewriter.strategy.lateral");
        (* the heuristic always takes the join rewrite, so the lateral
           counter must still be zero *)
        Alcotest.(check int) "heuristic never picks lateral" 0
          (Perm_obs.Metrics.counter m "rewriter.strategy.lateral"));
    case "report rule_counts record rule firings, sorted" (fun () ->
        let e = setup () in
        ignore (query_ok e "SELECT PROVENANCE count(*), a FROM s GROUP BY a");
        match Engine.last_report e with
        | None -> Alcotest.fail "no report"
        | Some r ->
          Alcotest.(check (option int)) "aggregate_join fired once" (Some 1)
            (List.assoc_opt "aggregate_join" r.Rewriter.rule_counts);
          Alcotest.(check (option int)) "base_relation fired once" (Some 1)
            (List.assoc_opt "base_relation" r.Rewriter.rule_counts);
          Alcotest.(check (list string)) "sorted by rule name"
            (List.sort compare (List.map fst r.Rewriter.rule_counts))
            (List.map fst r.Rewriter.rule_counts));
  ]

(* Single-pass rewrites: DISTINCT and UNION return the rewritten input
   as is, and an aggregate over a row-preserving or duplicate-eliminating
   input annotates that input in one pass (GroupAnnotate, with MarkFirst
   flags under DISTINCT/UNION) instead of rejoining. The remaining
   rejoins match on key identity rather than SQL =, so NaN and -0.0 keys
   keep their witnesses everywhere. *)
let float_setup () =
  let e = setup () in
  exec_all e
    [
      "CREATE TABLE ft (f float, g int)";
      "INSERT INTO ft VALUES (CAST('nan' AS float), 1), (0.0, 2), (-0.0, 3), \
       (1.5, 4), (null, 5), (1.5, 6), (null, 7)";
    ];
  e

let optimized_tree e sql =
  match Engine.explain e sql with
  | Ok ex -> ex.Engine.optimized_tree
  | Error msg -> Alcotest.fail msg

let occurrences tree op =
  List.length
    (List.filter
       (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | w :: _ -> String.equal w op
         | [] -> false)
       (String.split_on_char '\n' tree))

let check_ops e sql expected =
  let tree = optimized_tree e sql in
  List.iter
    (fun (op, n) ->
      Alcotest.(check int) (Printf.sprintf "%s: %s nodes" sql op) n
        (occurrences tree op))
    expected

(* The fused node and its rejoin (the lateral strategy, decorrelated back
   into LeftJoin(Aggregate(x), x')) give the same multiset. *)
let check_strategies_agree e sql =
  let run strategy =
    Engine.set_agg_strategy e strategy;
    List.sort compare (strings_of_rows (query_ok e sql).Engine.rows)
  in
  let join = run Engine.Use_join in
  Alcotest.(check rows_testable) (sql ^ " [lateral]") join (run Engine.Use_lateral);
  Alcotest.(check rows_testable) (sql ^ " [cost-based]") join
    (run Engine.Use_cost_based);
  Engine.set_agg_strategy e Engine.Use_heuristic

(* The naive reference evaluator, which evaluates every rejoin predicate
   as an expression, returns the same rows in the same order. *)
let check_reference e sql =
  Alcotest.(check rows_testable) (sql ^ " [reference]")
    (Perm_testkit.Reference.rows e sql)
    (strings_of_rows (query_ok e sql).Engine.rows)

let single_pass_tests =
  [
    case "distinct keeps the NaN row the plain query returns" (fun () ->
        let e = float_setup () in
        check_rows e "SELECT DISTINCT f FROM ft WHERE g <= 2"
          [ [ "nan" ]; [ "0.0" ] ];
        check_rows e "SELECT PROVENANCE DISTINCT f FROM ft WHERE g <= 2"
          [ [ "nan"; "nan"; "1" ]; [ "0.0"; "0.0"; "2" ] ];
        check_ops e "SELECT PROVENANCE DISTINCT f FROM ft" [ ("Join", 0) ]);
    case "distinct -0.0 witness shows its own value, equal to the plain row"
      (fun () ->
        let e = float_setup () in
        check_rows e "SELECT DISTINCT f FROM ft WHERE g IN (2, 3)" [ [ "0.0" ] ];
        let rows =
          (query_ok e "SELECT PROVENANCE DISTINCT f FROM ft WHERE g IN (2, 3)")
            .Engine.rows
        in
        check_rows e "SELECT PROVENANCE DISTINCT f FROM ft WHERE g IN (2, 3)"
          [ [ "0.0"; "0.0"; "2" ]; [ "-0.0"; "-0.0"; "3" ] ];
        List.iter
          (fun r ->
            Alcotest.(check bool) "Value.equal to the plain 0.0" true
              (Perm_value.Value.equal r.(0) (Perm_value.Value.Float 0.0)))
          rows);
    case "distinct over NULL keeps every witness" (fun () ->
        check_rows (float_setup ())
          "SELECT PROVENANCE DISTINCT f FROM ft WHERE f IS NULL"
          [ [ "null"; "null"; "5" ]; [ "null"; "null"; "7" ] ]);
    case "union keeps the NaN row the plain query returns" (fun () ->
        let e = float_setup () in
        let sql = "f FROM ft WHERE g = 1 UNION SELECT f FROM ft WHERE g = 4" in
        check_rows e ("SELECT " ^ sql) [ [ "nan" ]; [ "1.5" ] ];
        check_rows e ("SELECT PROVENANCE " ^ sql)
          [
            [ "nan"; "nan"; "1"; "null"; "null" ];
            [ "1.5"; "null"; "null"; "1.5"; "4" ];
          ];
        check_ops e ("SELECT PROVENANCE " ^ sql) [ ("Join", 0); ("Union", 0) ]);
    case "group by a NaN key annotates its witness" (fun () ->
        let e = float_setup () in
        check_rows e "SELECT f, count(*) FROM ft WHERE g <= 2 GROUP BY f"
          [ [ "nan"; "1" ]; [ "0.0"; "1" ] ];
        check_rows e
          "SELECT PROVENANCE f, count(*) FROM ft WHERE g <= 2 GROUP BY f"
          [ [ "nan"; "1"; "nan"; "1" ]; [ "0.0"; "1"; "0.0"; "2" ] ]);
    case "group by NULL and -0.0 keys: one group, every witness" (fun () ->
        let e = float_setup () in
        check_rows e
          "SELECT PROVENANCE f, count(*) FROM ft WHERE f IS NULL OR g IN (2, 3) \
           GROUP BY f"
          [
            [ "0.0"; "2"; "0.0"; "2" ];
            [ "0.0"; "2"; "-0.0"; "3" ];
            [ "null"; "2"; "null"; "5" ];
            [ "null"; "2"; "null"; "7" ];
          ];
        check_strategies_agree e
          "SELECT PROVENANCE f, count(*) FROM ft WHERE f IS NULL GROUP BY f");
    case "fused global aggregate over empty input: one row, NULL provenance"
      (fun () ->
        let e = float_setup () in
        let sql =
          "SELECT PROVENANCE count(*), sum(f), avg(f) FROM ft WHERE g > 100"
        in
        check_ops e sql [ ("GroupAnnotate", 1); ("LeftJoin", 0) ];
        check_rows e sql [ [ "0"; "null"; "null"; "null"; "null" ] ];
        check_strategies_agree e sql);
    case "count(DISTINCT), HAVING and float sum/avg through the fused node"
      (fun () ->
        let e = float_setup () in
        let sql =
          "SELECT PROVENANCE g % 2, count(DISTINCT f), sum(f), avg(f) FROM ft \
           WHERE g >= 3 GROUP BY g % 2 HAVING count(*) > 1"
        in
        check_ops e sql [ ("GroupAnnotate", 1); ("Aggregate", 0) ];
        check_rows e sql
          [
            [ "0"; "1"; "3.0"; "1.5"; "1.5"; "4" ];
            [ "0"; "1"; "3.0"; "1.5"; "1.5"; "6" ];
            [ "1"; "1"; "-0.0"; "-0.0"; "-0.0"; "3" ];
            [ "1"; "1"; "-0.0"; "-0.0"; "null"; "5" ];
            [ "1"; "1"; "-0.0"; "-0.0"; "null"; "7" ];
          ];
        check_strategies_agree e sql);
    case "aggregate over a join annotates in one pass" (fun () ->
        let e = setup () in
        let sql =
          "SELECT PROVENANCE r.b, sum(s.c) FROM r JOIN s ON r.a = s.a GROUP BY r.b"
        in
        check_ops e sql
          [ ("GroupAnnotate", 1); ("Aggregate", 0); ("LeftJoin", 0); ("Join", 1) ];
        check_strategies_agree e sql;
        (* the cost model prices one pass below per-group re-evaluation *)
        Engine.set_agg_strategy e Engine.Use_cost_based;
        ignore (query_ok e sql);
        match Engine.last_report e with
        | Some r ->
          Alcotest.(check bool) "cost-based picks the fused join strategy" true
            (r.Rewriter.agg_choices = [ Rewriter.Agg_join ])
        | None -> Alcotest.fail "no report");
    case "aggregate over an aggregate still rejoins the outer one" (fun () ->
        let e = setup () in
        let sql =
          "SELECT PROVENANCE sum(c) FROM (SELECT a, count(*) AS c FROM s GROUP \
           BY a) x"
        in
        (* the inner aggregate is annotated; the outer one rejoins, its
           left side computing the plain inner aggregate again *)
        check_ops e sql
          [ ("GroupAnnotate", 1); ("Aggregate", 2); ("LeftJoin", 1) ];
        check_strategies_agree e sql);
    case "aggregate over a semi join still rejoins" (fun () ->
        let e = setup () in
        let sql =
          "SELECT PROVENANCE count(*) FROM r WHERE a IN (SELECT a FROM s)"
        in
        check_ops e sql
          [ ("GroupAnnotate", 0); ("Aggregate", 1); ("LeftJoin", 1) ];
        check_strategies_agree e sql);
    case "aggregate over a UNION view annotates in one pass" (fun () ->
        let e = setup () in
        exec_all e [ "CREATE VIEW ru AS SELECT a FROM r UNION SELECT a FROM s" ];
        let sql = "SELECT PROVENANCE a, count(*) FROM ru GROUP BY a" in
        check_ops e sql
          [
            ("GroupAnnotate", 1); ("MarkFirst", 1); ("Aggregate", 0);
            ("LeftJoin", 0);
          ];
        check_strategies_agree e sql);
    case "NaN key keeps its witness through the LIMIT rejoin" (fun () ->
        let e = float_setup () in
        let sql =
          "x.f FROM (SELECT f FROM ft WHERE g <= 2 ORDER BY g LIMIT 1) x"
        in
        check_rows e ("SELECT " ^ sql) [ [ "nan" ] ];
        check_ops e ("SELECT PROVENANCE " ^ sql) [ ("Join", 1) ];
        check_rows e ("SELECT PROVENANCE " ^ sql) [ [ "nan"; "nan"; "1" ] ];
        check_reference e ("SELECT PROVENANCE " ^ sql));
    case "NaN key keeps its witnesses through the INTERSECT rejoin" (fun () ->
        let e = float_setup () in
        let sql =
          "f FROM ft WHERE g = 1 INTERSECT SELECT f FROM ft WHERE g <= 2"
        in
        check_rows e ("SELECT " ^ sql) [ [ "nan" ] ];
        check_rows e ("SELECT PROVENANCE " ^ sql)
          [ [ "nan"; "nan"; "1"; "nan"; "1" ] ];
        check_reference e ("SELECT PROVENANCE " ^ sql));
    case "NaN key keeps its witness through the EXCEPT rejoin" (fun () ->
        let e = float_setup () in
        let sql = "f FROM ft WHERE g <= 2 EXCEPT SELECT f FROM ft WHERE g = 2" in
        check_rows e ("SELECT " ^ sql) [ [ "nan" ] ];
        check_rows e ("SELECT PROVENANCE " ^ sql)
          [ [ "nan"; "nan"; "1"; "null"; "null" ] ];
        check_reference e ("SELECT PROVENANCE " ^ sql));
    case "NaN key keeps its witnesses through the remaining aggregate rejoins"
      (fun () ->
        let e = float_setup () in
        let over_agg =
          "SELECT PROVENANCE f, count(*) FROM (SELECT f, count(*) AS c FROM \
           ft WHERE g <= 2 GROUP BY f) x GROUP BY f"
        in
        check_ops e over_agg [ ("LeftJoin", 1) ];
        check_rows e over_agg
          [ [ "nan"; "1"; "nan"; "1" ]; [ "0.0"; "1"; "0.0"; "2" ] ];
        check_strategies_agree e over_agg;
        check_reference e over_agg;
        let over_semi =
          "SELECT PROVENANCE f, count(*) FROM ft WHERE g IN (SELECT g FROM ft \
           WHERE g <= 1) GROUP BY f"
        in
        check_ops e over_semi [ ("LeftJoin", 1) ];
        check_rows e over_semi [ [ "nan"; "1"; "nan"; "1"; "nan"; "1" ] ];
        check_strategies_agree e over_semi;
        check_reference e over_semi);
    case "duplicate NaN keys are one key in DISTINCT, GROUP BY and flags"
      (fun () ->
        let e = float_setup () in
        exec_all e [ "INSERT INTO ft VALUES (CAST('nan' AS float), 8)" ];
        check_rows e "SELECT DISTINCT f FROM ft WHERE g IN (1, 8)" [ [ "nan" ] ];
        check_rows e "SELECT f, count(*) FROM ft WHERE g IN (1, 8) GROUP BY f"
          [ [ "nan"; "2" ] ];
        let sql =
          "SELECT PROVENANCE f, count(*) FROM (SELECT DISTINCT f FROM ft WHERE \
           g IN (1, 2, 8)) d GROUP BY f"
        in
        check_ops e sql [ ("GroupAnnotate", 1); ("MarkFirst", 1); ("LeftJoin", 0) ];
        check_rows e sql
          [
            [ "nan"; "1"; "nan"; "1" ];
            [ "nan"; "1"; "nan"; "8" ];
            [ "0.0"; "1"; "0.0"; "2" ];
          ];
        check_strategies_agree e sql);
    (* 0.0 and -0.0 are one DISTINCT key, but CAST(f AS text) tells the
       witnesses apart: over a flag, the -0.0 witness would land in a
       group, pass a filter or match an outer join the representative
       0.0 does not. Such shapes keep the rejoin, which agrees with the
       plain query; the same shapes over SQL comparisons take one pass. *)
    case "expressions that tell -0.0 from 0.0 over DISTINCT keep the rejoin"
      (fun () ->
        let e = float_setup () in
        let distinct = "(SELECT DISTINCT f FROM ft) d" in
        let rejoins =
          [
            "CAST(f AS text), count(*) FROM " ^ distinct
            ^ " GROUP BY CAST(f AS text)";
            "f, count(*) FROM " ^ distinct
            ^ " WHERE CAST(f AS text) LIKE '-%' GROUP BY f";
            "count(*), max(f) FROM " ^ distinct
            ^ " WHERE CAST(f AS text) LIKE '-%'";
            "x.g, count(d.f) FROM ft x LEFT JOIN " ^ distinct
            ^ " ON CAST(x.f AS text) = CAST(d.f AS text) GROUP BY x.g";
            "s, count(*) FROM (SELECT CAST(f AS text) AS s FROM " ^ distinct
            ^ ") c GROUP BY s";
          ]
        and one_pass =
          [
            "f, count(*) FROM " ^ distinct ^ " WHERE f <= 0 GROUP BY f";
            "x.g, count(d.f) FROM ft x LEFT JOIN " ^ distinct
            ^ " ON x.f = d.f GROUP BY x.g";
          ]
        in
        List.iter
          (fun (queries, ops) ->
            List.iter
              (fun q ->
                let sql = "SELECT PROVENANCE " ^ q in
                check_ops e sql ops;
                check_strategies_agree e sql;
                check_reference e sql)
              queries)
          [
            (rejoins, [ ("MarkFirst", 0); ("GroupAnnotate", 0); ("Aggregate", 1) ]);
            (one_pass, [ ("MarkFirst", 1); ("GroupAnnotate", 1); ("Aggregate", 0) ]);
          ];
        (* the plain query's group '-0' is absent (DISTINCT keeps 0.0), so
           the -0.0 witness has no group; x's -0.0 row matches no
           DISTINCT row, so the original pads it and counts 0, while its
           witness row matches the -0.0 witness *)
        check_rows e ("SELECT PROVENANCE " ^ List.hd rejoins)
          [
            [ "nan"; "1"; "nan"; "1" ]; [ "0"; "1"; "0.0"; "2" ];
            [ "1.5"; "1"; "1.5"; "4" ]; [ "1.5"; "1"; "1.5"; "6" ];
            [ "null"; "1"; "null"; "5" ]; [ "null"; "1"; "null"; "7" ];
          ];
        check_rows e
          ("SELECT PROVENANCE x.g, count(d.f) FROM ft x LEFT JOIN " ^ distinct
         ^ " ON CAST(x.f AS text) = CAST(d.f AS text) WHERE x.g = 3 GROUP BY x.g"
          )
          [ [ "3"; "0"; "-0.0"; "3"; "-0.0"; "3" ] ]);
    case "AGG q3: one pass, no rejoin, each table scanned once" (fun () ->
        let e = forum_engine () in
        let sql =
          "SELECT PROVENANCE " ^ String.sub Perm_workload.Forum.q3 7
            (String.length Perm_workload.Forum.q3 - 7)
        in
        check_ops e sql
          [
            ("GroupAnnotate", 1); ("MarkFirst", 1); ("LeftJoin", 0);
            ("Aggregate", 0); ("Scan(messages)", 1); ("Scan(imports)", 1);
            ("Scan(approved)", 1);
          ];
        check_strategies_agree e sql;
        (* the lateral strategy still decorrelates to the rejoin *)
        Engine.set_agg_strategy e Engine.Use_lateral;
        check_ops e sql [ ("LeftJoin", 1); ("Aggregate", 1); ("MarkFirst", 0) ];
        Engine.set_agg_strategy e Engine.Use_heuristic);
    case "rule names: distinct no longer rejoins" (fun () ->
        let e = setup () in
        ignore (query_ok e "SELECT PROVENANCE DISTINCT a FROM r");
        match Engine.last_report e with
        | None -> Alcotest.fail "no report"
        | Some r ->
          Alcotest.(check (option int)) "distinct fired" (Some 1)
            (List.assoc_opt "distinct" r.Rewriter.rule_counts);
          Alcotest.(check (option int)) "no distinct_rejoin" None
            (List.assoc_opt "distinct_rejoin" r.Rewriter.rule_counts));
  ]

let sources_tests =
  [
    case "sources in DFS order with figure-2 naming" (fun () ->
        let e = forum_engine () in
        match Engine.plan_query e Perm_workload.Forum.q1_provenance with
        | Ok (Plan.Prov { sources; _ }, _) ->
          Alcotest.(check (list string)) ""
            [
              "prov_messages_mid"; "prov_messages_text"; "prov_messages_uid";
              "prov_imports_mid"; "prov_imports_text"; "prov_imports_origin";
            ]
            (List.map (fun (s : Plan.prov_source) -> s.Plan.prov_attr.Attr.name) sources)
        | Ok _ -> Alcotest.fail "expected Prov root"
        | Error msg -> Alcotest.fail msg);
    case "anti join right side excluded from sources" (fun () ->
        let e = setup () in
        match Engine.plan_query e
                "SELECT PROVENANCE a FROM r WHERE a NOT IN (SELECT a FROM s)"
        with
        | Ok (Plan.Prov { sources; _ }, _) ->
          Alcotest.(check int) "only r columns" 2 (List.length sources)
        | Ok _ -> Alcotest.fail "expected Prov root"
        | Error msg -> Alcotest.fail msg);
    case "values contribute no sources" (fun () ->
        let e = setup () in
        match Engine.plan_query e "SELECT PROVENANCE 1 + 1" with
        | Ok (Plan.Prov { sources; _ }, _) ->
          Alcotest.(check int) "" 0 (List.length sources)
        | Ok _ -> Alcotest.fail "expected Prov root"
        | Error msg -> Alcotest.fail msg);
  ]

let copy_tests =
  [
    case "copy: uncopied relation provenance is NULL" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE ON CONTRIBUTION (COPY) r.b FROM r JOIN s ON r.a = s.a WHERE s.c = 20"
          [
            [ "y"; "2"; "y"; "null"; "null" ];
            [ "y"; "2"; "y"; "null"; "null" ];
          ]);
    case "copy: both relations copied keeps both" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE ON CONTRIBUTION (COPY) r.b, s.c FROM r JOIN s ON r.a = s.a WHERE s.c = 20"
          [
            [ "y"; "20"; "2"; "y"; "2"; "20" ];
            [ "y"; "20"; "2"; "y"; "2"; "20" ];
          ]);
    case "copy complete needs every column copied" (fun () ->
        let e = setup () in
        (* only a copied: r does not qualify under COMPLETE *)
        check_rows e
          "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) a FROM r WHERE a = 1"
          [ [ "1"; "null"; "null" ] ];
        (* both a and b copied: qualifies *)
        check_rows e
          "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) a, b FROM r WHERE a = 1"
          [ [ "1"; "x"; "1"; "x" ] ]);
    case "copy through union branches" (fun () ->
        (* b copied from r-branch; s-branch copies a only *)
        check_rows (setup ())
          "SELECT PROVENANCE ON CONTRIBUTION (COPY) b FROM r WHERE a = 1 UNION ALL SELECT 'k' FROM s WHERE a = 9"
          [
            [ "x"; "1"; "x"; "null"; "null" ];
            [ "k"; "null"; "null"; "null"; "null" ];
          ]);
    case "copy: group-by key counts as copied" (fun () ->
        check_rows (setup ())
          "SELECT PROVENANCE ON CONTRIBUTION (COPY) a, count(*) FROM s GROUP BY a"
          [
            [ "2"; "1"; "2"; "20" ];
            [ "3"; "2"; "3"; "30" ];
            [ "3"; "2"; "3"; "33" ];
            [ "9"; "1"; "9"; "90" ];
          ]);
    case "external provenance always qualifies under copy" (fun () ->
        let e = setup () in
        exec_all e
          [
            "CREATE TABLE ext (v int, prov_x text)";
            "INSERT INTO ext VALUES (7, 'p7')";
          ];
        check_rows e
          "SELECT PROVENANCE ON CONTRIBUTION (COPY) v + 1 FROM ext PROVENANCE (prov_x)"
          [ [ "8"; "p7" ] ]);
  ]

let () =
  Alcotest.run "rewriter"
    [
      ("rules", rule_tests);
      ("invariants", invariant_tests);
      ("strategies", strategy_tests);
      ("single-pass", single_pass_tests);
      ("sources", sources_tests);
      ("copy-semantics", copy_tests);
    ]
