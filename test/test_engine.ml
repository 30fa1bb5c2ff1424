(* Engine integration tests: the full Fig. 3 pipeline, DDL/DML, scripts,
   eager provenance, explain panes, error surfaces. *)

module Engine = Perm_engine.Engine
module Planner = Perm_planner.Planner
open Perm_testkit.Kit

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go idx = idx + n <= h && (String.sub hay idx n = needle || go (idx + 1)) in
  n = 0 || go 0

let ddl_tests =
  [
    case "create, insert, select, drop" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (1), (2)" ];
        check_count e "SELECT * FROM t" 2;
        ignore (exec_ok e "DROP TABLE t");
        let msg = query_err e "SELECT * FROM t" in
        Alcotest.(check bool) "" true (contains ~needle:"does not exist" msg));
    case "duplicate create rejected" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)" ];
        match Engine.execute e "CREATE TABLE t (b int)" with
        | Error msg -> Alcotest.(check bool) "" true (contains ~needle:"already exists" msg)
        | Ok _ -> Alcotest.fail "expected error");
    case "create table as select" (fun () ->
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE t (a int, b text)";
            "INSERT INTO t VALUES (1, 'x'), (5, 'y')";
            "CREATE TABLE big AS SELECT a * 10 AS a10, b FROM t WHERE a > 2";
          ];
        check_rows e "SELECT * FROM big" [ [ "50"; "y" ] ]);
    case "ctas derives types and dedups names" (fun () ->
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE t (a int)";
            "INSERT INTO t VALUES (1)";
            "CREATE TABLE two AS SELECT a, a FROM t";
          ];
        check_columns e "SELECT * FROM two" [ "a"; "a_1" ]);
    case "create view validates now" (fun () ->
        let e = engine () in
        match Engine.execute e "CREATE VIEW v AS SELECT a FROM missing" with
        | Error msg -> Alcotest.(check bool) "" true (contains ~needle:"does not exist" msg)
        | Ok _ -> Alcotest.fail "expected error");
    case "drop view" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)"; "CREATE VIEW v AS SELECT a FROM t" ];
        ignore (exec_ok e "DROP VIEW v");
        match Engine.execute e "DROP VIEW v" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
    case "dml on views rejected" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)"; "CREATE VIEW v AS SELECT a FROM t" ];
        match Engine.execute e "INSERT INTO v VALUES (1)" with
        | Error msg -> Alcotest.(check bool) "" true (contains ~needle:"view" msg)
        | Ok _ -> Alcotest.fail "expected error");
  ]

let dml_tests =
  [
    case "insert reports count and coerces" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a float, b text)" ];
        (match exec_ok e "INSERT INTO t VALUES (1, 'x'), (2.5, null)" with
        | Engine.Affected 2 -> ()
        | _ -> Alcotest.fail "expected 2 rows");
        check_rows e "SELECT a FROM t" [ [ "1.0" ]; [ "2.5" ] ]);
    case "insert type mismatch" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)" ];
        match Engine.execute e "INSERT INTO t VALUES ('oops')" with
        | Error msg -> Alcotest.(check bool) "" true (contains ~needle:"expects int" msg)
        | Ok _ -> Alcotest.fail "expected error");
    case "insert arity mismatch" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int, b int)" ];
        match Engine.execute e "INSERT INTO t VALUES (1)" with
        | Error msg -> Alcotest.(check bool) "" true (contains ~needle:"expected 2" msg)
        | Ok _ -> Alcotest.fail "expected error");
    case "insert select" (fun () ->
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (1), (2)";
            "CREATE TABLE t2 (a int)"; "INSERT INTO t2 SELECT a * 10 FROM t";
          ];
        check_rows e "SELECT * FROM t2" [ [ "10" ]; [ "20" ] ]);
    case "insert computed expressions" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (1 + 2 * 3)" ];
        check_rows e "SELECT * FROM t" [ [ "7" ] ]);
    case "delete with predicate (3VL: unknown rows stay)" (fun () ->
        let e = engine () in
        exec_all e
          [ "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (1), (2), (null)" ];
        (match exec_ok e "DELETE FROM t WHERE a > 1" with
        | Engine.Affected 1 -> ()
        | _ -> Alcotest.fail "expected 1 deleted");
        check_rows e "SELECT * FROM t" [ [ "1" ]; [ "null" ] ]);
    case "delete all" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (1), (2)" ];
        (match exec_ok e "DELETE FROM t" with
        | Engine.Affected 2 -> ()
        | _ -> Alcotest.fail "expected 2");
        check_count e "SELECT * FROM t" 0);
    case "delete duplicates together" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (2), (2), (3)" ];
        ignore (exec_ok e "DELETE FROM t WHERE a = 2");
        check_rows e "SELECT * FROM t" [ [ "3" ] ]);
    case "update with expressions" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int, b text)"; "INSERT INTO t VALUES (1, 'x'), (5, 'y')" ];
        (match exec_ok e "UPDATE t SET a = a + 100, b = b || '!' WHERE a > 2" with
        | Engine.Affected 1 -> ()
        | _ -> Alcotest.fail "expected 1");
        check_rows e "SELECT * FROM t" [ [ "1"; "x" ]; [ "105"; "y!" ] ]);
    case "update unknown column" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int)" ];
        match Engine.execute e "UPDATE t SET z = 1" with
        | Error msg -> Alcotest.(check bool) "" true (contains ~needle:"does not exist" msg)
        | Ok _ -> Alcotest.fail "expected error");
    case "update with subquery predicate" (fun () ->
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (1), (2)";
            "CREATE TABLE keys (k int)"; "INSERT INTO keys VALUES (2)";
          ];
        ignore (exec_ok e "UPDATE t SET a = 0 WHERE a IN (SELECT k FROM keys)");
        check_rows e "SELECT * FROM t" [ [ "0" ]; [ "1" ] ]);
  ]

let script_tests =
  [
    case "script runs in order" (fun () ->
        let e = engine () in
        match
          Engine.execute_script e
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1); SELECT a FROM t;"
        with
        | Ok [ Engine.Message _; Engine.Affected 1; Engine.Rows rs ] ->
          Alcotest.(check int) "" 1 (List.length rs.Engine.rows)
        | Ok _ -> Alcotest.fail "unexpected outcomes"
        | Error msg -> Alcotest.fail msg);
    case "script stops at first failure, prior effects kept" (fun () ->
        let e = engine () in
        (match
           Engine.execute_script e "CREATE TABLE t (a int); SELECT nope FROM t; CREATE TABLE u (a int)"
         with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected error");
        check_count e "SELECT * FROM t" 0;
        let msg = query_err e "SELECT * FROM u" in
        Alcotest.(check bool) "u not created" true (contains ~needle:"does not exist" msg));
  ]

let eager_tests =
  [
    case "store provenance materializes and registers" (fun () ->
        let e = forum_engine () in
        ignore (exec_ok e "STORE PROVENANCE SELECT mid, text FROM messages INTO mp");
        check_count e "SELECT * FROM mp" 2;
        match Engine.provenance_columns e "mp" with
        | Some cols ->
          Alcotest.(check (list string)) ""
            [ "prov_messages_mid"; "prov_messages_text"; "prov_messages_uid" ] cols
        | None -> Alcotest.fail "not registered");
    case "store provenance of an explicit provenance query" (fun () ->
        let e = forum_engine () in
        ignore (exec_ok e "STORE PROVENANCE SELECT PROVENANCE mid FROM messages INTO mp2");
        check_columns e "SELECT * FROM mp2"
          [ "mid"; "prov_messages_mid"; "prov_messages_text"; "prov_messages_uid" ]);
    case "eager equals lazy" (fun () ->
        let e = forum_engine () in
        ignore
          (exec_ok e
             "STORE PROVENANCE SELECT count(*) AS c, text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text INTO eager_t");
        check_same e "SELECT * FROM eager_t"
          "SELECT PROVENANCE count(*) AS c, text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text");
    case "dropping the stored table unregisters it" (fun () ->
        let e = forum_engine () in
        ignore (exec_ok e "STORE PROVENANCE SELECT mid FROM messages INTO mp3");
        ignore (exec_ok e "DROP TABLE mp3");
        Alcotest.(check bool) "" true (Engine.provenance_columns e "mp3" = None));
  ]

let explain_tests =
  [
    case "explain produces the four panes" (fun () ->
        let e = forum_engine () in
        match Engine.explain e Perm_workload.Forum.q1_provenance with
        | Ok panes ->
          Alcotest.(check bool) "original has Provenance node" true
            (contains ~needle:"Provenance(influence)" panes.Engine.original_tree);
          Alcotest.(check bool) "rewritten has no marker" false
            (contains ~needle:"Provenance(" panes.Engine.rewritten_tree);
          Alcotest.(check bool) "rewritten sql mentions prov col" true
            (contains ~needle:"prov_messages_mid" panes.Engine.rewritten_sql);
          Alcotest.(check bool) "optimized tree present" true
            (String.length panes.Engine.optimized_tree > 0)
        | Error msg -> Alcotest.fail msg);
    case "explain reports aggregation strategy" (fun () ->
        let e = forum_engine () in
        match Engine.explain e "SELECT PROVENANCE count(*) FROM approved" with
        | Ok panes -> Alcotest.(check (list string)) "" [ "join" ] panes.Engine.agg_strategies
        | Error msg -> Alcotest.fail msg);
    case "explain statement outcome" (fun () ->
        let e = forum_engine () in
        match exec_ok e "EXPLAIN SELECT mid FROM messages" with
        | Engine.Explained _ -> ()
        | _ -> Alcotest.fail "expected Explained");
    case "rewritten sql of apply-free plans re-parses and agrees" (fun () ->
        let e = forum_engine () in
        let sql = Perm_workload.Forum.q1_provenance in
        match Engine.explain e sql with
        | Ok panes ->
          let back = query_ok e panes.Engine.rewritten_sql in
          let orig = query_ok e sql in
          Alcotest.(check rows_testable) "same rows"
            (List.sort compare (strings_of_rows orig.Engine.rows))
            (List.sort compare (strings_of_rows back.Engine.rows))
        | Error msg -> Alcotest.fail msg);
  ]

let pipeline_tests =
  [
    case "rewriter runs unconditionally but is identity without markers" (fun () ->
        let e = forum_engine () in
        ignore (query_ok e "SELECT mid FROM messages");
        match Engine.last_report e with
        | Some r -> Alcotest.(check int) "" 0 r.Perm_provenance.Rewriter.rewritten_markers
        | None -> Alcotest.fail "no report");
    case "optimizer config is honoured per session" (fun () ->
        let e = forum_engine () in
        Engine.set_optimizer_config e Planner.disabled_config;
        check_count e Perm_workload.Forum.q1_provenance 4);
    case "stats reflect storage" (fun () ->
        let e = forum_engine () in
        let stats = Engine.stats e in
        Alcotest.(check int) "rows" 3 (stats.Planner.table_rows "users");
        Alcotest.(check int) "distinct" 3 (stats.Planner.table_distinct "users" "uid");
        Alcotest.(check int) "missing table" 0 (stats.Planner.table_rows "missing"));
    case "query on non-row statement errors" (fun () ->
        let e = engine () in
        match Engine.query e "CREATE TABLE t (a int)" with
        | Error msg -> Alcotest.(check bool) "" true (contains ~needle:"did not return rows" msg)
        | Ok _ -> Alcotest.fail "expected error");
    case "runtime errors surface as Error, not exceptions" (fun () ->
        let e = forum_engine () in
        let msg = query_err e "SELECT 1 / (uid - uid) FROM users" in
        Alcotest.(check string) "" "division by zero" msg);
    case "an engine dropped without close is collected" (fun () ->
        let first = Weak.create 1 in
        let make () =
          let e = forum_engine () in
          ignore (query_ok e "SELECT * FROM users");
          Weak.set first 0 (Some e)
        in
        make ();
        (* the second engine takes over the process-wide spill observer *)
        let second = engine () in
        Gc.full_major ();
        Alcotest.(check bool) "first engine collected" false
          (Weak.check first 0);
        Engine.close second);
  ]

let () =
  Alcotest.run "engine"
    [
      ("ddl", ddl_tests);
      ("dml", dml_tests);
      ("scripts", script_tests);
      ("eager-provenance", eager_tests);
      ("explain", explain_tests);
      ("pipeline", pipeline_tests);
    ]
