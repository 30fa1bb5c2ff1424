(* Transaction tests: BEGIN/COMMIT/ROLLBACK snapshot semantics across DML,
   DDL, indexes and eager provenance. *)

module Engine = Perm_engine.Engine
open Perm_testkit.Kit

let setup () =
  let e = engine () in
  exec_all e [ "CREATE TABLE t (a int)"; "INSERT INTO t VALUES (1), (2)" ];
  e

let basic_tests =
  [
    case "rollback undoes dml" (fun () ->
        let e = setup () in
        exec_all e [ "BEGIN"; "INSERT INTO t VALUES (3)"; "DELETE FROM t WHERE a = 1" ];
        check_rows e "SELECT * FROM t" [ [ "2" ]; [ "3" ] ];
        ignore (exec_ok e "ROLLBACK");
        check_rows e "SELECT * FROM t" [ [ "1" ]; [ "2" ] ]);
    case "commit keeps dml" (fun () ->
        let e = setup () in
        exec_all e [ "BEGIN"; "UPDATE t SET a = a * 10"; "COMMIT" ];
        check_rows e "SELECT * FROM t" [ [ "10" ]; [ "20" ] ]);
    case "rollback undoes ddl" (fun () ->
        let e = setup () in
        exec_all e [ "BEGIN"; "CREATE TABLE u (x int)"; "DROP TABLE t"; "ROLLBACK" ];
        check_count e "SELECT * FROM t" 2;
        Alcotest.(check bool) "u gone" true (Result.is_error (Engine.query e "SELECT * FROM u")));
    case "rollback undoes views and indexes" (fun () ->
        let e = setup () in
        exec_all e
          [ "BEGIN"; "CREATE VIEW v AS SELECT a FROM t"; "CREATE INDEX t_a ON t (a)"; "ROLLBACK" ];
        Alcotest.(check bool) "view gone" true
          (Result.is_error (Engine.query e "SELECT * FROM v"));
        (* index name free again *)
        match Engine.execute e "CREATE INDEX t_a ON t (a)" with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "index not rolled back: %s" msg);
    case "rollback undoes stored provenance registry" (fun () ->
        let e = forum_engine () in
        exec_all e [ "BEGIN"; "STORE PROVENANCE SELECT mid FROM messages INTO mp"; "ROLLBACK" ];
        Alcotest.(check bool) "table gone" true
          (Result.is_error (Engine.query e "SELECT * FROM mp"));
        Alcotest.(check bool) "registry gone" true (Engine.provenance_columns e "mp" = None));
    case "begin transaction / start transaction synonyms" (fun () ->
        let e = setup () in
        ignore (exec_ok e "BEGIN TRANSACTION");
        ignore (exec_ok e "ROLLBACK");
        ignore (exec_ok e "START TRANSACTION");
        ignore (exec_ok e "COMMIT"));
    (* a BEGIN snapshot keeps its own counts: the ones the transaction
       fills in must not survive its rollback *)
    case "rollback restores the distinct counts" (fun () ->
        let e = setup () in
        check_distinct e "t";
        exec_all e [ "BEGIN"; "INSERT INTO t VALUES (3), (4), (null)" ];
        check_distinct e "t";
        ignore (exec_ok e "ROLLBACK");
        check_rows e "SELECT * FROM t" [ [ "1" ]; [ "2" ] ];
        check_distinct e "t");
  ]

let error_tests =
  [
    case "nested begin rejected" (fun () ->
        let e = setup () in
        ignore (exec_ok e "BEGIN");
        Alcotest.(check bool) "" true (Result.is_error (Engine.execute e "BEGIN")));
    case "commit without begin rejected" (fun () ->
        Alcotest.(check bool) "" true
          (Result.is_error (Engine.execute (setup ()) "COMMIT")));
    case "rollback without begin rejected" (fun () ->
        Alcotest.(check bool) "" true
          (Result.is_error (Engine.execute (setup ()) "ROLLBACK")));
    case "after rollback a new transaction can start" (fun () ->
        let e = setup () in
        exec_all e [ "BEGIN"; "ROLLBACK"; "BEGIN"; "INSERT INTO t VALUES (9)"; "COMMIT" ];
        check_count e "SELECT * FROM t" 3);
  ]

let isolation_tests =
  [
    case "snapshot is isolated from post-begin writes to rows" (fun () ->
        let e = setup () in
        exec_all e [ "CREATE INDEX t_a ON t (a)"; "BEGIN" ];
        exec_all e [ "INSERT INTO t VALUES (42)" ];
        check_rows e "SELECT a FROM t WHERE a = 42" [ [ "42" ] ];
        ignore (exec_ok e "ROLLBACK");
        (* the index must not contain 42 after rollback *)
        check_count e "SELECT a FROM t WHERE a = 42" 0);
    case "queries inside the transaction see its own changes" (fun () ->
        let e = setup () in
        exec_all e [ "BEGIN"; "UPDATE t SET a = 99 WHERE a = 1" ];
        check_rows e "SELECT * FROM t" [ [ "2" ]; [ "99" ] ];
        ignore (exec_ok e "COMMIT"));
    case "provenance queries work inside transactions" (fun () ->
        let e = setup () in
        exec_all e [ "BEGIN"; "INSERT INTO t VALUES (7)" ];
        check_rows e "SELECT PROVENANCE a FROM t WHERE a = 7" [ [ "7"; "7" ] ];
        ignore (exec_ok e "ROLLBACK");
        check_count e "SELECT PROVENANCE a FROM t WHERE a = 7" 0);
    case "copy-on-rollback does not corrupt shared tuples" (fun () ->
        (* rows are shared between snapshot and live store; DML must rebuild
           rather than mutate, so the snapshot stays intact *)
        let e = setup () in
        exec_all e [ "BEGIN"; "UPDATE t SET a = a + 1000"; "ROLLBACK" ];
        check_rows e "SELECT * FROM t" [ [ "1" ]; [ "2" ] ]);
  ]

let () =
  Alcotest.run "transactions"
    [
      ("basic", basic_tests);
      ("errors", error_tests);
      ("isolation", isolation_tests);
    ]
