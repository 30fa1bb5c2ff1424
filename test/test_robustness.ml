(* Robustness: the typed error taxonomy, the resource governor
   (statement_timeout / row_limit / tuple_budget / manual cancel) and
   graceful degradation of the parallel executor.

   The governor acceptance bar: an armed statement_timeout must kill a
   long provenance self-join within 2x the configured bound, in serial
   AND parallel execution, with the kill visible as a typed [Timeout]
   error, an [engine.timeout] counter, and a pool that stays reusable. *)

module Engine = Perm_engine.Engine
module Metrics = Perm_obs.Metrics
module Err = Perm_err
module Fault = Perm_fault
open Perm_testkit.Kit

let domains =
  match Sys.getenv_opt "PERM_PARALLEL" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 2)
  | None -> 2

let go_parallel e =
  Engine.set_parallel e (Engine.Par_domains domains);
  Engine.set_parallel_threshold e 1;
  Engine.set_batch_rows e (min (Engine.batch_rows e) 64)

let kind_testable =
  Alcotest.testable
    (fun fmt k -> Format.pp_print_string fmt (Err.kind_label k))
    ( = )

(* Run through the typed surface; fail the test on Ok. *)
let exec_err e sql =
  match Engine.execute_err e sql with
  | Ok _ -> Alcotest.failf "expected an error on %S" sql
  | Error err -> err

let check_kind e sql kind =
  let err = exec_err e sql in
  Alcotest.(check kind_testable)
    (Printf.sprintf "%s [kind, got %S]" sql err.Err.msg)
    kind err.Err.kind

let counter e name = Metrics.counter (Engine.metrics e) name

let forum_scaled ?(messages = 300) ?(users = 3) () =
  let e = engine () in
  Perm_workload.Forum.load_scaled e ~messages ~users ();
  e

(* Expensive self-joins: their predicates are no equi-keys (each side of
   an [=] reads both inputs), so each runs as a nested loop over a cross
   product — morsel eligible; with few users every message matches a
   third of the table, and each of those 3M pairs is then tested against
   every message: far slower than any timeout bound used below. *)
let heavy_join =
  "SELECT PROVENANCE m1.text, m3.text FROM messages m1, messages m2, \
   messages m3 WHERE m1.uid - m2.uid = 0 AND m2.mid - m3.mid = 0"

(* Cross product for the serial-only tests (nested loop, not morsel
   eligible, runs for seconds if never killed). *)
let heavy_cross =
  "SELECT m1.mid + m2.mid + m3.mid FROM messages m1, messages m2, messages m3"

let suite_kinds =
  [
    case "malformed SQL is Parse" (fun () ->
        let e = forum_engine () in
        check_kind e "SELEKT 1 FORM messages" Err.Parse;
        check_kind e "SELECT * FROM" Err.Parse;
        check_kind e "SELECT ((1 + 2 FROM messages" Err.Parse);
    case "unknown relation / attribute is Analyze" (fun () ->
        let e = forum_engine () in
        check_kind e "SELECT * FROM nosuch" Err.Analyze;
        check_kind e "SELECT nosuch FROM messages" Err.Analyze;
        check_kind e "INSERT INTO nosuch VALUES (1)" Err.Analyze;
        check_kind e "DROP TABLE nosuch" Err.Analyze);
    case "data errors are Runtime" (fun () ->
        let e = forum_engine () in
        check_kind e "SELECT mid / (mid - mid) FROM messages" Err.Runtime;
        check_kind e "SELECT CAST(text AS int) FROM messages" Err.Runtime;
        (* scalar subquery returning several rows is only detectable when
           the data flows *)
        check_kind e
          "SELECT (SELECT mid FROM messages) FROM users" Err.Runtime);
    case "transaction misuse is Runtime" (fun () ->
        let e = forum_engine () in
        check_kind e "COMMIT" Err.Runtime;
        check_kind e "ROLLBACK" Err.Runtime;
        ignore (exec_ok e "BEGIN");
        check_kind e "BEGIN" Err.Runtime;
        ignore (exec_ok e "ROLLBACK"));
    case "NULL-in-aggregate edges succeed per SQL semantics" (fun () ->
        let e = engine () in
        exec_all e
          [
            "CREATE TABLE t (a int)";
            "INSERT INTO t VALUES (NULL)";
            "INSERT INTO t VALUES (NULL)";
          ];
        (* aggregates over all-NULL and empty inputs are NULL (count is 0),
           never an error *)
        check_rows e "SELECT sum(a), avg(a), min(a), max(a) FROM t"
          [ [ "null"; "null"; "null"; "null" ] ];
        check_rows e "SELECT count(a), count(*) FROM t" [ [ "0"; "2" ] ];
        check_rows e "SELECT sum(a) FROM t WHERE a > 0" [ [ "null" ] ]);
    case "execute keeps the legacy bare-message surface" (fun () ->
        let e = forum_engine () in
        let typed = exec_err e "SELECT * FROM nosuch" in
        match Engine.execute e "SELECT * FROM nosuch" with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error msg ->
          Alcotest.(check string) "to_string shim" (Err.to_string typed) msg);
    case "describe tags governor kinds only" (fun () ->
        Alcotest.(check string)
          "parse stays bare" "boom"
          (Err.describe (Err.parse "boom"));
        Alcotest.(check string)
          "timeout is tagged" "timeout: boom"
          (Err.describe (Err.timeout "boom"));
        Alcotest.(check bool)
          "governor kinds retryable" true
          (Err.retryable (Err.timeout "x") && Err.retryable (Err.faulted "x"));
        Alcotest.(check bool)
          "parse not retryable" false
          (Err.retryable (Err.parse "x")));
  ]

(* Fuzz: the engine boundary must map every failure into a typed error —
   [execute_err] never raises, whatever token soup comes in. *)
let soup_tokens =
  [|
    "SELECT"; "PROVENANCE"; "FROM"; "WHERE"; "GROUP"; "BY"; "ORDER"; "LIMIT";
    "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE"; "JOIN"; "ON";
    "LEFT"; "UNION"; "ALL"; "DISTINCT"; "AS"; "AND"; "OR"; "NOT"; "NULL";
    "CASE"; "WHEN"; "THEN"; "END"; "EXISTS"; "IN"; "BEGIN"; "COMMIT";
    "ROLLBACK"; "CREATE"; "TABLE"; "VIEW"; "DROP"; "messages"; "users";
    "mid"; "uid"; "text"; "name"; "m"; "u"; "count"; "sum"; "avg"; "*"; ",";
    "("; ")"; ";"; "="; "<"; ">"; "+"; "-"; "/"; "%"; "'x'"; "'"; "\"";
    "1"; "0"; "42"; "1.5"; "$1"; "@"; "#"; "\\"; "\xc3\xa9"; "\x00";
  |]

let gen_soup =
  QCheck.Gen.(
    let token = map (Array.get soup_tokens) (int_bound (Array.length soup_tokens - 1)) in
    map (String.concat " ") (list_size (int_range 1 25) token))

let arb_soup = QCheck.make ~print:(Printf.sprintf "%S") gen_soup

let suite_fuzz =
  [
    qcheck
      (QCheck.Test.make ~name:"execute_err never raises on token soup"
         ~count:300 arb_soup (fun sql ->
           let e = forum_engine () in
           (match Engine.execute_err e sql with Ok _ | Error _ -> ());
           (* and the session survives to run a real statement (one no DDL
              soup can have invalidated) *)
           match Engine.execute_err e "SELECT 1" with
           | Ok _ -> true
           | Error err -> QCheck.Test.fail_reportf "session broken: %s" err.Err.msg));
  ]

let expect_timeout e ~bound_ms sql =
  Engine.set_statement_timeout e bound_ms;
  let t0 = Unix.gettimeofday () in
  let err = exec_err e sql in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Engine.set_statement_timeout e 0.;
  Alcotest.(check kind_testable) "killed with Timeout" Err.Timeout err.Err.kind;
  Alcotest.(check bool)
    (Printf.sprintf "killed within 2x bound (%.0f ms <= %.0f ms)" elapsed_ms
       (2. *. bound_ms))
    true
    (elapsed_ms <= 2. *. bound_ms)

let suite_governor =
  [
    case "statement_timeout kills a serial self-join within 2x bound"
      (fun () ->
        let e = forum_scaled ~messages:400 () in
        expect_timeout e ~bound_ms:250. heavy_cross;
        Alcotest.(check bool) "engine.timeout counter" true
          (counter e "engine.timeout" >= 1);
        (* the kill is queryable through the perm_metrics system view *)
        check_rows e
          "SELECT value FROM perm_metrics WHERE name = 'engine.timeout'"
          [ [ "1.0" ] ];
        (* the session is fine afterwards *)
        ignore (query_ok e "SELECT count(*) FROM messages"));
    case "statement_timeout kills a parallel self-join; pool survives"
      (fun () ->
        let e = forum_scaled ~messages:3000 () in
        go_parallel e;
        expect_timeout e ~bound_ms:400. heavy_join;
        Alcotest.(check bool) "engine.timeout counter" true
          (counter e "engine.timeout" >= 1);
        Alcotest.(check int) "worker pool was created and survives" domains
          (Engine.pool_size e);
        (* the generation drained: the pool still answers parallel queries *)
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        Alcotest.(check int) "pool reused after the kill" domains
          (Engine.pool_size e);
        Engine.close e);
    case "row_limit kills past the cap with Resource_exhausted" (fun () ->
        let e = forum_scaled () in
        Engine.set_row_limit e 10;
        check_kind e "SELECT * FROM messages" Err.Resource_exhausted;
        Alcotest.(check bool) "engine.resource_exhausted counter" true
          (counter e "engine.resource_exhausted" >= 1);
        (* under the cap passes untouched — a kill switch, not a LIMIT *)
        check_count e "SELECT * FROM messages LIMIT 5" 5;
        Engine.set_row_limit e 0;
        ignore (query_ok e "SELECT * FROM messages"));
    case "row_limit is enforced on the parallel path too" (fun () ->
        let e = forum_scaled () in
        go_parallel e;
        Engine.set_row_limit e 10;
        check_kind e "SELECT mid, text FROM messages WHERE mid >= 0"
          Err.Resource_exhausted;
        Engine.set_row_limit e 0;
        ignore (query_ok e "SELECT mid, text FROM messages WHERE mid >= 0");
        Engine.close e);
    case "tuple_budget kills tuple-hungry statements" (fun () ->
        let e = forum_scaled ~messages:2000 () in
        (* spill off turns the budget back into a hard kill switch *)
        Engine.set_spill e false;
        Engine.set_tuple_budget e 1000;
        check_kind e "SELECT count(*) FROM messages" Err.Resource_exhausted;
        Engine.set_tuple_budget e 0;
        ignore (query_ok e "SELECT count(*) FROM messages"));
    case "manual cancel from another domain lands as Cancelled" (fun () ->
        let e = forum_scaled ~messages:400 () in
        (* an armed (generous) timeout switches the per-operator guard on,
           which is also where a manual cancel is noticed *)
        Engine.set_statement_timeout e 60_000.;
        let canceller =
          Domain.spawn (fun () ->
              Unix.sleepf 0.05;
              Engine.cancel e "killed by test")
        in
        let err = exec_err e heavy_cross in
        Domain.join canceller;
        Engine.set_statement_timeout e 0.;
        Alcotest.(check kind_testable) "Cancelled" Err.Cancelled err.Err.kind;
        Alcotest.(check bool) "engine.cancelled counter" true
          (counter e "engine.cancelled" >= 1);
        ignore (query_ok e "SELECT count(*) FROM messages"));
  ]

let suite_degradation =
  [
    case "poisoned parallel run degrades to a serial retry" (fun () ->
        let e = forum_scaled () in
        go_parallel e;
        let sql = "SELECT mid, text FROM messages WHERE mid >= 0" in
        Engine.set_parallel e Engine.Par_off;
        let expected = strings_of_rows (query_ok e sql).Engine.rows in
        go_parallel e;
        Fault.set "pool.dispatch" 1.0;
        let rows = strings_of_rows (query_ok e sql).Engine.rows in
        Fault.reset ();
        Alcotest.(check rows_testable) "serial retry returns the right rows"
          expected rows;
        Alcotest.(check bool) "degradation counted" true
          (counter e "executor.par.degraded" >= 1);
        Alcotest.(check bool) "fallback.error counted" true
          (counter e "executor.par.fallback.error" >= 1);
        Alcotest.(check bool) "injection visible in metrics" true
          (counter e "fault.injected.pool.dispatch" >= 1);
        (* the poisoned generation drained; the same pool keeps working *)
        Alcotest.(check int) "pool intact" domains (Engine.pool_size e);
        ignore (query_ok e sql);
        Engine.close e);
    case "failed statement inside a transaction leaves the snapshot intact"
      (fun () ->
        let e = forum_engine () in
        let base = (query_ok e "SELECT count(*) FROM messages").Engine.rows in
        ignore (exec_ok e "BEGIN");
        ignore (exec_ok e "INSERT INTO messages VALUES (100, 'tmp', 1)");
        check_kind e "SELECT mid / (mid - mid) FROM messages" Err.Runtime;
        (* still inside the transaction, uncommitted work still visible *)
        check_kind e "BEGIN" Err.Runtime;
        check_count e "SELECT * FROM messages WHERE mid = 100" 1;
        ignore (exec_ok e "ROLLBACK");
        check_count e "SELECT * FROM messages WHERE mid = 100" 0;
        Alcotest.(check rows_testable) "pre-BEGIN state restored"
          (strings_of_rows base)
          (strings_of_rows
             (query_ok e "SELECT count(*) FROM messages").Engine.rows));
  ]

let () =
  Alcotest.run "robustness"
    [
      ("kinds", suite_kinds);
      ("fuzz", suite_fuzz);
      ("governor", suite_governor);
      ("degradation", suite_degradation);
    ]
