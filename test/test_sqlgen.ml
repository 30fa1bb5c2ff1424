(* Plan-to-SQL deparser tests: for Apply-free plans the rewritten SQL must
   re-parse, re-analyze, and produce the same rows — the Perm browser's
   pane 2 is executable. *)

module Engine = Perm_engine.Engine
module Sqlgen = Perm_engine.Sqlgen
open Perm_testkit.Kit

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go idx = idx + n <= h && (String.sub hay idx n = needle || go (idx + 1)) in
  n = 0 || go 0

(* deparse the rewritten plan of [sql] and check the SQL text evaluates to
   the same result *)
let check_roundtrip e sql =
  match Engine.explain e sql with
  | Error msg -> Alcotest.failf "explain failed for %S: %s" sql msg
  | Ok panes ->
    let back =
      match Engine.query e panes.Engine.rewritten_sql with
      | Ok rs -> strings_of_rows rs.Engine.rows
      | Error msg ->
        Alcotest.failf "deparsed SQL failed for %S: %s\nSQL was: %s" sql msg
          panes.Engine.rewritten_sql
    in
    let orig = strings_of_rows (query_ok e sql).Engine.rows in
    Alcotest.(check rows_testable) sql (List.sort compare orig) (List.sort compare back)

let corpus =
  [
    "SELECT mid, text FROM messages";
    "SELECT PROVENANCE mid, text FROM messages";
    Perm_workload.Forum.q1;
    Perm_workload.Forum.q1_provenance;
    "SELECT PROVENANCE text FROM v1 BASERELATION";
    "SELECT PROVENANCE DISTINCT uid FROM approved";
    "SELECT PROVENANCE mid FROM messages INTERSECT SELECT mid FROM approved";
    "SELECT PROVENANCE mid FROM messages EXCEPT SELECT mid FROM imports";
    "SELECT PROVENANCE mid, text FROM messages ORDER BY mid DESC LIMIT 1";
    (* GroupAnnotate deparses as the rejoin it fuses *)
    "SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid";
    "SELECT PROVENANCE count(*), max(m.mid) FROM messages m JOIN approved a \
     ON m.mid = a.mid";
    "SELECT PROVENANCE count(*) FROM messages WHERE mid > 100";
    (* a representative flag: the aggregate deparses over the original
       input the flag picks out *)
    "SELECT PROVENANCE " ^ String.sub Perm_workload.Forum.q3 7
      (String.length Perm_workload.Forum.q3 - 7);
    "SELECT PROVENANCE uid, count(*), sum(mid) FROM (SELECT DISTINCT uid, mid \
     FROM approved) d GROUP BY uid";
    "SELECT PROVENANCE count(*) FROM (SELECT mid FROM messages UNION SELECT \
     mid FROM approved) u";
    "SELECT m.text FROM messages m LEFT JOIN approved a ON m.mid = a.mid WHERE a.uid IS NULL";
    "SELECT CASE WHEN mid > 2 THEN upper(text) ELSE text END FROM messages";
    "SELECT coalesce(cast(mid AS text), '?') || '!' FROM messages";
  ]

let roundtrip_tests =
  [
    case "rewritten SQL of the corpus re-executes identically" (fun () ->
        let e = forum_engine () in
        List.iter (check_roundtrip e) corpus);
  ]

let shape_tests =
  [
    case "provenance columns keep their public names" (fun () ->
        let e = forum_engine () in
        match Engine.explain e Perm_workload.Forum.q1_provenance with
        | Ok panes ->
          Alcotest.(check bool) "" true
            (contains ~needle:"AS prov_messages_mid" panes.Engine.rewritten_sql
            || contains ~needle:"AS prov_messages_mid_" panes.Engine.rewritten_sql)
        | Error msg -> Alcotest.fail msg);
    case "semi joins deparse as EXISTS" (fun () ->
        let e = forum_engine () in
        match Engine.plan_query e "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)" with
        | Ok (_, optimized) ->
          let sql = Sqlgen.plan_to_sql optimized in
          Alcotest.(check bool) "" true (contains ~needle:"EXISTS" sql)
        | Error msg -> Alcotest.fail msg);
    case "aggregates deparse with GROUP BY" (fun () ->
        let e = forum_engine () in
        match Engine.plan_query e Perm_workload.Forum.q3 with
        | Ok (_, optimized) ->
          let sql = Sqlgen.plan_to_sql optimized in
          Alcotest.(check bool) "group" true (contains ~needle:"GROUP BY" sql);
          Alcotest.(check bool) "count" true (contains ~needle:"count(*)" sql)
        | Error msg -> Alcotest.fail msg);
    case "correlated apply uses LATERAL rendering (display only)" (fun () ->
        let e = forum_engine () in
        match
          Engine.plan_query e
            "SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text"
        with
        | Ok (analyzed, _) -> (
          (* force the lateral strategy so the deparser sees an Apply *)
          let rewritten, _ =
            Perm_provenance.Rewriter.rewrite
              ~config:
                { Perm_provenance.Rewriter.agg_mode =
                    Perm_provenance.Rewriter.Fixed Perm_provenance.Rewriter.Agg_lateral }
              analyzed
          in
          let sql = Sqlgen.plan_to_sql rewritten in
          Alcotest.(check bool) "" true (contains ~needle:"LATERAL" sql))
        | Error msg -> Alcotest.fail msg);
  ]

let () =
  Alcotest.run "sqlgen"
    [ ("roundtrip", roundtrip_tests); ("shape", shape_tests) ]
