(* Golden tests for the paper's figures.

   E1 (Figure 1): the example database and queries q1/q2/q3.
   E2 (Figure 2): the exact provenance table of q1, including NULL padding
   and column order.
   E3 (Figure 3): the pipeline stages are all exercised in order.
   E4 (Figure 4): the browser panes. *)

module Engine = Perm_engine.Engine
open Perm_testkit.Kit

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go idx = idx + n <= h && (String.sub hay idx n = needle || go (idx + 1)) in
  n = 0 || go 0

let figure1_tests =
  [
    case "E1: base tables hold exactly the printed rows" (fun () ->
        let e = forum_engine () in
        check_rows e "SELECT * FROM messages"
          [ [ "1"; "lorem ipsum ..."; "3" ]; [ "4"; "hi there ..."; "2" ] ];
        check_rows e "SELECT * FROM users"
          [ [ "1"; "Bert" ]; [ "2"; "Gert" ]; [ "3"; "Gertrud" ] ];
        check_rows e "SELECT * FROM imports"
          [ [ "2"; "hello ..."; "superForum" ]; [ "3"; "I don't ..."; "HiBoard" ] ];
        check_rows e "SELECT * FROM approved"
          [ [ "2"; "2" ]; [ "1"; "4" ]; [ "2"; "4" ]; [ "3"; "4" ] ]);
    case "E1: q1 returns all four messages" (fun () ->
        check_rows (forum_engine ()) Perm_workload.Forum.q1
          [
            [ "1"; "lorem ipsum ..." ]; [ "2"; "hello ..." ];
            [ "3"; "I don't ..." ]; [ "4"; "hi there ..." ];
          ]);
    case "E1: q2 view equals q1" (fun () ->
        check_same (forum_engine ()) "SELECT * FROM v1" Perm_workload.Forum.q1);
    case "E1: q3 counts approvals, unapproved messages omitted" (fun () ->
        check_rows (forum_engine ()) Perm_workload.Forum.q3
          [ [ "3"; "hi there ..." ]; [ "1"; "hello ..." ] ]);
  ]

(* Figure 2, verbatim from the paper:
   original result attributes | provenance from messages | from imports *)
let figure2_expected =
  [
    [ "1"; "lorem ipsum ..."; "1"; "lorem ipsum ..."; "3"; "null"; "null"; "null" ];
    [ "2"; "hello ..."; "null"; "null"; "null"; "2"; "hello ..."; "superForum" ];
    [ "3"; "I don't ..."; "null"; "null"; "null"; "3"; "I don't ..."; "HiBoard" ];
    [ "4"; "hi there ..."; "4"; "hi there ..."; "2"; "null"; "null"; "null" ];
  ]

let figure2_tests =
  [
    case "E2: provenance of q1 matches Figure 2 exactly" (fun () ->
        let e = forum_engine () in
        check_columns e Perm_workload.Forum.q1_provenance
          [
            "mid"; "text"; "prov_messages_mid"; "prov_messages_text";
            "prov_messages_uid"; "prov_imports_mid"; "prov_imports_text";
            "prov_imports_origin";
          ];
        check_rows e Perm_workload.Forum.q1_provenance figure2_expected);
    case "E2: stable under all optimizer settings" (fun () ->
        let e = forum_engine () in
        Engine.set_optimizer_config e Perm_planner.Planner.disabled_config;
        check_rows e Perm_workload.Forum.q1_provenance figure2_expected);
    case "E2: stable under both aggregation strategies (no agg here, smoke)" (fun () ->
        let e = forum_engine () in
        Engine.set_agg_strategy e Engine.Use_lateral;
        check_rows e Perm_workload.Forum.q1_provenance figure2_expected);
    case "E2: schema text of 2.1 for q3-style query" (fun () ->
        (* the paper's 2.1 prints the provenance schema of the aggregation
           query: count, text, then the provenance columns of messages,
           imports and approved, in that order *)
        let e = forum_engine () in
        check_columns e
          "SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text"
          [
            "count"; "text"; "prov_messages_mid"; "prov_messages_text";
            "prov_messages_uid"; "prov_imports_mid"; "prov_imports_text";
            "prov_imports_origin"; "prov_approved_uid"; "prov_approved_mid";
          ]);
  ]

let figure3_tests =
  [
    case "E3: pipeline stages all run and report" (fun () ->
        let e = forum_engine () in
        match Engine.plan_query e Perm_workload.Forum.q1_provenance with
        | Ok (analyzed, optimized) ->
          (* analyzer output carries the marker; optimizer output does not *)
          (match analyzed with
          | Perm_algebra.Plan.Prov _ -> ()
          | _ -> Alcotest.fail "analyzer must emit the Prov marker");
          let rec no_markers p =
            (match p with
            | Perm_algebra.Plan.Prov _ | Perm_algebra.Plan.Baserel _
            | Perm_algebra.Plan.External _ ->
              Alcotest.fail "marker survived the rewriter"
            | _ -> ());
            List.iter no_markers (Perm_algebra.Plan.children p)
          in
          no_markers optimized
        | Error msg -> Alcotest.fail msg);
    case "E3: view unfolding happens in the analyzer" (fun () ->
        let e = forum_engine () in
        match Engine.plan_query e "SELECT text FROM v1" with
        | Ok (analyzed, _) ->
          let txt = Perm_algebra.Pretty.plan_to_string ~show_attrs:false analyzed in
          Alcotest.(check bool) "unfolded to base scans" true
            (contains ~needle:"Scan(messages)" txt && contains ~needle:"Scan(imports)" txt)
        | Error msg -> Alcotest.fail msg);
  ]

let figure4_tests =
  [
    case "E4: the four browser panes are produced" (fun () ->
        let e = forum_engine () in
        let sql =
          "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text FROM \
           v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text"
        in
        match Engine.explain e sql with
        | Ok panes ->
          Alcotest.(check string) "pane 1: input echoed" sql panes.Engine.input_sql;
          Alcotest.(check bool) "pane 3: original tree shows aggregation" true
            (contains ~needle:"Aggregate" panes.Engine.original_tree);
          Alcotest.(check bool) "pane 4: rewritten tree annotates groups" true
            (contains ~needle:"GroupAnnotate" panes.Engine.rewritten_tree);
          Alcotest.(check bool) "pane 4: the union's witnesses are flagged" true
            (contains ~needle:"MarkFirst" panes.Engine.rewritten_tree);
          Alcotest.(check bool) "pane 2: rewritten SQL is provenance-free SQL" false
            (contains ~needle:"PROVENANCE" panes.Engine.rewritten_sql);
          Alcotest.(check bool) "pane 2 mentions provenance columns" true
            (contains ~needle:"prov_approved_uid" panes.Engine.rewritten_sql)
        | Error msg -> Alcotest.fail msg);
  ]

let () =
  Alcotest.run "figures"
    [
      ("figure1", figure1_tests);
      ("figure2", figure2_tests);
      ("figure3", figure3_tests);
      ("figure4", figure4_tests);
    ]
