(* Planner tests: constant folding, predicate pushdown, projection pruning
   must preserve semantics; the cost model must rank plans sensibly. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Pretty = Perm_algebra.Pretty
module Planner = Perm_planner.Planner
module Engine = Perm_engine.Engine
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
open Perm_testkit.Kit

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go idx = idx + n <= h && (String.sub hay idx n = needle || go (idx + 1)) in
  n = 0 || go 0

let setup () =
  let e = engine () in
  exec_all e
    [
      "CREATE TABLE r (a int, b text)";
      "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (3, 'z'), (3, 'w')";
      "CREATE TABLE s (a int, c int)";
      "INSERT INTO s VALUES (1, 10), (2, 20), (9, 90)";
    ];
  e

(* run the same query with the optimizer on and off; results must agree *)
let check_equivalent sql =
  let run config =
    let e = setup () in
    Engine.set_optimizer_config e config;
    strings_of_rows (query_ok e sql).Engine.rows |> List.sort compare
  in
  Alcotest.(check rows_testable)
    sql
    (run Planner.disabled_config)
    (run Planner.default_config)

let equivalence_corpus =
  [
    "SELECT a + 0 FROM r WHERE 1 = 1 AND a > 1";
    "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b <> 'zzz'";
    "SELECT x.b FROM (SELECT a * 2 AS d, b FROM r) x WHERE x.d > 2";
    "SELECT b, count(*) FROM r WHERE a >= 1 GROUP BY b HAVING count(*) >= 1";
    "SELECT a FROM r WHERE a IN (SELECT a FROM s) ORDER BY a";
    "SELECT DISTINCT b FROM r WHERE a = 3";
    "SELECT a FROM r UNION ALL SELECT a FROM s ORDER BY a LIMIT 4";
    "SELECT r.a FROM r LEFT JOIN s ON r.a = s.a WHERE r.a > 1";
    "SELECT PROVENANCE a, b FROM r WHERE a = 3";
    "SELECT PROVENANCE count(*), b FROM r GROUP BY b";
    "SELECT a, (SELECT max(c) FROM s) FROM r LIMIT 2";
    "SELECT CASE WHEN 1 = 1 THEN a ELSE 0 END FROM r";
  ]

let equivalence_tests =
  [
    case "optimizer preserves semantics on corpus" (fun () ->
        List.iter check_equivalent equivalence_corpus);
  ]

let folding_tests =
  [
    case "constants fold" (fun () ->
        let e = Planner.optimize Planner.no_stats
            (Plan.Filter
               {
                 child = Plan.Values { attrs = []; rows = [ [] ] };
                 pred =
                   Expr.Binop
                     ( Expr.Eq,
                       Expr.Binop (Expr.Add, Expr.Const (Value.Int 1), Expr.Const (Value.Int 2)),
                       Expr.Const (Value.Int 3) );
               })
        in
        (* 1+2=3 folds to TRUE and the filter disappears *)
        match e with
        | Plan.Values _ -> ()
        | p -> Alcotest.failf "expected filter elimination, got %s" (Pretty.plan_summary p));
    case "division by zero is not folded away" (fun () ->
        let pred =
          Expr.Binop
            (Expr.Eq, Expr.Binop (Expr.Div, Expr.Const (Value.Int 1), Expr.Const (Value.Int 0)),
             Expr.Const (Value.Int 1))
        in
        let p =
          Planner.optimize Planner.no_stats
            (Plan.Filter { child = Plan.Values { attrs = []; rows = [ [] ] }; pred })
        in
        match p with
        | Plan.Filter _ -> ()
        | p -> Alcotest.failf "fold must keep the error: %s" (Pretty.plan_summary p));
    case "kleene shortcuts respect three-valued logic" (fun () ->
        (* false AND unknown folds to false; true AND x folds to x *)
        let a = Attr.fresh "a" Dtype.Bool in
        let x = Expr.Attr a in
        let fold e =
          let p =
            Planner.optimize Planner.no_stats
              (Plan.Filter { child = Plan.Scan { table = "t"; attrs = [ a ] }; pred = e })
          in
          match p with
          | Plan.Filter { pred; _ } -> Some pred
          | Plan.Scan _ -> None
          | _ -> Alcotest.fail "unexpected plan"
        in
        (match fold (Expr.Binop (Expr.And, Expr.Const (Value.Bool true), x)) with
        | Some (Expr.Attr _) -> ()
        | _ -> Alcotest.fail "true AND x should fold to x");
        match fold (Expr.Binop (Expr.Or, x, Expr.Const (Value.Bool false))) with
        | Some (Expr.Attr _) -> ()
        | _ -> Alcotest.fail "x OR false should fold to x");
  ]

let structure_tests =
  [
    case "predicate pushes below projection into the join side" (fun () ->
        let e = setup () in
        match Engine.plan_query e "SELECT r.b FROM r, s WHERE r.a = 1 AND s.c > 5" with
        | Ok (_, optimized) ->
          let txt = Pretty.plan_to_string ~show_attrs:false optimized in
          (* both single-side conjuncts must sit below the join *)
          let join_line =
            String.split_on_char '\n' txt
            |> List.find_opt (fun l -> contains ~needle:"Join" l)
          in
          Alcotest.(check bool) "join exists" true (join_line <> None);
          Alcotest.(check bool) "filters below join" true
            (let lines = String.split_on_char '\n' txt in
             let join_idx = ref (-1) and filter_idx = ref (-1) in
             List.iteri
               (fun idx l ->
                 if contains ~needle:"CrossJoin" l && !join_idx < 0 then join_idx := idx;
                 if contains ~needle:"Select" l && !filter_idx < 0 then filter_idx := idx)
               lines;
             !join_idx >= 0 && !filter_idx > !join_idx)
        | Error msg -> Alcotest.fail msg);
    case "pruning removes unused aggregate calls" (fun () ->
        let e = setup () in
        match
          Engine.plan_query e
            "SELECT x.b FROM (SELECT b, count(*) AS c, sum(a) AS s1 FROM r GROUP BY b) x"
        with
        | Ok (_, optimized) ->
          let txt = Pretty.plan_to_string ~show_attrs:false optimized in
          Alcotest.(check bool) "sum pruned" false (contains ~needle:"sum" txt)
        | Error msg -> Alcotest.fail msg);
    case "top projection kept (it renames), nothing else added" (fun () ->
        (* identity-project elimination only fires on rewriter-generated
           self-maps; the analyzer's top projection introduces fresh output
           attributes and must stay *)
        let e = setup () in
        match Engine.plan_query e "SELECT a, b FROM r" with
        | Ok (_, optimized) ->
          Alcotest.(check string) "" "Project(Scan(r))" (Pretty.plan_summary optimized)
        | Error msg -> Alcotest.fail msg);
    case "rewriter-generated identity projections are dropped" (fun () ->
        let e = setup () in
        match Engine.plan_query e "SELECT PROVENANCE a, b FROM r" with
        | Ok (_, optimized) ->
          (* the unoptimized rewrite stacks three projections over the scan;
             pruning must collapse the pure-identity ones *)
          Alcotest.(check bool) "few operators" true (Plan.count_operators optimized <= 3)
        | Error msg -> Alcotest.fail msg);
    case "no pushdown past outer joins" (fun () ->
        let e = setup () in
        match
          Engine.plan_query e "SELECT r.a FROM r LEFT JOIN s ON r.a = s.a WHERE s.c IS NULL"
        with
        | Ok (_, optimized) ->
          let txt = Pretty.plan_to_string ~show_attrs:false optimized in
          let lines = String.split_on_char '\n' txt in
          let filter_idx = ref (-1) and join_idx = ref (-1) in
          List.iteri
            (fun idx l ->
              if contains ~needle:"Select" l && !filter_idx < 0 then filter_idx := idx;
              if contains ~needle:"LeftJoin" l && !join_idx < 0 then join_idx := idx)
            lines;
          Alcotest.(check bool) "filter above left join" true
            (!filter_idx >= 0 && !join_idx > !filter_idx)
        | Error msg -> Alcotest.fail msg);
  ]

(* The estimate and actual row count EXPLAIN ANALYZE prints on the first
   line of [tree] that contains [needle]. *)
let est_act tree needle =
  let line = List.find (contains ~needle) (String.split_on_char '\n' tree) in
  let rec at i = if String.sub line i 5 = "(est=" then i else at (i + 1) in
  let from = at 0 in
  Scanf.sscanf
    (String.sub line from (String.length line - from))
    "(est=%d act=%d" (fun est act -> (float_of_int est, float_of_int act))

let join_tests =
  [
    case "a comma join optimizes to the JOIN ... ON plan" (fun () ->
        let e = forum_engine () in
        let plan sql =
          match Engine.plan_query e sql with
          | Ok (_, optimized) -> optimized
          | Error msg -> Alcotest.fail msg
        in
        let comma = plan "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid"
        and on = plan "SELECT m.text, u.name FROM messages m JOIN users u ON m.uid = u.uid" in
        Alcotest.(check string) "same plan"
          (Perm_executor.Executor.plan_hash on)
          (Perm_executor.Executor.plan_hash comma);
        Alcotest.(check bool) "a hash join, not a cross product" false
          (contains ~needle:"CrossJoin"
             (Pretty.plan_to_string ~show_attrs:false comma)));
    case "the smaller input is the build side" (fun () ->
        (* 1,428 of 10,000 messages against 22,615 approvals: the filtered
           messages swap to the right; the projection above restores the
           column order *)
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:10_000 ~users:500 ();
        match
          Engine.plan_query e
            "SELECT m.text, a.uid FROM messages m JOIN approved a ON m.mid = \
             a.mid WHERE m.mid % 7 = 0"
        with
        | Ok (_, optimized) ->
          Alcotest.(check string) "swapped inputs"
            "Project(Join(Scan(approved), Select(Scan(messages))))"
            (Pretty.plan_summary optimized)
        | Error msg -> Alcotest.fail msg);
    case "estimates within 10x at forum 10k" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:10_000 ~users:500 ();
        let within sql needle =
          match Engine.explain_analyze e sql with
          | Error msg -> Alcotest.fail msg
          | Ok ea ->
            let est, act = est_act ea.Engine.ea_tree needle in
            let q = Float.max (est /. Float.max 1. act) (act /. Float.max 1. est) in
            Alcotest.(check bool)
              (Printf.sprintf "%s: est %.0f act %.0f" needle est act)
              true (q <= 10.)
        in
        (* a computed value against a constant *)
        within
          "SELECT m.text, a.uid FROM messages m JOIN approved a ON m.mid = \
           a.mid WHERE m.mid % 7 = 0"
          "Select [((mid";
        (* a join key with no base-column origin (a UNION's output) *)
        within Perm_workload.Forum.q3 "Join [(mid");
  ]

let cost_tests =
  let stats =
    {
      Planner.table_rows = (function "big" -> 100000 | _ -> 10);
      Planner.table_distinct = (fun _ _ -> 10);
      Planner.has_index = (fun _ _ -> false);
    }
  in
  let scan_big =
    Plan.Scan { table = "big"; attrs = [ Attr.fresh "x" Dtype.Int ] }
  in
  let scan_small =
    Plan.Scan { table = "small"; attrs = [ Attr.fresh "y" Dtype.Int ] }
  in
  [
    case "bigger tables cost more" (fun () ->
        Alcotest.(check bool) "" true
          (Planner.cost stats scan_big > Planner.cost stats scan_small));
    case "filters reduce estimated rows" (fun () ->
        let x = match Plan.schema scan_big with [ x ] -> x | _ -> assert false in
        let filtered =
          Plan.Filter
            {
              child = scan_big;
              pred = Expr.Binop (Expr.Eq, Expr.Attr x, Expr.Const (Value.Int 1));
            }
        in
        Alcotest.(check bool) "" true
          (Planner.estimate_rows stats filtered < Planner.estimate_rows stats scan_big));
    case "hash join cheaper than nested loop apply" (fun () ->
        let join =
          Plan.Join
            {
              kind = Plan.Inner;
              left = scan_big;
              right = scan_small;
              pred =
                Some
                  (Expr.Binop
                     ( Expr.Eq,
                       Expr.Attr (List.hd (Plan.schema scan_big)),
                       Expr.Attr (List.hd (Plan.schema scan_small)) ));
            }
        in
        let apply = Plan.Apply { kind = Plan.A_cross; left = scan_big; right = scan_small } in
        Alcotest.(check bool) "" true (Planner.cost stats join < Planner.cost stats apply));
    case "estimate: distinct group count bounded by input" (fun () ->
        let x = List.hd (Plan.schema scan_small) in
        let agg =
          Plan.Aggregate
            { child = scan_small; group_by = [ (Expr.Attr x, Attr.fresh "g" Dtype.Int) ]; aggs = [] }
        in
        Alcotest.(check bool) "" true (Planner.estimate_rows stats agg <= 10.));
    case "limit caps the estimate" (fun () ->
        let lim = Plan.Limit { child = scan_big; limit = Some 5; offset = 0 } in
        Alcotest.(check bool) "" true (Planner.estimate_rows stats lim <= 5.));
  ]

(* Golden plan hashes: [Executor.plan_hash] of every optimized plan of a
   fixed corpus, pinned to recorded values. The corpus is B1's fourteen
   statements (each query class plain and with provenance) over the forum
   at 1,000 messages and the star schema at scale 250, and the hash-join
   key corpus ({!Perm_testkit.Kit.join_key_queries}). A refactor of the
   executor or the planner that leaves plans alone keeps every hash; one
   that changes a plan shape must update this table on purpose. *)
module Executor = Perm_executor.Executor
module Forum = Perm_workload.Forum
module Star = Perm_workload.Star

let provenance_of sql =
  "SELECT PROVENANCE " ^ String.sub sql 7 (String.length sql - 7)

let b1_statements =
  List.concat_map
    (fun q -> [ q; provenance_of q ])
    [
      "SELECT m.text, a.uid FROM messages m JOIN approved a ON m.mid = a.mid \
       WHERE m.mid % 7 = 0";
      Forum.q3;
      Forum.q1;
      "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)";
    ]
  @ List.concat_map (fun (_, plain, prov) -> [ plain; prov ]) Star.queries

let b1_hashes =
  [
    "affdcd4fb621"; "f316b4f58fb7"; "ab720a92c6de"; "bba444437112";
    "9a9bdc4bd399"; "c09bc070ed43"; "a449a26ec183"; "bef82cece183";
    "ea2fa019b3d4"; "21d88dc5f304"; "ca0356771319"; "9d13e7d0eb83";
    "3811b7841aa4"; "f9c6e8b0301c";
  ]

let join_key_hashes =
  [
    "8c38b5491bf9"; "8c38b5491bf9"; "a698b096405f"; "a52e5a441643";
    "77d224a6f3f5"; "fd65693a2d27"; "35273fc2deb5"; "ce246a37f0ff";
    "bb77adc1a280"; "6ce14c26a35b"; "6ce14c26a35b"; "1f0475d47a98";
    "b48782252526"; "020965ab872b"; "3718dd20e58e"; "f6b64cd2a2d9";
    "2332dee98963"; "41e8170693a4"; "f1ed8bb53409"; "f1ed8bb53409";
    "2d0ff2fa2d37"; "5f01ed8a83d4"; "76f7d8bd0586"; "ba42d73bd16a";
    "6e146580ea5a"; "249c92650ada"; "eecec458a740"; "aaa2eeba1a32";
    "aaa2eeba1a32"; "11e8cdd086a0"; "1c683222a01d"; "f75b557563f5";
    "07a2a99cbc4b"; "0d94b77e148a"; "790f9451d9e5"; "57fa045b0af5";
    "be7d1a940320"; "be7d1a940320"; "f4b7b2066be4"; "e1cd36fb3754";
    "fc6a6702bbe7"; "b9c829a54d36"; "901bb73b22f8"; "5998d237a3bb";
    "d241a18fff4b"; "9c936fdd2f06"; "9c936fdd2f06"; "b4b44ae31791";
    "09a4b1dee325"; "da1a95c56366"; "354262e44402"; "69c817c0460d";
    "a80bc557577e"; "baadc769bf8f"; "bd262bdd9298"; "54d4a8e3fbd5";
    "afe438b69c75"; "3312297e3868";
  ]

let plan_hashes e sqls =
  List.map
    (fun sql ->
      match Engine.plan_query e sql with
      | Ok (_, optimized) -> Executor.plan_hash optimized
      | Error msg -> Alcotest.failf "plan_query %S: %s" sql msg)
    sqls

let check_golden name e sqls expected =
  let actual = plan_hashes e sqls in
  Alcotest.(check int) (name ^ ": corpus size") (List.length expected)
    (List.length actual);
  List.iter2
    (fun sql (want, got) ->
      Alcotest.(check string) (Printf.sprintf "plan hash of %s" sql) want got)
    sqls
    (List.combine expected actual)

let golden_tests =
  [
    case "B1 plan hashes are pinned" (fun () ->
        let e = engine () in
        Forum.load_scaled e ~messages:1_000 ~users:50 ();
        Star.load e ~scale:250 ();
        check_golden "B1" e b1_statements b1_hashes;
        Engine.close e);
    case "join-key plan hashes are pinned" (fun () ->
        let e = engine () in
        load_join_keys e;
        check_golden "join keys" e
          (join_key_queries @ null_safe_join_queries)
          join_key_hashes;
        Engine.close e);
  ]

let () =
  Alcotest.run "planner"
    [
      ("equivalence", equivalence_tests);
      ("folding", folding_tests);
      ("structure", structure_tests);
      ("joins", join_tests);
      ("cost", cost_tests);
      ("golden", golden_tests);
    ]
