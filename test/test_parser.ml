(* Parser tests: structure of parsed ASTs, SQL-PLE constructs, error
   reporting, and the print/parse round-trip (fixed corpus + random ASTs). *)

module Ast = Perm_sql.Ast
module Parser = Perm_sql.Parser
module Printer = Perm_sql.Printer
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
open Perm_testkit.Kit

let parse_q sql =
  match Parser.parse_query sql with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse error: %s" (Parser.error_to_string ~input:sql e)

let parse_st sql =
  match Parser.parse_statement sql with
  | Ok st -> st
  | Error e -> Alcotest.failf "parse error: %s" (Parser.error_to_string ~input:sql e)

let parse_err sql =
  match Parser.parse_statement sql with
  | Ok _ -> Alcotest.failf "expected parse error on %S" sql
  | Error e -> e.Parser.message

let select_of q =
  match (q : Ast.query).body with
  | Ast.Select s -> s
  | Ast.Set_op _ -> Alcotest.fail "expected a plain select"

let structure_tests =
  [
    case "select list with aliases" (fun () ->
        let s = select_of (parse_q "SELECT a, b AS x, t.c y FROM t") in
        match s.Ast.items with
        | [ Ast.Sel_expr (Ast.Ref (None, "a"), None);
            Ast.Sel_expr (Ast.Ref (None, "b"), Some "x");
            Ast.Sel_expr (Ast.Ref (Some "t", "c"), Some "y") ] ->
          ()
        | _ -> Alcotest.fail "unexpected select items");
    case "star and table star" (fun () ->
        let s = select_of (parse_q "SELECT *, t.* FROM t") in
        Alcotest.(check int) "" 2 (List.length s.Ast.items);
        match s.Ast.items with
        | [ Ast.Star; Ast.Table_star "t" ] -> ()
        | _ -> Alcotest.fail "unexpected items");
    case "operator precedence: or over and" (fun () ->
        let s = select_of (parse_q "SELECT 1 FROM t WHERE a OR b AND c") in
        match s.Ast.where with
        | Some (Ast.Binop (Ast.Or, Ast.Ref (None, "a"), Ast.Binop (Ast.And, _, _))) -> ()
        | _ -> Alcotest.fail "OR should be outermost");
    case "arithmetic precedence" (fun () ->
        let s = select_of (parse_q "SELECT 1 + 2 * 3") in
        match s.Ast.items with
        | [ Ast.Sel_expr (Ast.Binop (Ast.Add, Ast.Lit (Value.Int 1), Ast.Binop (Ast.Mul, _, _)), None) ] -> ()
        | _ -> Alcotest.fail "* should bind tighter than +");
    case "comparison chains with not" (fun () ->
        let s = select_of (parse_q "SELECT 1 FROM t WHERE NOT a = b") in
        match s.Ast.where with
        | Some (Ast.Unop (Ast.Not, Ast.Binop (Ast.Eq, _, _))) -> ()
        | _ -> Alcotest.fail "expected NOT over =");
    case "between / in / like / is null" (fun () ->
        let s =
          select_of
            (parse_q
               "SELECT 1 FROM t WHERE a BETWEEN 1 AND 2 AND b IN (1, 2) AND c \
                LIKE 'x%' AND d IS NOT NULL")
        in
        Alcotest.(check bool) "parsed" true (s.Ast.where <> None));
    case "count star vs count expr" (fun () ->
        let s = select_of (parse_q "SELECT count(*), count(DISTINCT a), sum(b)") in
        match s.Ast.items with
        | [ Ast.Sel_expr (Ast.Agg { func = Ast.Count; arg = None; _ }, None);
            Ast.Sel_expr (Ast.Agg { func = Ast.Count; distinct = true; arg = Some _ }, None);
            Ast.Sel_expr (Ast.Agg { func = Ast.Sum; _ }, None) ] ->
          ()
        | _ -> Alcotest.fail "unexpected aggregates");
    case "join tree left-associative" (fun () ->
        let s = select_of (parse_q "SELECT 1 FROM a JOIN b ON x = y LEFT JOIN c ON u = v") in
        match s.Ast.from with
        | [ { Ast.source = Ast.From_join { kind = Ast.Left; left = { Ast.source = Ast.From_join { kind = Ast.Inner; _ }; _ }; _ }; _ } ] -> ()
        | _ -> Alcotest.fail "unexpected join shape");
    case "set op precedence: intersect over union" (fun () ->
        let q = parse_q "SELECT a FROM r UNION SELECT b FROM s INTERSECT SELECT c FROM t" in
        match q.Ast.body with
        | Ast.Set_op { kind = Ast.Union; right = { Ast.body = Ast.Set_op { kind = Ast.Intersect; _ }; _ }; _ } -> ()
        | _ -> Alcotest.fail "INTERSECT should bind tighter");
    case "order by limit offset" (fun () ->
        let q = parse_q "SELECT a FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2" in
        Alcotest.(check int) "keys" 2 (List.length q.Ast.order_by);
        Alcotest.(check bool) "dirs" true
          (match q.Ast.order_by with
          | [ (_, Ast.Desc); (_, Ast.Asc) ] -> true
          | _ -> false);
        Alcotest.(check bool) "limit" true (q.Ast.limit = Some 5);
        Alcotest.(check bool) "offset" true (q.Ast.offset = Some 2));
    case "offset before limit also accepted" (fun () ->
        let q = parse_q "SELECT a FROM t OFFSET 2 LIMIT 5" in
        Alcotest.(check bool) "" true (q.Ast.limit = Some 5 && q.Ast.offset = Some 2));
    case "case with operand desugars later" (fun () ->
        let s = select_of (parse_q "SELECT CASE a WHEN 1 THEN 'x' ELSE 'y' END") in
        match s.Ast.items with
        | [ Ast.Sel_expr (Ast.Case { operand = Some _; branches = [ _ ]; else_ = Some _ }, None) ] -> ()
        | _ -> Alcotest.fail "unexpected case");
    case "scalar subquery vs parenthesised expr" (fun () ->
        let s = select_of (parse_q "SELECT (SELECT 1), (1 + 2)") in
        match s.Ast.items with
        | [ Ast.Sel_expr (Ast.Scalar_subquery _, None); Ast.Sel_expr (Ast.Binop _, None) ] -> ()
        | _ -> Alcotest.fail "unexpected items");
    case "exists and in subqueries" (fun () ->
        let s =
          select_of
            (parse_q "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM s) AND a IN (SELECT b FROM s)")
        in
        Alcotest.(check bool) "" true (s.Ast.where <> None));
    case "insert multiple rows" (fun () ->
        match parse_st "INSERT INTO t VALUES (1, 'a'), (2, 'b')" with
        | Ast.St_insert_values ("t", [ _; _ ]) -> ()
        | _ -> Alcotest.fail "unexpected statement");
    case "create table types" (fun () ->
        match parse_st "CREATE TABLE t (a int, b varchar, c double, d boolean)" with
        | Ast.St_create_table ("t", [ ("a", Dtype.Int); ("b", Dtype.Text); ("c", Dtype.Float); ("d", Dtype.Bool) ]) -> ()
        | _ -> Alcotest.fail "unexpected statement");
    case "script splitting" (fun () ->
        match Parser.parse_script "SELECT 1; ; SELECT 2;" with
        | Ok [ Ast.St_query _; Ast.St_query _ ] -> ()
        | Ok l -> Alcotest.failf "expected 2 statements, got %d" (List.length l)
        | Error e -> Alcotest.failf "error: %s" e.Parser.message);
  ]

let sqlple_tests =
  [
    case "select provenance marker" (fun () ->
        let s = select_of (parse_q "SELECT PROVENANCE a FROM t") in
        Alcotest.(check bool) "" true (s.Ast.provenance = Some Ast.Influence));
    case "on contribution influence" (fun () ->
        let s = select_of (parse_q "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) a FROM t") in
        Alcotest.(check bool) "" true (s.Ast.provenance = Some Ast.Influence));
    case "on contribution copy variants" (fun () ->
        let p sql = (select_of (parse_q sql)).Ast.provenance in
        Alcotest.(check bool) "copy" true
          (p "SELECT PROVENANCE ON CONTRIBUTION (COPY) a FROM t" = Some Ast.Copy_partial);
        Alcotest.(check bool) "copy partial" true
          (p "SELECT PROVENANCE ON CONTRIBUTION (COPY PARTIAL) a FROM t" = Some Ast.Copy_partial);
        Alcotest.(check bool) "copy complete" true
          (p "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) a FROM t" = Some Ast.Copy_complete));
    case "a column named provenance still works" (fun () ->
        let s = select_of (parse_q "SELECT provenance, b FROM t") in
        match s.Ast.items with
        | [ Ast.Sel_expr (Ast.Ref (None, "provenance"), None); _ ] -> ()
        | _ -> Alcotest.fail "PROVENANCE marker misfired");
    case "provenance as only column before FROM" (fun () ->
        let s = select_of (parse_q "SELECT provenance FROM t") in
        match s.Ast.items with
        | [ Ast.Sel_expr (Ast.Ref (None, "provenance"), None) ] -> ()
        | _ -> Alcotest.fail "PROVENANCE marker misfired");
    case "baserelation modifier" (fun () ->
        let s = select_of (parse_q "SELECT a FROM v BASERELATION") in
        match s.Ast.from with
        | [ { Ast.baserelation = true; _ } ] -> ()
        | _ -> Alcotest.fail "expected baserelation");
    case "provenance attribute list" (fun () ->
        let s = select_of (parse_q "SELECT a FROM t PROVENANCE (p_a, p_b)") in
        match s.Ast.from with
        | [ { Ast.prov_attrs = Some [ "p_a"; "p_b" ]; _ } ] -> ()
        | _ -> Alcotest.fail "expected provenance attrs");
    case "modifiers with alias" (fun () ->
        let s = select_of (parse_q "SELECT a FROM t AS x BASERELATION") in
        match s.Ast.from with
        | [ { Ast.alias = Some "x"; baserelation = true; _ } ] -> ()
        | _ -> Alcotest.fail "expected alias + baserelation");
    case "store provenance statement" (fun () ->
        match parse_st "STORE PROVENANCE SELECT a FROM t INTO p" with
        | Ast.St_store_provenance (_, "p") -> ()
        | _ -> Alcotest.fail "unexpected statement");
    case "explain statement" (fun () ->
        match parse_st "EXPLAIN SELECT PROVENANCE a FROM t" with
        | Ast.St_explain _ -> ()
        | _ -> Alcotest.fail "unexpected statement");
    case "query_uses_provenance" (fun () ->
        Alcotest.(check bool) "plain" false
          (Ast.query_uses_provenance (parse_q "SELECT a FROM t"));
        Alcotest.(check bool) "marked" true
          (Ast.query_uses_provenance (parse_q "SELECT PROVENANCE a FROM t"));
        Alcotest.(check bool) "nested" true
          (Ast.query_uses_provenance
             (parse_q "SELECT x FROM (SELECT PROVENANCE a AS x FROM t) s")));
  ]

let error_tests =
  [
    case "missing from item" (fun () ->
        Alcotest.(check bool) "" true (String.length (parse_err "SELECT a FROM") > 0));
    case "trailing garbage" (fun () ->
        Alcotest.(check bool) "" true
          (String.length (parse_err "SELECT a FROM t extra stuff ,") > 0));
    case "reserved word as table name" (fun () ->
        Alcotest.(check bool) "" true
          (String.length (parse_err "SELECT a FROM select") > 0));
    case "star in non-count aggregate" (fun () ->
        Alcotest.(check string) "" "only COUNT may take * as its argument"
          (parse_err "SELECT sum(*) FROM t"));
    case "case without when" (fun () ->
        Alcotest.(check string) "" "CASE requires at least one WHEN branch"
          (parse_err "SELECT CASE ELSE 1 END"));
    case "unknown cast type" (fun () ->
        Alcotest.(check bool) "" true
          (String.length (parse_err "SELECT CAST(a AS blob) FROM t") > 0));
    case "negative limit" (fun () ->
        Alcotest.(check bool) "" true
          (String.length (parse_err "SELECT a FROM t LIMIT -1") > 0));
    case "error position is useful" (fun () ->
        match Parser.parse_statement "SELECT a FROM t WHERE" with
        | Error e ->
          let msg = Parser.error_to_string ~input:"SELECT a FROM t WHERE" e in
          Alcotest.(check bool) "mentions line" true
            (String.length msg > 0 && String.sub msg 0 12 = "syntax error")
        | Ok _ -> Alcotest.fail "expected error");
  ]

(* ------------------------------------------------------------------ *)
(* Round-trip: parse (print (parse sql)) = parse sql                   *)
(* ------------------------------------------------------------------ *)

let corpus =
  [
    "SELECT mid, text FROM messages UNION SELECT mid, text FROM imports";
    "SELECT PROVENANCE ON CONTRIBUTION (COPY) count(*), text FROM v1 JOIN \
     approved AS a ON v1.mid = a.mid GROUP BY v1.mid, text HAVING count(*) > 1";
    "SELECT DISTINCT a, b + 1 AS c FROM r, s WHERE r.x = s.y OR r.x IS NULL \
     ORDER BY c DESC LIMIT 3 OFFSET 1";
    "SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t";
    "SELECT CASE a WHEN 1 THEN 'one' END FROM t";
    "(SELECT a FROM r) EXCEPT ALL ((SELECT b FROM s) INTERSECT (SELECT c FROM t))";
    "SELECT a FROM r LEFT OUTER JOIN s ON r.x = s.y FULL OUTER JOIN t ON t.z = s.y";
    "SELECT * FROM r PROVENANCE (p_a) WHERE a IN (SELECT b FROM s WHERE \
     EXISTS (SELECT 1 FROM u))";
    "SELECT a FROM v BASERELATION WHERE b BETWEEN 1 AND 10";
    "SELECT coalesce(a, 0), abs(- b), cast(c AS float) FROM t";
    "SELECT 'it''s' || text FROM m WHERE text LIKE '%x%'";
    "SELECT sum(DISTINCT a) FROM t GROUP BY b % 2";
    "INSERT INTO t VALUES (1, 'x', null, true)";
    "UPDATE t SET a = a + 1 WHERE b IS NOT NULL";
    "DELETE FROM t WHERE a NOT IN (1, 2)";
    "CREATE VIEW v AS SELECT a FROM t WHERE a > 0";
    "CREATE TABLE t2 AS SELECT a, b FROM t";
    "STORE PROVENANCE SELECT a FROM t WHERE a = 1 INTO t_prov";
    "SELECT a, (SELECT max(b) FROM s) AS mx FROM t ORDER BY 1";
  ]

(* The reserved words are matched by a string [match]; these pin it to
   the [reserved] list and to what the parser does with each word. *)
let reserved_tests =
  let items sql =
    match Parser.parse_statement sql with
    | Ok (Ast.St_query { body = Ast.Select s; _ }) -> Some s.Ast.items
    | Ok _ | Error _ -> None
  in
  [
    case "is_reserved is membership in reserved" (fun () ->
        List.iter
          (fun w ->
            if not (Parser.is_reserved w) then Alcotest.failf "%S not reserved" w)
          Parser.reserved;
        List.iter
          (fun w ->
            if Parser.is_reserved w then Alcotest.failf "%S reserved" w)
          [ "provenance"; "baserelation"; "a"; "selects"; "fro"; "nul"; "count";
            "text"; "uid"; "mid"; ""; "SELECT" ]);
    case "no reserved word is a bare alias" (fun () ->
        List.iter
          (fun w ->
            match items (Printf.sprintf "SELECT a %s FROM t" w) with
            | Some (Ast.Sel_expr (_, Some alias) :: _) when alias = w ->
              Alcotest.failf "%S accepted as an alias" w
            | _ -> ())
          Parser.reserved);
    case "no reserved word is a column reference" (fun () ->
        List.iter
          (fun w ->
            List.iter
              (fun sql ->
                match items sql with
                | Some (Ast.Sel_expr (Ast.Ref (None, r), _) :: _) when r = w ->
                  Alcotest.failf "%S accepted as a column in %S" w sql
                | _ -> ())
              [ Printf.sprintf "SELECT %s FROM t" w;
                Printf.sprintf "SELECT %s, a FROM t" w ])
          Parser.reserved);
    case "provenance and baserelation stay names" (fun () ->
        (match items "SELECT provenance, baserelation FROM t" with
        | Some
            [ Ast.Sel_expr (Ast.Ref (None, "provenance"), None);
              Ast.Sel_expr (Ast.Ref (None, "baserelation"), None) ] ->
          ()
        | _ -> Alcotest.fail "not two column references");
        (match items "SELECT a provenance, b AS baserelation FROM t" with
        | Some
            [ Ast.Sel_expr (_, Some "provenance");
              Ast.Sel_expr (_, Some "baserelation") ] ->
          ()
        | _ -> Alcotest.fail "not two aliases");
        let s = select_of (parse_q "SELECT a FROM provenance, baserelation") in
        Alcotest.(check int) "two tables" 2 (List.length s.Ast.from));
  ]

(* The engine lexes a statement once and fingerprints the tokens; that
   must be the fingerprint [Fingerprint.of_sql] gives the text. *)
let fingerprint_tests =
  let module Fingerprint = Perm_sql.Fingerprint in
  let module Lexer = Perm_sql.Lexer in
  [
    case "token fingerprint equals of_sql" (fun () ->
        List.iter
          (fun sql ->
            match Lexer.tokenize sql with
            | Ok tokens ->
              Alcotest.(check string) sql (Fingerprint.of_sql sql)
                (Fingerprint.of_tokens tokens)
            | Error _ -> Alcotest.failf "%S does not lex" sql)
          (corpus
          @ [ "SELECT a FROM t WHERE a IN (1, 2, 3)";
              "INSERT INTO t VALUES (1, 'x'), (2, 'y');";
              "SELECT \"MixedCase\", $1 FROM T WHERE b = 2.5";
              "SELEC 1 FROM"; "SELECT a FROM t WHERE" ]));
    case "an unlexable statement falls back to its raw text" (fun () ->
        let sql = "SELECT 'unterminated  FROM\tT" in
        (match Lexer.tokenize sql with
        | Ok _ -> Alcotest.fail "expected a lex error"
        | Error _ -> ());
        Alcotest.(check string) "" (Fingerprint.fallback sql) (Fingerprint.of_sql sql);
        Alcotest.(check string) "" "select 'unterminated from t" (Fingerprint.of_sql sql));
  ]

let roundtrip_tests =
  [
    case "corpus round-trips" (fun () ->
        List.iter
          (fun sql ->
            let ast = parse_st sql in
            let printed = Printer.statement_to_string ast in
            let ast2 =
              match Parser.parse_statement printed with
              | Ok a -> a
              | Error e ->
                Alcotest.failf "re-parse of %S failed: %s" printed e.Parser.message
            in
            if ast <> ast2 then
              Alcotest.failf "round-trip mismatch for %S -> %S" sql printed)
          corpus);
  ]

(* Random expression/select generator for the print/parse property. *)
let gen_expr =
  QCheck.Gen.(
    sized_size (int_bound 4) (fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun i -> Ast.Lit (Value.Int i)) (int_bound 100);
              map (fun s -> Ast.Lit (Value.Text s)) (string_size ~gen:(char_range 'a' 'c') (int_bound 3));
              return (Ast.Lit Value.Null);
              map (fun b -> Ast.Lit (Value.Bool b)) bool;
              oneofl [ Ast.Ref (None, "a"); Ast.Ref (None, "b"); Ast.Ref (Some "t", "c") ];
            ]
        in
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              map2 (fun a b -> Ast.Binop (Ast.Add, a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Ast.Binop (Ast.Eq, a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, a, b), Ast.Binop (Ast.Geq, a, b)))
                (self (n / 2)) (self (n / 2));
              map (fun a -> Ast.Unop (Ast.Not, Ast.Is_null { negated = false; arg = a })) (self (n - 1));
              map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
              map2 (fun a low -> Ast.Between { negated = false; arg = a; low; high = Ast.Lit (Value.Int 9) })
                (self (n / 2)) (self (n / 2));
              map (fun a -> Ast.In_list { negated = true; arg = a; candidates = [ Ast.Lit (Value.Int 1); Ast.Lit (Value.Int 2) ] })
                (self (n - 1));
              map (fun a -> Ast.Cast (a, Dtype.Int)) (self (n - 1));
              map (fun a -> Ast.Func ("coalesce", [ a; Ast.Lit (Value.Int 0) ])) (self (n - 1));
              map (fun (c, r) -> Ast.Case { operand = None; branches = [ (Ast.Binop (Ast.Eq, c, r), r) ]; else_ = Some c })
                (pair (self (n / 2)) (self (n / 2)));
            ])))

let gen_query =
  QCheck.Gen.(
    let gen_select =
      map2
        (fun items where ->
          {
            Ast.empty_select with
            Ast.items = List.map (fun e -> Ast.Sel_expr (e, None)) items;
            from = [ Ast.plain_from ~alias:(Some "t") (Ast.From_table "r") ];
            where;
          })
        (list_size (int_range 1 3) gen_expr)
        (opt gen_expr)
    in
    map
      (fun s -> Ast.select_query s)
      gen_select)

let arb_query = QCheck.make ~print:Perm_sql.Printer.query_to_string gen_query

let property_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"print/parse round-trip on random queries" ~count:300
         arb_query
         (fun q ->
           let printed = Printer.query_to_string q in
           match Parser.parse_query printed with
           | Ok q2 -> q = q2
           | Error _ -> false));
  ]

let () =
  Alcotest.run "parser"
    [
      ("structure", structure_tests);
      ("sql-ple", sqlple_tests);
      ("errors", error_tests);
      ("reserved", reserved_tests);
      ("fprint", fingerprint_tests);
      ("roundtrip", roundtrip_tests);
      ("properties", property_tests);
    ]
