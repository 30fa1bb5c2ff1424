(* Unit tests for the SQL lexer. *)

module Lexer = Perm_sql.Lexer
module Token = Perm_sql.Token
open Perm_testkit.Kit

let tokens_of input =
  match Lexer.tokenize input with
  | Ok toks -> List.map (fun t -> t.Token.token) toks
  | Error e -> Alcotest.failf "lex error at %d: %s" e.Lexer.pos e.Lexer.message

let lex_error input =
  match Lexer.tokenize input with
  | Ok _ -> Alcotest.failf "expected lex error on %S" input
  | Error e -> e.Lexer.message

let token_strings input = List.map Token.to_string (tokens_of input)

let basic_tests =
  [
    case "keywords become lowercase idents" (fun () ->
        Alcotest.(check (list string)) ""
          [ "select"; "foo"; "from"; "bar"; "<eof>" ]
          (token_strings "SELECT Foo FROM bAr"));
    case "numbers" (fun () ->
        match tokens_of "12 3.5 1e3 2.5e-1" with
        | [ Token.Int_lit 12; Token.Float_lit a; Token.Float_lit b; Token.Float_lit c; Token.Eof ] ->
          Alcotest.(check (float 0.001)) "3.5" 3.5 a;
          Alcotest.(check (float 0.001)) "1e3" 1000. b;
          Alcotest.(check (float 0.001)) "2.5e-1" 0.25 c
        | _ -> Alcotest.fail "unexpected tokens");
    case "string literal with escaped quote" (fun () ->
        match tokens_of "'it''s'" with
        | [ Token.String_lit s; Token.Eof ] -> Alcotest.(check string) "" "it's" s
        | _ -> Alcotest.fail "unexpected tokens");
    case "empty string literal" (fun () ->
        match tokens_of "''" with
        | [ Token.String_lit ""; Token.Eof ] -> ()
        | _ -> Alcotest.fail "unexpected tokens");
    case "quoted identifier preserves case until parser" (fun () ->
        match tokens_of "\"MyCol\"" with
        | [ Token.Quoted_ident s; Token.Eof ] -> Alcotest.(check string) "" "MyCol" s
        | _ -> Alcotest.fail "unexpected tokens");
    case "operators" (fun () ->
        Alcotest.(check (list string)) ""
          [ "<="; ">="; "<>"; "<>"; "="; "<"; ">"; "||"; "<eof>" ]
          (token_strings "<= >= <> != = < > ||"));
    case "punctuation" (fun () ->
        Alcotest.(check (list string)) ""
          [ "("; ")"; ","; "."; "*"; ";"; "<eof>" ]
          (token_strings "( ) , . * ;"));
    case "line comment" (fun () ->
        Alcotest.(check (list string)) "" [ "a"; "b"; "<eof>" ]
          (token_strings "a -- comment here\nb"));
    case "block comment" (fun () ->
        Alcotest.(check (list string)) "" [ "a"; "b"; "<eof>" ]
          (token_strings "a /* multi\nline */ b"));
    case "minus vs line comment" (fun () ->
        Alcotest.(check (list string)) "" [ "a"; "-"; "b"; "<eof>" ]
          (token_strings "a - b"));
    case "underscore identifiers" (fun () ->
        Alcotest.(check (list string)) "" [ "prov_messages_mid"; "<eof>" ]
          (token_strings "prov_messages_mid"));
    case "identifier with digits" (fun () ->
        Alcotest.(check (list string)) "" [ "t1"; "<eof>" ] (token_strings "t1"));
    case "empty input is just eof" (fun () ->
        Alcotest.(check (list string)) "" [ "<eof>" ] (token_strings "  \n\t "));
  ]

let error_tests =
  [
    case "unterminated string" (fun () ->
        Alcotest.(check string) "" "unterminated string literal" (lex_error "'abc"));
    case "unterminated block comment" (fun () ->
        Alcotest.(check string) "" "unterminated block comment" (lex_error "/* abc"));
    case "unexpected character" (fun () ->
        Alcotest.(check bool) "" true (String.length (lex_error "select @") > 0));
    case "position reporting" (fun () ->
        match Lexer.tokenize "a\nb 'x" with
        | Error e ->
          Alcotest.(check string) "" "line 2, column 3"
            (Lexer.describe_position "a\nb 'x" e.Lexer.pos)
        | Ok _ -> Alcotest.fail "expected error");
  ]

(* The inputs above, through the one lexing pass the engine shares
   between the parser and the fingerprint: the fingerprint of the tokens
   is the fingerprint of the text, and text the lexer rejects gets the
   raw-text fallback. *)
let fingerprint_tests =
  let module Fingerprint = Perm_sql.Fingerprint in
  [
    case "token fingerprint equals of_sql" (fun () ->
        List.iter
          (fun sql ->
            match Lexer.tokenize sql with
            | Ok tokens ->
              Alcotest.(check string) sql (Fingerprint.of_sql sql)
                (Fingerprint.of_tokens tokens)
            | Error _ ->
              Alcotest.(check string) sql (Fingerprint.fallback sql)
                (Fingerprint.of_sql sql))
          [ "SELECT Foo FROM bAr"; "12 3.5 1e3 2.5e-1"; "'it''s'"; "''";
            "\"MyCol\""; "<= >= <> != = < > ||"; "( ) , . * ;";
            "a -- comment here\nb"; "a /* multi\nline */ b"; "a - b";
            "prov_messages_mid"; "t1"; "  \n\t "; "'abc"; "/* abc"; "select @";
            "a\nb 'x" ]);
    case "fallback collapses case and whitespace" (fun () ->
        Alcotest.(check string) "" "select @ from t;"
          (Fingerprint.of_sql "SELECT  @\n FROM\tT;"));
  ]

let () =
  Alcotest.run "lexer"
    [ ("basic", basic_tests); ("errors", error_tests); ("fprint", fingerprint_tests) ]
