(* Statement fingerprints for statistics aggregation: two statements that
   differ only in literal values, parameter markers, whitespace or keyword
   casing should land in the same perm_stat_statements bucket, while any
   structural difference keeps them apart.

   The normalization is lexer-based, not parser-based: it works on any
   statement the lexer accepts (including ones the parser later rejects),
   so failed statements are still attributable to a fingerprint. *)

let normalize_token tok =
  match tok with
  | Token.Int_lit _ | Token.Float_lit _ | Token.String_lit _ | Token.Param _ ->
    "?"
  (* the lexer has already lower-cased bare identifiers and keywords *)
  | Token.Ident s -> s
  (* quoted identifiers are case-sensitive names, not literals: keep them *)
  | Token.Quoted_ident s -> "\"" ^ s ^ "\""
  | t -> Token.to_string t

(* Lexing failed (unterminated string, stray character, ...): fall back to
   lowercased, whitespace-collapsed raw text so even unlexable statements
   get a stable bucket. *)
let fallback sql =
  String.lowercase_ascii sql
  |> String.split_on_char '\n'
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter (fun s -> s <> "")
  |> String.concat " "

(* Collapse literal runs so parameterized statements that differ only in
   arity land in one bucket: [IN (1, 2, 3)] and [IN (4)] both become
   [in ( ? )], and multi-row [VALUES (1, 2), (3, 4)] folds to a single
   [( ? )] row group. One left-to-right pass rewrites [? , ?] into [?]
   and [( ? ) , ( ? )] into [( ? )]; collapsing a run can expose an
   enclosing group run (the VALUES rows only look identical after their
   members collapse), so the whole rewrite iterates to a fixpoint. *)
let rec collapse_step = function
  | "?" :: "," :: "?" :: rest -> collapse_step ("?" :: rest)
  | "(" :: "?" :: ")" :: "," :: "(" :: "?" :: ")" :: rest ->
    collapse_step ("(" :: "?" :: ")" :: rest)
  | tok :: rest -> tok :: collapse_step rest
  | [] -> []

let rec collapse_runs toks =
  let toks' = collapse_step toks in
  if List.equal String.equal toks' toks then toks else collapse_runs toks'

let of_tokens tokens =
  tokens
  |> List.filter_map (fun { Token.token; _ } ->
         match token with
         | Token.Eof | Token.Semicolon -> None
         | t -> Some (normalize_token t))
  |> collapse_runs
  |> String.concat " "

let of_sql sql =
  match Lexer.tokenize sql with
  | Error _ -> fallback sql
  | Ok tokens -> of_tokens tokens
