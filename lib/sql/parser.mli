(** Recursive-descent parser for the SQL-PLE dialect.

    Accepts standard SQL (SELECT with joins, subqueries, grouping, set
    operations, ORDER BY / LIMIT / OFFSET, DDL and DML) extended with the
    Perm provenance constructs of paper §2.4. *)

type error = { message : string; pos : int }

val parse_query : string -> (Ast.query, error) result
(** Parses a single query (no trailing semicolon required). *)

val parse_statement : string -> (Ast.statement, error) result
(** Parses a single statement, allowing one trailing semicolon. *)

val statement_of_tokens : Token.located list -> (Ast.statement, error) result
(** [parse_statement] over tokens the caller has already lexed, so one
    lexing pass can feed both the parser and {!Fingerprint.of_tokens}. *)

val reserved : string list
(** The words that can never be a bare alias or column reference. *)

val is_reserved : string -> bool
(** Membership in {!reserved}. *)

val parse_script : string -> (Ast.statement list, error) result
(** Parses a semicolon-separated sequence of statements. *)

val error_to_string : input:string -> error -> string
