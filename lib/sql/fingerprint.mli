(** Lexer-based statement fingerprints for statistics aggregation.

    Literals ([42], [3.14], ['abc']) and parameter markers ([$1]) normalize
    to [?]; bare identifiers and keywords lowercase; whitespace collapses;
    trailing semicolons drop. Quoted identifiers keep their case (they are
    names, not values). Statements the lexer rejects fall back to the
    lowercased, whitespace-collapsed raw text, so every statement — even a
    malformed one — gets a stable fingerprint. *)

val of_sql : string -> string

val of_tokens : Token.located list -> string
(** The fingerprint of a statement the caller has already lexed:
    [of_sql sql = of_tokens tokens] whenever [Lexer.tokenize sql] is
    [Ok tokens]. *)

val fallback : string -> string
(** The fingerprint of a statement the lexer rejects. *)
