type t =
  | Int_lit of int
  | Float_lit of float
  | String_lit of string
  | Ident of string
  | Param of int
  | Quoted_ident of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Star
  | Plus
  | Minus
  | Slash
  | Percent
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | Concat
  | Semicolon
  | Eof

type located = { token : t; pos : int }

let to_string = function
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | String_lit s -> "'" ^ s ^ "'"
  | Ident s -> s
  | Param n -> "$" ^ string_of_int n
  | Quoted_ident s -> "\"" ^ s ^ "\""
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Dot -> "."
  | Star -> "*"
  | Plus -> "+"
  | Minus -> "-"
  | Slash -> "/"
  | Percent -> "%"
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="
  | Concat -> "||"
  | Semicolon -> ";"
  | Eof -> "<eof>"

let equal a b =
  match a, b with
  | Int_lit x, Int_lit y | Param x, Param y -> Int.equal x y
  | Float_lit x, Float_lit y -> x = y
  | String_lit x, String_lit y | Ident x, Ident y | Quoted_ident x, Quoted_ident y
    ->
    String.equal x y
  | Lparen, Lparen | Rparen, Rparen | Comma, Comma | Dot, Dot | Star, Star
  | Plus, Plus | Minus, Minus | Slash, Slash | Percent, Percent | Eq, Eq
  | Neq, Neq | Lt, Lt | Leq, Leq | Gt, Gt | Geq, Geq | Concat, Concat
  | Semicolon, Semicolon | Eof, Eof ->
    true
  | _ -> false
