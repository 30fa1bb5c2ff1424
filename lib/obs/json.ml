type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The shortest of 15, 16 or 17 significant digits that reads back as
   [f], kept a float when parsed ([.0] added to a bare integer). JSON has
   no NaN or infinities: those print [null]. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    let s = shortest 15 in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int

let parse input =
  let n = String.length input in
  let fail msg pos = raise (Parse_error (msg, pos)) in
  let rec skip_ws i =
    if i < n && (match input.[i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then skip_ws (i + 1)
    else i
  in
  let expect c i =
    if i < n && input.[i] = c then i + 1
    else fail (Printf.sprintf "expected %C" c) i
  in
  let parse_literal word value i =
    let len = String.length word in
    if i + len <= n && String.sub input i len = word then (value, i + len)
    else fail (Printf.sprintf "invalid token (expected %s)" word) i
  in
  (* UTF-8 encode one code point, including the astral planes (4 bytes)
     reached by recombined surrogate pairs. *)
  let add_codepoint buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string i =
    let i = expect '"' i in
    let buf = Buffer.create 16 in
    let rec go i =
      if i >= n then fail "unterminated string" i
      else
        match input.[i] with
        | '"' -> (Buffer.contents buf, i + 1)
        | '\\' ->
          if i + 1 >= n then fail "dangling escape" i
          else (
            match input.[i + 1] with
            | '"' -> Buffer.add_char buf '"'; go (i + 2)
            | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
            | '/' -> Buffer.add_char buf '/'; go (i + 2)
            | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
            | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
            | 't' -> Buffer.add_char buf '\t'; go (i + 2)
            | 'b' -> Buffer.add_char buf '\b'; go (i + 2)
            | 'f' -> Buffer.add_char buf '\012'; go (i + 2)
            | 'u' ->
              if i + 5 >= n then fail "truncated \\u escape" i
              else begin
                match int_of_string_opt ("0x" ^ String.sub input (i + 2) 4) with
                | None -> fail "invalid \\u escape" i
                | Some cp
                  when cp >= 0xD800 && cp <= 0xDBFF
                       && i + 11 < n
                       && input.[i + 6] = '\\'
                       && input.[i + 7] = 'u' -> (
                  (* a high surrogate followed by \u of a low surrogate:
                     recombine the pair into one astral code point *)
                  match
                    int_of_string_opt ("0x" ^ String.sub input (i + 8) 4)
                  with
                  | Some lo when lo >= 0xDC00 && lo <= 0xDFFF ->
                    add_codepoint buf
                      (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00));
                    go (i + 12)
                  | _ ->
                    (* not a low surrogate: encode the lone half as before *)
                    add_codepoint buf cp;
                    go (i + 6))
                | Some cp ->
                  add_codepoint buf cp;
                  go (i + 6)
              end
            | c -> fail (Printf.sprintf "unknown escape \\%c" c) i)
        | c -> Buffer.add_char buf c; go (i + 1)
    in
    go i
  in
  let parse_number i =
    let j = ref i in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !j < n && num_char input.[!j] do incr j done;
    if !j = i then fail "invalid number" i
    else
      let text = String.sub input i (!j - i) in
      match int_of_string_opt text with
      | Some v -> (Int v, !j)
      | None -> (
        match float_of_string_opt text with
        | Some v -> (Float v, !j)
        | None -> fail (Printf.sprintf "invalid number %S" text) i)
  in
  let rec parse_value i =
    let i = skip_ws i in
    if i >= n then fail "unexpected end of input" i
    else
      match input.[i] with
      | 'n' -> parse_literal "null" Null i
      | 't' -> parse_literal "true" (Bool true) i
      | 'f' -> parse_literal "false" (Bool false) i
      | '"' ->
        let s, i = parse_string i in
        (String s, i)
      | '[' -> parse_list (i + 1) []
      | '{' -> parse_obj (i + 1) []
      | _ -> parse_number i
  and parse_list i acc =
    let i = skip_ws i in
    if i < n && input.[i] = ']' then (List (List.rev acc), i + 1)
    else
      let v, i = parse_value i in
      let i = skip_ws i in
      if i < n && input.[i] = ',' then parse_list (i + 1) (v :: acc)
      else (List (List.rev (v :: acc)), expect ']' i)
  and parse_obj i acc =
    let i = skip_ws i in
    if i < n && input.[i] = '}' then (Obj (List.rev acc), i + 1)
    else
      let k, i = parse_string i in
      let i = expect ':' (skip_ws i) in
      let v, i = parse_value i in
      let i = skip_ws i in
      if i < n && input.[i] = ',' then parse_obj (i + 1) ((k, v) :: acc)
      else (Obj (List.rev ((k, v) :: acc)), expect '}' i)
  in
  match parse_value 0 with
  | v, i ->
    let i = skip_ws i in
    if i < n then Error (Printf.sprintf "trailing content at offset %d" i)
    else Ok v
  | exception Parse_error (msg, pos) ->
    Error (Printf.sprintf "%s at offset %d" msg pos)

(* Accessors for picking results apart without pattern-matching noise at
   every call site (the bench comparison walks baseline documents). *)
let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

(* A human-diffable rendering: objects and lists one entry per line. Used
   for the bench harness's BENCH_*.json sinks. *)
let to_pretty_string t =
  let buf = Buffer.create 512 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> write buf v
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.add_char buf '\n';
  Buffer.contents buf
