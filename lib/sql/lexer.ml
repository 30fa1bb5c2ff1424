type error = { message : string; pos : int }

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let describe_position input pos =
  let line = ref 1 and col = ref 1 in
  let limit = min pos (String.length input) in
  for i = 0 to limit - 1 do
    if input.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  Printf.sprintf "line %d, column %d" !line !col

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit token pos = tokens := { Token.token; pos } :: !tokens in
  let error message pos = Error { message; pos } in
  let rec skip_block_comment i =
    if i + 1 >= n then None
    else if input.[i] = '*' && input.[i + 1] = '/' then Some (i + 2)
    else skip_block_comment (i + 1)
  in
  let rec lex_string i start buf =
    if i >= n then error "unterminated string literal" start
    else if input.[i] = '\'' then
      if i + 1 < n && input.[i + 1] = '\'' then begin
        Buffer.add_char buf '\'';
        lex_string (i + 2) start buf
      end
      else begin
        emit (Token.String_lit (Buffer.contents buf)) start;
        loop (i + 1)
      end
    else begin
      Buffer.add_char buf input.[i];
      lex_string (i + 1) start buf
    end
  and lex_quoted_ident i start buf =
    if i >= n then error "unterminated quoted identifier" start
    else if input.[i] = '"' then
      if i + 1 < n && input.[i + 1] = '"' then begin
        Buffer.add_char buf '"';
        lex_quoted_ident (i + 2) start buf
      end
      else begin
        emit (Token.Quoted_ident (Buffer.contents buf)) start;
        loop (i + 1)
      end
    else begin
      Buffer.add_char buf input.[i];
      lex_quoted_ident (i + 1) start buf
    end
  and lex_number i start =
    let j = ref i in
    while !j < n && is_digit input.[!j] do
      incr j
    done;
    let is_float =
      (!j < n && input.[!j] = '.' && !j + 1 < n && is_digit input.[!j + 1])
      || (!j < n && (input.[!j] = 'e' || input.[!j] = 'E'))
    in
    if is_float then begin
      if !j < n && input.[!j] = '.' then begin
        incr j;
        while !j < n && is_digit input.[!j] do
          incr j
        done
      end;
      if !j < n && (input.[!j] = 'e' || input.[!j] = 'E') then begin
        incr j;
        if !j < n && (input.[!j] = '+' || input.[!j] = '-') then incr j;
        if !j >= n || not (is_digit input.[!j]) then incr j (* force error below *)
        else
          while !j < n && is_digit input.[!j] do
            incr j
          done
      end;
      let text = String.sub input start (!j - start) in
      match float_of_string_opt text with
      | Some f ->
        emit (Token.Float_lit f) start;
        loop !j
      | None -> error (Printf.sprintf "malformed number %S" text) start
    end
    else
      let text = String.sub input start (!j - start) in
      match int_of_string_opt text with
      | Some v ->
        emit (Token.Int_lit v) start;
        loop !j
      | None -> error (Printf.sprintf "malformed number %S" text) start
  and lex_ident i start =
    let j = ref i and upper = ref false in
    while !j < n && is_ident_char input.[!j] do
      if input.[!j] >= 'A' && input.[!j] <= 'Z' then upper := true;
      incr j
    done;
    let text = String.sub input start (!j - start) in
    emit (Token.Ident (if !upper then String.lowercase_ascii text else text)) start;
    loop !j
  and loop i =
    if i >= n then begin
      emit Token.Eof n;
      Ok (List.rev !tokens)
    end
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> loop (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
        let rec eol j = if j >= n || input.[j] = '\n' then j else eol (j + 1) in
        loop (eol (i + 2))
      | '/' when i + 1 < n && input.[i + 1] = '*' -> (
        match skip_block_comment (i + 2) with
        | Some j -> loop j
        | None -> error "unterminated block comment" i)
      | '\'' -> lex_string (i + 1) i (Buffer.create 16)
      | '"' -> lex_quoted_ident (i + 1) i (Buffer.create 16)
      | '(' ->
        emit Lparen i;
        loop (i + 1)
      | ')' ->
        emit Rparen i;
        loop (i + 1)
      | ',' ->
        emit Comma i;
        loop (i + 1)
      | '.' ->
        emit Dot i;
        loop (i + 1)
      | '*' ->
        emit Star i;
        loop (i + 1)
      | '+' ->
        emit Plus i;
        loop (i + 1)
      | '-' ->
        emit Minus i;
        loop (i + 1)
      | '/' ->
        emit Slash i;
        loop (i + 1)
      | '%' ->
        emit Percent i;
        loop (i + 1)
      | ';' ->
        emit Semicolon i;
        loop (i + 1)
      | '=' ->
        emit Eq i;
        loop (i + 1)
      | '!' when i + 1 < n && input.[i + 1] = '=' ->
        emit Neq i;
        loop (i + 2)
      | '<' when i + 1 < n && input.[i + 1] = '>' ->
        emit Neq i;
        loop (i + 2)
      | '<' when i + 1 < n && input.[i + 1] = '=' ->
        emit Leq i;
        loop (i + 2)
      | '<' ->
        emit Lt i;
        loop (i + 1)
      | '>' when i + 1 < n && input.[i + 1] = '=' ->
        emit Geq i;
        loop (i + 2)
      | '>' ->
        emit Gt i;
        loop (i + 1)
      | '|' when i + 1 < n && input.[i + 1] = '|' ->
        emit Concat i;
        loop (i + 2)
      | '$' when i + 1 < n && is_digit input.[i + 1] ->
        let j = ref (i + 1) in
        while !j < n && is_digit input.[!j] do
          incr j
        done;
        (match int_of_string_opt (String.sub input (i + 1) (!j - i - 1)) with
        | Some k when k >= 1 ->
          emit (Token.Param k) i;
          loop !j
        | _ -> error "parameter numbers start at $1" i)
      | c when is_digit c -> lex_number i i
      | c when is_ident_start c -> lex_ident i i
      | c -> error (Printf.sprintf "unexpected character %C" c) i
  in
  loop 0
