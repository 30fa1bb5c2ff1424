type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Text of string
  | Date of int

let type_of = function
  | Null -> Dtype.Any
  | Int _ -> Dtype.Int
  | Float _ -> Dtype.Float
  | Bool _ -> Dtype.Bool
  | Text _ -> Dtype.Text
  | Date _ -> Dtype.Date

let is_null = function
  | Null -> true
  | Int _ | Float _ | Bool _ | Text _ | Date _ -> false

(* Civil-calendar conversions (Howard Hinnant's algorithms): epoch days are
   days since 1970-01-01 in the proleptic Gregorian calendar. *)
let days_from_civil y m d =
  let y = if m <= 2 then y - 1 else y in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let mp = if m > 2 then m - 3 else m + 9 in
  let doy = (((153 * mp) + 2) / 5) + d - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146097) + doe - 719468

let civil_from_days z =
  let z = z + 719468 in
  let era = (if z >= 0 then z else z - 146096) / 146097 in
  let doe = z - (era * 146097) in
  let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let d = doy - (((153 * mp) + 2) / 5) + 1 in
  let m = if mp < 10 then mp + 3 else mp - 9 in
  ((if m <= 2 then y + 1 else y), m, d)

let date_of_ymd y m d =
  if m < 1 || m > 12 || d < 1 || d > 31 then
    Error (Printf.sprintf "invalid date %04d-%02d-%02d" y m d)
  else
    let days = days_from_civil y m d in
    let y', m', d' = civil_from_days days in
    if y = y' && m = m' && d = d' then Ok (Date days)
    else Error (Printf.sprintf "invalid date %04d-%02d-%02d" y m d)

let date_to_ymd = civil_from_days

let date_of_string s =
  let s = String.trim s in
  match String.split_on_char '-' s with
  | [ y; m; d ] -> (
    match int_of_string_opt y, int_of_string_opt m, int_of_string_opt d with
    | Some y, Some m, Some d -> date_of_ymd y m d
    | _ -> Error (Printf.sprintf "invalid date syntax %S" s))
  | _ -> Error (Printf.sprintf "invalid date syntax %S" s)

let date_string days =
  let y, m, d = civil_from_days days in
  Printf.sprintf "%04d-%02d-%02d" y m d

let equal a b =
  match a, b with
  | Null, Null -> true
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | Bool a, Bool b -> a = b
  | Text a, Text b -> String.equal a b
  | Date a, Date b -> a = b
  | (Null | Int _ | Float _ | Bool _ | Text _ | Date _), _ -> false

(* [equal] with NaN identified with NaN; spelled out in full, as it is on
   every hash-table probe *)
let key_equal a b =
  match a, b with
  | Null, Null -> true
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b || (Float.is_nan a && Float.is_nan b)
  | Int a, Float b | Float b, Int a -> float_of_int a = b
  | Bool a, Bool b -> a = b
  | Text a, Text b -> String.equal a b
  | Date a, Date b -> a = b
  | (Null | Int _ | Float _ | Bool _ | Text _ | Date _), _ -> false

(* Type-tag rank for the total order over incomparable types. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Text _ -> 3
  | Date _ -> 4

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int a, Int b -> Stdlib.compare a b
  | Float a, Float b -> Stdlib.compare a b
  | Int a, Float b -> Stdlib.compare (float_of_int a) b
  | Float a, Int b -> Stdlib.compare a (float_of_int b)
  | Bool a, Bool b -> Stdlib.compare a b
  | Text a, Text b -> String.compare a b
  | Date a, Date b -> Stdlib.compare a b
  | a, b -> Stdlib.compare (rank a) (rank b)

(* An integer mix: two multiply-xorshift rounds, so every bit of [x]
   reaches the low bits a power-of-two table indexes by. *)
let mix x =
  let x = x * 0x2545f4914f6cdd1d in
  let x = x lxor (x lsr 29) in
  let x = x * 0x1b03738712fad5c9 in
  (x lxor (x lsr 32)) land max_int

(* A float's bits, mixed; the sign bit, which an int cannot hold, flips
   the result. *)
let[@inline] float_bits f =
  mix (Int64.to_int (Int64.bits_of_float f))
  lxor (if f < 0. then 0x3a4f1f2e5d6c else 0)

(* A float's hash: an integral float in the int range hashes as that int,
   so [Int i] and [Float (float_of_int i)] meet ([-0.0] is integral and
   hashes as 0); every NaN hashes alike; any other float hashes its bits.
   Inlined, so the float is never boxed. *)
let[@inline] hash_float f =
  if f >= -4611686018427387904. && f < 4611686018427387904. then
    let i = int_of_float f in
    if float_of_int i = f then mix i else float_bits f
  else if Float.is_nan f then 0x5eed
  else float_bits f

(* No case allocates. An int within +-2^53 is its own float's integer;
   past that it equals its rounded float, so it hashes as that float. *)
let hash = function
  | Null -> 0
  | Int i ->
    if i >= -9007199254740992 && i <= 9007199254740992 then mix i
    else hash_float (float_of_int i)
  | Float f -> hash_float f
  | Bool b -> if b then 0x2b6a else 0x6c62
  | Text s -> Hashtbl.hash s
  | Date d -> mix (d lxor 0x3c6ef372)

module Key_tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = key_equal
  let hash = hash
end)

let lift_cmp op a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | a, b -> Bool (op (compare a b) 0)

let sql_eq a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | a, b -> Bool (equal a b)

let sql_neq a b =
  match sql_eq a b with
  | Bool v -> Bool (not v)
  | v -> v

let sql_lt a b = lift_cmp ( < ) a b
let sql_leq a b = lift_cmp ( <= ) a b
let sql_gt a b = lift_cmp ( > ) a b
let sql_geq a b = lift_cmp ( >= ) a b

(* The arithmetic core: the value, or [Arith_error] with the message.
   It allocates only its result, so the evaluator and the aggregates call
   it per row; the [result] forms below wrap it. *)
exception Arith_error of string

type arith = Add | Sub | Mul | Div

let arith_name = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let arith op a b =
  match a, b with
  | Null, _ | _, Null -> Null
  | _, (Int 0 | Float 0.) when op = Div -> raise (Arith_error "division by zero")
  | Int a, Int b -> (
    match op with Add -> Int (a + b) | Sub -> Int (a - b) | Mul -> Int (a * b)
    | Div -> Int (a / b))
  | (Int _ | Float _), (Int _ | Float _) -> (
    let a = match a with Int i -> float_of_int i | Float f -> f | _ -> 0.
    and b = match b with Int i -> float_of_int i | Float f -> f | _ -> 0. in
    match op with
    | Add -> Float (a +. b)
    | Sub -> Float (a -. b)
    | Mul -> Float (a *. b)
    | Div -> Float (a /. b))
  | (Date d, Int n | Int n, Date d) when op = Add -> Date (d + n)
  | Date d, Int n when op = Sub -> Date (d - n)
  | Date a, Date b when op = Sub -> Int (a - b)
  | a, b ->
    raise
      (Arith_error
         (Printf.sprintf "cannot apply %s to %s and %s" (arith_name op)
            (Dtype.to_string (type_of a))
            (Dtype.to_string (type_of b))))

let arith_result op a b =
  match arith op a b with v -> Ok v | exception Arith_error msg -> Error msg

let add = arith_result Add
let sub = arith_result Sub
let mul = arith_result Mul
let div = arith_result Div

let neg = function
  | Null -> Ok Null
  | Int i -> Ok (Int (-i))
  | Float f -> Ok (Float (-.f))
  | v -> Error ("cannot negate " ^ Dtype.to_string (type_of v))

let concat a b =
  match a, b with
  | Null, _ | _, Null -> Ok Null
  | Text a, Text b -> Ok (Text (a ^ b))
  | a, b ->
    Error
      (Printf.sprintf "cannot concatenate %s and %s"
         (Dtype.to_string (type_of a))
         (Dtype.to_string (type_of b)))

(* LIKE matching: '%' matches any sequence, '_' any single character.
   Classic two-pointer backtracking over the last '%'. *)
let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go pi si star_p star_s =
    if si = ns then
      (* consume trailing '%'s *)
      let rec only_pct pi = pi = np || (pattern.[pi] = '%' && only_pct (pi + 1)) in
      only_pct pi
    else if pi < np && pattern.[pi] = '%' then go (pi + 1) si (Some pi) si
    else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = s.[si]) then
      go (pi + 1) (si + 1) star_p star_s
    else
      match star_p with
      | Some sp -> go (sp + 1) (star_s + 1) star_p (star_s + 1)
      | None -> false
  in
  go 0 0 None 0

let like v pat =
  match v, pat with
  | Null, _ | _, Null -> Null
  | Text s, Text p -> Bool (like_match ~pattern:p s)
  | _ -> Bool false

let cast ty v =
  match v, ty with
  | Null, _ -> Ok Null
  | v, Dtype.Any -> Ok v
  | Int _, Dtype.Int | Float _, Dtype.Float | Bool _, Dtype.Bool | Text _, Dtype.Text
  | Date _, Dtype.Date ->
    Ok v
  | Text s, Dtype.Date -> date_of_string s
  | Date d, Dtype.Text -> Ok (Text (date_string d))
  | Int i, Dtype.Float -> Ok (Float (float_of_int i))
  | Float f, Dtype.Int -> Ok (Int (int_of_float f))
  | Int i, Dtype.Bool -> Ok (Bool (i <> 0))
  | Bool b, Dtype.Int -> Ok (Int (if b then 1 else 0))
  | Text s, Dtype.Int -> (
    match int_of_string_opt (String.trim s) with
    | Some i -> Ok (Int i)
    | None -> Error (Printf.sprintf "invalid input for int: %S" s))
  | Text s, Dtype.Float -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> Ok (Float f)
    | None -> Error (Printf.sprintf "invalid input for float: %S" s))
  | Text s, Dtype.Bool -> (
    match String.lowercase_ascii (String.trim s) with
    | "t" | "true" | "1" | "yes" | "on" -> Ok (Bool true)
    | "f" | "false" | "0" | "no" | "off" -> Ok (Bool false)
    | _ -> Error (Printf.sprintf "invalid input for bool: %S" s))
  | (Int _ | Float _ | Bool _), Dtype.Text ->
    Ok
      (Text
         (match v with
         | Int i -> string_of_int i
         | Float f -> Printf.sprintf "%g" f
         | Bool b -> if b then "true" else "false"
         | Null | Text _ | Date _ -> assert false))
  | v, ty ->
    Error
      (Printf.sprintf "cannot cast %s to %s"
         (Dtype.to_string (type_of v))
         (Dtype.to_string ty))

let to_string = function
  | Null -> "null"
  | Date d -> date_string d
  | Int i -> string_of_int i
  | Float f ->
    (* Render integral floats with a trailing .0 so float-typed columns are
       visually distinct from ints, matching PostgreSQL's numeric output. *)
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%g" f
  | Bool b -> if b then "true" else "false"
  | Text s -> s

let to_sql = function
  | Date d -> Printf.sprintf "DATE '%s'" (date_string d)
  | Text s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c ->
        if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf
  | v -> to_string v

let pp ppf v = Format.pp_print_string ppf (to_string v)
