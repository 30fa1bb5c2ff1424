(* Unit tests for the value model: SQL values, 3-valued logic, casts. *)

module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Tristate = Perm_value.Tristate
open Perm_testkit.Kit

let check_v = Alcotest.(check string)
let vstr v = Value.to_string v

let dtype_tests =
  [
    case "unify equal types" (fun () ->
        Alcotest.(check bool) "int/int" true (Dtype.unify Dtype.Int Dtype.Int = Some Dtype.Int));
    case "unify numeric promotion" (fun () ->
        Alcotest.(check bool) "int/float" true
          (Dtype.unify Dtype.Int Dtype.Float = Some Dtype.Float));
    case "unify any" (fun () ->
        Alcotest.(check bool) "any/text" true (Dtype.unify Dtype.Any Dtype.Text = Some Dtype.Text));
    case "unify incompatible" (fun () ->
        Alcotest.(check bool) "int/text" true (Dtype.unify Dtype.Int Dtype.Text = None));
    case "of_string synonyms" (fun () ->
        List.iter
          (fun (txt, ty) ->
            Alcotest.(check bool) txt true (Dtype.of_string txt = Some ty))
          [
            ("integer", Dtype.Int); ("bigint", Dtype.Int); ("double", Dtype.Float);
            ("varchar", Dtype.Text); ("boolean", Dtype.Bool); ("TEXT", Dtype.Text);
          ]);
    case "of_string unknown" (fun () ->
        Alcotest.(check bool) "blob" true (Dtype.of_string "blob" = None));
  ]

let equality_tests =
  [
    case "null equals null (null-safe)" (fun () ->
        Alcotest.(check bool) "" true (Value.equal nl nl));
    case "cross-type numeric equality" (fun () ->
        Alcotest.(check bool) "" true (Value.equal (i 1) (f 1.0)));
    case "int/text never equal" (fun () ->
        Alcotest.(check bool) "" false (Value.equal (i 1) (s "1")));
    case "hash agrees with equal across numeric types" (fun () ->
        Alcotest.(check int) "" (Value.hash (i 3)) (Value.hash (f 3.0)));
    case "compare numeric cross-type" (fun () ->
        Alcotest.(check bool) "" true (Value.compare (i 1) (f 1.5) < 0));
    case "null sorts first" (fun () ->
        Alcotest.(check bool) "" true (Value.compare nl (i (-100)) < 0));
    case "text compare" (fun () ->
        Alcotest.(check bool) "" true (Value.compare (s "abc") (s "abd") < 0));
  ]

let sql_op_tests =
  [
    case "sql_eq null propagates" (fun () ->
        check_v "" "null" (vstr (Value.sql_eq nl (i 1))));
    case "sql_eq true" (fun () ->
        check_v "" "true" (vstr (Value.sql_eq (i 2) (i 2))));
    case "sql_neq" (fun () ->
        check_v "" "true" (vstr (Value.sql_neq (i 2) (i 3))));
    case "sql_lt mixed numerics" (fun () ->
        check_v "" "true" (vstr (Value.sql_lt (i 2) (f 2.5))));
    case "add ints" (fun () ->
        check_v "" "5" (vstr (Result.get_ok (Value.add (i 2) (i 3)))));
    case "add int float promotes" (fun () ->
        check_v "" "5.5" (vstr (Result.get_ok (Value.add (i 2) (f 3.5)))));
    case "add null" (fun () ->
        check_v "" "null" (vstr (Result.get_ok (Value.add nl (i 3)))));
    case "add text errors" (fun () ->
        Alcotest.(check bool) "" true (Result.is_error (Value.add (s "x") (i 3))));
    case "div by zero" (fun () ->
        Alcotest.(check bool) "" true (Result.is_error (Value.div (i 1) (i 0))));
    case "div null divisor" (fun () ->
        check_v "" "null" (vstr (Result.get_ok (Value.div (i 1) nl))));
    case "int division truncates" (fun () ->
        check_v "" "3" (vstr (Result.get_ok (Value.div (i 7) (i 2)))));
    case "neg" (fun () -> check_v "" "-4" (vstr (Result.get_ok (Value.neg (i 4)))));
    case "concat" (fun () ->
        check_v "" "ab" (vstr (Result.get_ok (Value.concat (s "a") (s "b")))));
    case "concat null" (fun () ->
        check_v "" "null" (vstr (Result.get_ok (Value.concat nl (s "b")))));
  ]

let like_tests =
  let like pat v = Value.like (s v) (s pat) in
  [
    case "like literal" (fun () -> check_v "" "true" (vstr (like "abc" "abc")));
    case "like percent middle" (fun () ->
        check_v "" "true" (vstr (like "a%c" "aXXc")));
    case "like percent empty" (fun () ->
        check_v "" "true" (vstr (like "a%c" "ac")));
    case "like underscore" (fun () ->
        check_v "" "true" (vstr (like "a_c" "abc")));
    case "like underscore strict" (fun () ->
        check_v "" "false" (vstr (like "a_c" "ac")));
    case "like both wildcards" (fun () ->
        check_v "" "true" (vstr (like "%lo_em%" "xxloremyy")));
    case "like trailing percent" (fun () ->
        check_v "" "true" (vstr (like "lorem%" "lorem ipsum")));
    case "like no match" (fun () ->
        check_v "" "false" (vstr (like "xyz%" "lorem")));
    case "like null" (fun () ->
        check_v "" "null" (vstr (Value.like nl (s "%"))));
    case "like backtracking" (fun () ->
        check_v "" "true" (vstr (like "%ab%ab" "abxabab")));
  ]

let cast_tests =
  [
    case "cast int to float" (fun () ->
        check_v "" "7.0" (vstr (Result.get_ok (Value.cast Dtype.Float (i 7)))));
    case "cast float to int truncates" (fun () ->
        check_v "" "7" (vstr (Result.get_ok (Value.cast Dtype.Int (f 7.9)))));
    case "cast text to int" (fun () ->
        check_v "" "42" (vstr (Result.get_ok (Value.cast Dtype.Int (s " 42 ")))));
    case "cast text to int failure" (fun () ->
        Alcotest.(check bool) "" true
          (Result.is_error (Value.cast Dtype.Int (s "forty-two"))));
    case "cast bool text forms" (fun () ->
        List.iter
          (fun (txt, expected) ->
            check_v txt expected
              (vstr (Result.get_ok (Value.cast Dtype.Bool (s txt)))))
          [ ("t", "true"); ("no", "false"); ("TRUE", "true"); ("0", "false") ]);
    case "cast null anywhere" (fun () ->
        check_v "" "null" (vstr (Result.get_ok (Value.cast Dtype.Int nl))));
    case "cast numeric to text" (fun () ->
        check_v "" "3" (vstr (Result.get_ok (Value.cast Dtype.Text (i 3)))));
  ]

let format_tests =
  [
    case "to_sql quotes text" (fun () ->
        check_v "" "'it''s'" (Value.to_sql (s "it's")));
    case "to_sql int bare" (fun () -> check_v "" "7" (Value.to_sql (i 7)));
    case "to_string float integral" (fun () -> check_v "" "2.0" (vstr (f 2.0)));
    case "to_string null" (fun () -> check_v "" "null" (vstr nl));
  ]

let tristate_tests =
  let open Tristate in
  [
    case "kleene and" (fun () ->
        Alcotest.(check bool) "F&&U" true (equal (False &&& Unknown) False);
        Alcotest.(check bool) "T&&U" true (equal (True &&& Unknown) Unknown);
        Alcotest.(check bool) "T&&T" true (equal (True &&& True) True));
    case "kleene or" (fun () ->
        Alcotest.(check bool) "T||U" true (equal (True ||| Unknown) True);
        Alcotest.(check bool) "F||U" true (equal (False ||| Unknown) Unknown));
    case "not unknown" (fun () ->
        Alcotest.(check bool) "" true (equal (not_ Unknown) Unknown));
    case "of_value" (fun () ->
        Alcotest.(check bool) "null" true (Result.get_ok (of_value nl) = Unknown);
        Alcotest.(check bool) "bool" true (Result.get_ok (of_value (b true)) = True);
        Alcotest.(check bool) "int is error" true (Result.is_error (of_value (i 1))));
    case "is_true only true" (fun () ->
        Alcotest.(check bool) "" false (is_true Unknown));
  ]

(* [key_equal a b] implies [hash a = hash b] at the edges of the numeric
   embedding: signed zeros, NaN payloads, ints around +-2^53 and at the
   ends of the int range against their floats, and floats past it. *)
let nan_payload = Int64.float_of_bits 0x7ff8_0000_0000_0001L
let neg_nan = Int64.float_of_bits 0xfff8_0000_0000_0000L
let two53 = 1 lsl 53

let key_hash_pairs =
  [
    ("0.0 / -0.0", f 0.0, f (-0.0));
    ("0 / -0.0", i 0, f (-0.0));
    ("nan / nan with a payload", f Float.nan, f nan_payload);
    ("nan / negative nan", f Float.nan, f neg_nan);
    ("2^53", i two53, f (float_of_int two53));
    ("-2^53", i (-two53), f (float_of_int (-two53)));
    ("2^53+1 / its rounded float", i (two53 + 1), f (float_of_int (two53 + 1)));
    ("-(2^53+1) / its rounded float", i (-two53 - 1),
     f (float_of_int (-two53 - 1)));
    ("2^53+1 / 2^53", i (two53 + 1), f 9007199254740992.);
    ("max_int / 2^62", i max_int, f (float_of_int max_int));
    ("min_int / -2^62", i min_int, f (float_of_int min_int));
    ("2^62", f 4611686018427387904., f (Float.of_int max_int));
    ("1e19", f 1e19, f 1e19);
    ("-1e300", f (-1e300), f (-1e300));
    ("infinity", f Float.infinity, f Float.infinity);
  ]

let hash_tests =
  List.map
    (fun (name, a, b) ->
      case ("key_equal implies same hash: " ^ name) (fun () ->
          Alcotest.(check bool) "key_equal" true (Value.key_equal a b);
          Alcotest.(check int) "hash" (Value.hash a) (Value.hash b)))
    key_hash_pairs
  @ [
      case "hash separates nearby keys" (fun () ->
          let distinct =
            List.sort_uniq compare
              (List.map Value.hash
                 [ i 1; i 2; f 1.5; f 1e19; f (-1e19); f Float.infinity;
                   f Float.neg_infinity; f Float.nan; b true; b false;
                   s "1"; nl ])
          in
          Alcotest.(check int) "12 values, 12 hashes" 12 (List.length distinct));
      case "hash allocates nothing" (fun () ->
          let vs =
            [| i 7; i (two53 + 3); i max_int; f 2.5; f (-0.0); f Float.nan;
               f 1e19; b true; Value.Date 19000; nl; s "abc" |]
          in
          let acc = ref 0 in
          let before = Gc.minor_words () in
          for _ = 1 to 1000 do
            for k = 0 to Array.length vs - 1 do
              acc := !acc lxor Value.hash vs.(k)
            done
          done;
          let words = Gc.minor_words () -. before in
          ignore (Sys.opaque_identity !acc);
          Alcotest.(check bool)
            (Printf.sprintf "%.0f words for 11,000 hashes" words)
            true (words < 100.));
    ]

(* property tests *)
let arb_value =
  QCheck.(
    oneof
      [
        always Value.Null;
        map (fun n -> Value.Int n) small_signed_int;
        map (fun x -> Value.Float (float_of_int x /. 4.)) small_signed_int;
        map (fun b -> Value.Bool b) bool;
        map (fun s -> Value.Text s) (string_small_of (Gen.char_range 'a' 'e'));
      ])

(* Keys from a small pool, so pairs are often key_equal: ints and their
   floats near 0, +-2^53 and the ends of the int range, signed zeros,
   NaNs, dates, bools, text. *)
let arb_key =
  let ints =
    [ 0; 1; -1; 3; two53 - 1; two53; two53 + 1; two53 + 2; -two53; -two53 - 1;
      max_int; min_int; max_int - 1 ]
  in
  QCheck.(
    oneof
      [
        always Value.Null;
        map (fun n -> Value.Int n) (oneofl ints);
        map (fun n -> Value.Float (float_of_int n)) (oneofl ints);
        map (fun x -> Value.Float x)
          (oneofl
             [ 0.0; -0.0; Float.nan; nan_payload; neg_nan; 0.5; 1e19; -1e19;
               Float.infinity; 4611686018427387904.; -4611686018427387904. ]);
        map (fun b -> Value.Bool b) bool;
        map (fun d -> Value.Date d) (oneofl [ 0; 1; 3; -1 ]);
        map (fun s -> Value.Text s) (oneofl [ ""; "a"; "0" ]);
      ])

(* the values [v] could be key_equal to: its numeric neighbours *)
let twins = function
  | Value.Int n ->
    [ Value.Float (float_of_int n); Value.Int (n + 1); Value.Int (n - 1) ]
  | Value.Float x ->
    [ Value.Float (-.x); Value.Float (Float.succ x); Value.Float (Float.pred x) ]
    @ (if Float.abs x < 4.6e18 then [ Value.Int (int_of_float x) ] else [])
  | v -> [ v ]

let prop_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"compare is a total order (antisymmetry)" ~count:500
         (QCheck.pair arb_value arb_value)
         (fun (a, b) ->
           let c1 = Value.compare a b and c2 = Value.compare b a in
           (c1 = 0 && c2 = 0) || c1 * c2 < 0));
    qcheck
      (QCheck.Test.make ~name:"compare transitivity" ~count:500
         (QCheck.triple arb_value arb_value arb_value)
         (fun (a, b, c) ->
           let sorted = List.sort Value.compare [ a; b; c ] in
           match sorted with
           | [ x; y; z ] ->
             Value.compare x y <= 0 && Value.compare y z <= 0
             && Value.compare x z <= 0
           | _ -> false));
    qcheck
      (QCheck.Test.make ~name:"equal implies same hash" ~count:500
         (QCheck.pair arb_value arb_value)
         (fun (a, b) ->
           QCheck.assume (Value.equal a b);
           Value.hash a = Value.hash b));
    qcheck
      (QCheck.Test.make ~name:"key_equal implies same hash" ~count:1000
         (QCheck.pair arb_key arb_key)
         (fun (a, b) ->
           QCheck.assume (Value.key_equal a b);
           Value.hash a = Value.hash b));
    qcheck
      (QCheck.Test.make ~name:"key_equal implies same hash (twins)" ~count:1000
         arb_key
         (fun a ->
           List.for_all
             (fun b -> (not (Value.key_equal a b)) || Value.hash a = Value.hash b)
             (twins a)));
    qcheck
      (QCheck.Test.make ~name:"sql_eq is null iff an operand is null" ~count:500
         (QCheck.pair arb_value arb_value)
         (fun (a, b) ->
           Value.is_null (Value.sql_eq a b)
           = (Value.is_null a || Value.is_null b)));
    qcheck
      (QCheck.Test.make ~name:"cast to own type is identity" ~count:500 arb_value
         (fun v ->
           match Value.cast (Value.type_of v) v with
           | Ok v' -> Value.equal v v' || (Value.is_null v && Value.is_null v')
           | Error _ -> false));
  ]

let () =
  Alcotest.run "value"
    [
      ("dtype", dtype_tests);
      ("equality-order", equality_tests);
      ("hash", hash_tests);
      ("sql-ops", sql_op_tests);
      ("like", like_tests);
      ("cast", cast_tests);
      ("format", format_tests);
      ("tristate", tristate_tests);
      ("properties", prop_tests);
    ]
