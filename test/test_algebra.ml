(* Unit tests for the algebra IR: attributes, expressions, plan schemas,
   builtins, tree printing. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Builtins = Perm_algebra.Builtins
module Pretty = Perm_algebra.Pretty
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
open Perm_testkit.Kit

let a_int name = Attr.fresh name Dtype.Int
let a_text name = Attr.fresh name Dtype.Text
let scan attrs = Plan.Scan { table = "r"; attrs }

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go idx = idx + n <= h && (String.sub hay idx n = needle || go (idx + 1)) in
  n = 0 || go 0

let attr_tests =
  [
    case "fresh ids are unique" (fun () ->
        let a = a_int "x" and b = a_int "x" in
        Alcotest.(check bool) "" false (Attr.equal a b));
    case "renamed keeps type, new id" (fun () ->
        let a = a_int "x" in
        let b = Attr.renamed "y" a in
        Alcotest.(check string) "name" "y" b.Attr.name;
        Alcotest.(check bool) "type" true (Dtype.equal b.Attr.ty Dtype.Int);
        Alcotest.(check bool) "id" false (Attr.equal a b));
    case "fresh ids stay unique across domains" (fun () ->
        let n = 200_000 in
        let mint () = Array.init n (fun _ -> (a_int "x").Attr.id) in
        let other = Domain.spawn mint in
        let mine = mint () in
        let ids = Array.append mine (Domain.join other) in
        Array.sort Int.compare ids;
        let dups = ref 0 in
        for k = 1 to Array.length ids - 1 do
          if ids.(k) = ids.(k - 1) then incr dups
        done;
        Alcotest.(check int) "duplicate ids" 0 !dups);
  ]

let expr_tests =
  [
    case "attrs collects references" (fun () ->
        let a = a_int "a" and b = a_int "b" in
        let e = Expr.Binop (Expr.Add, Expr.Attr a, Expr.Func ("abs", [ Expr.Attr b ])) in
        Alcotest.(check int) "" 2 (Attr.Set.cardinal (Expr.attrs e)));
    case "substitute replaces mapped attrs only" (fun () ->
        let a = a_int "a" and b = a_int "b" in
        let e = Expr.Binop (Expr.Add, Expr.Attr a, Expr.Attr b) in
        let cols = [ (Expr.Const (Value.Int 7), a) ] in
        let untouched = Expr.Binop (Expr.Sub, Expr.Attr b, Expr.Attr b) in
        Alcotest.(check bool) "no column referenced: the same value" true
          (Expr.substitute cols untouched == untouched);
        match Expr.substitute cols e with
        | Expr.Binop (Expr.Add, Expr.Const (Value.Int 7), Expr.Attr b') ->
          Alcotest.(check bool) "" true (Attr.equal b b')
        | _ -> Alcotest.fail "unexpected substitution");
    case "conjuncts flattens and chains" (fun () ->
        let t = Expr.Const (Value.Bool true) in
        let e = Expr.Binop (Expr.And, Expr.Binop (Expr.And, t, t), t) in
        Alcotest.(check int) "" 3 (List.length (Expr.conjuncts e)));
    case "conjoin of empty list is true" (fun () ->
        match Expr.conjoin [] with
        | Expr.Const (Value.Bool true) -> ()
        | _ -> Alcotest.fail "expected TRUE");
    case "conjoin inverts conjuncts" (fun () ->
        let a = Expr.Attr (a_int "a") in
        let parts = [ a; a; a ] in
        Alcotest.(check int) "" 3 (List.length (Expr.conjuncts (Expr.conjoin parts))));
    case "type_of arithmetic promotes" (fun () ->
        let e = Expr.Binop (Expr.Add, Expr.Attr (a_int "a"), Expr.Const (Value.Float 1.)) in
        Alcotest.(check string) "" "float" (Dtype.to_string (Expr.type_of e)));
    case "type_of comparison is bool" (fun () ->
        let e = Expr.Binop (Expr.Lt, Expr.Const (Value.Int 1), Expr.Const (Value.Int 2)) in
        Alcotest.(check string) "" "bool" (Dtype.to_string (Expr.type_of e)));
    case "equal is structural" (fun () ->
        let a = a_int "a" in
        let e1 = Expr.Binop (Expr.Add, Expr.Attr a, Expr.Const (Value.Int 1)) in
        let e2 = Expr.Binop (Expr.Add, Expr.Attr a, Expr.Const (Value.Int 1)) in
        Alcotest.(check bool) "" true (Expr.equal e1 e2));
  ]

let schema_tests =
  [
    case "project schema" (fun () ->
        let a = a_int "a" and b = a_text "b" in
        let out = a_int "x" in
        let p = Plan.Project { child = scan [ a; b ]; cols = [ (Expr.Attr a, out) ] } in
        Alcotest.(check int) "" 1 (Plan.arity p));
    case "join schema concatenates" (fun () ->
        let a = a_int "a" and b = a_int "b" in
        let j =
          Plan.Join { kind = Plan.Inner; left = scan [ a ]; right = scan [ b ]; pred = None }
        in
        Alcotest.(check int) "" 2 (Plan.arity j));
    case "semi/anti keep left schema" (fun () ->
        let a = a_int "a" and b = a_int "b" in
        List.iter
          (fun kind ->
            let j = Plan.Join { kind; left = scan [ a ]; right = scan [ b ]; pred = None } in
            Alcotest.(check int) "" 1 (Plan.arity j))
          [ Plan.Semi; Plan.Anti ]);
    case "apply scalar appends one attr" (fun () ->
        let a = a_int "a" and b = a_int "b" and out = a_int "s" in
        let p = Plan.Apply { kind = Plan.A_scalar out; left = scan [ a ]; right = scan [ b ] } in
        Alcotest.(check int) "" 2 (Plan.arity p));
    case "aggregate schema: groups then aggs" (fun () ->
        let a = a_int "a" in
        let g = a_int "g" and c = a_int "count" in
        let p =
          Plan.Aggregate
            {
              child = scan [ a ];
              group_by = [ (Expr.Attr a, g) ];
              aggs = [ { Plan.agg = Plan.Count_star; distinct = false; arg = None; agg_out = c } ];
            }
        in
        Alcotest.(check (list string)) "" [ "g"; "count" ]
          (List.map (fun (x : Attr.t) -> x.Attr.name) (Plan.schema p)));
    case "prov marker appends sources" (fun () ->
        let a = a_int "a" in
        let pa = a_int "prov_r_a" in
        let p =
          Plan.Prov
            {
              child = scan [ a ];
              semantics = Plan.Influence;
              sources = [ { Plan.prov_attr = pa; prov_rel = "r"; prov_col = "a" } ];
            }
        in
        Alcotest.(check int) "" 2 (Plan.arity p));
    case "map_children rebuilds" (fun () ->
        let a = a_int "a" in
        let p = Plan.Distinct (scan [ a ]) in
        let seen = ref 0 in
        let p' =
          Plan.map_children
            (fun c ->
              incr seen;
              c)
            p
        in
        Alcotest.(check int) "visited" 1 !seen;
        Alcotest.(check int) "arity" (Plan.arity p) (Plan.arity p'));
    case "count_operators" (fun () ->
        let a = a_int "a" in
        let p =
          Plan.Distinct
            (Plan.Filter { child = scan [ a ]; pred = Expr.Const (Value.Bool true) })
        in
        Alcotest.(check int) "" 3 (Plan.count_operators p));
  ]

let builtins_tests =
  [
    case "find is case-insensitive" (fun () ->
        Alcotest.(check bool) "" true (Builtins.find "COALESCE" <> None));
    case "unknown function" (fun () ->
        Alcotest.(check bool) "" true (Builtins.find "frobnicate" = None));
    case "abs eval" (fun () ->
        let sg = Option.get (Builtins.find "abs") in
        Alcotest.(check string) "" "3"
          (Value.to_string (Result.get_ok (sg.Builtins.eval [ i (-3) ]))));
    case "coalesce picks first non-null" (fun () ->
        let sg = Option.get (Builtins.find "coalesce") in
        Alcotest.(check string) "" "7"
          (Value.to_string (Result.get_ok (sg.Builtins.eval [ nl; i 7; i 9 ]))));
    case "substr clamps" (fun () ->
        let sg = Option.get (Builtins.find "substr") in
        Alcotest.(check string) "middle" "bc"
          (Value.to_string (Result.get_ok (sg.Builtins.eval [ s "abcd"; i 2; i 2 ])));
        Alcotest.(check string) "past end" ""
          (Value.to_string (Result.get_ok (sg.Builtins.eval [ s "ab"; i 9 ]))));
    case "nullif" (fun () ->
        let sg = Option.get (Builtins.find "nullif") in
        Alcotest.(check string) "equal -> null" "null"
          (Value.to_string (Result.get_ok (sg.Builtins.eval [ i 1; i 1 ])));
        Alcotest.(check string) "diff -> first" "1"
          (Value.to_string (Result.get_ok (sg.Builtins.eval [ i 1; i 2 ]))));
    case "replace" (fun () ->
        let sg = Option.get (Builtins.find "replace") in
        Alcotest.(check string) "" "xbxb"
          (Value.to_string (Result.get_ok (sg.Builtins.eval [ s "abab"; s "a"; s "x" ]))));
    case "mod by zero errors" (fun () ->
        let sg = Option.get (Builtins.find "mod") in
        Alcotest.(check bool) "" true (Result.is_error (sg.Builtins.eval [ i 5; i 0 ])));
    case "greatest/least skip nulls" (fun () ->
        let g = Option.get (Builtins.find "greatest") in
        let l = Option.get (Builtins.find "least") in
        Alcotest.(check string) "greatest" "9"
          (Value.to_string (Result.get_ok (g.Builtins.eval [ nl; i 9; i 3 ])));
        Alcotest.(check string) "least" "3"
          (Value.to_string (Result.get_ok (l.Builtins.eval [ nl; i 9; i 3 ]))));
  ]

let pretty_tests =
  [
    case "tree rendering shows operators and details" (fun () ->
        let a = a_int "a" in
        let p =
          Plan.Filter
            {
              child = scan [ a ];
              pred = Expr.Binop (Expr.Gt, Expr.Attr a, Expr.Const (Value.Int 1));
            }
        in
        let txt = Pretty.plan_to_string ~show_attrs:false p in
        Alcotest.(check bool) "has Select" true (contains ~needle:"Select" txt);
        Alcotest.(check bool) "has Scan" true (contains ~needle:"Scan(r)" txt));
    case "plan_summary nests" (fun () ->
        let a = a_int "a" in
        let p = Plan.Distinct (scan [ a ]) in
        Alcotest.(check string) "" "Distinct(Scan(r))" (Pretty.plan_summary p));
    case "show_attrs prints unique names" (fun () ->
        let a = a_int "a" in
        let p = scan [ a ] in
        let txt = Pretty.plan_to_string ~show_attrs:true p in
        Alcotest.(check bool) "" true (contains ~needle:"a#" txt));
  ]

let () =
  Alcotest.run "algebra"
    [
      ("attr", attr_tests);
      ("expr", expr_tests);
      ("schema", schema_tests);
      ("builtins", builtins_tests);
      ("pretty", pretty_tests);
    ]
