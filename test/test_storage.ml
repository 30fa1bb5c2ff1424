(* Unit tests for storage: growable vectors, tuples, heaps (columnar
   chunks against a list model), the store. *)

module Vec = Perm_storage.Vec
module Tuple = Perm_storage.Tuple
module Heap = Perm_storage.Heap
module Store = Perm_storage.Store
module Batch = Perm_storage.Batch
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column
module Dtype = Perm_value.Dtype
open Perm_testkit.Kit

let vec_tests =
  [
    case "push/get/length" (fun () ->
        let v = Vec.create () in
        for k = 0 to 99 do
          Vec.push v k
        done;
        Alcotest.(check int) "length" 100 (Vec.length v);
        Alcotest.(check int) "get 57" 57 (Vec.get v 57));
    case "get out of bounds" (fun () ->
        let v = Vec.create () in
        Vec.push v 1;
        Alcotest.check_raises "negative" (Invalid_argument "Vec.get: index out of bounds")
          (fun () -> ignore (Vec.get v (-1)));
        Alcotest.check_raises "past end" (Invalid_argument "Vec.get: index out of bounds")
          (fun () -> ignore (Vec.get v 1)));
    (* growth past 256 elements appends the array to itself: every
       element survives, [set] replaces one, and pushing fresh values
       forces no minor collection (an [Array.make] filled with one would) *)
    case "growth and set, without forced collections" (fun () ->
        let v = Vec.create () in
        Gc.minor ();
        let before = (Gc.quick_stat ()).Gc.minor_collections in
        for k = 0 to 2999 do
          Vec.push v (string_of_int k)
        done;
        let forced = (Gc.quick_stat ()).Gc.minor_collections - before in
        Alcotest.(check bool)
          (Printf.sprintf "%d minor collections for 3,000 pushes" forced)
          true (forced <= 1);
        Alcotest.(check int) "length" 3000 (Vec.length v);
        for k = 0 to 2999 do
          Alcotest.(check string) "element" (string_of_int k) (Vec.get v k)
        done;
        Vec.set v 300 "x";
        Alcotest.(check string) "set" "x" (Vec.get v 300);
        Alcotest.(check string) "neighbour" "301" (Vec.get v 301);
        Alcotest.check_raises "set past end"
          (Invalid_argument "Vec.set: index out of bounds") (fun () ->
            Vec.set v 3000 "y"));
    case "to_list round trip" (fun () ->
        let l = [ 3; 1; 4; 1; 5 ] in
        Alcotest.(check (list int)) "" l (Vec.to_list (Vec.of_list l)));
    case "clear" (fun () ->
        let v = Vec.of_list [ 1; 2 ] in
        Vec.clear v;
        Alcotest.(check int) "" 0 (Vec.length v));
    case "fold and iteri" (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        Alcotest.(check int) "fold" 6 (Vec.fold ( + ) 0 v);
        let acc = ref [] in
        Vec.iteri (fun idx x -> acc := (idx, x) :: !acc) v;
        Alcotest.(check int) "iteri count" 3 (List.length !acc));
    case "to_seq is lazy over current contents" (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        Alcotest.(check (list int)) "" [ 1; 2; 3 ] (List.of_seq (Vec.to_seq v)));
    qcheck
      (QCheck.Test.make ~name:"vec behaves like a list" ~count:200
         QCheck.(small_list small_int)
         (fun l -> Vec.to_list (Vec.of_list l) = l));
  ]

let tuple_tests =
  [
    case "equal is null-safe" (fun () ->
        Alcotest.(check bool) "" true (Tuple.equal (row [ nl; i 1 ]) (row [ nl; i 1 ])));
    case "equal numeric cross-type" (fun () ->
        Alcotest.(check bool) "" true (Tuple.equal (row [ i 1 ]) (row [ f 1.0 ])));
    case "unequal arity" (fun () ->
        Alcotest.(check bool) "" false (Tuple.equal (row [ i 1 ]) (row [ i 1; i 2 ])));
    case "hash consistent with equal" (fun () ->
        Alcotest.(check int) ""
          (Tuple.hash (row [ nl; i 2 ]))
          (Tuple.hash (row [ nl; f 2.0 ])));
    case "compare lexicographic" (fun () ->
        Alcotest.(check bool) "" true
          (Tuple.compare (row [ i 1; i 9 ]) (row [ i 2; i 0 ]) < 0));
    case "project" (fun () ->
        Alcotest.(check string) "" "(3, 1)"
          (Tuple.to_string (Tuple.project [ 2; 0 ] (row [ i 1; i 2; i 3 ]))));
    case "concat" (fun () ->
        Alcotest.(check string) "" "(1, a)"
          (Tuple.to_string (Tuple.concat (row [ i 1 ]) (row [ s "a" ]))));
  ]

let forum_schema =
  Schema.make_exn
    [ Column.make "mid" Dtype.Int; Column.make "text" Dtype.Text; Column.make "uid" Dtype.Int ]

let heap_tests =
  [
    case "insert validates arity" (fun () ->
        let h = Heap.create forum_schema in
        Alcotest.(check bool) "" true (Result.is_error (Heap.insert h (row [ i 1 ]))));
    case "insert validates types" (fun () ->
        let h = Heap.create forum_schema in
        Alcotest.(check bool) "" true
          (Result.is_error (Heap.insert h (row [ s "x"; s "t"; i 1 ]))));
    case "insert accepts nulls" (fun () ->
        let h = Heap.create forum_schema in
        Alcotest.(check bool) "" true (Result.is_ok (Heap.insert h (row [ nl; nl; nl ]))));
    case "int widens to float column" (fun () ->
        let schema = Schema.make_exn [ Column.make "x" Dtype.Float ] in
        let h = Heap.create schema in
        Alcotest.(check bool) "insert" true (Result.is_ok (Heap.insert h (row [ i 3 ])));
        match Heap.to_list h with
        | [ r ] -> Alcotest.(check string) "widened" "3.0" (Perm_value.Value.to_string r.(0))
        | _ -> Alcotest.fail "expected one row");
    case "scan in insertion order" (fun () ->
        let h = Heap.create forum_schema in
        ignore (Result.get_ok (Heap.insert h (row [ i 1; s "a"; i 1 ])));
        ignore (Result.get_ok (Heap.insert h (row [ i 2; s "b"; i 2 ])));
        Alcotest.(check int) "count" 2 (Heap.row_count h);
        Alcotest.(check string) "first" "(1, a, 1)"
          (Tuple.to_string (List.hd (List.of_seq (Heap.scan h)))));
    case "truncate" (fun () ->
        let h = Heap.create forum_schema in
        ignore (Result.get_ok (Heap.insert h (row [ i 1; s "a"; i 1 ])));
        Heap.truncate h;
        Alcotest.(check int) "" 0 (Heap.row_count h));
    case "distinct estimate exact and cached" (fun () ->
        let h = Heap.create forum_schema in
        ignore
          (Result.get_ok
             (Heap.insert_all h
                [ row [ i 1; s "a"; i 1 ]; row [ i 2; s "a"; i 1 ]; row [ i 3; s "b"; nl ] ]));
        Alcotest.(check int) "mid" 3 (Heap.distinct_estimate h 0);
        Alcotest.(check int) "text" 2 (Heap.distinct_estimate h 1);
        Alcotest.(check int) "uid incl null" 2 (Heap.distinct_estimate h 2);
        ignore (Result.get_ok (Heap.insert h (row [ i 4; s "c"; i 9 ])));
        Alcotest.(check int) "invalidated" 3 (Heap.distinct_estimate h 1));
  ]

(* ------------------------------------------------------------------ *)
(* Columnar chunks against a list model                                *)
(* ------------------------------------------------------------------ *)

(* row [k]: key, text, and a uid that is NULL on every seventh row *)
let mrow k = row [ i k; s (Printf.sprintf "t%d" (k mod 13)); (if k mod 7 = 0 then nl else i (k mod 10)) ]
let strs rows = List.map Tuple.to_string rows
let ok r = Result.get_ok r

(* the live rows of a batch, in order *)
let live_rows (b : Batch.t) =
  List.init (Batch.live b) (fun j -> Array.map (fun col -> col.(Batch.idx b j)) b.cols)

(* Everything a heap reads back must reproduce the model: row-shaped reads,
   columnar scans at several sizes (only the last batch may be short), and
   an index probe. *)
let check_model label h model =
  let expect = strs model in
  let n = List.length model in
  Alcotest.(check int) (label ^ ": row_count") n (Heap.row_count h);
  Alcotest.(check (list string)) (label ^ ": scan") expect (strs (List.of_seq (Heap.scan h)));
  Alcotest.(check (list string)) (label ^ ": to_list") expect (strs (Heap.to_list h));
  Alcotest.(check (list string)) (label ^ ": scan_chunk") expect
    (strs (Array.to_list (Heap.scan_chunk h ~pos:0 ~len:n)));
  List.iter
    (fun size ->
      let bs = Heap.scan_batches h ~rows:size in
      let what = Printf.sprintf "%s: scan_batches %d" label size in
      Alcotest.(check (list string)) what expect
        (strs (List.concat_map live_rows (Array.to_list bs)));
      Array.iteri
        (fun j (b : Batch.t) ->
          if b.rows < 1 || (b.rows < size && j < Array.length bs - 1) then
            Alcotest.failf "%s: batch %d of %d holds %d rows" what j (Array.length bs) b.rows)
        bs)
    (* 7 both first and last: the next check reads the cached batches *)
    [ 7; 1; Heap.chunk_rows; 1500; 7 ];
  List.iter
    (fun key ->
      Alcotest.(check (list string)) (Printf.sprintf "%s: probe uid=%d" label key)
        (strs (List.filter (fun r -> r.(2) = i key) model))
        (strs (List.of_seq (Heap.index_probe h 2 (i key)))))
    [ 0; 3 ]

type op = Insert | Insert_all of int | Replace | Truncate | Copy | Check

let op_gen =
  QCheck.Gen.(
    pair (int_bound 1)
      (frequency
         [
           (3, return Insert);
           (4, map (fun n -> Insert_all n) (int_bound 1300));
           (2, return Replace);
           (1, return Truncate);
           (2, return Copy);
           (3, return Check);
         ]))

let op_print (slot, op) =
  Printf.sprintf "%d:%s" slot
    (match op with
    | Insert -> "insert"
    | Insert_all n -> Printf.sprintf "insert_all %d" n
    | Replace -> "replace"
    | Truncate -> "truncate"
    | Copy -> "copy"
    | Check -> "check")

(* Two slots of (heap, model). [Copy] overwrites the other slot with a
   copy of this one; later writes to either must not show in the other. *)
let run_model ops =
  let fresh () =
    let h = Heap.create forum_schema in
    Heap.create_index h 2;
    (h, [])
  in
  let slots = [| fresh (); fresh () |] in
  let next = ref 0 in
  let rows n = List.init n (fun _ -> incr next; mrow !next) in
  List.iter
    (fun (slot, op) ->
      let h, model = slots.(slot) in
      match op with
      | Insert ->
        let r = mrow (incr next; !next) in
        ok (Heap.insert h r);
        slots.(slot) <- (h, model @ [ r ])
      | Insert_all n ->
        let rs = rows n in
        ok (Heap.insert_all h rs);
        slots.(slot) <- (h, model @ rs)
      | Replace ->
        (* DELETE-style rebuild: drop every third row, append a few *)
        let keep = List.filteri (fun j _ -> j mod 3 <> 0) model @ rows 5 in
        ok (Heap.replace_all h keep);
        slots.(slot) <- (h, keep)
      | Truncate ->
        Heap.truncate h;
        slots.(slot) <- (h, [])
      | Copy -> slots.(1 - slot) <- (Heap.copy h, model)
      | Check -> check_model (op_print (slot, op)) h model)
    ops;
  Array.iteri (fun j (h, model) -> check_model (Printf.sprintf "final slot %d" j) h model) slots;
  true

let boundary n =
  let h = Heap.create forum_schema in
  let model = List.init n (fun k -> mrow (k + 1)) in
  ok (Heap.insert_all h model);
  Heap.create_index h 2;
  let sizes () =
    Array.to_list (Array.map (fun (b : Batch.t) -> b.rows) (Heap.scan_batches h ~rows:Heap.chunk_rows))
  in
  (h, model, sizes)

let chunk_tests =
  [
    qcheck
      (QCheck.Test.make ~name:"heap matches a list model under random writes" ~count:40
         (QCheck.make ~print:QCheck.Print.(list op_print) QCheck.Gen.(list_size (int_range 1 10) op_gen))
         run_model);
    case "1023, 1024 and 1025 rows, then one more" (fun () ->
        List.iter
          (fun (n, before, after) ->
            let h, model, sizes = boundary n in
            Alcotest.(check (list int)) (Printf.sprintf "%d rows" n) before (sizes ());
            check_model (Printf.sprintf "%d rows" n) h model;
            let extra = mrow (n + 1) in
            ok (Heap.insert h extra);
            Alcotest.(check (list int)) (Printf.sprintf "%d+1 rows" n) after (sizes ());
            check_model (Printf.sprintf "%d+1 rows" n) h (model @ [ extra ]))
          [ (1023, [ 1023 ], [ 1024 ]); (1024, [ 1024 ], [ 1024; 1 ]); (1025, [ 1024; 1 ], [ 1024; 2 ]) ]);
    case "full chunks are handed out without copying" (fun () ->
        let h, _, _ = boundary 2500 in
        let a = Heap.scan_batches h ~rows:Heap.chunk_rows in
        let b = Heap.scan_batches h ~rows:Heap.chunk_rows in
        Alcotest.(check bool) "same chunks" true (Array.for_all2 ( == ) a b);
        let c = Heap.copy h in
        ok (Heap.insert c (mrow 9999));
        let a' = Heap.scan_batches c ~rows:Heap.chunk_rows in
        Alcotest.(check bool) "the copy shares the full chunks" true (a.(0) == a'.(0) && a.(1) == a'.(1));
        Alcotest.(check int) "the original keeps its short chunk" 452 a.(2).rows);
    case "index probe across a chunk boundary" (fun () ->
        let h, model, _ = boundary 1030 in
        ok (Heap.insert h (mrow 1031));
        (* matches in chunk 0, chunk 1 and the unsealed tail, in order *)
        let got = List.of_seq (Heap.index_probe h 2 (i 1)) in
        Alcotest.(check (list string)) "insertion order"
          (strs (List.filter (fun r -> r.(2) = i 1) (model @ [ mrow 1031 ])))
          (strs got);
        Alcotest.(check bool) "spans the boundary" true
          (List.exists (fun r -> r.(0) = i 1021) got && List.exists (fun r -> r.(0) = i 1031) got));
    case "BEGIN/ROLLBACK across a chunk boundary" (fun () ->
        let e = engine () in
        exec_all e [ "CREATE TABLE t (a int, b text)" ];
        let values lo hi =
          String.concat ", " (List.init (hi - lo) (fun k -> Printf.sprintf "(%d, 'v%d')" (lo + k) (lo + k)))
        in
        exec_all e [ "INSERT INTO t VALUES " ^ values 0 1000 ];
        let all () = strings_of_rows (query_ok e "SELECT * FROM t").Engine.rows in
        let before = all () in
        exec_all e [ "BEGIN"; "INSERT INTO t VALUES " ^ values 1000 1100 ];
        check_count e "SELECT * FROM t" 1100;
        exec_all e [ "ROLLBACK" ];
        Alcotest.(check rows_testable) "insert rolled back" before (all ());
        exec_all e [ "INSERT INTO t VALUES " ^ values 1000 1030 ];
        let before = all () in
        exec_all e [ "BEGIN"; "DELETE FROM t WHERE a % 2 = 0"; "INSERT INTO t VALUES (5000, 'x')" ];
        check_count e "SELECT * FROM t" 516;
        exec_all e [ "ROLLBACK" ];
        Alcotest.(check rows_testable) "delete rolled back" before (all ());
        check_count e "SELECT * FROM t WHERE a >= 1020" 10);
  ]

let store_tests =
  [
    case "create and find" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "T" forum_schema));
        Alcotest.(check bool) "" true (Store.find st "t" <> None));
    case "duplicate rejected" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "t" forum_schema));
        Alcotest.(check bool) "" true (Result.is_error (Store.create_table st "t" forum_schema)));
    case "drop" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "t" forum_schema));
        Alcotest.(check bool) "drop" true (Result.is_ok (Store.drop_table st "t"));
        Alcotest.(check bool) "missing drop" true (Result.is_error (Store.drop_table st "t")));
    case "table_names sorted" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "b" forum_schema));
        ignore (Result.get_ok (Store.create_table st "a" forum_schema));
        Alcotest.(check (list string)) "" [ "a"; "b" ] (Store.table_names st));
  ]

(* A column array past 256 words filled from a young value makes OCaml
   empty the minor heap first; batch columns are filled after an
   immediate [Array.make] instead. *)
let batch_tests =
  let minor_collections f =
    (* the values are made after a collection, so they are young and the
       minor heap has room for everything [f] allocates there *)
    Gc.minor ();
    let n = 1025 in
    let col = Array.make n Perm_value.Value.Null in
    for k = 0 to n - 1 do
      col.(k) <- Perm_value.Value.Float (float_of_int k +. 0.5)
    done;
    let c0 = (Gc.quick_stat ()).Gc.minor_collections in
    f col;
    (Gc.quick_stat ()).Gc.minor_collections - c0
  in
  [
    case "compacting 1,024 fresh values runs no minor collection" (fun () ->
        Alcotest.(check int) "minor collections" 0
          (minor_collections (fun col ->
               let sel = Array.init 1024 (fun k -> k + 1) in
               let b = Batch.with_sel (Batch.dense [| col; col |] 1025) sel 1024 in
               let c = Batch.compact b in
               Alcotest.(check int) "rows" 1024 c.Batch.rows)));
    case "1,024 rows of fresh values become columns with no minor collection"
      (fun () ->
        Alcotest.(check int) "minor collections" 0
          (minor_collections (fun col ->
               let rows = Array.make (Array.length col) [||] in
               Array.iteri (fun k v -> rows.(k) <- [| v; v |]) col;
               let b = Batch.of_rows ~arity:2 rows ~pos:1 ~len:1024 in
               Alcotest.(check int) "rows" 1024 b.Batch.rows)));
  ]

let () =
  Alcotest.run "storage"
    [
      ("vec", vec_tests);
      ("tuple", tuple_tests);
      ("heap", heap_tests);
      ("chunks", chunk_tests);
      ("store", store_tests);
      ("batch", batch_tests);
    ]
