(* Property-based system tests: provenance invariants on random databases
   and random queries (DESIGN.md §7).

   (i)   projecting q+ onto the original attributes yields q (as a set;
         provenance replication can only duplicate);
   (ii)  every non-NULL witness embedded in q+ is a row of its base table;
   (iii) replay: re-running a monotone q on just the witnesses of one
         result row reproduces that row (sufficiency);
   (iv)  the optimizer preserves semantics;
   (v)   both aggregation rewrite strategies agree;
   (vi)  eager (STORE PROVENANCE) equals lazy (SELECT PROVENANCE);
   (vii) the executor agrees, as a multiset, with the naive reference
         evaluator of the test kit on q and on q+. *)

module Engine = Perm_engine.Engine
module Planner = Perm_planner.Planner
open Perm_testkit.Kit

(* ------------------------------------------------------------------ *)
(* Random databases                                                    *)
(* ------------------------------------------------------------------ *)

type db = { pt_rows : (int option * string * int option) list;
            qt_rows : (int option * string) list }

let gen_db =
  QCheck.Gen.(
    let cell = oneof [ return None; map (fun n -> Some n) (int_range 0 4) ] in
    let word = oneofl [ "a"; "b"; "c" ] in
    let pt_row = triple cell word cell in
    let qt_row = pair cell word in
    map2
      (fun pt qt -> { pt_rows = pt; qt_rows = qt })
      (list_size (int_range 0 8) pt_row)
      (list_size (int_range 0 6) qt_row))

let lit = function None -> "null" | Some n -> string_of_int n

(* CI reruns this suite under a PERM_BATCH_ROWS x PERM_PARALLEL matrix.
   The engine reads the batch size itself; a domain count here turns the
   morsel gather on for every query the suite generates. *)
let parallel_domains =
  match Option.bind (Sys.getenv_opt "PERM_PARALLEL") int_of_string_opt with
  | Some n when n >= 1 -> Some n
  | _ -> None

let load_db db =
  let e = engine () in
  Option.iter
    (fun n ->
      Engine.set_parallel e (Engine.Par_domains n);
      Engine.set_parallel_threshold e 1)
    parallel_domains;
  exec_all e [ "CREATE TABLE pt (k int, v text, w int)"; "CREATE TABLE qt (x int, y text)" ];
  List.iter
    (fun (k, v, w) ->
      ignore
        (exec_ok e
           (Printf.sprintf "INSERT INTO pt VALUES (%s, '%s', %s)" (lit k) v (lit w))))
    db.pt_rows;
  List.iter
    (fun (x, y) ->
      ignore
        (exec_ok e (Printf.sprintf "INSERT INTO qt VALUES (%s, '%s')" (lit x) y)))
    db.qt_rows;
  e

(* ------------------------------------------------------------------ *)
(* Random queries                                                      *)
(* ------------------------------------------------------------------ *)

(* [monotone] marks queries safe for the replay invariant (no aggregation,
   no difference, no duplicate elimination across witnesses). *)
type gq = { sql : string; arity : int; has_agg : bool; monotone : bool }

let gen_query =
  QCheck.Gen.(
    let pred =
      oneofl
        [
          "k > 1"; "k = w"; "w IS NULL"; "v = 'a'"; "v LIKE 'b%'";
          "k + coalesce(w, 0) < 5"; "k IS NOT NULL AND v <> 'c'";
        ]
    in
    let where = oneof [ return ""; map (fun p -> " WHERE " ^ p) pred ] in
    let spj =
      map
        (fun w -> { sql = "SELECT k, v FROM pt" ^ w; arity = 2; has_agg = false; monotone = true })
        where
    in
    let proj_expr =
      map
        (fun w ->
          { sql = "SELECT k + coalesce(w, 0) AS s, v FROM pt" ^ w; arity = 2; has_agg = false; monotone = true })
        where
    in
    let join =
      map
        (fun w ->
          {
            sql = "SELECT pt.v, qt.y FROM pt JOIN qt ON pt.k = qt.x" ^ w;
            arity = 2;
            has_agg = false;
            monotone = true;
          })
        where
    in
    let left_join =
      return
        {
          sql = "SELECT pt.k, qt.y FROM pt LEFT JOIN qt ON pt.k = qt.x";
          arity = 2;
          has_agg = false;
          monotone = false (* NULL-padding is not monotone under replay *);
        }
    in
    let agg =
      oneofl
        [
          { sql = "SELECT v, count(*) FROM pt GROUP BY v"; arity = 2; has_agg = true; monotone = false };
          { sql = "SELECT k % 2, sum(w) FROM pt WHERE k IS NOT NULL GROUP BY k % 2"; arity = 2; has_agg = true; monotone = false };
          { sql = "SELECT count(*), max(v) FROM pt"; arity = 2; has_agg = true; monotone = false };
          (* shapes the rewriter fuses into one GroupAnnotate pass: (v)
             then checks them against the lateral rejoin *)
          {
            sql =
              "SELECT pt.v, count(*), sum(qt.x) FROM pt JOIN qt ON pt.k = qt.x \
               GROUP BY pt.v";
            arity = 3;
            has_agg = true;
            monotone = false;
          };
          {
            sql = "SELECT v, count(*) FROM pt GROUP BY v HAVING count(*) > 1";
            arity = 2;
            has_agg = true;
            monotone = false;
          };
          {
            sql = "SELECT w, count(DISTINCT k), avg(k) FROM pt GROUP BY w";
            arity = 3;
            has_agg = true;
            monotone = false;
          };
          {
            sql = "SELECT count(*), sum(w) FROM pt WHERE k > 100";
            arity = 2;
            has_agg = true;
            monotone = false;
          };
        ]
    in
    let union_all =
      map
        (fun w ->
          {
            sql = "SELECT k, v FROM pt" ^ w ^ " UNION ALL SELECT x, y FROM qt";
            arity = 2;
            has_agg = false;
            monotone = true;
          })
        where
    in
    let union_distinct =
      return
        {
          sql = "SELECT v FROM pt UNION SELECT y FROM qt";
          arity = 1;
          has_agg = false;
          monotone = false (* dedup: replay may merge witnesses, still sound but skip *);
        }
    in
    let distinct =
      return { sql = "SELECT DISTINCT v FROM pt"; arity = 1; has_agg = false; monotone = false }
    in
    let semi =
      return
        {
          sql = "SELECT v FROM pt WHERE k IN (SELECT x FROM qt)";
          arity = 1;
          has_agg = false;
          monotone = true;
        }
    in
    (* composed shapes: joins under unions, grouped subqueries, nested
       provenance-relevant operator stacks *)
    let composed =
      oneofl
        [
          {
            sql =
              "SELECT pt.v FROM pt JOIN qt ON pt.k = qt.x UNION ALL SELECT v \
               FROM pt WHERE w IS NULL";
            arity = 1;
            has_agg = false;
            monotone = true;
          };
          {
            sql =
              "SELECT g.v, g.c FROM (SELECT v, count(*) AS c FROM pt GROUP \
               BY v) g WHERE g.c > 1";
            arity = 2;
            has_agg = true;
            monotone = false;
          };
          {
            sql =
              "SELECT DISTINCT pt.v FROM pt LEFT JOIN qt ON pt.k = qt.x \
               WHERE pt.k IS NOT NULL";
            arity = 1;
            has_agg = false;
            monotone = false;
          };
          {
            sql =
              "SELECT v, k FROM pt WHERE EXISTS (SELECT 1 FROM qt WHERE \
               qt.x = pt.k AND qt.y = pt.v)";
            arity = 2;
            has_agg = false;
            monotone = true;
          };
          {
            sql =
              "SELECT sum(c) FROM (SELECT k, count(*) AS c FROM pt WHERE k \
               IS NOT NULL GROUP BY k) s";
            arity = 1;
            has_agg = true;
            monotone = false;
          };
          {
            sql = "SELECT k, v FROM pt EXCEPT SELECT x, y FROM qt";
            arity = 2;
            has_agg = false;
            monotone = false;
          };
          {
            sql = "SELECT v FROM pt INTERSECT SELECT y FROM qt";
            arity = 1;
            has_agg = false;
            monotone = false;
          };
          {
            sql =
              "SELECT v FROM pt WHERE k IN (SELECT x FROM qt WHERE y <> 'c') \
               AND w IS NOT NULL";
            arity = 1;
            has_agg = false;
            monotone = true;
          };
          {
            sql =
              "SELECT coalesce(cast(k AS text), v) || '!' FROM pt ORDER BY 1 \
               LIMIT 5";
            arity = 1;
            has_agg = false;
            monotone = false (* LIMIT: replay may pick different survivors *);
          };
          {
            sql =
              "SELECT pt.k, (SELECT count(*) FROM qt WHERE qt.x = pt.k) FROM \
               pt WHERE pt.k IS NOT NULL";
            arity = 2;
            has_agg = false;
            monotone = false (* correlated counts are not monotone *);
          };
        ]
    in
    frequency
      [
        (2, spj); (1, proj_expr); (2, join); (1, left_join); (2, agg);
        (1, union_all); (1, union_distinct); (1, distinct); (1, semi);
        (3, composed);
      ])

let arb_case =
  QCheck.make
    ~print:(fun (db, q) ->
      Printf.sprintf "pt=%d rows, qt=%d rows, q=%s" (List.length db.pt_rows)
        (List.length db.qt_rows) q.sql)
    QCheck.Gen.(pair gen_db gen_query)

let provenance_sql q = "SELECT PROVENANCE " ^ String.sub q.sql 7 (String.length q.sql - 7)

let rows_of e sql = strings_of_rows (query_ok e sql).Engine.rows

(* Engines own a domain pool once a parallel query ran: close each one. *)
let with_db db f =
  let e = load_db db in
  Fun.protect ~finally:(fun () -> Engine.close e) (fun () -> f e)

let take n l = List.filteri (fun idx _ -> idx < n) l
let drop n l = List.filteri (fun idx _ -> idx >= n) l

(* derive the witness-block layout (relation, start position, width) from
   the result columns, handling repeated relation instances *)
let witness_blocks e sql =
  let rs = query_ok e sql in
  let blocks =
    Perm_provenance.Witness.blocks ~columns:rs.Engine.columns
      ~known_rels:[ "pt"; "qt" ]
  in
  let triples =
    List.map
      (fun (b : Perm_provenance.Witness.block) ->
        match b.Perm_provenance.Witness.positions with
        | start :: _ -> (b.Perm_provenance.Witness.rel, start, List.length b.Perm_provenance.Witness.positions)
        | [] -> ("?", 0, 0))
      blocks
  in
  (rs, triples)

let prop_original_projection (db, q) =
  with_db db @@ fun e ->
  let orig = List.sort_uniq compare (rows_of e q.sql) in
  let prov = rows_of e (provenance_sql q) in
  let projected = List.sort_uniq compare (List.map (take q.arity) prov) in
  orig = projected

let prop_witnesses_exist (db, q) =
  with_db db @@ fun e ->
  let pt = rows_of e "SELECT * FROM pt" in
  let qt = rows_of e "SELECT * FROM qt" in
  let rs, blocks = witness_blocks e (provenance_sql q) in
  List.for_all
    (fun row ->
      let row = Array.to_list (Array.map Perm_value.Value.to_string row) in
      List.for_all
        (fun (table, start, width) ->
          let cells = take width (drop start row) in
          List.for_all (fun c -> c = "null") cells
          || List.mem cells (if table = "pt" then pt else qt))
        blocks)
    rs.Engine.rows

let prop_replay (db, q) =
  QCheck.assume q.monotone;
  with_db db @@ fun e ->
  let rs, blocks = witness_blocks e (provenance_sql q) in
  match rs.Engine.rows with
  | [] -> true
  | rows ->
    (* replay every provenance row's witnesses *)
    List.for_all
      (fun row ->
        let row = Array.to_list (Array.map Perm_value.Value.to_string row) in
        let replay = engine () in
        exec_all replay
          [ "CREATE TABLE pt (k int, v text, w int)"; "CREATE TABLE qt (x int, y text)" ];
        List.iter
          (fun (table, start, width) ->
            let cells = take width (drop start row) in
            if not (List.for_all (fun c -> c = "null") cells) then
              let quote c =
                (* witness text columns: v and y are always non-null words *)
                if c = "null" then "null"
                else match int_of_string_opt c with
                  | Some _ -> c
                  | None -> "'" ^ c ^ "'"
              in
              ignore
                (exec_ok replay
                   (Printf.sprintf "INSERT INTO %s VALUES (%s)" table
                      (String.concat ", " (List.map quote cells)))))
          blocks;
        let replayed = rows_of replay q.sql in
        List.mem (take q.arity row) replayed)
      rows

let prop_optimizer_equivalence (db, q) =
  let run config =
    with_db db @@ fun e ->
    Engine.set_optimizer_config e config;
    List.sort compare (rows_of e (provenance_sql q))
  in
  run Planner.default_config = run Planner.disabled_config

let prop_strategies_agree (db, q) =
  QCheck.assume q.has_agg;
  let run strategy =
    with_db db @@ fun e ->
    Engine.set_agg_strategy e strategy;
    List.sort compare (rows_of e (provenance_sql q))
  in
  run Engine.Use_join = run Engine.Use_lateral

let prop_eager_equals_lazy (db, q) =
  with_db db @@ fun e ->
  ignore (exec_ok e (Printf.sprintf "STORE PROVENANCE %s INTO stored" q.sql));
  let eager = List.sort compare (rows_of e "SELECT * FROM stored") in
  let lazy_ = List.sort compare (rows_of e (provenance_sql q)) in
  eager = lazy_

let prop_reference_evaluator (db, q) =
  with_db db @@ fun e ->
  List.for_all
    (fun sql ->
      List.sort compare (rows_of e sql)
      = List.sort compare (Perm_testkit.Reference.rows e sql))
    [ q.sql; provenance_sql q ]

let t name count prop = qcheck (QCheck.Test.make ~name ~count arb_case prop)

let () =
  Alcotest.run "properties"
    [
      ( "provenance-invariants",
        [
          t "(i) original projection" 150 prop_original_projection;
          t "(ii) witnesses exist in base relations" 150 prop_witnesses_exist;
          t "(iii) replay reproduces result rows" 80 prop_replay;
          t "(iv) optimizer preserves provenance semantics" 100 prop_optimizer_equivalence;
          t "(v) aggregation strategies agree" 100 prop_strategies_agree;
          t "(vi) eager equals lazy" 80 prop_eager_equals_lazy;
          t "(vii) executor agrees with the reference evaluator" 150
            prop_reference_evaluator;
        ] );
    ]
