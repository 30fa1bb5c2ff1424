(* Everything that writes: DDL and DML through the logged entry points
   the WAL and the heaps agree on, eager provenance, COPY and the SQL
   dump. *)

open Session
open Pipeline

(* ------------------------------------------------------------------ *)
(* Schema derivation for CREATE TABLE AS / STORE PROVENANCE            *)
(* ------------------------------------------------------------------ *)

(* Result columns may repeat names and carry the Any type (all-NULL
   columns); stored tables need unique names and concrete types. *)
let schema_of_plan plan =
  let seen = Hashtbl.create 8 in
  let cols =
    List.map
      (fun (a : Attr.t) ->
        let base = a.Attr.name in
        let name =
          match Hashtbl.find_opt seen base with
          | None ->
            Hashtbl.replace seen base 1;
            base
          | Some n ->
            Hashtbl.replace seen base (n + 1);
            Printf.sprintf "%s_%d" base n
        in
        let ty = match a.Attr.ty with Dtype.Any -> Dtype.Text | ty -> ty in
        Column.make name ty)
      (Plan.schema plan)
  in
  Schema.make cols

(* ------------------------------------------------------------------ *)
(* Write-ahead logging: canonical DDL and logged mutation entry points  *)
(* ------------------------------------------------------------------ *)

(* Canonical SQL renderers, shared by [dump_sql] (the \save script and the
   WAL checkpoint snapshot) and the Create/Drop WAL frames, so replay
   re-executes exactly the DDL the dump would. *)
let create_table_sql (def : Catalog.table_def) =
  Printf.sprintf "CREATE TABLE %s (%s);" def.Catalog.table_name
    (String.concat ", "
       (List.map
          (fun (c : Column.t) -> c.Column.name ^ " " ^ Dtype.to_string c.Column.ty)
          (Schema.columns def.Catalog.table_schema)))

let create_index_sql (d : Catalog.index_def) =
  Printf.sprintf "CREATE INDEX %s ON %s (%s);" d.Catalog.index_name
    d.Catalog.index_table d.Catalog.index_column

let create_view_sql (v : Catalog.view_def) =
  Printf.sprintf "CREATE VIEW %s AS %s;" v.Catalog.view_name v.Catalog.view_sql

let wal_append t frame = Wal_log.append t.wal frame

(* The single logged entry points every DML/DDL path goes through, so the
   WAL and the heaps can never disagree on the applied row set. *)

(* [insert_all] keeps the inserted prefix when a later row fails
   validation; log exactly the rows that landed. *)
let logged_insert t name heap rows =
  let before = Heap.row_count heap in
  let result = Heap.insert_all heap rows in
  let after = Heap.row_count heap in
  if after > before then
    wal_append t
      (Wal.Insert
         ( name,
           Array.to_list (Heap.scan_chunk heap ~pos:before ~len:(after - before))
         ));
  result

(* [replace_all] is atomic (validates everything first), so on [Ok] the
   heap holds exactly [rows]. *)
let logged_replace t name heap rows =
  let result = Heap.replace_all heap rows in
  (match result with Ok () -> wal_append t (Wal.Replace (name, rows)) | Error _ -> ());
  result

let logged_truncate t name heap =
  Heap.truncate heap;
  wal_append t (Wal.Delete name)

let create_relation t name schema rows =
  let* def = sem (Catalog.add_table t.cat name schema) in
  let* heap = sem (Store.create_table t.store name schema) in
  wal_append t (Wal.Create (create_table_sql def));
  let* () = dat (logged_insert t name heap rows) in
  Ok ()

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

let find_heap t name =
  match Catalog.find_table t.cat name, Store.find t.store name with
  | Some def, Some heap -> Ok (def, heap)
  | None, _ when Catalog.find_view t.cat name <> None ->
    Error (Err.analyze (Printf.sprintf "%S is a view; DML targets must be tables" name))
  | None, _ when Catalog.find_virtual t.cat name <> None ->
    Error
      (Err.analyze
         (Printf.sprintf
            "%S is a virtual system relation; DML targets must be tables" name))
  | _ -> Error (Err.analyze (Printf.sprintf "table %S does not exist" name))

let insert_values t name rows =
  let* _def, heap = find_heap t name in
  let eval e =
    let* e' = sem (Analyzer.const_expr e) in
    dat (Executor.eval_const e')
  in
  let* rows =
    map_ok (fun row -> Result.map Array.of_list (map_ok eval row)) rows
  in
  let* () = dat (logged_insert t name heap rows) in
  Ok (List.length rows)

let insert_select t name q =
  let* _def, heap = find_heap t name in
  let* { rows; _ } = run_query t q in
  let* () = dat (logged_insert t name heap rows) in
  Ok (List.length rows)

(* The rows of [heap] that [where] does not select: DELETE's survivors,
   and the rows UPDATE leaves alone. The selection reuses the
   analyzer+executor through a synthesized [SELECT * FROM name WHERE
   pred] plan so predicate semantics (3VL, subqueries as WHERE
   conjuncts) match queries exactly. *)
let rows_outside t name heap where =
  let select =
    {
      Ast.empty_select with
      Ast.items = [ Ast.Star ];
      from = [ Ast.plain_from (Ast.From_table name) ];
      where;
    }
  in
  let* rs = run_query t (Ast.select_query select) in
  let victims = Tuple.Hash.create 64 in
  List.iter (fun r -> Tuple.Hash.replace victims r ()) rs.rows;
  Ok (List.filter (fun r -> not (Tuple.Hash.mem victims r)) (Heap.to_list heap))

let delete_rows t name where =
  let* _def, heap = find_heap t name in
  match where with
  | None ->
    let n = Heap.row_count heap in
    logged_truncate t name heap;
    Ok n
  | Some _ ->
    let* keep = rows_outside t name heap where in
    let deleted = Heap.row_count heap - List.length keep in
    let* () = dat (logged_replace t name heap keep) in
    Ok deleted

let update_rows t name assigns where =
  let* def, heap = find_heap t name in
  let schema = def.Catalog.table_schema in
  (* validate the assigned columns exist *)
  let* _ =
    map_ok
      (fun (col, _) ->
        match Schema.find schema col with
        | Some _ -> Ok ()
        | None -> Error (Err.analyze (Printf.sprintf "column %S does not exist" col)))
      assigns
  in
  (* one synthesized query yields the updated images of matching rows *)
  let items =
    List.map
      (fun (c : Column.t) ->
        match List.assoc_opt c.name (List.map (fun (k, v) -> (String.lowercase_ascii k, v)) assigns) with
        | Some e -> Ast.Sel_expr (e, Some c.name)
        | None -> Ast.Sel_expr (Ast.Ref (None, c.name), Some c.name))
      (Schema.columns schema)
  in
  let select =
    {
      Ast.empty_select with
      Ast.items;
      from = [ Ast.plain_from (Ast.From_table name) ];
      where;
    }
  in
  let* updated = run_query t (Ast.select_query select) in
  let* keep = rows_outside t name heap where in
  let* () = dat (logged_replace t name heap (keep @ updated.rows)) in
  Ok (List.length updated.rows)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* Mark the query's leftmost SELECT with a PROVENANCE flag, exactly as if
   the user had written [SELECT PROVENANCE ...] — so eager computation is
   lazy computation plus materialization, by construction (including the
   marker-vs-ORDER BY/LIMIT placement). *)
let rec mark_provenance (q : Ast.query) =
  match q.Ast.body with
  | Ast.Select s ->
    { q with Ast.body = Ast.Select { s with Ast.provenance = Some Ast.Influence } }
  | Ast.Set_op { kind; all; left; right } ->
    {
      q with
      Ast.body = Ast.Set_op { kind; all; left = mark_provenance left; right };
    }

let store_provenance t q name =
  (* Eager provenance: make sure the query computes provenance (mark it if
     the user did not write SELECT PROVENANCE), materialize, and remember
     the provenance columns for later re-propagation. *)
  let q = if Ast.query_uses_provenance q then q else mark_provenance q in
  let* analyzed, _rewritten, optimized = prepare t q in
  let* rows = exec_plan t optimized in
  let* schema = sem (schema_of_plan analyzed) in
  let* () = create_relation t name schema rows in
  let prov_cols =
    List.filter
      (fun (c : Column.t) ->
        String.length c.name >= 5 && String.sub c.name 0 5 = "prov_")
      (Schema.columns schema)
  in
  let prov_names = List.map (fun (c : Column.t) -> c.name) prov_cols in
  Hashtbl.replace t.prov_tables (String.lowercase_ascii name) prov_names;
  wal_append t (Wal.Prov (String.lowercase_ascii name, prov_names));
  Ok
    (Message
       (Printf.sprintf "stored provenance of query into table %S (%d rows, %d provenance columns)"
          name (List.length rows) (List.length prov_cols)))

(* ------------------------------------------------------------------ *)
(* CSV import/export and dumps                                          *)
(* ------------------------------------------------------------------ *)

let copy_from t name path =
  let* def, heap = find_heap t name in
  let* text =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error msg -> Error (Err.runtime msg)
  in
  let* rows = dat (Csv.parse text) in
  let cols = Array.of_list (Schema.columns def.Catalog.table_schema) in
  let row_of n fields =
    if List.length fields <> Array.length cols then
      Error
        (Err.runtime
           (Printf.sprintf "CSV row %d has %d fields, table %S has %d columns"
              (n + 1) (List.length fields) name (Array.length cols)))
    else
      let rec build i acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | None :: fields -> build (i + 1) (Value.Null :: acc) fields
        | Some text :: fields -> (
          match Value.cast cols.(i).Column.ty (Value.Text text) with
          | Ok v -> build (i + 1) (v :: acc) fields
          | Error msg ->
            Error
              (Err.runtime
                 (Printf.sprintf "CSV row %d, column %S: %s" (n + 1)
                    cols.(i).Column.name msg)))
      in
      build 0 [] fields
  in
  (* the rows before an invalid one land (the loaded prefix is kept) *)
  let rec convert n acc = function
    | [] -> (List.rev acc, Ok n)
    | fields :: rest -> (
      match row_of n fields with
      | Ok row -> convert (n + 1) (row :: acc) rest
      | Error e -> (List.rev acc, Error e))
  in
  let loaded, verdict = convert 0 [] rows in
  let* () = dat (logged_insert t name heap loaded) in
  let* n = verdict in
  Ok (Affected n)

let copy_to t name path =
  let* _def, heap = find_heap t name in
  let buf = Buffer.create 4096 in
  Seq.iter
    (fun row ->
      let fields =
        Array.to_list
          (Array.map
             (fun v ->
               if Value.is_null v then None else Some (Value.to_string v))
             row)
      in
      Buffer.add_string buf (Csv.render_row fields);
      Buffer.add_char buf '\n')
    (Heap.scan heap);
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Buffer.contents buf))
  with
  | () -> Ok (Affected (Heap.row_count heap))
  | exception Sys_error msg -> Error (Err.runtime msg)

(* A re-executable SQL script recreating the session's tables, rows and
   views — the CLI's \save command. *)
let dump_sql t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (def : Catalog.table_def) ->
      Buffer.add_string buf (create_table_sql def);
      Buffer.add_char buf '\n';
      match Store.find t.store def.Catalog.table_name with
      | None -> ()
      | Some heap ->
        (* one INSERT per 200 rows *)
        let n =
          List.fold_left
            (fun i row ->
              Buffer.add_string buf
                (if i mod 200 = 0 then
                   (if i > 0 then ";\n" else "")
                   ^ Printf.sprintf "INSERT INTO %s VALUES " def.Catalog.table_name
                 else ", ");
              Buffer.add_char buf '(';
              Array.iteri
                (fun c v ->
                  if c > 0 then Buffer.add_string buf ", ";
                  Buffer.add_string buf (Value.to_sql v))
                row;
              Buffer.add_char buf ')';
              i + 1)
            0 (Heap.to_list heap)
        in
        if n > 0 then Buffer.add_string buf ";\n")
    (Catalog.tables t.cat);
  List.iter
    (fun (def : Catalog.table_def) ->
      List.iter
        (fun (d : Catalog.index_def) ->
          Buffer.add_string buf (create_index_sql d);
          Buffer.add_char buf '\n')
        (Catalog.indexes_on t.cat def.Catalog.table_name))
    (Catalog.tables t.cat);
  List.iter
    (fun (v : Catalog.view_def) ->
      Buffer.add_string buf (create_view_sql v);
      Buffer.add_char buf '\n')
    (Catalog.views t.cat);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* WAL commit protocol                                                 *)
(* ------------------------------------------------------------------ *)

let prov_list t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.prov_tables [])

(* What a checkpoint writes: the heaps as a script, and the provenance
   columns of eagerly stored tables. *)
let wal_snapshot t () = (dump_sql t, prov_list t)
