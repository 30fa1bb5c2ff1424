include Session
open Telemetry
open Pipeline
open Dml

let plan_query = Pipeline.plan_query
let run_plan = Pipeline.run_plan
let dump_sql = Dml.dump_sql

let run_statement t sql (st : Ast.statement) =
  match st with
  | Ast.St_query q ->
    let* rs = run_query t q in
    Ok (Rows rs)
  | Ast.St_explain q ->
    let* e = explain_query t sql q in
    Ok (Explained e)
  | Ast.St_explain_analyze q ->
    let* ea = explain_analyze_query t sql q in
    Ok (Analyzed ea)
  | Ast.St_create_table (name, cols) ->
    let* schema = sem (Schema.make (List.map (fun (n, ty) -> Column.make n ty) cols)) in
    let* () = create_relation t name schema [] in
    Ok (Message (Printf.sprintf "created table %S" name))
  | Ast.St_create_table_as (name, q) ->
    let* analyzed = sem (Analyzer.analyze_query t.cat q) in
    let* schema = sem (schema_of_plan analyzed) in
    let* rs = run_query t q in
    let* () = create_relation t name schema rs.rows in
    Ok (Message (Printf.sprintf "created table %S (%d rows)" name (List.length rs.rows)))
  | Ast.St_create_view (name, q) ->
    (* validate now; store the SQL text for unfolding *)
    let* analyzed = sem (Analyzer.analyze_query t.cat q) in
    let* schema = sem (schema_of_plan analyzed) in
    let* def = sem (Catalog.add_view t.cat name ~sql:(Printer.query_to_string q) schema) in
    wal_append t (Wal.Create (create_view_sql def));
    Ok (Message (Printf.sprintf "created view %S" name))
  | Ast.St_drop_table name ->
    let* () = sem (Catalog.drop_table t.cat name) in
    let* () = sem (Store.drop_table t.store name) in
    Catalog.drop_table_indexes t.cat name;
    Hashtbl.remove t.prov_tables (String.lowercase_ascii name);
    wal_append t (Wal.Drop (Printf.sprintf "DROP TABLE %s;" name));
    Ok (Message (Printf.sprintf "dropped table %S" name))
  | Ast.St_create_index { index; table; column } ->
    let* def = sem (Catalog.add_index t.cat ~name:index ~table ~column) in
    (match Store.find t.store table, Catalog.find_table t.cat table with
    | Some heap, Some tdef -> (
      match Schema.find tdef.Catalog.table_schema def.Catalog.index_column with
      | Some (pos, _) -> Heap.create_index heap pos
      | None -> ())
    | _ -> ());
    wal_append t (Wal.Create (create_index_sql def));
    Ok (Message (Printf.sprintf "created index %S on %s(%s)" index table column))
  | Ast.St_drop_index name ->
    let* def = sem (Catalog.drop_index t.cat name) in
    (match
       ( Store.find t.store def.Catalog.index_table,
         Catalog.find_table t.cat def.Catalog.index_table )
     with
    | Some heap, Some tdef -> (
      match Schema.find tdef.Catalog.table_schema def.Catalog.index_column with
      | Some (pos, _) -> Heap.drop_index heap pos
      | None -> ())
    | _ -> ());
    wal_append t (Wal.Drop (Printf.sprintf "DROP INDEX %s;" def.Catalog.index_name));
    Ok (Message (Printf.sprintf "dropped index %S" name))
  | Ast.St_drop_view name ->
    let* () = sem (Catalog.drop_view t.cat name) in
    wal_append t (Wal.Drop (Printf.sprintf "DROP VIEW %s;" name));
    Ok (Message (Printf.sprintf "dropped view %S" name))
  | Ast.St_insert_values (name, rows) ->
    let* n = insert_values t name rows in
    Ok (Affected n)
  | Ast.St_insert_select (name, q) ->
    let* n = insert_select t name q in
    Ok (Affected n)
  | Ast.St_delete (name, where) ->
    let* n = delete_rows t name where in
    Ok (Affected n)
  | Ast.St_update (name, assigns, where) ->
    let* n = update_rows t name assigns where in
    Ok (Affected n)
  | Ast.St_store_provenance (q, name) -> store_provenance t q name
  | Ast.St_copy_from (name, path) -> copy_from t name path
  | Ast.St_copy_to (name, path) -> copy_to t name path
  | Ast.St_begin ->
    if t.snapshot <> None then Error (Err.runtime "already inside a transaction")
    else begin
      t.snapshot <-
        Some
          {
            snap_cat = Catalog.copy t.cat;
            snap_store = Store.copy t.store;
            snap_prov = Hashtbl.copy t.prov_tables;
          };
      Ok (Message "transaction started")
    end
  | Ast.St_commit -> (
    match t.snapshot with
    | None -> Error (Err.runtime "no transaction in progress")
    | Some _ ->
      (* the injection point sits before the snapshot drop: a faulted
         commit leaves the transaction open and the snapshot intact *)
      Perm_fault.trip fp_commit;
      (* seal the transaction's frames (fsynced) before dropping the
         rollback snapshot; on failure the transaction stays open *)
      let* () = Wal_log.seal_transaction t.wal ~snapshot:(wal_snapshot t) in
      t.snapshot <- None;
      Ok (Message "transaction committed"))
  | Ast.St_rollback -> (
    match t.snapshot with
    | None -> Error (Err.runtime "no transaction in progress")
    | Some snap ->
      t.cat <- snap.snap_cat;
      t.store <- snap.snap_store;
      t.prov_tables <- snap.snap_prov;
      t.snapshot <- None;
      Wal_log.abort t.wal;
      Ok (Message "transaction rolled back"))

(* ------------------------------------------------------------------ *)
(* WAL lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

(* Replay callback: run a snapshot script or one canonical DDL statement
   against the live state. [t.wal] is not installed while replay runs, so
   nothing is re-logged. *)
let replay_sql t sql =
  Result.map ignore
    (each_statement sql (fun text st ->
         capture t (fun () -> run_statement t text st)))

let wal_enabled t = t.wal.Wal_log.log <> None
let set_wal_fsync t b = t.wal.Wal_log.fsync <- b

let enable_wal t dir =
  if wal_enabled t then Error (Err.runtime "WAL is already enabled")
  else if t.snapshot <> None then
    Error (Err.runtime "cannot enable WAL inside a transaction")
  else begin
    let had_state = Catalog.tables t.cat <> [] || Catalog.views t.cat <> [] in
    (* replay mutates live state; keep a copy so a failed replay leaves
       the session exactly as it was *)
    let save_cat = Catalog.copy t.cat in
    let save_store = Store.copy t.store in
    let save_prov = Hashtbl.copy t.prov_tables in
    let heap_of name =
      match Store.find t.store name with
      | Some heap -> Ok heap
      | None -> Error (Printf.sprintf "WAL replay: table %S does not exist" name)
    in
    let apply =
      {
        Wal.ap_sql = (fun sql -> replay_sql t sql);
        Wal.ap_insert =
          (fun name rows ->
            Result.bind (heap_of name) (fun h -> Heap.insert_all h rows));
        Wal.ap_truncate =
          (fun name -> Result.map (fun h -> Heap.truncate h) (heap_of name));
        Wal.ap_replace =
          (fun name rows ->
            Result.bind (heap_of name) (fun h -> Heap.replace_all h rows));
        Wal.ap_prov =
          (fun name cols ->
            Hashtbl.replace t.prov_tables (String.lowercase_ascii name) cols;
            Ok ());
      }
    in
    let restore () =
      t.cat <- save_cat;
      t.store <- save_store;
      t.prov_tables <- save_prov
    in
    match (try Ok (Wal.open_ ~dir ~apply) with e -> Error e) with
    | Error e ->
      restore ();
      Wal_log.error t.wal e
    | Ok (Error msg) ->
      restore ();
      Error (Err.runtime msg)
    | Ok (Ok (w, replay)) ->
      Wal_log.install t.wal w;
      Metrics.incr t.metrics "wal.opens";
      Recorder.record t.recorder
        (Recorder.Wal_replay
           {
             records = replay.Wal.rp_records;
             committed = replay.Wal.rp_committed;
             discarded = replay.Wal.rp_discarded;
             skipped = replay.Wal.rp_skipped;
             truncated_bytes = replay.Wal.rp_truncated_bytes;
           });
      (* state created before WAL was switched on is not in the log:
         capture it in a checkpoint right away *)
      if had_state then
        ignore (Wal_log.rebuild t.wal w ~snapshot:(wal_snapshot t));
      Wal_log.refresh_gauges t.wal;
      (* recovering prior state at startup is itself an anomaly worth a
         bundle: it is the only trace a crash leaves behind, and the
         replay counters (skipped records, truncated bytes) are the
         forensic evidence of how the previous process died *)
      if replay.Wal.rp_snapshot || replay.Wal.rp_records > 0 then
        obs_locked t (fun () ->
            capture_bundle_unlocked t ~cls:"wal_replay"
              ~detail:
                (Printf.sprintf
                   "WAL replay: %d records, %d committed, %d discarded, %d \
                    skipped, %d torn bytes truncated%s"
                   replay.Wal.rp_records replay.Wal.rp_committed
                   replay.Wal.rp_discarded replay.Wal.rp_skipped
                   replay.Wal.rp_truncated_bytes
                   (if replay.Wal.rp_snapshot then " (snapshot applied)"
                    else ""))
              ~sql:"" ~fingerprint:"" ~plan_hash:"" ~est_rows:0. ~ms:0.
              ~rows:0 ~phases:[]);
      Ok replay
  end

let disable_wal t = Wal_log.close t.wal

let checkpoint t =
  if wal_enabled t && t.snapshot <> None then
    Error (Err.runtime "cannot checkpoint inside a transaction")
  else Wal_log.checkpoint t.wal ~snapshot:(wal_snapshot t)

(* Every top-level statement runs under a root span; pipeline phases attach
   to it via [phase]. The finished trace feeds [last_trace], the history,
   the recorder's [stmt_finish] event (and so the trace export), the
   per-phase latency histograms and the statement/error counters. Nested
   statement executions (DML helpers re-entering through [run_query])
   attach as children instead of clobbering the root, and fold into the
   enclosing statement's stats. *)
let execute_statement t sql (st : Ast.statement) =
  let saved = t.current_span in
  let root =
    match saved with Some parent -> Trace.child parent "statement" | None -> Trace.start "statement"
  in
  Trace.annotate root "sql" sql;
  t.current_span <- Some root;
  if saved = None then begin
    (* the metric snapshot for the bundle's delta; skipped entirely when
       the recorder is off so the disabled path stays at its baseline *)
    t.stmt <-
      fresh_stmt (Fingerprint.of_sql sql)
        ?metrics0:
          (if Recorder.enabled t.recorder then Some (forensics_snapshot t)
           else None);
    (* flush the major-cycle note the GC alarm stashed (see [create]) *)
    if t.gc_seen.gc_pending then begin
      t.gc_seen.gc_pending <- false;
      Recorder.record t.recorder
        (Recorder.Gc_major
           {
             heap_words = t.gc_seen.gc_heap_words;
             major_collections = t.gc_seen.gc_major_collections;
           })
    end;
    Recorder.record t.recorder
      (Recorder.Stmt_start { sql; fingerprint = t.stmt.fp });
    t.live <-
      Some
        {
          lv_sql = sql;
          lv_start_s = Trace.start_s root;
          lv_progress = Progress.create ();
          lv_running = true;
          lv_end_s = None;
        };
    (* a fresh governor token per top-level statement; nested statements
       share the enclosing statement's token (and its deadline) *)
    t.token <- fresh_token t;
    (* a dirty log (failed append/fsync) is rebuilt from a checkpoint
       before anything else runs, closing the window where the log
       trailed the heaps *)
    if t.snapshot = None then Wal_log.repair t.wal ~snapshot:(wal_snapshot t)
  end;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Trace.finish root;
        t.current_span <- saved)
      (fun () -> capture t (fun () -> run_statement t sql st))
  in
  (* A governor kill reports where the statement died: the progress
     counters the sampler would have seen, appended to the message. *)
  let result =
    match result with
    | Error e when saved = None && governor_kill e -> (
      match progress t with
      | Some pr ->
        let where =
          if pr.pr_morsels_total > 0 then
            Printf.sprintf " [died at %d rows, morsel %d/%d, %.0f ms]"
              pr.pr_rows pr.pr_morsels_done pr.pr_morsels_total
              (Trace.duration_ms root)
          else
            Printf.sprintf " [died at %d rows, %.0f ms]" pr.pr_rows
              (Trace.duration_ms root)
        in
        Error (Err.make e.Err.kind (e.Err.msg ^ where))
      | None -> result)
    | _ -> result
  in
  (* Statement-boundary WAL commit, outside explicit transactions. Even a
     failed statement may have mutated the heaps (partially applied
     insert), so its frames are sealed either way — the log tracks the
     heaps, not the statement's verdict. A commit failure downgrades an
     [Ok] outcome: the caller must not believe the work is durable. *)
  let result =
    if saved = None && t.snapshot = None then
      match Wal_log.seal_statement t.wal with
      | Ok () -> result
      | Error e -> ( match result with Error _ -> result | Ok _ -> Error e)
    else result
  in
  Metrics.incr t.metrics "engine.statements";
  (match result with
  | Error e ->
    Metrics.incr t.metrics "engine.errors";
    if governor_kill e then begin
      let verdict = Err.kind_label e.Err.kind in
      Metrics.incr t.metrics ("engine." ^ verdict);
      Recorder.record t.recorder (Recorder.Governor { verdict; detail = e.Err.msg })
    end
  | Ok _ -> ());
  Metrics.observe t.metrics "engine.statement.ms" (Trace.duration_ms root);
  List.iter
    (fun sp ->
      Metrics.observe t.metrics
        ("engine.phase." ^ Trace.name sp ^ ".ms")
        (Trace.duration_ms sp))
    (Trace.children root);
  (* the WAL's size and replay history, so /metrics tracks log growth
     between checkpoints *)
  Wal_log.refresh_gauges t.wal;
  (* counters above are already bumped, so a metric sample taken while
     recording statement stats sees this statement too *)
  if saved = None then begin
    (match t.live with
    | Some lv ->
      lv.lv_running <- false;
      lv.lv_end_s <- Some (Trace.now ())
    | None -> ());
    (* single critical section for the whole finalize: history/watchdog,
       recorder, bundle — an observability-plane reader sees the statement
       either fully recorded or not at all *)
    obs_locked t (fun () ->
        t.last_trace <- Some root;
        let ms = Trace.duration_ms root in
        let rows = outcome_rows result in
        let provenance = statement_uses_provenance st in
        let phases =
          List.map
            (fun sp -> (Trace.name sp, Trace.duration_ms sp))
            (Trace.children root)
        in
        let rg_opt =
          record_statement_stats t sql ~provenance ~ms ~phases ~rows root
            result
        in
        record_finish t ~ms
          (Recorder.Stmt_finish
             {
               sql;
               fingerprint = t.stmt.fp;
               span = root;
               rows;
               provenance;
               error =
                 (match result with
                 | Error e -> Some (Err.kind_label e.Err.kind, Err.to_string e)
                 | Ok _ -> None);
             });
        (* anomaly? snapshot the forensics bundle while every input is
           still at hand: the root span, the typed outcome, the watchdog
           verdict and the recorder tail all describe *this* statement *)
        match statement_anomaly t result rg_opt with
        | Some (cls, detail) ->
          capture_bundle_unlocked t ~cls ~detail ~sql ~fingerprint:t.stmt.fp
            ~plan_hash:t.stmt.plan_hash ~est_rows:t.stmt.est_rows ~ms ~rows
            ~phases
        | None -> ())
  end;
  result

(* The typed entry point. Lexer/parser failures are caught here too (the
   lexer may raise on pathological input), so arbitrary bytes can never
   crash a session. *)
let execute_err t sql =
  match
    capture t (fun () ->
        Result.map_error
          (fun e -> Err.parse (Parser.error_to_string ~input:sql e))
          (Parser.parse_statement sql))
  with
  | Error e -> Error e
  | Ok st -> execute_statement t sql st

(* The legacy stringly surface: same pipeline, message-only errors. *)
let execute t sql = Result.map_error Err.to_string (execute_err t sql)

let execute_script t sql = each_statement sql (execute_statement t)

let query t sql =
  let* outcome = execute t sql in
  match outcome with
  | Rows rs -> Ok rs
  | Affected _ | Message _ | Explained _ | Analyzed _ ->
    Error "statement did not return rows"

let query_params t sql values =
  with_query sql (fun q ->
      t.token <- fresh_token t;
      Result.map_error Err.to_string
        (capture t (fun () ->
             let* bound = sem (Ast.bind_params values q) in
             run_query t bound)))

let explain t sql =
  with_query sql (fun q ->
      Result.map_error Err.to_string (capture t (fun () -> explain_query t sql q)))

let explain_analyze t sql =
  with_query sql (fun q ->
    (* route through execute_statement so a root span exists and the phase
       breakdown is populated *)
    match execute_statement t sql (Ast.St_explain_analyze q) with
    | Error e -> Error (Err.to_string e)
    | Ok (Analyzed ea) -> Ok ea
    | Ok (Rows _ | Affected _ | Message _ | Explained _) ->
      Error "EXPLAIN ANALYZE produced an unexpected outcome")

(* ------------------------------------------------------------------ *)
(* Forensics bundles: the anomaly store's public surface               *)
(* ------------------------------------------------------------------ *)

module Forensics = struct
  type summary = Bundles.summary = {
    fs_id : int;
    fs_ts : float;
    fs_class : string;
    fs_fingerprint : string;
    fs_detail : string;
    fs_sql : string;
  }

  let capacity t = Bundles.capacity t.forensics
  let set_capacity t n = obs_locked t (fun () -> Bundles.set_capacity t.forensics n)
  let set_dir t dir = obs_locked t (fun () -> Bundles.set_dir t.forensics dir)
  let list t = obs_locked t (fun () -> Bundles.list t.forensics)
  let get t id = obs_locked t (fun () -> Bundles.get t.forensics id)
  let last t = obs_locked t (fun () -> Bundles.last t.forensics)
end
