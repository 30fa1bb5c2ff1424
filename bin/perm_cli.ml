(* The Perm browser as a terminal client (paper Fig. 4): send SQL-PLE
   statements, see results, rewritten SQL and both algebra trees, switch
   rewrite strategies and contribution semantics interactively. *)

module Engine = Perm_engine.Engine
module Obs_server = Perm_engine.Obs_server
module Render = Perm_engine.Render
module Trace = Perm_obs.Trace
module Metrics = Perm_obs.Metrics
module History = Perm_obs.History
module Eventlog = Perm_obs.Eventlog
module Err = Perm_err
module Fault = Perm_fault

type session = {
  engine : Engine.t;
  mutable show_panes : bool;  (* print the four browser panes per query *)
  mutable timing : bool;  (* print wall-clock time per statement *)
  mutable trace : bool;  (* print the span tree per statement *)
  mutable progress : bool;  (* sample live progress while statements run *)
  mutable watch : (bool Atomic.t * unit Domain.t) option;
      (* the \watch dashboard sampler domain, while switched on *)
  mutable serve : Obs_server.t option;
      (* the HTTP observability plane, while switched on *)
}

(* ------------------------------------------------------------------ *)
(* The \serve HTTP observability plane                                 *)
(* ------------------------------------------------------------------ *)

let default_http_port = 7133

let start_serve session port =
  match session.serve with
  | Some srv ->
    Printf.printf "already serving on http://127.0.0.1:%d (\\serve off to stop)\n"
      (Obs_server.port srv)
  | None -> (
    match Obs_server.start ~port session.engine with
    | Ok srv ->
      session.serve <- Some srv;
      Printf.printf
        "serving observability plane on http://127.0.0.1:%d (generation %d)\n\
        \  /metrics /stats/<relation> /healthz /readyz /trace /events \
         /debug/bundles\n"
        (Obs_server.port srv) (Obs_server.generation srv)
    | Error msg -> Printf.printf "ERROR: cannot serve on port %d: %s\n" port msg)

let stop_serve session =
  match session.serve with
  | None -> ()
  | Some srv ->
    Obs_server.stop srv;
    session.serve <- None

(* Live progress sampler: a domain polling the engine's lock-free progress
   snapshot while the statement runs on this one. Stderr, so redirected
   result output stays clean. *)
let progress_interval_s = 0.2

let start_progress_sampler session =
  if not session.progress then None
  else begin
    let stop = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          let rec loop () =
            Unix.sleepf progress_interval_s;
            if not (Atomic.get stop) then begin
              (match Engine.progress session.engine with
              | Some p when p.Engine.pr_running ->
                if p.Engine.pr_morsels_total > 0 then
                  Printf.eprintf
                    "progress: %d rows, morsel %d/%d, %.0f ms elapsed\n%!"
                    p.Engine.pr_rows p.Engine.pr_morsels_done
                    p.Engine.pr_morsels_total p.Engine.pr_elapsed_ms
                else
                  Printf.eprintf "progress: %d rows, %.0f ms elapsed\n%!"
                    p.Engine.pr_rows p.Engine.pr_elapsed_ms
              | _ -> ());
              loop ()
            end
          in
          loop ())
    in
    Some (stop, d)
  end

let stop_progress_sampler = function
  | None -> ()
  | Some (stop, d) ->
    Atomic.set stop true;
    Domain.join d

(* ------------------------------------------------------------------ *)
(* The \watch live dashboard                                           *)
(* ------------------------------------------------------------------ *)

let clip n s =
  if String.length s <= n then s else String.sub s 0 (max 0 (n - 3)) ^ "..."

let spark_chars = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                     "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                     "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
    let lo = List.fold_left Float.min Float.infinity values in
    let hi = List.fold_left Float.max Float.neg_infinity values in
    let range = hi -. lo in
    String.concat ""
      (List.map
         (fun v ->
           let idx =
             if range <= 0. then 0
             else int_of_float (Float.round ((v -. lo) /. range *. 7.))
           in
           spark_chars.(max 0 (min 7 idx)))
         values)

let watch_interval_s = 0.5
let watch_window = 24  (* samples retained in the throughput sparkline *)

(* The dashboard domain reads only the engine's lock-free progress
   snapshot (atomics), like the \progress sampler — never the metrics or
   history hashtables, which the REPL domain mutates while a statement
   runs. The history summary prints once, from the REPL domain, when the
   dashboard is toggled on.

   The WAL and spill panes follow the same discipline: the spill counters
   are process-global atomics, and the WAL status reads word-sized int
   fields (a concurrent commit can make them momentarily stale, never
   torn). Each pane reprints only when its numbers change, so an idle
   session stays quiet. *)
let watch_wal_pane session =
  match Engine.wal_status session.engine with
  | None -> ""
  | Some ws ->
    Printf.sprintf "watch: wal epoch=%d log=%dB records=%d fsyncs=%d%s\n"
      ws.Engine.ws_epoch ws.Engine.ws_bytes ws.Engine.ws_records
      ws.Engine.ws_fsyncs
      (if ws.Engine.ws_dirty then " [DIRTY]" else "")

let watch_spill_pane () =
  let sc = Perm_storage.Spill.counters () in
  if sc.Perm_storage.Spill.c_spills = 0 && sc.Perm_storage.Spill.c_fallbacks = 0
  then ""
  else
    Printf.sprintf
      "watch: spill spills=%d runs=%d chunks=%d rows=%d bytes=%d fallbacks=%d\n"
      sc.Perm_storage.Spill.c_spills sc.Perm_storage.Spill.c_runs
      sc.Perm_storage.Spill.c_chunks sc.Perm_storage.Spill.c_rows
      sc.Perm_storage.Spill.c_bytes sc.Perm_storage.Spill.c_fallbacks

let start_watch session =
  match session.watch with
  | Some _ -> print_endline "watch is already on (\\watch off to stop)"
  | None ->
    let h = Engine.history session.engine in
    Printf.printf
      "watch on: %d fingerprint%s, %d regression%s retained; live dashboard \
       prints to stderr while statements run\n"
      (List.length (History.fingerprints h))
      (if List.length (History.fingerprints h) = 1 then "" else "s")
      (List.length (History.regressions h))
      (if List.length (History.regressions h) = 1 then "" else "s");
    let stop = Atomic.make false in
    let d =
      Domain.spawn (fun () ->
          let samples = ref [] in  (* rows/s, newest last *)
          let last = ref None in  (* previous (rows, unix seconds) *)
          let last_wal = ref "" in
          let last_spill = ref "" in
          let panes () =
            let wal = watch_wal_pane session in
            if wal <> "" && wal <> !last_wal then begin
              last_wal := wal;
              Printf.eprintf "%s%!" wal
            end;
            let spill = watch_spill_pane () in
            if spill <> "" && spill <> !last_spill then begin
              last_spill := spill;
              Printf.eprintf "%s%!" spill
            end
          in
          let rec loop () =
            Unix.sleepf watch_interval_s;
            if not (Atomic.get stop) then begin
              panes ();
              (match Engine.progress session.engine with
              | Some p when p.Engine.pr_running ->
                let now = Unix.gettimeofday () in
                let rate =
                  match !last with
                  | Some (r0, t0) when now > t0 ->
                    float_of_int (p.Engine.pr_rows - r0) /. (now -. t0)
                  | _ -> 0.
                in
                last := Some (p.Engine.pr_rows, now);
                samples := !samples @ [ rate ];
                let n = List.length !samples in
                if n > watch_window then
                  samples :=
                    List.filteri (fun i _ -> i >= n - watch_window) !samples;
                let morsels =
                  if p.Engine.pr_morsels_total > 0 then
                    Printf.sprintf " morsel %d/%d" p.Engine.pr_morsels_done
                      p.Engine.pr_morsels_total
                  else ""
                in
                Printf.eprintf "watch: %-32s %s %d rows (%.0f/s)%s %.0f ms\n%!"
                  (clip 32 (String.trim p.Engine.pr_sql))
                  (sparkline !samples) p.Engine.pr_rows rate morsels
                  p.Engine.pr_elapsed_ms
              | _ ->
                last := None;
                samples := []);
              loop ()
            end
          in
          loop ())
    in
    session.watch <- Some (stop, d)

let stop_watch session =
  match session.watch with
  | None -> ()
  | Some (stop, d) ->
    Atomic.set stop true;
    Domain.join d;
    session.watch <- None

let print_outcome session sql outcome =
  match (outcome : Engine.outcome) with
  | Engine.Rows rs ->
    if session.show_panes then begin
      match Engine.explain session.engine sql with
      | Ok e ->
        print_endline "-- original algebra tree:";
        print_string e.Engine.original_tree;
        print_endline "-- rewritten algebra tree:";
        print_string e.Engine.rewritten_tree;
        print_endline "-- rewritten SQL:";
        print_endline e.Engine.rewritten_sql;
        if e.Engine.agg_strategies <> [] then
          Printf.printf "-- aggregation rewrite strategies: %s\n"
            (String.concat ", " e.Engine.agg_strategies);
        print_endline "-- result:"
      | Error _ -> ()
    end;
    print_string (Render.table ~columns:rs.Engine.columns ~rows:rs.Engine.rows)
  | Engine.Affected n -> Printf.printf "(%d row%s affected)\n" n (if n = 1 then "" else "s")
  | Engine.Message m -> print_endline m
  | Engine.Explained e ->
    print_endline "-- original algebra tree:";
    print_string e.Engine.original_tree;
    print_endline "-- rewritten algebra tree:";
    print_string e.Engine.rewritten_tree;
    print_endline "-- optimized algebra tree:";
    print_string e.Engine.optimized_tree;
    print_endline "-- rewritten SQL:";
    print_endline e.Engine.rewritten_sql;
    if e.Engine.agg_strategies <> [] then
      Printf.printf "-- aggregation rewrite strategies: %s\n"
        (String.concat ", " e.Engine.agg_strategies)
  | Engine.Analyzed ea ->
    print_endline "-- optimized plan (actual):";
    print_string ea.Engine.ea_tree;
    List.iter
      (fun (name, ms) -> Printf.printf "-- %-8s %8.3f ms\n" name ms)
      ea.Engine.ea_phases;
    if ea.Engine.ea_strategies <> [] then
      Printf.printf "-- aggregation rewrite strategies: %s\n"
        (String.concat ", " ea.Engine.ea_strategies);
    Printf.printf "-- %d row%s, %.3f ms total\n" ea.Engine.ea_rows
      (if ea.Engine.ea_rows = 1 then "" else "s")
      ea.Engine.ea_total_ms

let run_sql session sql =
  let sql = String.trim sql in
  if sql <> "" then begin
    let before = Engine.last_trace session.engine in
    let sampler = start_progress_sampler session in
    let result = Engine.execute_err session.engine sql in
    stop_progress_sampler sampler;
    (match result with
    | Ok outcome -> print_outcome session sql outcome
    | Error e -> Printf.printf "ERROR: %s\n" (Err.describe e));
    (* both \trace and \timing read the engine's span tree, so the time
       reported is the pipeline's own measurement (excludes rendering);
       parse failures record no new trace — print nothing rather than the
       previous statement's numbers *)
    match Engine.last_trace session.engine with
    | Some root when (match before with Some b -> b != root | None -> true) ->
      if session.trace then print_string (Trace.to_string root);
      if session.timing then begin
        let phases =
          List.map
            (fun sp ->
              Printf.sprintf "%s %.3f" (Trace.name sp) (Trace.duration_ms sp))
            (Trace.children root)
        in
        Printf.printf "Time: %.3f ms%s\n"
          (Trace.duration_ms root)
          (if phases = [] then ""
           else " (" ^ String.concat ", " phases ^ ")")
      end
    | Some _ | None -> ()
  end

let help_text =
  {|Perm browser commands:
  \q                       quit
  \d                       list tables, views and virtual system relations
  \panes on|off            show algebra trees + rewritten SQL per query
  \timing on|off           print wall-clock time + phase breakdown per statement
  \trace on|off            per-operator instrumentation + span tree per statement
  \trace export FILE       write all statement spans as Chrome trace-event JSON
                           (load in about://tracing or ui.perfetto.dev)
  \log FILE                log statements as JSON lines to FILE (slow-query log)
  \log min MS              only log statements at least MS milliseconds slow
  \log off                 close the statement log
  \metrics                 session metrics (counters, gauges, latency histograms)
  \metrics PREFIX          only metrics whose name starts with PREFIX
                           (e.g. \metrics executor.par)
  \progress on|off         sample live query progress (rows, morsels, elapsed)
                           on an interval while each statement runs
  \watch [on|off]          live sparkline dashboard (row throughput, morsels,
                           WAL epoch/bytes/fsyncs, spill runs/bytes) on stderr
                           while statements run
  \debug [last]            pretty-print the most recent forensics bundle
  \debug list              captured anomaly bundles (id, class, detail)
  \debug dump ID           pretty-print one bundle by id
                           (PERM_FORENSICS_DIR also mirrors bundles to disk)
  \history [PREFIX]        retained per-fingerprint execution history and the
                           regression watchdog's findings (optionally only
                           fingerprints starting with PREFIX)
  \telemetry export FILE   stream the retained history (executions, regressions,
                           metric samples) as JSON lines to FILE
  \serve [on [PORT]|off]   HTTP observability plane on 127.0.0.1 (default port
                           7133, 0 = ephemeral; also via PERM_HTTP_PORT):
                           /metrics (Prometheus), /stats/<relation> (JSON),
                           /healthz, /readyz, /trace (Chrome trace),
                           /events (SSE: eventlog + progress + anomalies),
                           /debug/bundles[/<id>] (forensics bundles)
  \strategy join|lateral|heuristic|cost
                           aggregation rewrite strategy (paper 2.2)
  \optimizer on|off        toggle the planner rewrites
  \set parallel on|off|N   morsel-driven parallel execution on worker domains
                           (on = recommended domain count; N = exact count;
                           results are bit-identical to serial execution)
  \set parallel_threshold N
                           min driving-table rows before a query fans out
  \set batch_rows N        rows per executor batch on the vectorized path
                           (default 1024; PERM_BATCH_ROWS overrides at start)
  \set vectorized on|off   batch-at-a-time executor (default on; off runs
                           the row-at-a-time closures)
  \set statement_timeout MS
                           kill statements running longer than MS ms (0 = off)
  \set row_limit N         kill statements returning more than N rows (0 = off)
  \set tuple_budget N      kill statements moving more than N tuples across
                           operators (0 = off); with spill on, the budget is
                           a spill threshold instead of a kill
  \set spill on|off        degrade gracefully past the tuple budget (external
                           sort, chunked join build) instead of erroring
                           (default on)
  \set spill_dir DIR       directory for spill temp files (default $TMPDIR)
  \set wal on DIR          write-ahead log in DIR: replay committed state,
                           then log every mutation (PERM_WAL_DIR at start)
  \set wal off             close the log; the session keeps running in memory
  \set wal_fsync on|off    fsync the log on every commit (default on)
  \wal status              log size, record count, last LSN, replay summary
  \checkpoint              compact: snapshot.sql + truncate the log
  \set history N           history ring capacity per fingerprint (0 = off;
                           default 128)
  \set watchdog FACTOR     flag executions over FACTOR x the fingerprint's
                           baseline (default 3)
  \set history_cadence S   seconds between metric-history samples (default 1)
  \set eventlog N          in-memory event-log ring capacity (default 256)
  \fault POINT PROB        deterministic fault injection: make the named point
                           (e.g. heap.scan, join.build, pool.dispatch,
                           engine.commit) fail with probability PROB
  \fault seed N            reseed the injection PRNG (also via PERM_FAULT=N)
  \fault list              registered fault points, hit and injection counts
  \fault off               disarm all fault points and clear counters
  \demo                    load the paper's example forum database (Fig. 1)
  \save FILE               dump all tables and views as a SQL script
  \load FILE               execute a SQL script (e.g. a \save dump)
  \help                    this text
Anything else is executed as an SQL-PLE statement (end with ;).
Telemetry is also queryable as relations: perm_stat_statements,
perm_stat_relations, perm_stat_plans, perm_stat_workers, perm_metrics,
perm_stat_history, perm_stat_regressions, perm_metrics_history,
perm_stat_anomalies
(try SELECT * FROM perm_stat_regressions ORDER BY seq DESC;).|}

let print_replay_summary dir (rp : Perm_wal.replay) =
  Printf.printf
    "WAL on %s: replayed %s%d records (%d transactions committed, %d frames \
     discarded, %d already in snapshot, %d torn bytes truncated)\n"
    dir
    (if rp.Perm_wal.rp_snapshot then "snapshot + " else "")
    rp.Perm_wal.rp_records rp.Perm_wal.rp_committed rp.Perm_wal.rp_discarded
    rp.Perm_wal.rp_skipped rp.Perm_wal.rp_truncated_bytes

let handle_meta session line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "\\q" ] -> `Quit
  | [ "\\help" ] | [ "\\?" ] ->
    print_endline help_text;
    `Continue
  | [ "\\d" ] ->
    let cat = Engine.catalog session.engine in
    List.iter
      (fun (t : Perm_catalog.Catalog.table_def) ->
        Printf.printf "table %-20s %s\n" t.Perm_catalog.Catalog.table_name
          (Format.asprintf "%a" Perm_catalog.Schema.pp t.Perm_catalog.Catalog.table_schema))
      (Perm_catalog.Catalog.tables cat);
    List.iter
      (fun (v : Perm_catalog.Catalog.view_def) ->
        Printf.printf "view  %-20s AS %s\n" v.Perm_catalog.Catalog.view_name
          v.Perm_catalog.Catalog.view_sql)
      (Perm_catalog.Catalog.views cat);
    List.iter
      (fun (v : Perm_catalog.Catalog.virtual_def) ->
        Printf.printf "sys   %-20s %s\n" v.Perm_catalog.Catalog.virtual_name
          (Format.asprintf "%a" Perm_catalog.Schema.pp
             v.Perm_catalog.Catalog.virtual_schema))
      (Perm_catalog.Catalog.virtuals cat);
    `Continue
  | [ "\\panes"; v ] ->
    session.show_panes <- (v = "on");
    `Continue
  | [ "\\timing"; v ] ->
    session.timing <- (v = "on");
    `Continue
  | [ "\\trace"; "export"; path ] ->
    (match
       Engine.locked session.engine (fun () ->
           Engine.trace_log session.engine)
     with
    | [] -> print_endline "no statement traces recorded yet"
    | roots -> (
      let json = Trace.to_chrome_json roots in
      try
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Perm_obs.Json.to_string json));
        Printf.printf "wrote %d statement trace%s to %s\n" (List.length roots)
          (if List.length roots = 1 then "" else "s")
          path
      with Sys_error msg -> Printf.printf "ERROR: %s\n" msg));
    `Continue
  | [ "\\trace"; v ] ->
    session.trace <- (v = "on");
    (* tracing the span tree alone is cheap; the interesting part is the
       per-operator row/time stats, so couple the two *)
    Engine.set_instrumentation session.engine (v = "on");
    `Continue
  | [ "\\log"; "min"; ms ] ->
    (match float_of_string_opt ms with
    | Some v ->
      Engine.locked session.engine (fun () ->
          Perm_obs.Eventlog.set_min_ms (Engine.event_log session.engine) v);
      Printf.printf "logging statements taking at least %g ms\n" v
    | None -> print_endline "usage: \\log min MS");
    `Continue
  | [ "\\log"; "off" ] ->
    Engine.locked session.engine (fun () ->
        Perm_obs.Eventlog.close (Engine.event_log session.engine));
    print_endline "statement log closed";
    `Continue
  | [ "\\log"; path ] ->
    (try
       Engine.locked session.engine (fun () ->
           Perm_obs.Eventlog.open_file (Engine.event_log session.engine) path);
       Printf.printf "logging statements to %s (min %g ms)\n" path
         (Perm_obs.Eventlog.min_ms (Engine.event_log session.engine))
     with Sys_error msg -> Printf.printf "ERROR: %s\n" msg);
    `Continue
  | [ "\\metrics" ] ->
    let m = Engine.metrics session.engine in
    Metrics.set_gc_gauges m;
    print_string (Metrics.dump_text m);
    `Continue
  | [ "\\metrics"; prefix ] ->
    let m = Engine.metrics session.engine in
    Metrics.set_gc_gauges m;
    print_string (Metrics.dump_text ~prefix m);
    `Continue
  | [ "\\progress"; v ] ->
    session.progress <- (v = "on");
    Printf.printf "live progress sampling %s\n" (if v = "on" then "on" else "off");
    `Continue
  | [ "\\strategy"; v ] ->
    (match v with
    | "join" -> Engine.set_agg_strategy session.engine Engine.Use_join
    | "lateral" -> Engine.set_agg_strategy session.engine Engine.Use_lateral
    | "heuristic" -> Engine.set_agg_strategy session.engine Engine.Use_heuristic
    | "cost" -> Engine.set_agg_strategy session.engine Engine.Use_cost_based
    | _ -> print_endline "unknown strategy; use join|lateral|heuristic|cost");
    `Continue
  | [ "\\optimizer"; v ] ->
    Engine.set_optimizer_config session.engine
      (if v = "on" then Perm_planner.Planner.default_config
       else Perm_planner.Planner.disabled_config);
    `Continue
  | [ "\\set"; "parallel"; v ] ->
    (match v with
    | "off" ->
      Engine.set_parallel session.engine Engine.Par_off;
      print_endline "parallel execution off"
    | "on" ->
      Engine.set_parallel session.engine Engine.Par_on;
      Printf.printf "parallel execution on (%d worker domains)\n"
        (Engine.parallel_domains session.engine)
    | n -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
        Engine.set_parallel session.engine (Engine.Par_domains n);
        if Engine.parallel_domains session.engine = 0 then
          print_endline "parallel execution off"
        else
          Printf.printf "parallel execution on (%d worker domains)\n"
            (Engine.parallel_domains session.engine)
      | _ -> print_endline "usage: \\set parallel on|off|N"));
    `Continue
  | [ "\\set"; "parallel_threshold"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 0 ->
      Engine.set_parallel_threshold session.engine n;
      Printf.printf "parallel threshold: %d rows\n" n
    | _ -> print_endline "usage: \\set parallel_threshold N");
    `Continue
  | [ "\\set"; "batch_rows"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 1 ->
      Engine.set_batch_rows session.engine n;
      Printf.printf "batch size: %d rows\n" n
    | _ -> print_endline "usage: \\set batch_rows N");
    `Continue
  | [ "\\set"; "vectorized"; v ] ->
    (match v with
    | "on" ->
      Engine.set_vectorized session.engine true;
      print_endline "vectorized execution on"
    | "off" ->
      Engine.set_vectorized session.engine false;
      print_endline "vectorized execution off (row-at-a-time)"
    | _ -> print_endline "usage: \\set vectorized on|off");
    `Continue
  | [ "\\set"; "statement_timeout"; ms ] ->
    (match float_of_string_opt ms with
    | Some v when v >= 0. ->
      Engine.set_statement_timeout session.engine v;
      if v = 0. then print_endline "statement timeout off"
      else Printf.printf "statement timeout: %g ms\n" v
    | _ -> print_endline "usage: \\set statement_timeout MS (0 = off)");
    `Continue
  | [ "\\set"; "row_limit"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 0 ->
      Engine.set_row_limit session.engine n;
      if n = 0 then print_endline "row limit off"
      else Printf.printf "row limit: %d rows\n" n
    | _ -> print_endline "usage: \\set row_limit N (0 = off)");
    `Continue
  | [ "\\set"; "tuple_budget"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 0 ->
      Engine.set_tuple_budget session.engine n;
      if n = 0 then print_endline "tuple budget off"
      else Printf.printf "tuple budget: %d tuples\n" n
    | _ -> print_endline "usage: \\set tuple_budget N (0 = off)");
    `Continue
  | [ "\\set"; "spill"; v ] ->
    (match v with
    | "on" ->
      Engine.set_spill session.engine true;
      print_endline "spill on (tuple budget degrades to disk instead of killing)"
    | "off" ->
      Engine.set_spill session.engine false;
      print_endline "spill off (tuple budget kills statements again)"
    | _ -> print_endline "usage: \\set spill on|off");
    `Continue
  | [ "\\set"; "spill_dir"; dir ] ->
    Engine.set_spill_dir session.engine dir;
    Printf.printf "spill directory: %s\n" dir;
    `Continue
  | [ "\\set"; "wal"; "on"; dir ] ->
    (match Engine.enable_wal session.engine dir with
    | Ok rp -> print_replay_summary dir rp
    | Error e -> Printf.printf "ERROR: %s\n" (Err.to_string e));
    `Continue
  | [ "\\set"; "wal"; "off" ] ->
    if Engine.wal_enabled session.engine then begin
      Engine.disable_wal session.engine;
      print_endline "WAL closed (session continues without durability)"
    end
    else print_endline "WAL is not enabled";
    `Continue
  | [ "\\set"; "wal_fsync"; v ] ->
    (match v with
    | "on" | "off" ->
      Engine.set_wal_fsync session.engine (v = "on");
      Printf.printf "WAL fsync on commit: %s\n" v
    | _ -> print_endline "usage: \\set wal_fsync on|off");
    `Continue
  | [ "\\wal" ] | [ "\\wal"; "status" ] ->
    (match Engine.wal_status session.engine with
    | None -> print_endline "WAL is not enabled (\\set wal on DIR)"
    | Some ws ->
      Printf.printf "dir:    %s\n" ws.Engine.ws_dir;
      Printf.printf "log:    %d bytes, %d records since checkpoint, last LSN %d%s\n"
        ws.Engine.ws_bytes ws.Engine.ws_records ws.Engine.ws_last_lsn
        (if ws.Engine.ws_dirty then "  [DIRTY: rebuild pending]" else "");
      Printf.printf "fsync:  %s (%d since open)\n"
        (if ws.Engine.ws_fsync_on then "on every commit" else "off")
        ws.Engine.ws_fsyncs;
      Printf.printf "epoch:  %d\n" ws.Engine.ws_epoch;
      let rp = ws.Engine.ws_replay in
      Printf.printf
        "replay: %s%d records, %d transactions committed, %d frames discarded, \
         %d already in snapshot, %d torn bytes truncated\n"
        (if rp.Perm_wal.rp_snapshot then "snapshot + " else "")
        rp.Perm_wal.rp_records rp.Perm_wal.rp_committed rp.Perm_wal.rp_discarded
        rp.Perm_wal.rp_skipped rp.Perm_wal.rp_truncated_bytes);
    `Continue
  | [ "\\checkpoint" ] ->
    (match Engine.checkpoint session.engine with
    | Ok () -> print_endline "checkpoint written; log truncated"
    | Error e -> Printf.printf "ERROR: %s\n" (Err.to_string e));
    `Continue
  | [ "\\debug" ] | [ "\\debug"; "last" ] ->
    (match Engine.Forensics.last session.engine with
    | Some doc -> print_endline (Perm_obs.Json.to_pretty_string doc)
    | None -> print_endline "no forensics bundles captured yet");
    `Continue
  | [ "\\debug"; "list" ] ->
    (match Engine.Forensics.list session.engine with
    | [] -> print_endline "no forensics bundles captured yet"
    | bundles ->
      List.iter
        (fun (s : Engine.Forensics.summary) ->
          Printf.printf "#%-5d %-18s %-16s %s\n" s.Engine.Forensics.fs_id
            s.Engine.Forensics.fs_class
            (clip 16 s.Engine.Forensics.fs_fingerprint)
            (clip 60
               (if s.Engine.Forensics.fs_detail <> "" then
                  s.Engine.Forensics.fs_detail
                else s.Engine.Forensics.fs_sql)))
        bundles;
      Printf.printf "%d bundle%s retained (capacity %d); \\debug dump ID for \
                     the full document\n"
        (List.length bundles)
        (if List.length bundles = 1 then "" else "s")
        (Engine.Forensics.capacity session.engine));
    `Continue
  | [ "\\debug"; "dump"; id ] ->
    (match int_of_string_opt id with
    | None -> print_endline "usage: \\debug dump ID"
    | Some id -> (
      match Engine.Forensics.get session.engine id with
      | Some doc -> print_endline (Perm_obs.Json.to_pretty_string doc)
      | None -> Printf.printf "no bundle %d (evicted or never captured)\n" id));
    `Continue
  | [ "\\watch" ] | [ "\\watch"; "on" ] ->
    start_watch session;
    `Continue
  | [ "\\watch"; "off" ] ->
    (match session.watch with
    | None -> print_endline "watch is not on"
    | Some _ ->
      stop_watch session;
      print_endline "watch off");
    `Continue
  | "\\history" :: rest ->
    let prefix =
      String.lowercase_ascii (String.trim (String.concat " " rest))
    in
    let h = Engine.history session.engine in
    let matches fp = prefix = "" || String.starts_with ~prefix fp in
    let fps = List.filter matches (History.fingerprints h) in
    if not (History.enabled h) then
      print_endline "history recording is off (\\set history N to enable)"
    else if fps = [] then print_endline "no matching execution history"
    else begin
      List.iter
        (fun fp ->
          let recs = History.executions_for h fp in
          let ms = List.map (fun r -> r.History.ex_ms) recs in
          let last = List.nth recs (List.length recs - 1) in
          let base =
            match History.baseline h fp with
            | Some (b, _) -> Printf.sprintf "%.2f" b
            | None -> "-"
          in
          Printf.printf "%-48s n=%-4d last=%8.3f ms base=%s ms %s %s\n"
            (clip 48 fp) (List.length recs) last.History.ex_ms base
            (sparkline ms) last.History.ex_plan_hash)
        fps;
      match
        List.filter (fun r -> matches r.History.rg_fingerprint)
          (History.regressions h)
      with
      | [] -> ()
      | regs ->
        print_endline "regressions:";
        List.iter
          (fun r ->
            Printf.printf "  #%-5d %-44s %8.3f ms (%.1fx) %-11s %s\n"
              r.History.rg_seq
              (clip 44 r.History.rg_fingerprint)
              r.History.rg_ms r.History.rg_factor
              (History.cause_label r.History.rg_cause)
              r.History.rg_detail)
          regs
    end;
    `Continue
  | [ "\\telemetry"; "export"; path ] ->
    (* streamed record by record: each JSON object is rendered and written
       individually, so the export never materializes in memory. Under the
       engine lock so an HTTP reader can't interleave with a snapshot *)
    (try
       let count = ref 0 in
       Out_channel.with_open_text path (fun oc ->
           Engine.locked session.engine (fun () ->
               History.iter_export (Engine.history session.engine) (fun j ->
                   Out_channel.output_string oc (Perm_obs.Json.to_string j);
                   Out_channel.output_char oc '\n';
                   incr count)));
       Printf.printf "wrote %d telemetry record%s to %s\n" !count
         (if !count = 1 then "" else "s")
         path
     with Sys_error msg -> Printf.printf "ERROR: %s\n" msg);
    `Continue
  | [ "\\serve" ] ->
    (match session.serve with
    | Some srv ->
      Printf.printf
        "serving on http://127.0.0.1:%d (generation %d)\n"
        (Obs_server.port srv) (Obs_server.generation srv)
    | None -> print_endline "not serving (\\serve on [PORT] to start)");
    `Continue
  | [ "\\serve"; "on" ] ->
    start_serve session default_http_port;
    `Continue
  | [ "\\serve"; "on"; port ] ->
    (match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 -> start_serve session p
    | _ -> print_endline "usage: \\serve on [PORT] (0 = ephemeral)");
    `Continue
  | [ "\\serve"; "off" ] ->
    (match session.serve with
    | None -> print_endline "not serving"
    | Some _ ->
      stop_serve session;
      print_endline "observability server stopped");
    `Continue
  | [ "\\set"; "history"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 0 ->
      Engine.locked session.engine (fun () ->
          History.set_capacity (Engine.history session.engine) n);
      if n = 0 then print_endline "history recording off (retained records discarded)"
      else Printf.printf "history: %d records per fingerprint\n" n
    | _ -> print_endline "usage: \\set history N (records per fingerprint, 0 = off)");
    `Continue
  | [ "\\set"; "watchdog"; f ] ->
    (match float_of_string_opt f with
    | Some v when v >= 0. ->
      Engine.locked session.engine (fun () ->
          History.set_factor (Engine.history session.engine) v);
      Printf.printf "watchdog flags executions over %gx the baseline\n" v
    | _ -> print_endline "usage: \\set watchdog FACTOR");
    `Continue
  | [ "\\set"; "history_cadence"; s ] ->
    (match float_of_string_opt s with
    | Some v when v >= 0. ->
      Engine.locked session.engine (fun () ->
          History.set_cadence (Engine.history session.engine) v);
      Printf.printf "metric sampling cadence: %g s\n" v
    | _ -> print_endline "usage: \\set history_cadence SECONDS");
    `Continue
  | [ "\\set"; "eventlog"; n ] ->
    (match int_of_string_opt n with
    | Some n when n >= 1 ->
      Engine.locked session.engine (fun () ->
          Eventlog.set_capacity (Engine.event_log session.engine) n);
      Printf.printf "event log ring: %d events\n" n
    | _ -> print_endline "usage: \\set eventlog N (ring capacity, >= 1)");
    `Continue
  | [ "\\fault"; "list" ] ->
    List.iter
      (fun (name, prob, hits, injected) ->
        Printf.printf "%-18s p=%-6g hits=%-8d injected=%d\n" name prob hits
          injected)
      (Fault.points ());
    Printf.printf "seed=%d\n" (Fault.seed ());
    `Continue
  | [ "\\fault"; "off" ] ->
    Fault.reset ();
    print_endline "fault injection off (counters cleared)";
    `Continue
  | [ "\\fault"; "seed"; n ] ->
    (match int_of_string_opt n with
    | Some s ->
      Fault.set_seed s;
      Printf.printf "fault seed: %d\n" s
    | None -> print_endline "usage: \\fault seed N");
    `Continue
  | [ "\\fault"; name; prob ] ->
    (match float_of_string_opt prob with
    | Some p when p >= 0. && p <= 1. ->
      Fault.set name p;
      Printf.printf "fault point %s armed at p=%g (seed %d)\n" name p
        (Fault.seed ())
    | _ -> print_endline "usage: \\fault POINT PROB (0 <= PROB <= 1)");
    `Continue
  | [ "\\save"; path ] ->
    (try
       Out_channel.with_open_text path (fun oc ->
           Out_channel.output_string oc (Engine.dump_sql session.engine));
       Printf.printf "dumped session to %s\n" path
     with Sys_error msg -> Printf.printf "ERROR: %s\n" msg);
    `Continue
  | [ "\\load"; path ] ->
    (try
       let sql = In_channel.with_open_text path In_channel.input_all in
       match Engine.execute_script session.engine sql with
       | Ok outcomes -> Printf.printf "executed %d statements\n" (List.length outcomes)
       | Error msg -> Printf.printf "ERROR: %s\n" msg
     with Sys_error msg -> Printf.printf "ERROR: %s\n" msg);
    `Continue
  | [ "\\demo" ] ->
    Perm_workload.Forum.load session.engine;
    print_endline "loaded the paper's example database (messages, users, imports, approved, view v1)";
    `Continue
  | _ ->
    Printf.printf "unknown command %s (try \\help)\n" line;
    `Continue

let repl session =
  print_endline "Perm provenance management system — type \\help for commands";
  let buffer = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buffer = 0 then "perm> " else "  ... ");
    flush stdout;
    match In_channel.input_line stdin with
    | None -> ()
    | Some line ->
      if Buffer.length buffer = 0 && String.length (String.trim line) > 0
         && (String.trim line).[0] = '\\'
      then (
        match handle_meta session line with
        | `Quit -> ()
        | `Continue -> loop ())
      else begin
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains text ';' then begin
          Buffer.clear buffer;
          run_sql session text
        end;
        loop ()
      end
  in
  loop ()

let main demo script command =
  let session =
    {
      engine = Engine.create ();
      show_panes = false;
      timing = false;
      trace = false;
      progress = false;
      watch = None;
      serve = None;
    }
  in
  (* PERM_FORENSICS_DIR mirrors every captured anomaly bundle to disk, so
     scripted/CI sessions keep their forensics past process exit. Set
     before the WAL below so a startup-replay bundle is mirrored too *)
  (match Sys.getenv_opt "PERM_FORENSICS_DIR" with
  | Some dir when String.trim dir <> "" ->
    Engine.Forensics.set_dir session.engine (Some (String.trim dir))
  | _ -> ());
  (* PERM_WAL_DIR enables durability before anything mutates: recovered
     state is replayed here, and every later statement (demo load included)
     is logged *)
  (match Sys.getenv_opt "PERM_WAL_DIR" with
  | Some dir when String.trim dir <> "" -> (
    let dir = String.trim dir in
    match Engine.enable_wal session.engine dir with
    | Ok rp -> print_replay_summary dir rp
    | Error e ->
      Printf.eprintf "ERROR: PERM_WAL_DIR=%s: %s\n%!" dir (Err.to_string e);
      exit 1)
  | _ -> ());
  if demo then Perm_workload.Forum.load session.engine;
  (* PERM_HTTP_PORT starts the observability plane before any statement
     runs, so scripted/CI sessions are scrapeable without a \serve line *)
  (match Sys.getenv_opt "PERM_HTTP_PORT" with
  | Some p -> (
    match int_of_string_opt (String.trim p) with
    | Some port when port >= 0 && port < 65536 -> (
      match Obs_server.start ~port session.engine with
      | Ok srv ->
        session.serve <- Some srv;
        Printf.eprintf "serving observability plane on http://127.0.0.1:%d\n%!"
          (Obs_server.port srv)
      | Error msg ->
        Printf.eprintf "WARNING: PERM_HTTP_PORT=%s: %s\n%!" p msg)
    | _ -> Printf.eprintf "WARNING: ignoring bad PERM_HTTP_PORT=%s\n%!" p)
  | None -> ());
  (match script, command with
  | Some path, _ ->
    let sql = In_channel.with_open_text path In_channel.input_all in
    (match Engine.execute_script session.engine sql with
    | Ok outcomes -> List.iter (print_outcome session "") outcomes
    | Error msg ->
      Printf.eprintf "ERROR: %s\n" msg;
      exit 1)
  | None, Some sql -> run_sql session sql
  | None, None -> repl session);
  (* stop the \watch dashboard domain and drain the observability server,
     then release the worker-domain pool, if a parallel query created one
     (Engine.close would also drain the server via its at_close hook;
     stopping here first is just the explicit order) *)
  stop_watch session;
  stop_serve session;
  Engine.close session.engine

open Cmdliner

let demo_flag =
  Arg.(value & flag & info [ "demo" ] ~doc:"Load the paper's Figure 1 example database at startup.")

let script_arg =
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"SCRIPT" ~doc:"Execute the SQL script and exit.")

let command_arg =
  Arg.(value & opt (some string) None & info [ "c"; "command" ] ~docv:"SQL" ~doc:"Execute one statement and exit.")

let cmd =
  let doc = "interactive client for the Perm provenance management system" in
  Cmd.v
    (Cmd.info "perm_cli" ~doc)
    Term.(const main $ demo_flag $ script_arg $ command_arg)

let () = exit (Cmd.eval cmd)
