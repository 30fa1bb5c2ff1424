(* The query pipeline: analyze -> rewrite -> optimize -> execute, serial,
   instrumented or morsel-parallel, and the EXPLAIN panes. *)

open Session
open Telemetry

(* ------------------------------------------------------------------ *)
(* Query pipeline: analyze -> rewrite -> optimize -> execute            *)
(* ------------------------------------------------------------------ *)

let prepare t (q : Ast.query) =
  let* analyzed =
    sem (phase t "analyze" (fun () -> Analyzer.analyze_query t.cat q))
  in
  let* rewritten, report =
    sem
      (phase t "rewrite" (fun () ->
           try Ok (Rewriter.rewrite ~config:(rewriter_config t) analyzed)
           with Rewriter.Rewrite_error msg ->
             Error ("provenance rewrite failed: " ^ msg)))
  in
  t.report <- Some report;
  record_rewrite_metrics t report;
  let optimized =
    phase t "optimize" (fun () ->
        Planner.optimize ~config:t.planner_config (stats t) rewritten)
  in
  Ok (analyzed, rewritten, optimized)

(* Morsel-driven parallel execution is attempted when the session has
   parallelism on and the executor finds a parallel spine. Every fallback
   leaves a reason counter in the metrics so "why didn't this
   parallelize?" is answerable from perm_metrics. *)
let try_parallel t optimized =
  let fallback reason =
    Metrics.incr t.metrics ("executor.par.fallback." ^ reason);
    None
  in
  if t.parallel_domains <= 0 then None
  else
    match
      Executor.parallel_spine ~threshold:t.parallel_threshold
        ~table_rows:(stats t).Planner.table_rows optimized
    with
    | Error reason -> fallback reason
    | Ok spine -> Some spine

let run_serial t plan =
  Executor.run ~token:t.token ?row_limit:(active_row_limit t)
    ?progress:(live_progress t) ~batch_rows:t.batch_rows ?spill:(active_spill t)
    ~provider:(provider t) plan

(* The serial run with per-operator counters, recorded: every statement's
   while instrumentation is on, and EXPLAIN ANALYZE's. *)
let run_instrumented t plan =
  let* rows, exec_stats =
    dat
      (phase t "execute" (fun () ->
           Executor.run_instrumented ~token:t.token
             ?row_limit:(active_row_limit t) ?progress:(live_progress t)
             ~batch_rows:t.batch_rows ?spill:(active_spill t)
             ~provider:(provider t) plan))
  in
  record_exec_stats t exec_stats;
  record_plan_profile t plan exec_stats;
  Ok (rows, exec_stats)

let exec_plan t optimized =
  let run_serial () = run_serial t optimized in
  match try_parallel t optimized with
  | Some spine ->
    note_plan t optimized ~parallel:true;
    phase_sp t "execute" (fun sp ->
        let run_par () =
          let par_sp = Option.map (fun s -> Trace.child s "parallel") sp in
          Fun.protect
            ~finally:(fun () -> Option.iter Trace.finish par_sp)
            (fun () ->
              let result =
                Executor.run_parallel ~token:t.token
                  ?row_limit:(active_row_limit t) ?progress:(live_progress t)
                  ?spill:(active_spill t) ~instrument:t.instrument
                  ~pool:(pool t) ~batch_rows:t.batch_rows
                  ~provider:(provider t) spine optimized
              in
              (match par_sp, result with
              | Some psp, Ok (_, r, _) -> attach_worker_lanes psp r
              | _ -> ());
              result)
        in
        match run_par () with
        | Ok (rows, report, exec_stats) ->
          record_par_report t report;
          Option.iter
            (fun exec_stats ->
              record_exec_stats t exec_stats;
              record_plan_profile t optimized exec_stats)
            exec_stats;
          Ok rows
        | Error msg -> Error (Err.runtime msg)
        | exception (Err.Cancel _ as e) ->
          (* a governor kill is not a worker failure: the generation has
             already drained, so re-raise for the boundary — no retry *)
          raise e
        | exception Spill.Fallback_needed reason ->
          (* a shared spine join build passed the spill threshold: the
             morsel tasks cannot spill it, the serial path spills it in
             place *)
          note_spill t (Spill.Fallback reason);
          Metrics.incr t.metrics "executor.par.fallback.spill";
          dat (run_serial ())
        | exception e ->
          (* a worker blew past the executor's error contract (injected
             fault, poisoned generation): degrade to the serial path once.
             If the failure is deterministic it will surface again there,
             typed, through the boundary. *)
          (match e with Perm_fault.Injected p -> note_fault t p | _ -> ());
          Metrics.incr t.metrics "executor.par.fallback.error";
          Metrics.incr t.metrics "executor.par.degraded";
          (* an anomaly even when the serial retry succeeds: the bundle
             shows which worker failure forced the degradation *)
          let reason =
            Printf.sprintf "parallel execution degraded to serial: %s"
              (Printexc.to_string e)
          in
          if t.stmt.degraded = None then t.stmt.degraded <- Some reason;
          Recorder.record t.recorder (Recorder.Degraded { reason });
          dat (run_serial ()))
  | None ->
    note_plan t optimized ~parallel:false;
    if t.instrument then Result.map fst (run_instrumented t optimized)
    else dat (phase t "execute" run_serial)

let run_query t (q : Ast.query) =
  let* analyzed, _rewritten, optimized = prepare t q in
  let* rows = exec_plan t optimized in
  (* column names come from the analyzed plan's schema: the marker schema
     already includes the provenance attributes with their public names *)
  let columns = Analyzer.output_names analyzed in
  Ok { columns; rows }

let plan_query t sql =
  with_query sql (fun q ->
      Result.map_error Err.to_string
        (capture t (fun () ->
             let* analyzed, _rewritten, optimized = prepare t q in
             Ok (analyzed, optimized))))

let run_plan t plan =
  t.token <- fresh_token t;
  Result.map_error Err.to_string (capture t (fun () -> dat (run_serial t plan)))

let explain_query t sql (q : Ast.query) =
  let* analyzed, rewritten, optimized = prepare t q in
  let report = Option.get t.report in
  (* the executable tree carries cost/row estimates, EXPLAIN-style *)
  let s = stats t in
  let annotate plan =
    Printf.sprintf "(cost=%.0f rows=%.0f)" (Planner.cost s plan)
      (Planner.estimate_rows s plan)
  in
  Ok
    {
      input_sql = sql;
      original_tree = Pretty.plan_to_string ~show_attrs:false analyzed;
      rewritten_tree = Pretty.plan_to_string ~show_attrs:false rewritten;
      optimized_tree = Pretty.plan_to_string ~show_attrs:false ~annotate optimized;
      rewritten_sql = Sqlgen.plan_to_sql rewritten;
      agg_strategies = strategy_names report;
    }

let explain_analyze_query t sql (q : Ast.query) =
  let* _analyzed, _rewritten, optimized = prepare t q in
  note_plan t optimized ~parallel:false;
  let report = Option.get t.report in
  (* EXPLAIN ANALYZE always instruments, whatever the session setting; it
     stays on the serial path because per-node self times need the
     pull-based profiler *)
  let* rows, exec_stats = run_instrumented t optimized in
  let ests = plan_estimates t optimized in
  let annotate plan =
    match Executor.lookup exec_stats plan with
    | Some ns ->
      let est = estimate_of ests plan in
      let act = ns.Executor.stat_rows in
      (* flag misestimates: the larger of est/act over the other, floored
         at one row on each side so empty results don't divide by zero *)
      let ratio =
        let e = Float.max est 1. and a = float_of_int (max act 1) in
        Float.max (e /. a) (a /. e)
      in
      let off =
        if ratio >= 2. then Printf.sprintf " (x%.0f off)" ratio else ""
      in
      Printf.sprintf "(est=%.0f act=%d%s loops=%d self=%.3f ms time=%.3f ms)"
        est act off ns.Executor.stat_invocations
        (ns.Executor.stat_self_s *. 1000.)
        (ns.Executor.stat_time_s *. 1000.)
    | None -> "(never executed)"
  in
  let phases, total_ms =
    match t.current_span with
    | Some root ->
      ( List.map
          (fun sp -> (Trace.name sp, Trace.duration_ms sp))
          (Trace.children root),
        Trace.duration_ms root )
    | None -> ([], 0.)
  in
  Ok
    {
      ea_sql = sql;
      ea_tree = Pretty.plan_to_string ~show_attrs:false ~annotate optimized;
      ea_phases = phases;
      ea_rows = List.length rows;
      ea_total_ms = total_ms;
      ea_strategies = strategy_names report;
    }
