(* What a statement leaves in the telemetry stores: rewrite and
   operator counters, the plan profile, parallel worker accounting, the
   plan hash and estimate, the history record with the watchdog's
   verdict, the stmt_finish event, and the forensics bundle of an
   anomaly with its context. *)

open Session

(* ------------------------------------------------------------------ *)
(* Forensics bundles                                                   *)
(* ------------------------------------------------------------------ *)

(* The metric series a bundle reports as a delta over the statement.
   Lookups by name are a few mutex-guarded hashtable probes — cheap
   enough to baseline at every statement start while the recorder is on,
   unlike a full Metrics.snapshot. *)
let forensics_counters =
  [
    "engine.statements"; "engine.errors"; "engine.timeout";
    "engine.cancelled"; "engine.resource_exhausted"; "executor.par.degraded";
    "history.regressions"; "wal.checkpoints"; "wal.repairs";
  ]

let forensics_gauges =
  [
    "wal.bytes"; "wal.records"; "wal.fsyncs"; "wal.epoch";
    "executor.spill.spills"; "executor.spill.runs"; "executor.spill.chunks";
    "executor.spill.rows"; "executor.spill.bytes";
    "executor.spill.fallbacks";
  ]

let forensics_snapshot t =
  List.map
    (fun n -> (n, float_of_int (Metrics.counter t.metrics n)))
    forensics_counters
  @ List.map
      (fun n -> (n, Option.value ~default:0. (Metrics.gauge t.metrics n)))
      forensics_gauges

let forensics_delta t =
  List.map
    (fun (n, v) ->
      let v0 =
        match List.assoc_opt n t.stmt.metrics0 with Some v0 -> v0 | None -> 0.
      in
      (n, Json.Float (v -. v0)))
    (forensics_snapshot t)

let spill_json t =
  Json.Obj
    (List.map (fun (name, v) -> (name, Json.Int v)) (spill_fields t.spill_counts))

let settings_json t =
  Json.Obj
    [
      ("parallel", Json.Int t.parallel_domains);
      ("parallel_threshold", Json.Int t.parallel_threshold);
      ("batch_rows", Json.Int t.batch_rows);
      ("timeout_ms", Json.Float t.statement_timeout_ms);
      ("row_limit", Json.Int t.row_limit);
      ("tuple_budget", Json.Int t.tuple_budget);
      ("spill", Json.Bool t.spill_on);
      ("wal_fsync", Json.Bool t.wal.Wal_log.fsync);
    ]

let gc_json () =
  let s = Gc.quick_stat () in
  Json.Obj
    [
      ("heap_words", Json.Int s.Gc.heap_words);
      ("minor_collections", Json.Int s.Gc.minor_collections);
      ("major_collections", Json.Int s.Gc.major_collections);
      ("compactions", Json.Int s.Gc.compactions);
    ]

let plan_json t ~fingerprint ~plan_hash ~est_rows =
  let nodes =
    if fingerprint = "" then []
    else
      List.filter
        (fun (pn : Profile.plan_node) -> pn.Profile.pn_fingerprint = fingerprint)
        (Profile.plan_nodes t.profile)
  in
  Json.Obj
    [
      ("plan_hash", Json.String plan_hash);
      ("est_rows", Json.Float est_rows);
      ( "nodes",
        Json.List
          (List.map
             (fun (pn : Profile.plan_node) ->
               Json.Obj
                 [
                   ("node", Json.Int pn.Profile.pn_node);
                   ("operator", Json.String pn.Profile.pn_operator);
                   ("est_rows", Json.Float pn.Profile.pn_est_rows);
                   ("act_rows", Json.Int pn.Profile.pn_act_rows);
                   ("self_ms", Json.Float pn.Profile.pn_self_ms);
                   ("loops", Json.Int pn.Profile.pn_loops);
                 ])
             nodes) );
    ]

let bundle_events_limit = 64

(* Snapshot one forensics bundle. Called with [obs_lock] held (statement
   finalize) or from the engine domain before any server starts (startup
   WAL replay) — both contexts where mutating the bundle store and the
   event log is safe. *)
let capture_bundle_unlocked t ~cls ~detail ~sql ~fingerprint ~plan_hash
    ~est_rows ~ms ~rows ~phases =
  Bundles.capture t.forensics ~cls ~detail ~sql ~fingerprint ~ms ~rows
    (fun () ->
      [
        ("plan", plan_json t ~fingerprint ~plan_hash ~est_rows);
        ("phases", Json.Obj (List.map (fun (n, d) -> (n, Json.Float d)) phases));
        ("metrics_delta", Json.Obj (forensics_delta t));
        ( "events",
          Json.List
            (List.map Recorder.event_to_json
               (Recorder.recent ~limit:bundle_events_limit t.recorder))
        );
        ("wal", wal_status_json t);
        ("spill", spill_json t);
        ("settings", settings_json t);
        ("gc", gc_json ());
      ])

(* A kill by the governor: timeout, cancel or resource exhaustion. *)
let governor_kill (e : Err.t) =
  match e.Err.kind with
  | Err.Timeout | Err.Cancelled | Err.Resource_exhausted -> true
  | _ -> false

(* Map a finished top-level statement to its anomaly class, if any. Typed
   failures win over a watchdog flag (errors never fold into the baseline
   anyway), which wins over a successful-but-degraded execution. *)
let statement_anomaly t result rg_opt =
  match result with
  | Error (e : Err.t) ->
    let cls =
      if governor_kill e then Err.kind_label e.Err.kind
      else if e.Err.kind = Err.Faulted then "fault"
      else "error"
    in
    Some (cls, Err.to_string e)
  | Ok _ -> (
    match rg_opt with
    | Some (rg : History.regression) ->
      Some
        ( "regression",
          Printf.sprintf "%.1fx over baseline %.2f ms (%s): %s"
            rg.History.rg_factor rg.History.rg_baseline_ms
            (History.cause_label rg.History.rg_cause)
            rg.History.rg_detail )
    | None -> (
      match t.stmt.degraded with
      | Some reason -> Some ("degraded", reason)
      | None -> None))

let strategy_names (report : Rewriter.report) =
  List.map
    (function
      | Rewriter.Agg_join -> "join"
      | Rewriter.Agg_lateral -> "lateral")
    report.Rewriter.agg_choices

let record_rewrite_metrics t (report : Rewriter.report) =
  List.iter
    (fun name -> Metrics.incr t.metrics ("rewriter.strategy." ^ name))
    (strategy_names report);
  List.iter
    (fun (rule, n) ->
      Metrics.incr t.metrics ~by:n ("rewriter.rule." ^ rule);
      (* also accumulate per-statement so perm_stat_statements attributes
         firings to the fingerprint of the statement that triggered them
         (including rewrites of statements nested under DML helpers) *)
      t.stmt.rules <- (rule, n) :: t.stmt.rules)
    report.Rewriter.rule_counts

let record_exec_stats t stats =
  List.iter
    (fun (ns : Executor.node_stats) ->
      Metrics.incr t.metrics ~by:ns.Executor.stat_rows
        ("executor.rows." ^ ns.Executor.stat_kind);
      Metrics.incr t.metrics ~by:ns.Executor.stat_invocations
        ("executor.invocations." ^ ns.Executor.stat_kind))
    (Executor.stats_entries stats);
  obs_locked t (fun () ->
      List.iter
        (fun (table, (ns : Executor.node_stats)) ->
          Profile.record_scan t.profile ~relation:table
            ~rows:ns.Executor.stat_rows)
        (Executor.scan_stats stats))

(* Planner estimates for every node of the executed plan, keyed by physical
   identity — the pre-order position doubles as the stable node id. *)
let plan_estimates t plan = Planner.node_estimates (stats t) plan

let estimate_of ests node =
  match List.find_opt (fun (n, _) -> n == node) ests with
  | Some (_, e) -> e
  | None -> 0.

(* Fold a finalized serial execution profile into the retained
   per-fingerprint plan-profile store behind perm_stat_plans. Helper nodes
   the executor synthesized (stat_id < 0) are skipped: they are not part
   of the optimized plan the ids describe. *)
let record_plan_profile t plan exec_stats =
  if t.stmt.fp <> "" then begin
    let ests = plan_estimates t plan in
    obs_locked t @@ fun () ->
    List.iter
      (fun (node, (ns : Executor.node_stats)) ->
        if ns.Executor.stat_id >= 0 then begin
          Profile.record_plan_node t.profile ~fingerprint:t.stmt.fp
            ~node:ns.Executor.stat_id
            ~operator:(Plan.operator_name node)
            ~est_rows:(estimate_of ests node)
            ~act_rows:ns.Executor.stat_rows
            ~self_ms:(ns.Executor.stat_self_s *. 1000.)
            ~loops:ns.Executor.stat_invocations
            ~peak_bytes:ns.Executor.stat_peak_bytes;
          Recorder.record t.recorder
            (Recorder.Plan_node
               {
                 fingerprint = t.stmt.fp;
                 node = ns.Executor.stat_id;
                 operator = Plan.operator_name node;
                 est_rows = estimate_of ests node;
                 act_rows = ns.Executor.stat_rows;
               })
        end)
      (Executor.stats_nodes exec_stats)
  end

(* The top-level statement's first executed plan defines its plan hash and
   estimate total for the telemetry history; nested executions (DML
   helpers re-entering run_query) keep the enclosing statement's. The
   execution mode is part of the hash: the parallel verdict flipping for
   the same statement shape is a plan change the watchdog should see. *)
let note_plan t optimized ~parallel =
  if t.stmt.plan_hash = "" then begin
    let mode = if parallel then "parallel" else "serial" in
    t.stmt.plan_hash <- Executor.plan_hash ~mode optimized;
    t.stmt.est_rows <- Planner.estimate_total (stats t) optimized
  end

let record_par_report t (r : Executor.Par.report) =
  obs_locked t @@ fun () ->
  Metrics.incr t.metrics "executor.par.queries";
  Metrics.incr t.metrics ~by:r.Executor.Par.par_morsels "executor.par.morsels";
  Metrics.set_gauge t.metrics "executor.par.domains"
    (float_of_int r.Executor.Par.par_domains);
  if r.Executor.Par.par_morsels > 0 then
    Metrics.set_gauge t.metrics "executor.par.utilization"
      (float_of_int r.Executor.Par.par_participants
      /. float_of_int r.Executor.Par.par_domains);
  (* per-worker accounting: busy from the pool's slice timings, idle as the
     rest of the batch wall time, skew as busy over the batch mean *)
  let rp = r.Executor.Par.par_pool in
  let workers = rp.Pool.rp_workers in
  let nw = Array.length workers in
  if nw > 0 then begin
    let total_busy =
      Array.fold_left (fun acc w -> acc +. w.Pool.ws_busy_s) 0. workers
    in
    let mean_busy = total_busy /. float_of_int nw in
    let max_skew = ref 1. in
    Array.iteri
      (fun i (w : Pool.worker_stat) ->
        let skew =
          if mean_busy > 0. then w.Pool.ws_busy_s /. mean_busy else 1.
        in
        if skew > !max_skew then max_skew := skew;
        Profile.record_worker t.profile ~domain:i ~morsels:w.Pool.ws_morsels
          ~busy_ms:(w.Pool.ws_busy_s *. 1000.)
          ~idle_ms:
            (Float.max 0. (rp.Pool.rp_wall_s -. w.Pool.ws_busy_s) *. 1000.)
          ~rows:w.Pool.ws_rows ~skew)
      workers;
    Metrics.set_gauge t.metrics "executor.par.skew" !max_skew;
    if !max_skew > t.stmt.skew then t.stmt.skew <- !max_skew;
    (* the statement root carries skew/utilization so the trace export
       shows imbalance without drilling into lanes *)
    match t.current_span with
    | None -> ()
    | Some root ->
      Trace.annotate root "executor.par.skew"
        (Printf.sprintf "%.2f" !max_skew);
      Trace.annotate root "executor.par.utilization"
        (Printf.sprintf "%.2f"
           (float_of_int r.Executor.Par.par_participants
           /. float_of_int (max 1 r.Executor.Par.par_domains)))
  end

(* The fan-out's shape annotates the "parallel" span, and per-morsel
   slices and per-worker summaries attach under it on each worker's lane,
   so the Chrome trace export renders one swimlane per domain. The
   summary slice spans the whole batch even for idle workers, guaranteeing
   every domain's lane exists in the export. *)
let attach_worker_lanes psp (r : Executor.Par.report) =
  List.iter
    (fun (k, v) -> Trace.annotate psp k (string_of_int v))
    [
      ("domains", r.Executor.Par.par_domains);
      ("morsels", r.Executor.Par.par_morsels);
      ("participants", r.Executor.Par.par_participants);
    ];
  let rp = r.Executor.Par.par_pool in
  Array.iteri
    (fun i (w : Pool.worker_stat) ->
      ignore
        (Trace.add_slice psp
           (Printf.sprintf "worker %d" i)
           ~start_s:rp.Pool.rp_start_s ~dur_s:rp.Pool.rp_wall_s
           ~lane:(Trace.worker_lane i)
           [
             ("morsels", string_of_int w.Pool.ws_morsels);
             ("rows", string_of_int w.Pool.ws_rows);
             ("busy_ms", Printf.sprintf "%.3f" (w.Pool.ws_busy_s *. 1000.));
           ]))
    rp.Pool.rp_workers;
  List.iter
    (fun (s : Pool.task_slice) ->
      ignore
        (Trace.add_slice psp
           (Printf.sprintf "morsel %d" s.Pool.ts_task)
           ~start_s:s.Pool.ts_start ~dur_s:s.Pool.ts_dur_s
           ~lane:(Trace.worker_lane s.Pool.ts_worker)
           [ ("rows", string_of_int s.Pool.ts_rows) ]))
    rp.Pool.rp_slices

let statement_uses_provenance (st : Ast.statement) =
  match st with
  | Ast.St_query q
  | Ast.St_explain q
  | Ast.St_explain_analyze q
  | Ast.St_create_table_as (_, q)
  | Ast.St_create_view (_, q)
  | Ast.St_insert_select (_, q) -> Ast.query_uses_provenance q
  | Ast.St_store_provenance _ -> true  (* eager provenance by definition *)
  | _ -> false

let outcome_rows = function
  | Ok (Rows rs) -> List.length rs.rows
  | Ok (Affected n) -> n
  | Ok (Analyzed ea) -> ea.ea_rows
  | Ok (Message _ | Explained _) | Error _ -> 0

(* One finished top-level statement folds into the history. Returns the
   watchdog's verdict so the caller can fold a flagged regression into the
   statement's anomaly classification. *)
let record_statement_stats t sql ~provenance ~ms ~phases ~rows root result =
  let fingerprint = t.stmt.fp in
  let rg_opt =
    History.record t.history ~fingerprint ~sql ~provenance
      ~ts:(Trace.start_s root) ~plan_hash:t.stmt.plan_hash ~ms ~rows
      ~est_rows:t.stmt.est_rows ~skew:t.stmt.skew
      ~error:(Result.is_error result) ~phases ~rules:(List.rev t.stmt.rules)
  in
  (match rg_opt with
  | Some rg ->
    Metrics.incr t.metrics "history.regressions";
    Metrics.incr t.metrics
      ("history.cause." ^ History.cause_label rg.History.rg_cause);
    Recorder.record t.recorder
      (Recorder.Watchdog
         {
           fingerprint;
           factor = rg.History.rg_factor;
           cause = History.cause_label rg.History.rg_cause;
         })
  | None -> ());
  let now = Trace.now () in
  if History.sample_due t.history ~now then begin
    (* tracked series may include gc.* gauges; refresh them only when a
       sample is actually due. The history self-accounting gauges ride
       the same cadence: both need a scan over the retained rings, which
       would dominate sub-millisecond statements if taken per statement *)
    Metrics.set_gc_gauges t.metrics;
    refresh_loss_gauges_unlocked t;
    History.sample t.history t.metrics ~now
  end;
  rg_opt

(* The statement's one [stmt_finish] event goes into the flight recorder
   and, when a slow-query sink is open and the statement took at least its
   threshold, out to the sink as one JSON line. A failed write (disk full)
   is counted, never raised: the statement's outcome stands. *)
let record_finish t finish ~ms =
  match t.slow_log with
  | Some (_, oc) when ms >= t.slow_log_min_ms -> (
    let ev = Recorder.record_event t.recorder finish in
    try
      output_string oc (Json.to_string (Recorder.event_to_json ev));
      output_char oc '\n';
      flush oc
    with Sys_error _ -> Metrics.incr t.metrics "engine.slow_log.errors")
  | _ -> Recorder.record t.recorder finish
