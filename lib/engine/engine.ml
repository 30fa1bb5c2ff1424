module Ast = Perm_sql.Ast
module Parser = Perm_sql.Parser
module Printer = Perm_sql.Printer
module Plan = Perm_algebra.Plan
module Attr = Perm_algebra.Attr
module Pretty = Perm_algebra.Pretty
module Analyzer = Perm_analyzer.Analyzer
module Rewriter = Perm_provenance.Rewriter
module Planner = Perm_planner.Planner
module Executor = Perm_executor.Executor
module Pool = Perm_executor.Pool
module Catalog = Perm_catalog.Catalog
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column
module Store = Perm_storage.Store
module Heap = Perm_storage.Heap
module Tuple = Perm_storage.Tuple
module Spill = Perm_storage.Spill
module Wal = Perm_wal
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Metrics = Perm_obs.Metrics
module Err = Perm_err
module Token = Perm_err.Token
module Trace = Perm_obs.Trace
module Json = Perm_obs.Json
module Profile = Perm_obs.Profile
module History = Perm_obs.History
module Progress = Perm_executor.Progress
module Fingerprint = Perm_sql.Fingerprint
module Recorder = Perm_obs.Recorder
module Bundle_schema = Perm_obs.Bundle_schema

type agg_strategy_setting = Use_join | Use_lateral | Use_heuristic | Use_cost_based

(* Chaos-harness injection point: fires between the commit decision and the
   snapshot drop, so an injected commit fault leaves the transaction open
   and the snapshot untouched. *)
let fp_commit = Perm_fault.point "engine.commit"

type snapshot = {
  snap_cat : Catalog.t;
  snap_store : Store.t;
  snap_prov : (string, string list) Hashtbl.t;
}

(* A virtual system relation's row source: the catalog holds the schema,
   the engine holds the closure that materializes rows at scan time. The
   estimate backs the planner's cardinality statistics without paying for
   materialization during optimization. *)
type virtual_provider = {
  vp_rows : unit -> Tuple.t list;
  vp_estimate : unit -> int;
}

(* Live progress of the most recent top-level statement. The record is
   created when the statement starts and kept after it finishes (with
   [lv_running] flipped off), so a sampler can still see where a killed
   statement died. All hot counters live behind atomics in [Progress.t];
   the other fields are written once by the engine domain. *)
type live = {
  lv_sql : string;
  lv_start_s : float;
  lv_progress : Progress.t;
  mutable lv_running : bool;
  mutable lv_end_s : float option;
}

(* One captured anomaly: the self-contained forensics document plus the
   identity fields the perm_stat_anomalies view and the \debug listing
   surface without rendering the whole JSON. *)
type bundle = {
  bu_id : int;
  bu_ts : float;
  bu_class : string;
  bu_fingerprint : string;
  bu_sql : string;
  bu_detail : string;
  bu_doc : Perm_obs.Json.t;
      (* rendered at capture, recorder tail included, so a bundle never
         keeps a statement's span tree alive *)
}

(* What the GC alarm last saw. A cell of its own, so the alarm closure —
   a process-global root until [Gc.delete_alarm] — does not keep an
   engine that was never closed alive. *)
type gc_cell = {
  mutable gc_pending : bool;
      (* a major cycle ended since the last statement; the alarm only
         flips this flag (recording from inside the alarm would mutate
         the ring on every [Gc.compact], which breaks benchmark harnesses
         that compact until the live-word count stabilizes) *)
  mutable gc_heap_words : int;  (* heap size at that major cycle *)
  mutable gc_major_collections : int;  (* major count at that cycle *)
}

type spill_counts = {
  sc_spills : int;
  sc_runs : int;
  sc_chunks : int;
  sc_rows : int;
  sc_bytes : int;
  sc_fallbacks : int;
}

let no_spills =
  {
    sc_spills = 0;
    sc_runs = 0;
    sc_chunks = 0;
    sc_rows = 0;
    sc_bytes = 0;
    sc_fallbacks = 0;
  }

type t = {
  mutable cat : Catalog.t;
  mutable store : Store.t;
  mutable prov_tables : (string, string list) Hashtbl.t;
  mutable agg_strategy : agg_strategy_setting;
  mutable planner_config : Planner.config;
  mutable report : Rewriter.report option;
  mutable snapshot : snapshot option;  (* Some while inside a transaction *)
  metrics : Metrics.t;
  mutable instrument : bool;  (* per-operator executor stats (costly) *)
  mutable current_span : Trace.span option;  (* root of the running statement *)
  mutable last_trace : Trace.span option;
  virtuals : (string, virtual_provider) Hashtbl.t;
  mutable slow_log : (string * out_channel) option;  (* \log sink *)
  mutable slow_log_min_ms : float;  (* sink threshold; also /events' *)
  history : History.t;
      (* perm_stat_statements / _history / _regressions / _metrics_history *)
  mutable stmt_rules : (string * int) list;
      (* rewrite-rule firings of the statement currently running, so the
         history attributes rules to the right fingerprint *)
  mutable parallel_domains : int;  (* 0 = parallel execution off *)
  mutable parallel_threshold : int;  (* min driving-table rows to fan out *)
  mutable batch_rows : int;  (* rows per executor batch *)
  mutable pool : Pool.t option;  (* lazily created, reused *)
  mutable statement_timeout_ms : float;  (* governor: 0 = off *)
  mutable row_limit : int;  (* governor: 0 = off *)
  mutable tuple_budget : int;  (* governor: 0 = off *)
  mutable token : Token.t;  (* cancellation token of the running statement *)
  profile : Profile.t;  (* perm_stat_plans / _relations / _workers *)
  mutable stmt_fp : string;  (* fingerprint of the running top-level stmt *)
  mutable stmt_plan_hash : string;
      (* structural hash of the top-level statement's first executed plan;
         "" until a plan runs (DDL, utility statements) *)
  mutable stmt_est_rows : float;  (* planner total estimate of that plan *)
  mutable stmt_skew : float;  (* max worker skew seen by the statement *)
  mutable live : live option;  (* progress of the last top-level statement *)
  mutable wal : Wal.t option;  (* durability log; None = in-memory only *)
  mutable wal_fsync : bool;  (* fsync on commit (default); off for benches *)
  mutable wal_dirty : bool;
      (* an append/fsync failed: the log trails the heaps. Logging stops
         and the next top-level statement rebuilds the log from a
         checkpoint before running. *)
  mutable wal_begun : bool;  (* a Begin frame is open in the log *)
  mutable spill_on : bool;  (* graceful spill instead of budget kills *)
  mutable spill_dir : string;  (* where spill temp files go *)
  mutable spill_counts : spill_counts;
      (* replaced whole by [note_spill], the one writer, so another
         domain always reads a consistent snapshot *)
  obs_lock : Mutex.t;
      (* Serializes engine-side telemetry-store *writes* (Profile,
         History, bundles) against observability-plane *reads*
         from other domains ([locked], [virtual_relation], ...). The
         engine domain is the only writer and never needs the lock to read
         its own stores, so query execution itself stays lock-free; the
         engine takes the lock only at statement-finalize/record points,
         for microseconds per statement. Not reentrant. *)
  recorder : Recorder.t;  (* the always-on flight recorder ring *)
  mutable bundles : bundle list;  (* forensics bundles, newest first *)
  mutable bundle_cap : int;  (* retained bundle bound *)
  mutable bundle_seq : int;  (* next bundle id (session-monotone) *)
  mutable bundle_dir : string option;  (* optional on-disk mirror *)
  mutable stmt_degraded : string option;
      (* the running top-level statement fell from the parallel to the
         serial path on a worker error — an anomaly even when the serial
         retry then succeeds *)
  mutable stmt_metrics0 : (string * float) list;
      (* forensics-tracked metric values at top-level statement start, so
         a bundle can report the delta the statement caused *)
  gc_seen : gc_cell;  (* written by the GC alarm, read per statement *)
  mutable on_close : (unit -> unit) list;  (* run (LIFO) by [close] *)
}

(* OCaml's [Mutex] is not reentrant and 5.1 has no [Mutex.protect]. *)
let obs_locked t f =
  Mutex.lock t.obs_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_lock) f

(* ------------------------------------------------------------------ *)
(* Virtual system relations                                            *)
(* ------------------------------------------------------------------ *)

let fnum f = Value.Float f
let fnum_opt f = if Float.is_nan f then Value.Null else Value.Float f

let statement_row (st : History.statement) =
  [|
    Value.Text st.History.st_fingerprint;
    Value.Text st.History.st_query;
    Value.Int st.History.st_calls;
    Value.Int st.History.st_errors;
    Value.Int st.History.st_rows;
    fnum st.History.st_total_ms;
    fnum (History.mean_ms st);
    fnum st.History.st_max_ms;
    fnum (History.phase_ms st "analyze");
    fnum (History.phase_ms st "rewrite");
    fnum (History.phase_ms st "optimize");
    fnum (History.phase_ms st "execute");
    Value.Int (History.rule_firings st);
    Value.Text
      (String.concat ","
         (List.map
            (fun (rule, n) -> Printf.sprintf "%s=%d" rule n)
            (List.sort compare st.History.st_rule_counts)));
    Value.Bool st.History.st_provenance;
  |]

let relation_row (rel : Profile.relation) =
  [|
    Value.Text rel.Profile.rel_name;
    Value.Int rel.Profile.rel_scans;
    Value.Int rel.Profile.rel_rows;
  |]

let plan_row (pn : Profile.plan_node) =
  [|
    Value.Text pn.Profile.pn_fingerprint;
    Value.Int pn.Profile.pn_node;
    Value.Text pn.Profile.pn_operator;
    fnum pn.Profile.pn_est_rows;
    Value.Int pn.Profile.pn_act_rows;
    fnum pn.Profile.pn_self_ms;
    Value.Int pn.Profile.pn_loops;
    Value.Int pn.Profile.pn_peak_bytes;
  |]

let worker_row (wk : Profile.worker) =
  [|
    Value.Int wk.Profile.wk_domain;
    Value.Int wk.Profile.wk_morsels;
    fnum wk.Profile.wk_busy_ms;
    fnum wk.Profile.wk_idle_ms;
    Value.Int wk.Profile.wk_rows;
    fnum wk.Profile.wk_max_skew;
  |]

let metric_rows metrics =
  Metrics.fold metrics
    (fun acc name m ->
      let row =
        match m with
        | Metrics.Counter { c } ->
          [|
            Value.Text name; Value.Text "counter"; fnum (float_of_int c);
            Value.Null; Value.Null; Value.Null; Value.Null; Value.Null;
            Value.Null; Value.Null;
          |]
        | Metrics.Gauge { g } ->
          [|
            Value.Text name; Value.Text "gauge"; fnum g; Value.Null;
            Value.Null; Value.Null; Value.Null; Value.Null; Value.Null;
            Value.Null;
          |]
        | Metrics.Histogram h ->
          if h.Metrics.h_count = 0 then
            [|
              Value.Text name; Value.Text "histogram"; Value.Null;
              Value.Int 0; Value.Null; Value.Null; Value.Null; Value.Null;
              Value.Null; Value.Null;
            |]
          else
            [|
              Value.Text name; Value.Text "histogram"; Value.Null;
              Value.Int h.Metrics.h_count; fnum h.Metrics.h_sum;
              fnum h.Metrics.h_min; fnum h.Metrics.h_max;
              fnum_opt (Metrics.quantile h 0.50);
              fnum_opt (Metrics.quantile h 0.95);
              fnum_opt (Metrics.quantile h 0.99);
            |]
      in
      row :: acc)
    []
  |> List.rev

let history_row (r : History.exec_record) =
  let ph name =
    match List.assoc_opt name r.History.ex_phase_ms with
    | Some v -> fnum v
    | None -> Value.Null
  in
  [|
    Value.Text r.History.ex_fingerprint;
    Value.Int r.History.ex_seq;
    fnum r.History.ex_ts;
    Value.Text r.History.ex_plan_hash;
    fnum r.History.ex_ms;
    Value.Int r.History.ex_rows;
    fnum r.History.ex_est_rows;
    fnum r.History.ex_skew;
    Value.Bool r.History.ex_error;
    ph "analyze";
    ph "rewrite";
    ph "optimize";
    ph "execute";
  |]

let regression_row (r : History.regression) =
  [|
    Value.Text r.History.rg_fingerprint;
    Value.Int r.History.rg_seq;
    fnum r.History.rg_ts;
    fnum r.History.rg_ms;
    fnum r.History.rg_baseline_ms;
    fnum r.History.rg_factor;
    Value.Text (History.cause_label r.History.rg_cause);
    Value.Text r.History.rg_detail;
    Value.Text r.History.rg_plan_hash;
  |]

let metric_sample_row (s : History.metric_sample) =
  [|
    Value.Text s.History.sm_name;
    Value.Int s.History.sm_seq;
    fnum s.History.sm_ts;
    fnum s.History.sm_value;
  |]

let anomaly_row (b : bundle) =
  [|
    Value.Int b.bu_id;
    fnum b.bu_ts;
    Value.Text b.bu_class;
    Value.Text b.bu_fingerprint;
    Value.Text b.bu_detail;
    Value.Text b.bu_sql;
  |]

let virtual_schemas =
  let col = Column.make in
  [
    ( "perm_stat_statements",
      [
        col "fingerprint" Dtype.Text; col "query" Dtype.Text;
        col "calls" Dtype.Int; col "errors" Dtype.Int; col "rows" Dtype.Int;
        col "total_ms" Dtype.Float; col "mean_ms" Dtype.Float;
        col "max_ms" Dtype.Float; col "analyze_ms" Dtype.Float;
        col "rewrite_ms" Dtype.Float; col "optimize_ms" Dtype.Float;
        col "execute_ms" Dtype.Float; col "rule_firings" Dtype.Int;
        col "rules" Dtype.Text; col "provenance" Dtype.Bool;
      ] );
    ( "perm_stat_relations",
      [ col "relation" Dtype.Text; col "scans" Dtype.Int; col "rows" Dtype.Int ] );
    ( "perm_metrics",
      [
        col "name" Dtype.Text; col "kind" Dtype.Text; col "value" Dtype.Float;
        col "count" Dtype.Int; col "sum" Dtype.Float; col "min" Dtype.Float;
        col "max" Dtype.Float; col "p50" Dtype.Float; col "p95" Dtype.Float;
        col "p99" Dtype.Float;
      ] );
    ( "perm_stat_plans",
      [
        col "fingerprint" Dtype.Text; col "node_id" Dtype.Int;
        col "operator" Dtype.Text; col "est_rows" Dtype.Float;
        col "act_rows" Dtype.Int; col "self_ms" Dtype.Float;
        col "loops" Dtype.Int; col "peak_bytes" Dtype.Int;
      ] );
    ( "perm_stat_workers",
      [
        col "domain" Dtype.Int; col "morsels" Dtype.Int;
        col "busy_ms" Dtype.Float; col "idle_ms" Dtype.Float;
        col "rows" Dtype.Int; col "max_skew" Dtype.Float;
      ] );
    ( "perm_stat_history",
      [
        col "fingerprint" Dtype.Text; col "seq" Dtype.Int;
        col "ts" Dtype.Float; col "plan_hash" Dtype.Text;
        col "total_ms" Dtype.Float; col "rows" Dtype.Int;
        col "est_rows" Dtype.Float; col "skew" Dtype.Float;
        col "error" Dtype.Bool; col "analyze_ms" Dtype.Float;
        col "rewrite_ms" Dtype.Float; col "optimize_ms" Dtype.Float;
        col "execute_ms" Dtype.Float;
      ] );
    ( "perm_stat_regressions",
      [
        col "fingerprint" Dtype.Text; col "seq" Dtype.Int;
        col "ts" Dtype.Float; col "total_ms" Dtype.Float;
        col "baseline_ms" Dtype.Float; col "factor" Dtype.Float;
        col "cause" Dtype.Text; col "detail" Dtype.Text;
        col "plan_hash" Dtype.Text;
      ] );
    ( "perm_metrics_history",
      [
        col "name" Dtype.Text; col "seq" Dtype.Int; col "ts" Dtype.Float;
        col "value" Dtype.Float;
      ] );
    ( "perm_stat_anomalies",
      [
        col "id" Dtype.Int; col "ts" Dtype.Float; col "class" Dtype.Text;
        col "fingerprint" Dtype.Text; col "detail" Dtype.Text;
        col "sql" Dtype.Text;
      ] );
  ]

(* Telemetry-loss accounting as gauges, so /metrics (and perm_metrics) can
   alert on the observability plane itself shedding data: flight-recorder
   ring drops, history ring wrap-around, and LRU/byte-budget fingerprint
   eviction. Unlocked: called either from the engine domain (vp_rows
   during a scan) or from an observability reader already holding
   [obs_lock] — both contexts where taking the lock again would be wrong
   (it is not reentrant). *)
let refresh_loss_gauges_unlocked t =
  Metrics.set_gauge t.metrics "recorder.recorded"
    (float_of_int (Recorder.recorded t.recorder));
  Metrics.set_gauge t.metrics "recorder.dropped"
    (float_of_int (Recorder.dropped t.recorder));
  Metrics.set_gauge t.metrics "history.dropped"
    (float_of_int (History.dropped t.history));
  Metrics.set_gauge t.metrics "history.evicted"
    (float_of_int (History.evicted t.history));
  Metrics.set_gauge t.metrics "history.bytes"
    (float_of_int (History.approx_bytes t.history))

let register_virtuals t =
  List.iter
    (fun (name, cols) ->
      match Catalog.add_virtual t.cat name (Schema.make_exn cols) with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("registering virtual relation: " ^ msg))
    virtual_schemas;
  let add name provider = Hashtbl.replace t.virtuals name provider in
  add "perm_stat_statements"
    {
      vp_rows =
        (fun () -> List.map statement_row (History.statements t.history));
      vp_estimate = (fun () -> List.length (History.fingerprints t.history));
    };
  add "perm_stat_relations"
    {
      vp_rows = (fun () -> List.map relation_row (Profile.relations t.profile));
      vp_estimate = (fun () -> List.length (Profile.relations t.profile));
    };
  add "perm_metrics"
    {
      vp_rows =
        (fun () ->
          (* GC and telemetry-loss gauges refresh lazily, when somebody
             actually looks *)
          Metrics.set_gc_gauges t.metrics;
          refresh_loss_gauges_unlocked t;
          metric_rows t.metrics);
      vp_estimate = (fun () -> List.length (Metrics.names t.metrics));
    };
  add "perm_stat_plans"
    {
      vp_rows = (fun () -> List.map plan_row (Profile.plan_nodes t.profile));
      vp_estimate = (fun () -> List.length (Profile.plan_nodes t.profile));
    };
  add "perm_stat_workers"
    {
      vp_rows = (fun () -> List.map worker_row (Profile.workers t.profile));
      vp_estimate = (fun () -> List.length (Profile.workers t.profile));
    };
  add "perm_stat_history"
    {
      vp_rows = (fun () -> List.map history_row (History.executions t.history));
      vp_estimate =
        (fun () -> List.length (History.executions t.history));
    };
  add "perm_stat_regressions"
    {
      vp_rows =
        (fun () -> List.map regression_row (History.regressions t.history));
      vp_estimate = (fun () -> List.length (History.regressions t.history));
    };
  add "perm_metrics_history"
    {
      vp_rows =
        (fun () ->
          List.map metric_sample_row (History.metric_samples t.history));
      vp_estimate = (fun () -> List.length (History.metric_samples t.history));
    };
  add "perm_stat_anomalies"
    {
      (* oldest first, like the other telemetry views *)
      vp_rows = (fun () -> List.rev_map anomaly_row t.bundles);
      vp_estimate = (fun () -> List.length t.bundles);
    }

(* The executor.spill.* gauges mirror the engine's own spill counts.
   They are published (zeros included) at create, so dashboards and the
   prom_lint-validated /metrics scrape can alert on them without waiting
   for a first spill, and then once per spill event. *)
let spill_fields c =
  [
    ("spills", c.sc_spills);
    ("runs", c.sc_runs);
    ("chunks", c.sc_chunks);
    ("rows", c.sc_rows);
    ("bytes", c.sc_bytes);
    ("fallbacks", c.sc_fallbacks);
  ]

let publish_spill_counts t c =
  t.spill_counts <- c;
  List.iter
    (fun (name, v) ->
      Metrics.set_gauge t.metrics ("executor.spill." ^ name) (float_of_int v))
    (spill_fields c)

(* Every spill event of the engine's statements lands here, on the domain
   that runs the statement: it is counted, and its milestones go to the
   engine's own flight recorder as they happen. *)
let note_spill t (ev : Spill.event) =
  let c = t.spill_counts in
  let milestone kind detail =
    Recorder.record t.recorder (Recorder.Spill { kind; detail })
  in
  publish_spill_counts t
    (match ev with
    | Spill.Spilled ->
      milestone "spill" "";
      { c with sc_spills = c.sc_spills + 1 }
    | Spill.Run ->
      milestone "run" "";
      { c with sc_runs = c.sc_runs + 1 }
    | Spill.Chunk ->
      milestone "chunk" "";
      { c with sc_chunks = c.sc_chunks + 1 }
    | Spill.Fallback reason ->
      milestone "fallback" reason;
      { c with sc_fallbacks = c.sc_fallbacks + 1 }
    | Spill.Written { rows; bytes } ->
      { c with sc_rows = c.sc_rows + rows; sc_bytes = c.sc_bytes + bytes })

let create () =
  let t =
    {
      cat = Catalog.create ();
      store = Store.create ();
      prov_tables = Hashtbl.create 8;
      agg_strategy = Use_heuristic;
      planner_config = Planner.default_config;
      report = None;
      snapshot = None;
      metrics = Metrics.create ();
      instrument = false;
      current_span = None;
      last_trace = None;
      virtuals = Hashtbl.create 8;
      slow_log = None;
      slow_log_min_ms = 0.;
      history = History.create ();
      stmt_rules = [];
      parallel_domains = 0;
      parallel_threshold = Executor.default_parallel_threshold;
      batch_rows =
        (match Sys.getenv_opt "PERM_BATCH_ROWS" with
        | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n > 0 -> n
          | _ -> Executor.default_batch_rows)
        | None -> Executor.default_batch_rows);
      pool = None;
      statement_timeout_ms = 0.;
      row_limit = 0;
      tuple_budget = 0;
      token = Token.none;
      profile = Profile.create ();
      stmt_fp = "";
      stmt_plan_hash = "";
      stmt_est_rows = 0.;
      stmt_skew = 1.;
      live = None;
      wal = None;
      wal_fsync = true;
      wal_dirty = false;
      wal_begun = false;
      spill_on = true;
      spill_dir = Filename.get_temp_dir_name ();
      spill_counts = no_spills;
      obs_lock = Mutex.create ();
      recorder = Recorder.create ();
      bundles = [];
      bundle_cap = 32;
      bundle_seq = 1;
      bundle_dir = None;
      stmt_degraded = None;
      stmt_metrics0 = [];
      gc_seen =
        { gc_pending = false; gc_heap_words = 0; gc_major_collections = 0 };
      on_close = [];
    }
  in
  Perm_fault.init_from_env ();
  register_virtuals t;
  (* GC major slices land in the flight recorder. The alarm fires at the
     end of major cycles on this domain, but it must not touch the ring
     itself: evicting a ring slot from inside the alarm changes the live
     heap on every collection, so a harness that compacts repeatedly
     waiting for the live-word count to settle (Bechamel does) would
     never converge. The alarm only stashes the stats into unboxed
     fields; the next statement emits the event. *)
  let cell = t.gc_seen in
  let alarm =
    Gc.create_alarm (fun () ->
        let s = Gc.quick_stat () in
        cell.gc_heap_words <- s.Gc.heap_words;
        cell.gc_major_collections <- s.Gc.major_collections;
        cell.gc_pending <- true)
  in
  t.on_close <- (fun () -> Gc.delete_alarm alarm) :: t.on_close;
  publish_spill_counts t no_spills;
  t

type result_set = { columns : string list; rows : Tuple.t list }

type explain = {
  input_sql : string;
  original_tree : string;
  rewritten_tree : string;
  optimized_tree : string;
  rewritten_sql : string;
  agg_strategies : string list;
}

type explain_analyze = {
  ea_sql : string;
  ea_tree : string;  (** optimized tree annotated with actual rows/time *)
  ea_phases : (string * float) list;  (** phase name, milliseconds *)
  ea_rows : int;
  ea_total_ms : float;
  ea_strategies : string list;
}

type outcome =
  | Rows of result_set
  | Affected of int
  | Message of string
  | Explained of explain
  | Analyzed of explain_analyze

let catalog t = t.cat

let stats t : Planner.stats =
  {
    Planner.table_rows =
      (fun name ->
        match Store.find t.store name with
        | Some heap -> Heap.row_count heap
        | None -> (
          match Hashtbl.find_opt t.virtuals (String.lowercase_ascii name) with
          | Some vp -> vp.vp_estimate ()
          | None -> 0));
    Planner.table_distinct =
      (fun name col ->
        match Store.find t.store name, Catalog.find_table t.cat name with
        | Some heap, Some def -> (
          match Schema.find def.Catalog.table_schema col with
          | Some (pos, _) -> max 1 (Heap.distinct_estimate heap pos)
          | None -> 1)
        | _ -> 1);
    Planner.has_index =
      (fun table column -> Catalog.has_index t.cat ~table ~column);
  }

let rewriter_config t : Rewriter.config =
  {
    Rewriter.agg_mode =
      (match t.agg_strategy with
      | Use_join -> Rewriter.Fixed Rewriter.Agg_join
      | Use_lateral -> Rewriter.Fixed Rewriter.Agg_lateral
      | Use_heuristic -> Rewriter.Heuristic
      | Use_cost_based ->
        let s = stats t in
        Rewriter.Cost_based (fun plan -> Planner.cost s plan));
  }

let set_agg_strategy t s = t.agg_strategy <- s
let set_optimizer_config t c = t.planner_config <- c

(* ------------------------------------------------------------------ *)
(* Parallel execution settings                                          *)
(* ------------------------------------------------------------------ *)

type parallel_setting = Par_off | Par_on | Par_domains of int

let shutdown_pool t =
  match t.pool with
  | Some pool ->
    Pool.shutdown pool;
    t.pool <- None
  | None -> ()

(* Changing the domain count tears down the pool; the next parallel query
   recreates it at the new size. *)
let set_parallel t setting =
  let domains =
    match setting with
    | Par_off -> 0
    | Par_on -> max 1 (min 8 (Domain.recommended_domain_count ()))
    | Par_domains n -> max 0 (min 64 n)
  in
  if domains <> t.parallel_domains then begin
    shutdown_pool t;
    t.parallel_domains <- domains
  end

let parallel_domains t = t.parallel_domains
let set_parallel_threshold t n = t.parallel_threshold <- max 0 n
let parallel_threshold t = t.parallel_threshold
let set_batch_rows t n = t.batch_rows <- max 1 n
let batch_rows t = t.batch_rows
let pool_size t = match t.pool with Some p -> Pool.size p | None -> 0

(* ------------------------------------------------------------------ *)
(* Resource governor settings                                          *)
(* ------------------------------------------------------------------ *)

let set_statement_timeout t ms = t.statement_timeout_ms <- Float.max 0. ms
let statement_timeout t = t.statement_timeout_ms
let set_row_limit t n = t.row_limit <- max 0 n
let row_limit t = t.row_limit
let set_tuple_budget t n = t.tuple_budget <- max 0 n
let tuple_budget t = t.tuple_budget
let cancel t reason = Token.cancel t.token reason
let set_spill t b = t.spill_on <- b
let spill_enabled t = t.spill_on
let set_spill_dir t dir = t.spill_dir <- dir
let spill_dir t = t.spill_dir
let spill_counts t = t.spill_counts

let active_row_limit t = if t.row_limit > 0 then Some t.row_limit else None

(* With spill on (the default) a tuple budget is a degradation threshold
   for spillable shapes: the executor spills oversized sorts and join
   builds to temp files instead of the token raising [Resource_exhausted].
   Materializations no path can spill — hash-aggregate groups, DISTINCT
   and set-op tables — still enforce the budget as a hard ceiling at the
   materialization point, so the budget is never silently ignored. [\set
   spill off] restores the hard error everywhere. *)
let active_spill t =
  if t.spill_on && t.tuple_budget > 0 then
    Some
      { Spill.dir = t.spill_dir; threshold = t.tuple_budget; note = note_spill t }
  else None

(* A fresh token per top-level statement, armed from the session's governor
   settings. Always a real token (never [Token.none]) so {!cancel} from
   another domain has something to fire at; the executor only installs its
   per-operator guard when a limit is actually armed. The tuple budget
   arms the token only when spilling is off — otherwise it becomes the
   spill threshold, with the executor enforcing the same value as a hard
   ceiling on non-spillable materialized state. *)
let fresh_token t =
  Token.create
    ?timeout_ms:
      (if t.statement_timeout_ms > 0. then Some t.statement_timeout_ms
       else None)
    ?tuple_budget:
      (if t.tuple_budget > 0 && not t.spill_on then Some t.tuple_budget
       else None)
    ()

(* Lazily create the reusable worker pool on the first parallel query. *)
let pool t =
  match t.pool with
  | Some pool -> pool
  | None ->
    let pool = Pool.create t.parallel_domains in
    t.pool <- Some pool;
    pool

(* Run registered shutdown hooks (LIFO — the HTTP server drains before
   anything it depends on goes away), then release the worker domains. The
   engine remains usable afterwards: the next parallel query recreates the
   pool. Hooks run once; a hook that raises does not stop the others. *)
let at_close t f = t.on_close <- f :: t.on_close

let close t =
  let hooks = t.on_close in
  t.on_close <- [];
  List.iter (fun f -> try f () with _ -> ()) hooks;
  (match t.wal with
  | Some w ->
    Wal.close w;
    t.wal <- None
  | None -> ());
  shutdown_pool t
let last_report t = t.report
let provenance_columns t name =
  Hashtbl.find_opt t.prov_tables (String.lowercase_ascii name)

let provider t : Executor.provider =
  let heap_of table =
    match Store.find t.store table with
    | Some heap -> heap
    | None ->
      raise (Executor.Runtime_error (Printf.sprintf "table %S vanished" table))
  in
  {
    Executor.probe_index =
      (fun table col key ->
        let heap = heap_of table in
        (* the planner only emits Index_scan for catalogued indexes, but the
           index may have been created after the plan's statistics snapshot;
           build it on demand *)
        if not (Heap.has_index heap col) then Heap.create_index heap col;
        Heap.index_probe heap col key);
    Executor.scan_batches =
      (fun table rows ->
        match Store.find t.store table with
        | Some heap -> Heap.scan_batches heap ~rows
        | None -> (
          (* virtual system relation: materialize from the engine-owned
             provider at scan time, so the view reflects the accumulator
             as of this statement *)
          match Hashtbl.find_opt t.virtuals (String.lowercase_ascii table) with
          | Some vp ->
            let tuples = vp.vp_rows () in
            let arity =
              match tuples with t0 :: _ -> Array.length t0 | [] -> 0
            in
            Executor.batches_of_list ~arity ~batch_rows:rows tuples
          | None ->
            raise
              (Executor.Runtime_error
                 (Printf.sprintf "table %S vanished" table))));
  }

let ( let* ) = Result.bind

(* Kind-tagging shims for subsystem helpers that report plain strings:
   [sem] for semantic/catalog preconditions, [dat] for data-dependent
   storage and evaluation errors. *)
let sem r = Result.map_error Err.analyze r
let dat r = Result.map_error Err.runtime r

(* The engine boundary: everything the pipeline may legitimately raise —
   executor runtime errors, cooperative-cancellation kills, injected
   faults, resource blowups — is mapped into the typed taxonomy here, so
   [execute] keeps its result contract and never raises. *)
let capture t f =
  try f () with
  | Executor.Runtime_error msg -> Error (Err.runtime msg)
  | Err.Cancel (kind, msg) -> Error (Err.make kind msg)
  | Perm_fault.Injected p ->
    Metrics.incr t.metrics ("fault.injected." ^ p);
    Recorder.record t.recorder (Recorder.Fault { point = p });
    Error (Err.faulted (Printf.sprintf "fault injected at %s" p))
  | Stack_overflow -> Error (Err.resource "stack overflow")
  | Out_of_memory -> Error (Err.resource "out of memory")
  | e -> Error (Err.internal (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let metrics t = t.metrics
let set_instrumentation t on = t.instrument <- on
let instrumentation t = t.instrument
let last_trace t = t.last_trace
let statement_stats t = History.statements t.history

let reset_statement_stats t =
  obs_locked t (fun () ->
      Profile.reset t.profile;
      History.reset t.history)

let plan_profile t = Profile.plan_nodes t.profile
let worker_profile t = Profile.workers t.profile

(* Live progress of the current (or, once finished, most recent) top-level
   statement. Readable from any domain: the counters are atomics and the
   rest of the record is written before execution starts. *)
type progress = {
  pr_sql : string;
  pr_running : bool;
  pr_elapsed_ms : float;
  pr_rows : int;
  pr_morsels_done : int;
  pr_morsels_total : int;  (* 0 = serial execution *)
}

let progress t =
  match t.live with
  | None -> None
  | Some lv ->
    let sn = Progress.snapshot lv.lv_progress in
    let until =
      match lv.lv_end_s with Some e -> e | None -> Trace.now ()
    in
    Some
      {
        pr_sql = lv.lv_sql;
        pr_running = lv.lv_running;
        pr_elapsed_ms = (until -. lv.lv_start_s) *. 1000.;
        pr_rows = sn.Progress.sn_rows;
        pr_morsels_done = sn.Progress.sn_morsels_done;
        pr_morsels_total = sn.Progress.sn_morsels_total;
      }

(* The Progress.t handed to the executor, live only while its statement
   runs — nested statements feed the enclosing statement's counters. *)
let live_progress t =
  match t.live with
  | Some lv when lv.lv_running -> Some lv.lv_progress
  | _ -> None

(* The root spans of the [stmt_finish] events the recorder still holds.
   Each was frozen before it was recorded, so no lock is needed. *)
let trace_log t =
  List.filter_map
    (fun ev ->
      match ev.Recorder.ev_payload with
      | Recorder.Stmt_finish { span; _ } -> Some span
      | _ -> None)
    (Recorder.recent t.recorder)

(* The slow-query log: an engine-owned sink for the recorder's
   [stmt_finish] events. Touched only from the engine's own domain (the
   statement finalize and the CLI's \log), so it needs no lock. *)
let slow_log_close t =
  Option.iter (fun (_, oc) -> close_out oc) t.slow_log;
  t.slow_log <- None

let slow_log_open t path =
  slow_log_close t;
  t.slow_log <- Some (path, open_out path)

let set_slow_log_min_ms t ms = t.slow_log_min_ms <- Float.max 0. ms
let slow_log_min_ms t = t.slow_log_min_ms
let history t = t.history
let recorder t = t.recorder

type wal_status = {
  ws_dir : string;
  ws_bytes : int;
  ws_records : int;
  ws_last_lsn : int;
  ws_fsyncs : int;
  ws_fsync_on : bool;
  ws_dirty : bool;
  ws_epoch : int;
  ws_replay : Wal.replay;
}

let wal_status t =
  Option.map
    (fun w ->
      let s = Wal.status w in
      {
        ws_dir = s.Wal.st_dir;
        ws_bytes = s.Wal.st_bytes;
        ws_records = s.Wal.st_records;
        ws_last_lsn = s.Wal.st_last_lsn;
        ws_fsyncs = s.Wal.st_fsyncs;
        ws_fsync_on = t.wal_fsync;
        ws_dirty = t.wal_dirty;
        ws_epoch = s.Wal.st_epoch;
        ws_replay = s.Wal.st_replay;
      })
    t.wal

(* WAL health as gauges: size/records/fsyncs track log growth between
   checkpoints, the epoch shows checkpoint progression, and the replay
   family preserves what crash recovery found when the log was opened —
   rp_skipped and truncated bytes are the evidence of a mid-checkpoint or
   mid-commit crash, previously visible only in \wal status. *)
let refresh_wal_gauges t =
  (* always published, zeros included: a dashboard alerting on
     wal_replay_truncated_bytes > 0 must see the series exist before the
     first crash, and a WAL-less session reports a flat zero family *)
  let bytes, records, fsyncs, epoch, rp =
    match t.wal with
    | None -> (0, 0, 0, 0, Wal.no_replay)
    | Some w ->
      let s = Wal.status w in
      ( s.Wal.st_bytes,
        s.Wal.st_records,
        s.Wal.st_fsyncs,
        s.Wal.st_epoch,
        s.Wal.st_replay )
  in
  Metrics.set_gauge t.metrics "wal.bytes" (float_of_int bytes);
  Metrics.set_gauge t.metrics "wal.records" (float_of_int records);
  Metrics.set_gauge t.metrics "wal.fsyncs" (float_of_int fsyncs);
  Metrics.set_gauge t.metrics "wal.epoch" (float_of_int epoch);
  Metrics.set_gauge t.metrics "wal.replay.records"
    (float_of_int rp.Wal.rp_records);
  Metrics.set_gauge t.metrics "wal.replay.committed"
    (float_of_int rp.Wal.rp_committed);
  Metrics.set_gauge t.metrics "wal.replay.skipped"
    (float_of_int rp.Wal.rp_skipped);
  Metrics.set_gauge t.metrics "wal.replay.truncated_bytes"
    (float_of_int rp.Wal.rp_truncated_bytes)

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
        match List.assoc_opt n t.stmt_metrics0 with Some v0 -> v0 | None -> 0.
      in
      (n, Json.Float (v -. v0)))
    (forensics_snapshot t)

let replay_json (rp : Wal.replay) =
  Json.Obj
    [
      ("snapshot", Json.Bool rp.Wal.rp_snapshot);
      ("records", Json.Int rp.Wal.rp_records);
      ("committed", Json.Int rp.Wal.rp_committed);
      ("discarded", Json.Int rp.Wal.rp_discarded);
      ("skipped", Json.Int rp.Wal.rp_skipped);
      ("truncated_bytes", Json.Int rp.Wal.rp_truncated_bytes);
    ]

let wal_status_json t =
  match wal_status t with
  | None -> Json.Null
  | Some ws ->
    Json.Obj
      [
        ("dir", Json.String ws.ws_dir);
        ("bytes", Json.Int ws.ws_bytes);
        ("records", Json.Int ws.ws_records);
        ("last_lsn", Json.Int ws.ws_last_lsn);
        ("fsyncs", Json.Int ws.ws_fsyncs);
        ("fsync_on", Json.Bool ws.ws_fsync_on);
        ("dirty", Json.Bool ws.ws_dirty);
        ("epoch", Json.Int ws.ws_epoch);
        ("replay", replay_json ws.ws_replay);
      ]

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
      ("wal_fsync", Json.Bool t.wal_fsync);
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

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let bundle_events_limit = 64

let rec list_take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: list_take (n - 1) xs

(* Snapshot one forensics bundle. Called with [obs_lock] held (statement
   finalize) or from the engine domain before any server starts (startup
   WAL replay) — both contexts where mutating the bundle store and the
   event log is safe. Disabled recorder (capacity 0) disables bundle
   capture with it: that is the bench's off-arm. *)
let capture_bundle_unlocked t ~cls ~detail ~sql ~fingerprint ~plan_hash
    ~est_rows ~ms ~rows ~phases =
  if Recorder.enabled t.recorder then begin
    let ts = Trace.now () in
    let id = t.bundle_seq in
    t.bundle_seq <- id + 1;
    let events = Recorder.recent ~limit:bundle_events_limit t.recorder in
    let doc =
      Json.Obj
        [
          ("schema", Json.String Bundle_schema.schema_tag);
          ("id", Json.Int id);
          ("ts", Json.Float ts);
          ("class", Json.String cls);
          ("detail", Json.String detail);
          ("sql", Json.String sql);
          ("fingerprint", Json.String fingerprint);
          ("ms", Json.Float ms);
          ("rows", Json.Int rows);
          ("plan", plan_json t ~fingerprint ~plan_hash ~est_rows);
          ( "phases",
            Json.Obj (List.map (fun (n, d) -> (n, Json.Float d)) phases) );
          ("metrics_delta", Json.Obj (forensics_delta t));
          ("events", Json.List (List.map Recorder.event_to_json events));
          ("wal", wal_status_json t);
          ("spill", spill_json t);
          ("settings", settings_json t);
          ("gc", gc_json ());
        ]
    in
    let b =
      {
        bu_id = id;
        bu_ts = ts;
        bu_class = cls;
        bu_fingerprint = fingerprint;
        bu_sql = sql;
        bu_detail = detail;
        bu_doc = doc;
      }
    in
    t.bundles <- b :: t.bundles;
    if List.length t.bundles > t.bundle_cap then
      t.bundles <- list_take t.bundle_cap t.bundles;
    Metrics.incr t.metrics "forensics.bundles";
    Metrics.incr t.metrics ("forensics.class." ^ cls);
    (* optional on-disk mirror, bounded like the in-memory store: each new
       bundle evicts the file that just fell off the retention window *)
    (match t.bundle_dir with
    | Some dir -> (
      try
        mkdir_p dir;
        let path = Filename.concat dir (Printf.sprintf "bundle-%06d.json" id) in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Json.to_pretty_string doc));
        let victim = id - t.bundle_cap in
        if victim >= 1 then
          try
            Sys.remove
              (Filename.concat dir (Printf.sprintf "bundle-%06d.json" victim))
          with Sys_error _ -> ()
      with _ -> Metrics.incr t.metrics "forensics.write.errors")
    | None -> ());
    (* the SSE plane tails the recorder; this event becomes an
       `event: anomaly` frame on /events *)
    Recorder.record t.recorder
      (Recorder.Anomaly { id; cls; fingerprint; detail; sql })
  end

(* Map a finished top-level statement to its anomaly class, if any. Typed
   failures win over a watchdog flag (errors never fold into the baseline
   anyway), which wins over a successful-but-degraded execution. *)
let statement_anomaly t result rg_opt =
  match result with
  | Error (e : Err.t) ->
    let cls =
      match e.Err.kind with
      | Err.Timeout -> "timeout"
      | Err.Cancelled -> "cancelled"
      | Err.Resource_exhausted -> "resource_exhausted"
      | Err.Faulted -> "fault"
      | Err.Parse | Err.Analyze | Err.Runtime | Err.Internal -> "error"
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
      match t.stmt_degraded with
      | Some reason -> Some ("degraded", reason)
      | None -> None))

(* ------------------------------------------------------------------ *)
(* Cross-domain observability reads (the HTTP plane)                   *)
(* ------------------------------------------------------------------ *)

let locked t f = obs_locked t f

let refresh_loss_gauges t =
  obs_locked t (fun () -> refresh_loss_gauges_unlocked t)

let virtual_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.virtuals [])

(* Materialize a perm_stat_* view outside a query, for the /stats JSON
   endpoints: same provider closure a scan uses, but under [obs_lock] so
   it can run on a server domain while the engine executes statements.
   [t.virtuals] itself is only written at engine creation, so the lookup
   needs no lock. *)
let virtual_relation t name =
  let name = String.lowercase_ascii name in
  match Hashtbl.find_opt t.virtuals name with
  | None -> None
  | Some vp ->
    let columns =
      match List.assoc_opt name virtual_schemas with
      | Some cols -> List.map (fun (c : Column.t) -> c.Column.name) cols
      | None -> []
    in
    Some (columns, obs_locked t (fun () -> vp.vp_rows ()))

let events_since t cursor = Recorder.since t.recorder cursor

(* Runs [f] as a named phase under the current statement span, so its
   duration shows up in the trace tree and in the per-phase histograms. *)
let phase t name f =
  match t.current_span with
  | None -> f ()
  | Some root -> Trace.timed root name f

(* Like [phase], but hands the phase span (when tracing) to [f] so it can
   attach child spans or attributes — used by the parallel execute path. *)
let phase_sp t name f =
  match t.current_span with
  | None -> f None
  | Some root ->
    let sp = Trace.child root name in
    Fun.protect ~finally:(fun () -> Trace.finish sp) (fun () -> f (Some sp))

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
      t.stmt_rules <- (rule, n) :: t.stmt_rules)
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
  if t.stmt_fp <> "" then begin
    let ests = plan_estimates t plan in
    obs_locked t @@ fun () ->
    List.iter
      (fun (node, (ns : Executor.node_stats)) ->
        if ns.Executor.stat_id >= 0 then begin
          Profile.record_plan_node t.profile ~fingerprint:t.stmt_fp
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
                 fingerprint = t.stmt_fp;
                 node = ns.Executor.stat_id;
                 operator = Plan.operator_name node;
                 est_rows = estimate_of ests node;
                 act_rows = ns.Executor.stat_rows;
               })
        end)
      (Executor.stats_nodes exec_stats)
  end

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

(* The top-level statement's first executed plan defines its plan hash and
   estimate total for the telemetry history; nested executions (DML
   helpers re-entering run_query) keep the enclosing statement's. The
   execution mode is part of the hash: the parallel verdict flipping for
   the same statement shape is a plan change the watchdog should see. *)
let note_plan t optimized ~parallel =
  if t.stmt_plan_hash = "" then begin
    let mode = if parallel then "parallel" else "serial" in
    t.stmt_plan_hash <- Executor.plan_hash ~mode optimized;
    t.stmt_est_rows <- Planner.estimate_total (stats t) optimized
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
    if !max_skew > t.stmt_skew then t.stmt_skew <- !max_skew;
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

(* Execute a prepared plan, collecting per-operator stats when the session
   has instrumentation switched on. *)
(* Per-morsel slices and per-worker summaries attach under the "parallel"
   span on each worker's lane, so the Chrome trace export renders one
   swimlane per domain. The summary slice spans the whole batch even for
   idle workers, guaranteeing every domain's lane exists in the export. *)
let attach_worker_lanes psp (r : Executor.Par.report) =
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

let exec_plan t optimized =
  let run_serial () =
    Executor.run ~token:t.token ?row_limit:(active_row_limit t)
      ?progress:(live_progress t) ~batch_rows:t.batch_rows
      ?spill:(active_spill t) ~provider:(provider t) optimized
  in
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
              | Some psp, Ok (_, r, _) ->
                Trace.annotate psp "domains"
                  (string_of_int r.Executor.Par.par_domains);
                Trace.annotate psp "morsels"
                  (string_of_int r.Executor.Par.par_morsels);
                Trace.annotate psp "participants"
                  (string_of_int r.Executor.Par.par_participants);
                attach_worker_lanes psp r
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
          (match e with
          | Perm_fault.Injected p ->
            Metrics.incr t.metrics ("fault.injected." ^ p);
            Recorder.record t.recorder (Recorder.Fault { point = p })
          | _ -> ());
          Metrics.incr t.metrics "executor.par.fallback.error";
          Metrics.incr t.metrics "executor.par.degraded";
          (* an anomaly even when the serial retry succeeds: the bundle
             shows which worker failure forced the degradation *)
          let reason =
            Printf.sprintf "parallel execution degraded to serial: %s"
              (Printexc.to_string e)
          in
          if t.stmt_degraded = None then t.stmt_degraded <- Some reason;
          Recorder.record t.recorder (Recorder.Degraded { reason });
          dat (run_serial ()))
  | None ->
    note_plan t optimized ~parallel:false;
    if t.instrument then
      let* rows, exec_stats =
        dat
          (phase t "execute" (fun () ->
               Executor.run_instrumented ~token:t.token
                 ?row_limit:(active_row_limit t)
                 ?progress:(live_progress t)
                 ~batch_rows:t.batch_rows ?spill:(active_spill t)
                 ~provider:(provider t) optimized))
      in
      record_exec_stats t exec_stats;
      record_plan_profile t optimized exec_stats;
      Ok rows
    else dat (phase t "execute" run_serial)

let run_query t (q : Ast.query) =
  let* analyzed, _rewritten, optimized = prepare t q in
  let* rows = exec_plan t optimized in
  (* column names come from the analyzed plan's schema: the marker schema
     already includes the provenance attributes with their public names *)
  let columns = Analyzer.output_names analyzed in
  Ok { columns; rows }

let plan_query t sql =
  match Parser.parse_query sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok q ->
    Result.map_error Err.to_string
      (capture t (fun () ->
           let* analyzed, _rewritten, optimized = prepare t q in
           Ok (analyzed, optimized)))

let run_plan t plan =
  t.token <- fresh_token t;
  Result.map_error Err.to_string
    (capture t (fun () ->
         dat
           (Executor.run ~token:t.token ?row_limit:(active_row_limit t)
              ~batch_rows:t.batch_rows ?spill:(active_spill t)
              ~provider:(provider t) plan)))

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
  let* rows, exec_stats =
    dat
      (phase t "execute" (fun () ->
           Executor.run_instrumented ~token:t.token
             ?row_limit:(active_row_limit t) ?progress:(live_progress t)
             ~batch_rows:t.batch_rows ~provider:(provider t)
             optimized))
  in
  record_exec_stats t exec_stats;
  record_plan_profile t optimized exec_stats;
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

(* Append one frame, opening the statement's transaction lazily (read-only
   statements never touch the log). Mutations are logged *after* they hit
   the heap, so the frame records what actually happened — including a
   partially applied insert. On an append failure the log is marked dirty:
   logging stops (the heaps are ahead of the log) and the next top-level
   statement rebuilds the log from a checkpoint before running. *)
let wal_append t frame =
  match t.wal with
  | None -> ()
  | Some w ->
    if not t.wal_dirty then begin
      try
        if not t.wal_begun then begin
          t.wal_begun <- true;
          Wal.append w Wal.Begin;
          Recorder.record t.recorder (Recorder.Wal_append { frame = "begin" })
        end;
        Wal.append w frame;
        Recorder.record t.recorder
          (Recorder.Wal_append { frame = Wal.frame_label frame })
      with e ->
        t.wal_dirty <- true;
        Metrics.incr t.metrics "wal.append.errors";
        raise e
    end

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
  let rec eval_rows acc = function
    | [] -> Ok (List.rev acc)
    | row :: rest ->
      let rec eval_row acc_v = function
        | [] -> Ok (Array.of_list (List.rev acc_v))
        | e :: es ->
          let* e' = sem (Analyzer.const_expr e) in
          let* v = dat (Executor.eval_const e') in
          eval_row (v :: acc_v) es
      in
      let* r = eval_row [] row in
      eval_rows (r :: acc) rest
  in
  let* rows = eval_rows [] rows in
  let* () = dat (logged_insert t name heap rows) in
  Ok (List.length rows)

let insert_select t name q =
  let* _def, heap = find_heap t name in
  let* { rows; _ } = run_query t q in
  let* () = dat (logged_insert t name heap rows) in
  Ok (List.length rows)

(* DELETE/UPDATE row selection reuses the analyzer+executor through a
   synthesized [SELECT * FROM name WHERE pred] plan so predicate semantics
   (3VL, subqueries as WHERE conjuncts) match queries exactly. *)
let matching_rows t name where =
  let select =
    {
      Ast.empty_select with
      Ast.items = [ Ast.Star ];
      from = [ Ast.plain_from (Ast.From_table name) ];
      where;
    }
  in
  let* rs = run_query t (Ast.select_query select) in
  Ok rs.rows

let delete_rows t name where =
  let* _def, heap = find_heap t name in
  match where with
  | None ->
    let n = Heap.row_count heap in
    logged_truncate t name heap;
    Ok n
  | Some _ ->
    let* matched = matching_rows t name where in
    let victims = Tuple.Hash.create 64 in
    List.iter (fun r -> Tuple.Hash.replace victims r ()) matched;
    let keep =
      List.filter (fun r -> not (Tuple.Hash.mem victims r)) (Heap.to_list heap)
    in
    let deleted = Heap.row_count heap - List.length keep in
    let* () = dat (logged_replace t name heap keep) in
    Ok deleted

let update_rows t name assigns where =
  let* def, heap = find_heap t name in
  let schema = def.Catalog.table_schema in
  (* validate the assigned columns exist *)
  let* () =
    List.fold_left
      (fun acc (col, _) ->
        let* () = acc in
        match Schema.find schema col with
        | Some _ -> Ok ()
        | None -> Error (Err.analyze (Printf.sprintf "column %S does not exist" col)))
      (Ok ()) assigns
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
  let* matched = matching_rows t name where in
  let victims = Tuple.Hash.create 64 in
  List.iter (fun r -> Tuple.Hash.replace victims r ()) matched;
  let keep =
    List.filter (fun r -> not (Tuple.Hash.mem victims r)) (Heap.to_list heap)
  in
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
  let rec load n = function
    | [] -> Ok n
    | fields :: rest ->
      if List.length fields <> Array.length cols then
        Error
          (Err.runtime
             (Printf.sprintf "CSV row %d has %d fields, table %S has %d columns"
                (n + 1) (List.length fields) name (Array.length cols)))
      else
        let rec build i acc = function
          | [] -> Ok (Array.of_list (List.rev acc))
          | field :: fields -> (
            match field with
            | None -> build (i + 1) (Value.Null :: acc) fields
            | Some text -> (
              match Value.cast cols.(i).Column.ty (Value.Text text) with
              | Ok v -> build (i + 1) (v :: acc) fields
              | Error msg ->
                Error
                  (Err.runtime
                     (Printf.sprintf "CSV row %d, column %S: %s" (n + 1)
                        cols.(i).Column.name msg))))
        in
        let* row = build 0 [] fields in
        let* () = dat (Heap.insert heap row) in
        load (n + 1) rest
  in
  (* rows land one at a time (an invalid CSV row keeps the loaded prefix);
     the WAL gets the applied prefix as a single Insert frame either way *)
  let before = Heap.row_count heap in
  let result = load 0 rows in
  let after = Heap.row_count heap in
  if after > before then
    wal_append t
      (Wal.Insert
         ( name,
           Array.to_list (Heap.scan_chunk heap ~pos:before ~len:(after - before))
         ));
  let* n = result in
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

let wal_error t = function
  | Perm_fault.Injected p ->
    Metrics.incr t.metrics ("fault.injected." ^ p);
    Recorder.record t.recorder (Recorder.Fault { point = p });
    Error (Err.faulted (Printf.sprintf "fault injected at %s" p))
  | Unix.Unix_error (err, fn, _) ->
    Error (Err.runtime (Printf.sprintf "WAL %s: %s" fn (Unix.error_message err)))
  | Sys_error msg -> Error (Err.runtime ("WAL: " ^ msg))
  | e -> raise e

let prov_list t =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.prov_tables [])

(* Compact the log into a snapshot of the current heaps. Also the repair
   path for a dirty log: the snapshot is taken from the heaps, which are
   authoritative, so afterwards log and heaps agree again. *)
let wal_rebuild t w =
  match Wal.checkpoint w ~snapshot_sql:(dump_sql t) ~prov:(prov_list t) with
  | () ->
    t.wal_dirty <- false;
    t.wal_begun <- false;
    Metrics.incr t.metrics "wal.checkpoints";
    Recorder.record t.recorder
      (Recorder.Wal_checkpoint { epoch = (Wal.status w).Wal.st_epoch; ok = true });
    Ok ()
  | exception e ->
    Metrics.incr t.metrics "wal.checkpoint.errors";
    Recorder.record t.recorder
      (Recorder.Wal_checkpoint { epoch = (Wal.status w).Wal.st_epoch; ok = false });
    wal_error t e

(* Dirty-log repair, run before each top-level statement (never inside a
   transaction: the heaps hold uncommitted state there). Deliberately not
   run at statement end — a crash right after the fault must leave the
   torn log for recovery to discard, not a freshly repaired one. *)
let wal_repair t =
  match t.wal with
  | Some w when t.wal_dirty && t.snapshot = None -> (
    match wal_rebuild t w with
    | Ok () -> Metrics.incr t.metrics "wal.repairs"
    | Error _ -> (* still dirty; logging stays off, retried next statement *) ())
  | _ -> ()

(* Append Commit and make it durable (fsync unless [\set wal_fsync off]).
   On failure the log is dirty: the Commit may or may not have hit the
   platter, and the next repair rebuilds from the heaps either way. *)
let wal_commit_frames t w =
  match
    Wal.append w Wal.Commit;
    if t.wal_fsync then Wal.fsync w
  with
  | () ->
    t.wal_begun <- false;
    Recorder.record t.recorder (Recorder.Wal_append { frame = "commit" });
    if t.wal_fsync then
      Recorder.record t.recorder
        (Recorder.Wal_fsync { fsyncs = (Wal.status w).Wal.st_fsyncs });
    Ok ()
  | exception e ->
    t.wal_dirty <- true;
    t.wal_begun <- false;
    Metrics.incr t.metrics "wal.append.errors";
    wal_error t e

(* Statement-boundary commit, outside explicit transactions. A dirty log
   is left for the next statement's repair (see [wal_repair]). *)
let wal_seal_statement t =
  match t.wal with
  | None -> Ok ()
  | Some w ->
    if t.wal_dirty || not t.wal_begun then Ok () else wal_commit_frames t w

(* COMMIT of an explicit transaction: the heaps hold exactly the committed
   state here, so a dirty log is rebuilt from them on the spot. *)
let wal_txn_seal t =
  match t.wal with
  | None -> Ok ()
  | Some w ->
    if t.wal_dirty then wal_rebuild t w
    else if not t.wal_begun then Ok ()
    else wal_commit_frames t w

(* ROLLBACK: the Abort frame is advisory (replay discards unsealed frames
   anyway), so failures here only mark the log dirty. *)
let wal_abort t =
  match t.wal with
  | Some w when t.wal_begun ->
    t.wal_begun <- false;
    if not t.wal_dirty then (
      try Wal.append w Wal.Abort
      with _ ->
        t.wal_dirty <- true;
        Metrics.incr t.metrics "wal.append.errors")
  | _ -> ()

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
      let* () = wal_txn_seal t in
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
      wal_abort t;
      Ok (Message "transaction rolled back"))

(* ------------------------------------------------------------------ *)
(* WAL lifecycle                                                       *)
(* ------------------------------------------------------------------ *)

(* Replay callback: run a snapshot script or one canonical DDL statement
   against the live state. [t.wal] is not installed while replay runs, so
   nothing is re-logged. *)
let replay_sql t sql =
  match Parser.parse_script sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok statements ->
    let rec go = function
      | [] -> Ok ()
      | st :: rest -> (
        match
          capture t (fun () -> run_statement t (Printer.statement_to_string st) st)
        with
        | Ok _ -> go rest
        | Error e -> Error (Err.to_string e))
    in
    go statements

let wal_enabled t = t.wal <> None
let set_wal_fsync t b = t.wal_fsync <- b
let wal_fsync_enabled t = t.wal_fsync

let enable_wal t dir =
  if t.wal <> None then Error (Err.runtime "WAL is already enabled")
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
      wal_error t e
    | Ok (Error msg) ->
      restore ();
      Error (Err.runtime msg)
    | Ok (Ok (w, replay)) ->
      t.wal <- Some w;
      t.wal_dirty <- false;
      t.wal_begun <- false;
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
      if had_state then (match wal_rebuild t w with Ok () | Error _ -> ());
      refresh_wal_gauges t;
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

let disable_wal t =
  match t.wal with
  | None -> ()
  | Some w ->
    Wal.close w;
    t.wal <- None;
    t.wal_dirty <- false;
    t.wal_begun <- false

let checkpoint t =
  match t.wal with
  | None -> Error (Err.runtime "WAL is not enabled")
  | Some w ->
    if t.snapshot <> None then
      Error (Err.runtime "cannot checkpoint inside a transaction")
    else wal_rebuild t w

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
  let fingerprint = t.stmt_fp in
  let rg_opt =
    History.record t.history ~fingerprint ~sql ~provenance
      ~ts:(Trace.start_s root) ~plan_hash:t.stmt_plan_hash ~ms ~rows
      ~est_rows:t.stmt_est_rows ~skew:t.stmt_skew
      ~error:(Result.is_error result) ~phases ~rules:(List.rev t.stmt_rules)
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
    t.stmt_rules <- [];
    t.stmt_fp <- Fingerprint.of_sql sql;
    t.stmt_plan_hash <- "";
    t.stmt_est_rows <- 0.;
    t.stmt_skew <- 1.;
    t.stmt_degraded <- None;
    (* the metric snapshot for the bundle's delta; skipped entirely when
       the recorder is off so the disabled path stays at its baseline *)
    if Recorder.enabled t.recorder then
      t.stmt_metrics0 <- forensics_snapshot t;
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
      (Recorder.Stmt_start { sql; fingerprint = t.stmt_fp });
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
    wal_repair t
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
    | Error e
      when saved = None
           && (match e.Err.kind with
              | Err.Timeout | Err.Cancelled | Err.Resource_exhausted -> true
              | _ -> false) -> (
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
      match wal_seal_statement t with
      | Ok () -> result
      | Error e -> ( match result with Error _ -> result | Ok _ -> Error e)
    else result
  in
  Metrics.incr t.metrics "engine.statements";
  (match result with
  | Error e ->
    Metrics.incr t.metrics "engine.errors";
    (match e.Err.kind with
    | Err.Timeout ->
      Metrics.incr t.metrics "engine.timeout";
      Recorder.record t.recorder
        (Recorder.Governor { verdict = "timeout"; detail = e.Err.msg })
    | Err.Cancelled ->
      Metrics.incr t.metrics "engine.cancelled";
      Recorder.record t.recorder
        (Recorder.Governor { verdict = "cancelled"; detail = e.Err.msg })
    | Err.Resource_exhausted ->
      Metrics.incr t.metrics "engine.resource_exhausted";
      Recorder.record t.recorder
        (Recorder.Governor
           { verdict = "resource_exhausted"; detail = e.Err.msg })
    | _ -> ())
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
  refresh_wal_gauges t;
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
               fingerprint = t.stmt_fp;
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
          capture_bundle_unlocked t ~cls ~detail ~sql ~fingerprint:t.stmt_fp
            ~plan_hash:t.stmt_plan_hash ~est_rows:t.stmt_est_rows ~ms ~rows
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

let execute_script t sql =
  match Parser.parse_script sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok statements ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | st :: rest -> (
        match execute_statement t (Printer.statement_to_string st) st with
        | Ok outcome -> go (outcome :: acc) rest
        | Error e -> Error (Err.to_string e))
    in
    go [] statements

let query t sql =
  let* outcome = execute t sql in
  match outcome with
  | Rows rs -> Ok rs
  | Affected _ | Message _ | Explained _ | Analyzed _ ->
    Error "statement did not return rows"

let query_params t sql values =
  match Parser.parse_query sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok q ->
    t.token <- fresh_token t;
    Result.map_error Err.to_string
      (capture t (fun () ->
           let* bound = sem (Ast.bind_params values q) in
           run_query t bound))

let explain t sql =
  match Parser.parse_query sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok q ->
    Result.map_error Err.to_string (capture t (fun () -> explain_query t sql q))

let explain_analyze t sql =
  match Parser.parse_query sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok q -> (
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
  type summary = {
    fs_id : int;
    fs_ts : float;
    fs_class : string;
    fs_fingerprint : string;
    fs_detail : string;
    fs_sql : string;
  }

  let capacity t = t.bundle_cap

  let set_capacity t n =
    obs_locked t (fun () ->
        t.bundle_cap <- max 0 n;
        t.bundles <- list_take t.bundle_cap t.bundles)

  let set_dir t dir = obs_locked t (fun () -> t.bundle_dir <- dir)

  let summary_of b =
    {
      fs_id = b.bu_id;
      fs_ts = b.bu_ts;
      fs_class = b.bu_class;
      fs_fingerprint = b.bu_fingerprint;
      fs_detail = b.bu_detail;
      fs_sql = b.bu_sql;
    }

  (* newest first, like the underlying store *)
  let list t = obs_locked t (fun () -> List.map summary_of t.bundles)

  let get t id =
    obs_locked t (fun () ->
        List.find_opt (fun b -> b.bu_id = id) t.bundles
        |> Option.map (fun b -> b.bu_doc))

  let last t =
    obs_locked t (fun () ->
        match t.bundles with b :: _ -> Some b.bu_doc | [] -> None)
end
