(* A session's state and the small accessors every part of the engine
   shares: the catalog and heaps, the settings, the governor, the
   telemetry stores, the per-statement fields the finalize reads, and the
   engine boundary that maps everything a statement may raise into the
   typed error taxonomy. The WAL, the forensics bundles and the
   perm_stat_* views keep their own state ({!Wal_log}, {!Bundles},
   {!Views}). *)

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

(* What the running top-level statement gathers for its finalize (the
   history record and the forensics bundle). Nested statements (DML
   helpers re-entering the pipeline) add to the enclosing one's; the next
   top-level statement starts a fresh record. *)
type stmt = {
  fp : string;  (* fingerprint *)
  mutable rules : (string * int) list;
      (* rewrite-rule firings, so the history attributes rules to the
         right fingerprint *)
  mutable plan_hash : string;
      (* structural hash of the first executed plan; "" until a plan runs
         (DDL, utility statements) *)
  mutable est_rows : float;  (* planner total estimate of that plan *)
  mutable skew : float;  (* max worker skew seen *)
  mutable degraded : string option;
      (* fell from the parallel to the serial path on a worker error — an
         anomaly even when the serial retry then succeeds *)
  metrics0 : (string * float) list;
      (* forensics-tracked metric values at the start, so a bundle can
         report the delta the statement caused *)
}

let fresh_stmt ?(metrics0 = []) fp =
  { fp; rules = []; plan_hash = ""; est_rows = 0.; skew = 1.; degraded = None;
    metrics0 }

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
  views : Views.t;  (* the perm_stat_* relations *)
  mutable slow_log : (string * out_channel) option;  (* \log sink *)
  mutable slow_log_min_ms : float;  (* sink threshold; also /events' *)
  history : History.t;
      (* perm_stat_statements / _history / _regressions / _metrics_history *)
  mutable stmt : stmt;  (* the running top-level statement's findings *)
  mutable parallel_domains : int;  (* 0 = parallel execution off *)
  mutable parallel_threshold : int;  (* min driving-table rows to fan out *)
  mutable batch_rows : int;  (* rows per executor batch *)
  mutable pool : Pool.t option;  (* lazily created, reused *)
  mutable statement_timeout_ms : float;  (* governor: 0 = off *)
  mutable row_limit : int;  (* governor: 0 = off *)
  mutable tuple_budget : int;  (* governor: 0 = off *)
  mutable token : Token.t;  (* cancellation token of the running statement *)
  profile : Profile.t;  (* perm_stat_plans / _relations / _workers *)
  mutable live : live option;  (* progress of the last top-level statement *)
  wal : Wal_log.t;  (* the durability log, if enabled *)
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
  forensics : Bundles.t;  (* the anomaly bundle store *)
  gc_seen : gc_cell;  (* written by the GC alarm, read per statement *)
  mutable on_close : (unit -> unit) list;  (* run (LIFO) by [close] *)
}

(* OCaml's [Mutex] is not reentrant and 5.1 has no [Mutex.protect]. *)
let obs_locked t f =
  Mutex.lock t.obs_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_lock) f

(* Telemetry-loss accounting as gauges, so /metrics (and perm_metrics) can
   alert on the observability plane itself shedding data: flight-recorder
   ring drops, history ring wrap-around, and LRU/byte-budget fingerprint
   eviction. Unlocked: called either from the engine domain (vp_rows
   during a scan) or from an observability reader already holding
   [obs_lock] — both contexts where taking the lock again would be wrong
   (it is not reentrant). *)
let loss_gauges metrics recorder history =
  List.iter
    (fun (name, v) -> Metrics.set_gauge metrics name (float_of_int v))
    [
      ("recorder.recorded", Recorder.recorded recorder);
      ("recorder.dropped", Recorder.dropped recorder);
      ("history.dropped", History.dropped history);
      ("history.evicted", History.evicted history);
      ("history.bytes", History.approx_bytes history);
    ]

let refresh_loss_gauges_unlocked t = loss_gauges t.metrics t.recorder t.history

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
  let metrics = Metrics.create () and history = History.create () in
  let profile = Profile.create () and recorder = Recorder.create () in
  let forensics = Bundles.create ~metrics ~recorder in
  let views =
    Views.create ~history ~profile ~metrics
      ~refresh_metrics:(fun () ->
        (* GC and telemetry-loss gauges refresh lazily, when somebody
           actually looks *)
        Metrics.set_gc_gauges metrics;
        loss_gauges metrics recorder history)
      ~anomalies:(fun () -> List.rev (Bundles.list forensics))
  in
  let t =
    {
      cat = Catalog.create ();
      store = Store.create ();
      prov_tables = Hashtbl.create 8;
      agg_strategy = Use_heuristic;
      planner_config = Planner.default_config;
      report = None;
      snapshot = None;
      metrics;
      instrument = false;
      current_span = None;
      last_trace = None;
      views;
      slow_log = None;
      slow_log_min_ms = 0.;
      history;
      stmt = fresh_stmt "";
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
      profile;
      live = None;
      wal = Wal_log.create ~metrics ~recorder;
      spill_on = true;
      spill_dir = Filename.get_temp_dir_name ();
      spill_counts = no_spills;
      obs_lock = Mutex.create ();
      recorder;
      forensics;
      gc_seen =
        { gc_pending = false; gc_heap_words = 0; gc_major_collections = 0 };
      on_close = [];
    }
  in
  Perm_fault.init_from_env ();
  Views.register views t.cat;
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
          match Views.find t.views name with
          | Some v -> Views.estimate v
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
  Wal_log.close t.wal;
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
          match Views.find t.views table with
          | Some v -> Views.batches v ~rows
          | None ->
            raise
              (Executor.Runtime_error
                 (Printf.sprintf "table %S vanished" table))));
  }

let ( let* ) = Result.bind

(* [f] over every element, in order, up to the first error. *)
let map_ok f l =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: xs -> ( match f x with Ok y -> go (y :: acc) xs | Error e -> Error e)
  in
  go [] l

(* [f] over [sql] parsed as a query; a parse error as its message. *)
let with_query sql f =
  match Parser.parse_query sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok q -> f q

(* Each statement of the script [sql] through [run] (with its canonical
   text), in order, up to the first error. *)
let each_statement sql run =
  match Parser.parse_script sql with
  | Error e -> Error (Parser.error_to_string ~input:sql e)
  | Ok statements ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | st :: rest -> (
        match run (Printer.statement_to_string st) st with
        | Ok x -> go (x :: acc) rest
        | Error e -> Error (Err.to_string e))
    in
    go [] statements

(* Kind-tagging shims for subsystem helpers that report plain strings:
   [sem] for semantic/catalog preconditions, [dat] for data-dependent
   storage and evaluation errors. *)
let sem r = Result.map_error Err.analyze r
let dat r = Result.map_error Err.runtime r

(* The engine boundary: everything the pipeline may legitimately raise —
   executor runtime errors, cooperative-cancellation kills, injected
   faults, resource blowups — is mapped into the typed taxonomy here, so
   [execute] keeps its result contract and never raises. *)
let note_fault t p =
  Metrics.incr t.metrics ("fault.injected." ^ p);
  Recorder.record t.recorder (Recorder.Fault { point = p })

let capture t f =
  try f () with
  | Executor.Runtime_error msg -> Error (Err.runtime msg)
  | Err.Cancel (kind, msg) -> Error (Err.make kind msg)
  | Perm_fault.Injected p ->
    note_fault t p;
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

type wal_status = Wal_log.status = {
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

let wal_status t = Wal_log.status t.wal
let wal_status_json t = Wal_log.status_json t.wal

(* ------------------------------------------------------------------ *)
(* Cross-domain observability reads (the HTTP plane)                   *)
(* ------------------------------------------------------------------ *)

let locked t f = obs_locked t f

let refresh_loss_gauges t =
  obs_locked t (fun () -> refresh_loss_gauges_unlocked t)

let virtual_names t = Views.names t.views

(* Materialize a perm_stat_* view outside a query, for the /stats JSON
   endpoints: the same declaration a scan reads, but under [obs_lock] so
   it can run on a server domain while the engine executes statements.
   [t.views] itself never changes, so the lookup needs no lock. *)
let virtual_relation t name =
  Option.map
    (fun v -> (Views.columns v, obs_locked t (fun () -> Views.rows v)))
    (Views.find t.views name)

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
