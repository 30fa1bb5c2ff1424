module Httpd = Perm_obs.Httpd
module Metrics = Perm_obs.Metrics
module Prometheus = Perm_obs.Prometheus
module Json = Perm_obs.Json
module Trace = Perm_obs.Trace
module History = Perm_obs.History
module Recorder = Perm_obs.Recorder
module Value = Perm_value.Value

type t = {
  httpd : Httpd.t;
  engine : Engine.t;
  saved_minor_heap : int option;  (* restore on stop; None = untouched *)
  restored : bool Atomic.t;
}

let port t = Httpd.port t.httpd
let generation t = Httpd.generation t.httpd

(* With a second domain alive, every minor collection is a cross-domain
   stop-the-world barrier — around a millisecond on a loaded single-core
   box, and an allocation-heavy query runs a dozen of them. While the
   plane is up we raise the minor heap so those barriers are rare; the
   previous size comes back when the server stops. 4 M words = 32 MB on
   64-bit, enough to take a heavy provenance join from ~14 minor
   collections to one or two. *)
let server_minor_heap_words = 4 * 1024 * 1024

let grow_minor_heap () =
  let cur = (Gc.get ()).Gc.minor_heap_size in
  if cur < server_minor_heap_words then begin
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = server_minor_heap_words };
    Some cur
  end
  else None

(* ------------------------------------------------------------------ *)
(* JSON helpers                                                        *)
(* ------------------------------------------------------------------ *)

let value_to_json (v : Value.t) =
  match v with
  | Value.Null -> Json.Null
  | Value.Int n -> Json.Int n
  | Value.Float f -> Json.Float f
  | Value.Bool b -> Json.Bool b
  | Value.Text s -> Json.String s
  | Value.Date _ -> Json.String (Value.to_string v)

let json_response ?(status = 200) json =
  Httpd.Fixed
    {
      status;
      content_type = "application/json";
      body = Json.to_string json ^ "\n";
    }

let text_response ?(status = 200) body =
  Httpd.Fixed { status; content_type = "text/plain"; body }

(* ------------------------------------------------------------------ *)
(* /metrics                                                            *)
(* ------------------------------------------------------------------ *)

(* Per-fingerprint statement families, labelled with the fingerprint and
   the raw query text — arbitrary SQL in a label value is exactly what the
   exposition escaping rules exist for. Built under the engine lock so a
   statement finalizing concurrently cannot tear a record. *)
let statement_families engine =
  let stmts = Engine.locked engine (fun () -> Engine.statement_stats engine) in
  if stmts = [] then []
  else
    let labels (st : History.statement) =
      [
        ("fingerprint", st.History.st_fingerprint);
        ("query", st.History.st_query);
      ]
    in
    let counter_family ~name ~help value =
      {
        Prometheus.f_name = name;
        f_help = help;
        f_kind = Prometheus.Counter;
        f_samples =
          List.map
            (fun st ->
              {
                Prometheus.s_name = name ^ "_total";
                s_labels = labels st;
                s_value = value st;
              })
            stmts;
      }
    in
    [
      counter_family ~name:"perm_stat_statements_calls"
        ~help:"Calls per statement fingerprint"
        (fun st -> float_of_int st.History.st_calls);
      counter_family ~name:"perm_stat_statements_errors"
        ~help:"Errors per statement fingerprint"
        (fun st -> float_of_int st.History.st_errors);
      counter_family ~name:"perm_stat_statements_ms"
        ~help:"Accumulated wall milliseconds per statement fingerprint"
        (fun st -> st.History.st_total_ms);
    ]

let metrics_endpoint engine server_ref =
  let m = Engine.metrics engine in
  Metrics.set_gc_gauges m;
  Engine.refresh_loss_gauges engine;
  (match !server_ref with
  | Some httpd ->
    Metrics.set_gauge m "http.rejected" (float_of_int (Httpd.rejected httpd))
  | None -> ());
  let body = Prometheus.render_metrics ~extra:(statement_families engine) m in
  Httpd.Fixed
    { status = 200; content_type = "text/plain; version=0.0.4"; body }

(* ------------------------------------------------------------------ *)
(* /stats/<relation>                                                   *)
(* ------------------------------------------------------------------ *)

let stats_endpoint engine relation =
  match Engine.virtual_relation engine relation with
  | None ->
    json_response ~status:404
      (Json.Obj
         [
           ("error", Json.String ("unknown relation: " ^ relation));
           ( "relations",
             Json.List
               (List.map
                  (fun n -> Json.String n)
                  (Engine.virtual_names engine)) );
         ])
  | Some (columns, rows) ->
    json_response
      (Json.Obj
         [
           ("relation", Json.String (String.lowercase_ascii relation));
           ("columns", Json.List (List.map (fun c -> Json.String c) columns));
           ( "rows",
             Json.List
               (List.map
                  (fun row ->
                    Json.Obj
                      (List.mapi
                         (fun i c ->
                           ( c,
                             if i < Array.length row then
                               value_to_json row.(i)
                             else Json.Null ))
                         columns))
                  rows) );
           ("count", Json.Int (List.length rows));
         ])

(* ------------------------------------------------------------------ *)
(* /healthz and /readyz                                                *)
(* ------------------------------------------------------------------ *)

let healthz engine server_ref start_s =
  let m = Engine.metrics engine in
  let running =
    match Engine.progress engine with
    | Some pr -> pr.Engine.pr_running
    | None -> false
  in
  json_response
    (Json.Obj
       [
         ("status", Json.String "ok");
         ( "generation",
           Json.Int
             (match !server_ref with
             | Some httpd -> Httpd.generation httpd
             | None -> 0) );
         ("uptime_s", Json.Float (Unix.gettimeofday () -. start_s));
         ("statements", Json.Int (Metrics.counter m "engine.statements"));
         ("errors", Json.Int (Metrics.counter m "engine.errors"));
         ("statement_running", Json.Bool running);
         ("parallel_domains", Json.Int (Engine.parallel_domains engine));
         ("pool_size", Json.Int (Engine.pool_size engine));
         ("regressions", Json.Int (Metrics.counter m "history.regressions"));
         ( "wal",
           match Engine.wal_status_json engine with
           | Json.Obj fields ->
             (* /healthz names the fsync flag [fsync] *)
             let rename = function "fsync_on", v -> ("fsync", v) | f -> f in
             Json.Obj (("enabled", Json.Bool true) :: List.map rename fields)
           | _ -> Json.Obj [ ("enabled", Json.Bool false) ] );
       ])

let readyz engine =
  let history = Engine.history engine in
  let recorder = Engine.recorder engine in
  let watchdog_factor, regressions =
    Engine.locked engine (fun () ->
        (History.factor history, List.length (History.regressions history)))
  in
  json_response
    (Json.Obj
       [
         ("status", Json.String "ok");
         ( "governor",
           Json.Obj
             [
               ( "statement_timeout_ms",
                 Json.Float (Engine.statement_timeout engine) );
               ("row_limit", Json.Int (Engine.row_limit engine));
               ("tuple_budget", Json.Int (Engine.tuple_budget engine));
               ("parallel_domains", Json.Int (Engine.parallel_domains engine));
             ] );
         ( "watchdog",
           Json.Obj
             [
               ("factor", Json.Float watchdog_factor);
               ("regressions", Json.Int regressions);
             ] );
         ( "recorder",
           Json.Obj
             [
               ("capacity", Json.Int (Recorder.capacity recorder));
               ("recorded", Json.Int (Recorder.recorded recorder));
               ("dropped", Json.Int (Recorder.dropped recorder));
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* /trace                                                              *)
(* ------------------------------------------------------------------ *)

(* The roots the recorder retains are frozen spans, read without the lock. *)
let trace_endpoint engine =
  json_response (Trace.to_chrome_json (Engine.trace_log engine))

(* ------------------------------------------------------------------ *)
(* /events: server-sent events                                         *)
(* ------------------------------------------------------------------ *)

let sse_frame event data = Printf.sprintf "event: %s\ndata: %s\n\n" event data

let progress_json (pr : Engine.progress) =
  Json.Obj
    [
      ("sql", Json.String pr.Engine.pr_sql);
      ("running", Json.Bool pr.Engine.pr_running);
      ("elapsed_ms", Json.Float pr.Engine.pr_elapsed_ms);
      ("rows", Json.Int pr.Engine.pr_rows);
      ("morsels_done", Json.Int pr.Engine.pr_morsels_done);
      ("morsels_total", Json.Int pr.Engine.pr_morsels_total);
    ]

(* Replay the retained flight-recorder ring, then tail it and the live
   progress atomics at ~150 ms cadence. Every poll reads only the
   wait-free recorder and the lock-free progress snapshot, so a slow SSE
   consumer costs the query path nothing. *)
let events_stream engine query push =
  let deadline =
    match List.assoc_opt "max_ms" query with
    | Some v -> (
      match float_of_string_opt v with
      | Some ms when ms > 0. -> Some (Unix.gettimeofday () +. (ms /. 1000.))
      | _ -> None)
    | None -> None
  in
  let cursor = ref 0 in
  let last_progress = ref "" in
  (* two recorder kinds are streamed, each under its own SSE frame name so
     consumers can listen selectively: finished statements at or past the
     slow-query threshold, and anomaly notifications from the forensics
     plane *)
  let frame_name (ev : Recorder.event) =
    match ev.Recorder.ev_payload with
    | Recorder.Stmt_finish { span; _ }
      when Trace.duration_ms span >= Engine.slow_log_min_ms engine ->
      Some "statement"
    | Recorder.Anomaly _ -> Some "anomaly"
    | _ -> None
  in
  let push_events () =
    let next, events = Engine.events_since engine !cursor in
    cursor := next;
    List.for_all
      (fun ev ->
        match frame_name ev with
        | Some name ->
          push (sse_frame name (Json.to_string (Recorder.event_to_json ev)))
        | None -> true)
      events
  in
  let push_progress () =
    match Engine.progress engine with
    | None -> true
    | Some pr ->
      let payload = Json.to_string (progress_json pr) in
      if payload = !last_progress then true
      else begin
        last_progress := payload;
        push (sse_frame "progress" payload)
      end
  in
  let expired () =
    match deadline with
    | Some d -> Unix.gettimeofday () >= d
    | None -> false
  in
  if push "retry: 2000\n\n" then begin
    let ticks = ref 0 in
    let rec loop () =
      if push_events () && push_progress () && not (expired ()) then begin
        incr ticks;
        (* a comment line every ~15 s keeps idle connections alive and
           detects silently-gone clients *)
        if !ticks mod 100 <> 0 || push ": keepalive\n\n" then begin
          Unix.sleepf 0.15;
          loop ()
        end
      end
    in
    loop ()
  end

(* ------------------------------------------------------------------ *)
(* /debug/bundles: forensics bundle store                               *)
(* ------------------------------------------------------------------ *)

let bundles_index engine =
  let bundles = Engine.Forensics.list engine in
  json_response
    (Json.Obj
       [
         ( "bundles",
           Json.List
             (List.map
                (fun (s : Engine.Forensics.summary) ->
                  Json.Obj
                    [
                      ("id", Json.Int s.Engine.Forensics.fs_id);
                      ("ts", Json.Float s.Engine.Forensics.fs_ts);
                      ("class", Json.String s.Engine.Forensics.fs_class);
                      ( "fingerprint",
                        Json.String s.Engine.Forensics.fs_fingerprint );
                      ("detail", Json.String s.Engine.Forensics.fs_detail);
                      ("sql", Json.String s.Engine.Forensics.fs_sql);
                    ])
                bundles) );
         ("count", Json.Int (List.length bundles));
         ("capacity", Json.Int (Engine.Forensics.capacity engine));
       ])

let bundle_endpoint engine id_str =
  match int_of_string_opt id_str with
  | None ->
    json_response ~status:404
      (Json.Obj [ ("error", Json.String ("bad bundle id: " ^ id_str)) ])
  | Some id -> (
    match Engine.Forensics.get engine id with
    | Some doc -> json_response doc
    | None ->
      json_response ~status:404
        (Json.Obj
           [
             ( "error",
               Json.String
                 (Printf.sprintf "no bundle %d (evicted or never captured)"
                    id) );
           ]))

(* ------------------------------------------------------------------ *)
(* Routing and self-accounting                                         *)
(* ------------------------------------------------------------------ *)

let index_body =
  "perm observability plane\n\n\
   GET /metrics            Prometheus text exposition\n\
   GET /stats/<relation>   perm_stat_* virtual relation as JSON\n\
   GET /healthz            engine liveness\n\
   GET /readyz             governor, watchdog and recorder state\n\
   GET /trace              Chrome trace export (ui.perfetto.dev)\n\
   GET /events             server-sent events (statements + live progress +\n\
  \                        anomaly notifications)\n\
   GET /debug/bundles      forensics bundle index (newest first)\n\
   GET /debug/bundles/<id> one full forensics bundle as JSON\n"

let route engine server_ref start_s (req : Httpd.request) =
  match req.Httpd.rq_path with
  | "/" -> text_response index_body
  | "/metrics" -> metrics_endpoint engine server_ref
  | "/healthz" -> healthz engine server_ref start_s
  | "/readyz" -> readyz engine
  | "/trace" -> trace_endpoint engine
  | "/events" ->
    Httpd.Stream
      {
        content_type = "text/event-stream";
        write = events_stream engine req.Httpd.rq_query;
      }
  | "/debug/bundles" -> bundles_index engine
  | p when String.starts_with ~prefix:"/debug/bundles/" p ->
    bundle_endpoint engine (String.sub p 15 (String.length p - 15))
  | p when String.starts_with ~prefix:"/stats/" p ->
    stats_endpoint engine (String.sub p 7 (String.length p - 7))
  | _ -> text_response ~status:404 "not found\n"

(* Endpoint label for the self-accounting metrics: the first path segment
   ("/stats/perm_metrics" accounts as "stats" — per-relation histograms
   would be unbounded cardinality for no insight). *)
let endpoint_key path =
  match String.split_on_char '/' path with
  | "" :: "" :: _ | [ "" ] -> "index"
  | "" :: seg :: _ -> seg
  | seg :: _ -> seg
  | [] -> "index"

let accounted metrics inner (req : Httpd.request) =
  let key = endpoint_key req.Httpd.rq_path in
  let t0 = Unix.gettimeofday () in
  Metrics.incr metrics "http.requests";
  let record status bytes =
    Metrics.incr metrics (Printf.sprintf "http.status.%dxx" (status / 100));
    Metrics.incr metrics ~by:bytes "http.bytes.out";
    Metrics.observe metrics
      ("http.endpoint." ^ key ^ ".ms")
      ((Unix.gettimeofday () -. t0) *. 1000.)
  in
  match inner req with
  | Httpd.Fixed { status; content_type = _; body } as resp ->
    record status (String.length body);
    resp
  | Httpd.Stream { content_type; write } ->
    (* streams account when they finish: wrap the writer to count bytes,
       then record on return *)
    Httpd.Stream
      {
        content_type;
        write =
          (fun push ->
            let bytes = ref 0 in
            let counted chunk =
              let ok = push chunk in
              if ok then bytes := !bytes + String.length chunk;
              ok
            in
            Fun.protect
              ~finally:(fun () -> record 200 !bytes)
              (fun () -> write counted));
      }

let handler_with engine server_ref =
  let start_s = Unix.gettimeofday () in
  accounted (Engine.metrics engine) (route engine server_ref start_s)

let handler engine = handler_with engine (ref None)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let stop t =
  Httpd.stop t.httpd;
  if not (Atomic.exchange t.restored true) then
    match t.saved_minor_heap with
    | Some words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }
    | None -> ()

let start ?max_connections ~port engine =
  let server_ref = ref None in
  match
    Httpd.start ?max_connections ~port (handler_with engine server_ref)
  with
  | Error _ as e -> e
  | Ok httpd ->
    server_ref := Some httpd;
    let t =
      {
        httpd;
        engine;
        saved_minor_heap = grow_minor_heap ();
        restored = Atomic.make false;
      }
    in
    (* drain before the engine's pool goes away; stop is idempotent so a
       manual \serve off followed by engine close is fine *)
    Engine.at_close engine (fun () -> stop t);
    Ok t
