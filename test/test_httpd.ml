(* The HTTP observability plane: Prometheus exposition correctness (label
   escaping, histogram bucket invariants, the round-trip parser CI uses),
   the embedded server end to end over real sockets, SSE streaming of the
   flight-recorder tail and live progress, graceful shutdown, and the connection cap. *)

open Perm_testkit.Kit
module Metrics = Perm_obs.Metrics
module Prometheus = Perm_obs.Prometheus
module Httpd = Perm_obs.Httpd
module Json = Perm_obs.Json
module Recorder = Perm_obs.Recorder
module History = Perm_obs.History
module Obs_server = Perm_engine.Obs_server

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s failed: %s" what msg

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_render_basics () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m "engine.statements";
  Metrics.set_gauge m "executor.par.skew" 1.25;
  let text = Prometheus.render_metrics m in
  Alcotest.(check bool) "counter sample"
    true (contains ~needle:"perm_engine_statements_total 3" text);
  Alcotest.(check bool) "counter TYPE line"
    true (contains ~needle:"# TYPE perm_engine_statements counter" text);
  Alcotest.(check bool) "gauge sample"
    true (contains ~needle:"perm_executor_par_skew 1.25" text);
  let n = ok_or_fail "validate" (Prometheus.validate text) in
  Alcotest.(check int) "two samples" 2 n

let test_histogram_exposition () =
  let m = Metrics.create () in
  Metrics.observe ~bounds:[| 1.; 10.; 100. |] m "engine.statement.ms" 0.5;
  Metrics.observe ~bounds:[| 1.; 10.; 100. |] m "engine.statement.ms" 5.;
  Metrics.observe ~bounds:[| 1.; 10.; 100. |] m "engine.statement.ms" 5000.;
  let text = Prometheus.render_metrics m in
  ignore (ok_or_fail "validate" (Prometheus.validate text));
  let parsed = ok_or_fail "parse" (Prometheus.parse text) in
  let bucket le =
    List.find_opt
      (fun (s : Prometheus.sample) ->
        s.Prometheus.s_name = "perm_engine_statement_ms_bucket"
        && List.assoc_opt "le" s.Prometheus.s_labels = Some le)
      parsed.Prometheus.p_samples
  in
  let value = function
    | Some (s : Prometheus.sample) -> s.Prometheus.s_value
    | None -> Alcotest.fail "missing bucket"
  in
  Alcotest.(check (float 0.)) "le=1 cumulative" 1. (value (bucket "1"));
  Alcotest.(check (float 0.)) "le=10 cumulative" 2. (value (bucket "10"));
  Alcotest.(check (float 0.)) "le=100 cumulative" 2. (value (bucket "100"));
  Alcotest.(check (float 0.)) "+Inf terminal" 3. (value (bucket "+Inf"));
  let sum =
    List.find
      (fun (s : Prometheus.sample) ->
        s.Prometheus.s_name = "perm_engine_statement_ms_sum")
      parsed.Prometheus.p_samples
  in
  Alcotest.(check (float 0.001)) "sum" 5005.5 sum.Prometheus.s_value

let test_label_escaping_roundtrip () =
  let nasty = "has \"quotes\", a \\ backslash and\na newline" in
  let family =
    {
      Prometheus.f_name = "perm_test_family";
      f_help = "escaping";
      f_kind = Prometheus.Counter;
      f_samples =
        [
          {
            Prometheus.s_name = "perm_test_family_total";
            s_labels = [ ("query", nasty); ("fingerprint", "fp1") ];
            s_value = 7.;
          };
        ];
    }
  in
  let text = Prometheus.render [ family ] in
  (* escaped on the wire... *)
  Alcotest.(check bool) "backslash escaped"
    true (contains ~needle:{|a \\ backslash|} text);
  Alcotest.(check bool) "quote escaped"
    true (contains ~needle:{|\"quotes\"|} text);
  Alcotest.(check bool) "newline escaped"
    true (contains ~needle:{|and\na newline|} text);
  (* ...and restored by the parser *)
  let parsed = ok_or_fail "parse" (Prometheus.parse text) in
  match parsed.Prometheus.p_samples with
  | [ s ] ->
    Alcotest.(check (option string)) "label round-trips"
      (Some nasty)
      (List.assoc_opt "query" s.Prometheus.s_labels);
    Alcotest.(check (float 0.)) "value" 7. s.Prometheus.s_value
  | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l)

let test_validator_rejections () =
  let reject what text =
    match Prometheus.validate text with
    | Ok _ -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  reject "non-monotone buckets"
    "# TYPE perm_h histogram\n\
     perm_h_bucket{le=\"1\"} 5\n\
     perm_h_bucket{le=\"10\"} 3\n\
     perm_h_bucket{le=\"+Inf\"} 5\n\
     perm_h_sum 1\n\
     perm_h_count 5\n";
  reject "missing +Inf bucket"
    "# TYPE perm_h histogram\n\
     perm_h_bucket{le=\"1\"} 1\n\
     perm_h_sum 1\n\
     perm_h_count 1\n";
  reject "+Inf disagrees with _count"
    "# TYPE perm_h histogram\n\
     perm_h_bucket{le=\"+Inf\"} 4\n\
     perm_h_sum 1\n\
     perm_h_count 5\n";
  reject "duplicate sample" "perm_x 1\nperm_x 2\n";
  reject "bad metric name" "0bad 1\n";
  reject "counter without _total"
    "# TYPE perm_c counter\nperm_c 1\n";
  (* and a well-formed histogram passes *)
  ignore
    (ok_or_fail "well-formed histogram"
       (Prometheus.validate
          "# TYPE perm_h histogram\n\
           perm_h_bucket{le=\"1\"} 1\n\
           perm_h_bucket{le=\"+Inf\"} 2\n\
           perm_h_sum 3.5\n\
           perm_h_count 2\n"))

let test_registry_roundtrip () =
  (* a real engine's registry after real statements, rendered and parsed
     back: every sample survives, histograms keep their invariants *)
  let e = forum_engine () in
  ignore (exec_ok e "SELECT * FROM messages");
  ignore (exec_ok e "SELECT PROVENANCE text FROM messages");
  ignore (query_err e "SELECT nope FROM missing");
  let text = Prometheus.render_metrics (Engine.metrics e) in
  let n = ok_or_fail "validate real registry" (Prometheus.validate text) in
  Alcotest.(check bool) "has a useful number of samples" true (n > 20);
  Alcotest.(check bool) "statement histogram present"
    true (contains ~needle:"perm_engine_statement_ms_bucket" text);
  Engine.close e

(* ------------------------------------------------------------------ *)
(* The /metrics handler over an engine (no socket)                     *)
(* ------------------------------------------------------------------ *)

let fake_get path =
  { Httpd.rq_method = "GET"; rq_path = path; rq_query = [] }

let handler_body e path =
  match Obs_server.handler e (fake_get path) with
  | Httpd.Fixed { status; body; _ } -> (status, body)
  | Httpd.Stream _ -> Alcotest.fail "expected a fixed response"

let test_metrics_handler () =
  let e = forum_engine () in
  (* SQL with quotes/backslashes lands in the per-fingerprint family's
     query label — escaping is load-bearing, not decorative *)
  ignore (exec_ok e {|SELECT text FROM messages WHERE text <> 'a "quoted" \ thing'|});
  ignore (exec_ok e "SELECT * FROM users");
  let status, body = handler_body e "/metrics" in
  Alcotest.(check int) "200" 200 status;
  ignore (ok_or_fail "validate handler output" (Prometheus.validate body));
  Alcotest.(check bool) "per-fingerprint family"
    true (contains ~needle:"perm_stat_statements_calls_total{fingerprint=" body);
  Alcotest.(check bool) "loss gauges exported"
    true (contains ~needle:"perm_recorder_dropped" body);
  Alcotest.(check bool) "history eviction gauge exported"
    true (contains ~needle:"perm_history_evicted" body);
  Engine.close e

let test_stats_handler () =
  let e = forum_engine () in
  ignore (exec_ok e "SELECT * FROM messages");
  let status, body = handler_body e "/stats/perm_stat_statements" in
  Alcotest.(check int) "200" 200 status;
  let json = ok_or_fail "json parses" (Json.parse body) in
  (match Json.member "count" json with
  | Some (Json.Int n) -> Alcotest.(check bool) "rows present" true (n >= 1)
  | _ -> Alcotest.fail "no count field");
  let status404, body404 = handler_body e "/stats/not_a_relation" in
  Alcotest.(check int) "unknown relation is 404" 404 status404;
  Alcotest.(check bool) "404 lists valid relations"
    true (contains ~needle:"perm_stat_statements" body404);
  Engine.close e

(* ------------------------------------------------------------------ *)
(* End to end over sockets                                             *)
(* ------------------------------------------------------------------ *)

let with_server e f =
  let srv = ok_or_fail "start server" (Obs_server.start ~port:0 e) in
  Fun.protect ~finally:(fun () -> Obs_server.stop srv) (fun () -> f srv)

let get_ok port path =
  let status, body = ok_or_fail ("GET " ^ path) (Httpd.get ~port path) in
  Alcotest.(check int) ("GET " ^ path ^ " status") 200 status;
  body

let test_server_endpoints () =
  let e = forum_engine () in
  ignore (exec_ok e "SELECT * FROM messages");
  ignore (exec_ok e "SELECT PROVENANCE text FROM messages");
  with_server e (fun srv ->
      let port = Obs_server.port srv in
      let metrics = get_ok port "/metrics" in
      ignore (ok_or_fail "scrape validates" (Prometheus.validate metrics));
      Alcotest.(check bool) "server accounts for itself"
        true (contains ~needle:"perm_http_requests_total" metrics);
      let health = ok_or_fail "healthz json" (Json.parse (get_ok port "/healthz")) in
      (match Json.member "status" health with
      | Some (Json.String "ok") -> ()
      | _ -> Alcotest.fail "healthz status not ok");
      (match Json.member "statements" health with
      | Some (Json.Int n) -> Alcotest.(check bool) "statements counted" true (n >= 2)
      | _ -> Alcotest.fail "healthz has no statements field");
      let ready = ok_or_fail "readyz json" (Json.parse (get_ok port "/readyz")) in
      (match Json.member "governor" ready with
      | Some (Json.Obj _) -> ()
      | _ -> Alcotest.fail "readyz has no governor object");
      (match Option.bind (Json.member "recorder" ready) (Json.member "recorded") with
      | Some (Json.Int n) -> Alcotest.(check bool) "recorder block" true (n >= 2)
      | _ -> Alcotest.fail "readyz has no recorder block");
      let stats =
        ok_or_fail "stats json" (Json.parse (get_ok port "/stats/perm_metrics"))
      in
      (match Json.member "count" stats with
      | Some (Json.Int n) -> Alcotest.(check bool) "metrics rows" true (n > 5)
      | _ -> Alcotest.fail "stats count missing");
      let trace = get_ok port "/trace" in
      ignore (ok_or_fail "trace json" (Json.parse trace));
      Alcotest.(check bool) "chrome trace events"
        true (contains ~needle:"traceEvents" trace);
      let idx = get_ok port "/" in
      Alcotest.(check bool) "index lists /metrics" true (contains ~needle:"/metrics" idx);
      (match Httpd.get ~port "/definitely/not/here" with
      | Ok (404, _) -> ()
      | Ok (st, _) -> Alcotest.failf "expected 404, got %d" st
      | Error msg -> Alcotest.failf "404 request failed: %s" msg));
  Engine.close e

let test_sse_replay_and_progress () =
  let e = engine () in
  Perm_workload.Forum.load_scaled e ~messages:800 ~users:40 ();
  ignore (exec_ok e "SELECT mid FROM messages WHERE mid % 2 = 0");
  with_server e (fun srv ->
      let port = Obs_server.port srv in
      (* stream on another domain while this one keeps executing, so the
         tail sees events logged after the replay *)
      let streamer =
        Domain.spawn (fun () -> Httpd.get ~port "/events?max_ms=1200")
      in
      for _ = 1 to 6 do
        ignore
          (exec_ok e
             "SELECT m1.mid FROM messages m1, messages m2 WHERE m1.mid = \
              m2.mid AND m1.mid % 7 = 0")
      done;
      let body =
        match Domain.join streamer with
        | Ok (200, body) -> body
        | Ok (st, _) -> Alcotest.failf "SSE status %d" st
        | Error msg -> Alcotest.failf "SSE failed: %s" msg
      in
      Alcotest.(check bool) "sse preamble" true (contains ~needle:"retry:" body);
      Alcotest.(check bool) "statement events streamed"
        true (contains ~needle:"event: statement" body);
      Alcotest.(check bool) "progress events streamed"
        true (contains ~needle:"event: progress" body);
      Alcotest.(check bool) "progress carries row counts"
        true (contains ~needle:"\"rows\":" body));
  Engine.close e

let test_sse_anomaly_frames () =
  let e = forum_engine () in
  (* one anomaly before the stream opens (replayed from the ring) *)
  ignore (query_err e "SELECT replayed FROM nowhere");
  with_server e (fun srv ->
      let port = Obs_server.port srv in
      let streamer =
        Domain.spawn (fun () -> Httpd.get ~port "/events?max_ms=1200")
      in
      Unix.sleepf 0.3;
      (* and one while it is tailing *)
      ignore (query_err e "SELECT live FROM nowhere");
      let body =
        match Domain.join streamer with
        | Ok (200, body) -> body
        | Ok (st, _) -> Alcotest.failf "SSE status %d" st
        | Error msg -> Alcotest.failf "SSE failed: %s" msg
      in
      Alcotest.(check bool) "anomaly frames streamed"
        true (contains ~needle:"event: anomaly" body);
      Alcotest.(check bool) "replayed anomaly present"
        true (contains ~needle:"replayed" body);
      Alcotest.(check bool) "live anomaly present"
        true (contains ~needle:"live" body);
      Alcotest.(check bool) "anomaly payload carries its class"
        true (contains ~needle:"\"class\": \"error\"" body));
  Engine.close e

let test_debug_bundles_endpoints () =
  let e = forum_engine () in
  Engine.Forensics.set_capacity e 2;
  for i = 1 to 3 do
    ignore (query_err e (Printf.sprintf "SELECT h%d FROM nowhere" i))
  done;
  with_server e (fun srv ->
      let port = Obs_server.port srv in
      let index =
        ok_or_fail "bundle index json" (Json.parse (get_ok port "/debug/bundles"))
      in
      (match Json.member "count" index with
      | Some (Json.Int n) -> Alcotest.(check int) "bounded retention" 2 n
      | _ -> Alcotest.fail "bundle index has no count");
      let newest_id =
        match Json.member "bundles" index with
        | Some (Json.List (first :: _)) -> (
          match Json.member "id" first with
          | Some (Json.Int id) -> id
          | _ -> Alcotest.fail "bundle summary has no id")
        | _ -> Alcotest.fail "bundle index empty"
      in
      Alcotest.(check int) "newest first" 3 newest_id;
      let doc =
        ok_or_fail "bundle json"
          (Json.parse (get_ok port (Printf.sprintf "/debug/bundles/%d" newest_id)))
      in
      (match Perm_obs.Bundle_schema.validate doc with
      | Ok cls -> Alcotest.(check string) "served bundle validates" "error" cls
      | Error why -> Alcotest.failf "served bundle invalid: %s" why);
      (* evicted and unknown ids are 404, not 500 *)
      (match Httpd.get ~port "/debug/bundles/1" with
      | Ok (404, _) -> ()
      | Ok (st, _) -> Alcotest.failf "evicted id: expected 404, got %d" st
      | Error msg -> Alcotest.failf "evicted id request failed: %s" msg);
      (match Httpd.get ~port "/debug/bundles/notanumber" with
      | Ok (404, _) -> ()
      | Ok (st, _) -> Alcotest.failf "bad id: expected 404, got %d" st
      | Error msg -> Alcotest.failf "bad id request failed: %s" msg);
      let idx = get_ok port "/" in
      Alcotest.(check bool) "index lists /debug/bundles"
        true (contains ~needle:"/debug/bundles" idx));
  Engine.close e

let test_wal_and_spill_gauges_always_present () =
  (* satellite: the WAL and spill families must be in every exposition —
     zeros included — so dashboards can alert without existence checks *)
  let e = forum_engine () in
  ignore (exec_ok e "SELECT * FROM messages");
  let _, body = handler_body e "/metrics" in
  ignore (ok_or_fail "exposition validates" (Prometheus.validate body));
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (contains ~needle body))
    [
      "perm_executor_spill_spills";
      "perm_executor_spill_runs";
      "perm_executor_spill_bytes";
      "perm_executor_spill_fallbacks";
      "perm_wal_epoch";
      "perm_wal_replay_skipped";
      "perm_wal_replay_truncated_bytes";
    ];
  Engine.close e

let test_healthz_wal_member () =
  (* /healthz's WAL member keeps its key names: the flag is "fsync" *)
  let dir = Filename.temp_file "perm_healthz_wal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let e = engine () in
  (match Engine.enable_wal e dir with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "enable_wal: %s" (Perm_err.to_string err));
  ignore (exec_ok e "CREATE TABLE w (a int)");
  let _, body = handler_body e "/healthz" in
  let wal =
    Option.bind
      (Result.to_option (Json.parse body))
      (Json.member "wal")
  in
  List.iter
    (fun (key, present) ->
      Alcotest.(check bool) ("wal." ^ key) present
        (Option.is_some (Option.bind wal (Json.member key))))
    [ ("enabled", true); ("fsync", true); ("fsync_on", false);
      ("last_lsn", true); ("replay", true) ];
  Engine.close e;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let test_graceful_stop_and_restart () =
  let e = forum_engine () in
  let srv = ok_or_fail "start" (Obs_server.start ~port:0 e) in
  let port = Obs_server.port srv in
  let gen1 = Obs_server.generation srv in
  ignore (get_ok port "/healthz");
  Obs_server.stop srv;
  Obs_server.stop srv;  (* idempotent *)
  (match Httpd.get ~timeout_s:2. ~port "/healthz" with
  | Error _ -> ()
  | Ok (st, _) -> Alcotest.failf "stopped server answered with %d" st);
  (* same port is free again; the new incarnation gets a new generation *)
  let srv2 = ok_or_fail "restart" (Obs_server.start ~port e) in
  Alcotest.(check bool) "generation advanced"
    true (Obs_server.generation srv2 > gen1);
  ignore (get_ok port "/healthz");
  (* engine close drains the server via its at_close hook *)
  Engine.close e;
  (match Httpd.get ~timeout_s:2. ~port "/healthz" with
  | Error _ -> ()
  | Ok (st, _) -> Alcotest.failf "server survived engine close with %d" st)

let test_connection_cap () =
  (* a bare Httpd with one slot and a deliberately slow handler: while the
     slot is held, the next connection is turned away with 503 *)
  let slow _req =
    Httpd.Stream
      {
        content_type = "text/plain";
        write =
          (fun push ->
            ignore (push "start\n");
            Unix.sleepf 0.6;
            ignore (push "done\n"));
      }
  in
  let srv =
    ok_or_fail "start capped server" (Httpd.start ~max_connections:1 ~port:0 slow)
  in
  Fun.protect ~finally:(fun () -> Httpd.stop srv) (fun () ->
      let port = Httpd.port srv in
      let holder = Domain.spawn (fun () -> Httpd.get ~port "/hold") in
      Unix.sleepf 0.2;  (* let the holder occupy the only slot *)
      (match Httpd.get ~port "/rejected" with
      | Ok (503, _) -> ()
      | Ok (st, _) -> Alcotest.failf "expected 503 while capped, got %d" st
      | Error msg -> Alcotest.failf "capped request failed: %s" msg);
      (match Domain.join holder with
      | Ok (200, body) ->
        Alcotest.(check bool) "stream completed" true (contains ~needle:"done" body)
      | Ok (st, _) -> Alcotest.failf "holder got %d" st
      | Error msg -> Alcotest.failf "holder failed: %s" msg);
      Alcotest.(check bool) "rejection counted" true (Httpd.rejected srv >= 1);
      (* the slot frees once the connection domain runs its finalizer,
         which can lag the client seeing EOF — poll briefly *)
      let rec wait_free attempts =
        match Httpd.get ~port "/again" with
        | Ok (200, _) -> ()
        | (Ok _ | Error _) when attempts > 0 ->
          Unix.sleepf 0.1;
          wait_free (attempts - 1)
        | Ok (st, _) -> Alcotest.failf "expected 200 after drain, got %d" st
        | Error msg -> Alcotest.failf "request after drain failed: %s" msg
      in
      wait_free 20)

(* ------------------------------------------------------------------ *)
(* Recorder cursors, streaming export, loss gauges                     *)
(* ------------------------------------------------------------------ *)

let test_recorder_since () =
  let r = Recorder.create ~capacity:3 () in
  let note i = Recorder.Note { tag = "n"; detail = string_of_int i } in
  let details =
    List.map (fun ev ->
        match ev.Recorder.ev_payload with
        | Recorder.Note { detail; _ } -> int_of_string detail
        | _ -> -1)
  in
  for i = 1 to 5 do
    Recorder.record r (note i)
  done;
  Alcotest.(check int) "total recorded" 5 (Recorder.recorded r);
  let cursor, events = Recorder.since r 0 in
  Alcotest.(check int) "cursor at total" 5 cursor;
  (* ring holds the newest 3; the two evicted before reading are absent *)
  Alcotest.(check (list int)) "retained tail" [ 3; 4; 5 ] (details events);
  let cursor2, fresh = Recorder.since r cursor in
  Alcotest.(check int) "no new events" 0 (List.length fresh);
  Alcotest.(check int) "cursor stable" 5 cursor2;
  Recorder.record r (note 6);
  let cursor3, one = Recorder.since r cursor2 in
  Alcotest.(check (list int)) "incremental tail" [ 6 ] (details one);
  Alcotest.(check int) "cursor advanced" 6 cursor3;
  (* growing the ring keeps the retained tail readable from the start *)
  Recorder.set_capacity r 8;
  Alcotest.(check (list int)) "tail after growing" [ 4; 5; 6 ]
    (details (snd (Recorder.since r 0)));
  (* a disabled recorder yields nothing, and its cursor stays put *)
  let off = Recorder.create ~capacity:0 () in
  Recorder.record off (note 1);
  Alcotest.(check bool) "capacity 0 yields nothing" true
    (Recorder.since off 0 = (0, []))

let test_iter_export_matches_list () =
  let e = forum_engine () in
  ignore (exec_ok e "SELECT * FROM messages");
  ignore (exec_ok e "SELECT uid, count(*) FROM messages GROUP BY uid");
  ignore (query_err e "SELECT broken FROM nowhere");
  let h = Engine.history e in
  let streamed = ref [] in
  History.iter_export h (fun j -> streamed := j :: !streamed);
  let streamed = List.rev !streamed in
  let listed = History.export_jsonl h in
  Alcotest.(check int) "same record count"
    (List.length listed) (List.length streamed);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same record" (Json.to_string a) (Json.to_string b))
    listed streamed;
  Engine.close e

let test_loss_gauges () =
  let e = forum_engine () in
  Recorder.set_capacity (Engine.recorder e) 2;
  for _ = 1 to 5 do
    ignore (exec_ok e "SELECT mid FROM messages")
  done;
  Engine.refresh_loss_gauges e;
  let m = Engine.metrics e in
  (match Metrics.gauge m "recorder.dropped" with
  | Some d -> Alcotest.(check bool) "ring drops surfaced" true (d >= 1.)
  | None -> Alcotest.fail "recorder.dropped gauge missing");
  (match Metrics.gauge m "recorder.recorded" with
  | Some d -> Alcotest.(check bool) "total recorded surfaced" true (d >= 5.)
  | None -> Alcotest.fail "recorder.recorded gauge missing");
  (match Metrics.gauge m "history.evicted" with
  | Some _ -> ()
  | None -> Alcotest.fail "history.evicted gauge missing");
  (* and they ride along into the exposition *)
  let _, body = handler_body e "/metrics" in
  Alcotest.(check bool) "dropped gauge in exposition"
    true (contains ~needle:"perm_recorder_dropped" body);
  Engine.close e

let () =
  Alcotest.run "httpd"
    [
      ( "prometheus",
        [
          case "render basics" test_render_basics;
          case "histogram cumulative buckets and +Inf" test_histogram_exposition;
          case "label escaping round-trip" test_label_escaping_roundtrip;
          case "validator rejections" test_validator_rejections;
          case "real registry round-trip" test_registry_roundtrip;
        ] );
      ( "handlers",
        [
          case "/metrics with per-fingerprint families" test_metrics_handler;
          case "/stats JSON and 404" test_stats_handler;
        ] );
      ( "server",
        [
          case "endpoints end to end" test_server_endpoints;
          case "SSE replay + live progress" test_sse_replay_and_progress;
          case "SSE anomaly frames, replayed and live" test_sse_anomaly_frames;
          case "/debug/bundles index, fetch, 404s" test_debug_bundles_endpoints;
          case "WAL + spill gauges always in /metrics"
            test_wal_and_spill_gauges_always_present;
          case "/healthz WAL member key names" test_healthz_wal_member;
          case "graceful stop, restart, engine close" test_graceful_stop_and_restart;
          case "connection cap 503" test_connection_cap;
        ] );
      ( "satellites",
        [
          case "recorder since cursors" test_recorder_since;
          case "iter_export matches export_jsonl" test_iter_export_matches_list;
          case "telemetry loss gauges" test_loss_gauges;
        ] );
    ]
