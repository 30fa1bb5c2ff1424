(* Benchmark harness: regenerates every experiment of DESIGN.md §5.

   The demo paper has no numeric tables; Figures 1/2 are data artifacts
   (checked here as the E2 sanity gate, reproduced exactly by the test
   suite), and B1-B6 regenerate the performance behaviour the demo
   exhibits: provenance rewrite overhead per query class, rewrite-strategy
   ablation, lazy vs. eager computation, contribution-semantics cost, scale
   sweep, and the optimizer ablation. One Bechamel [Test.make] per measured
   configuration; each experiment prints one plain-text table. *)

open Bechamel
module Engine = Perm_engine.Engine
module Forum = Perm_workload.Forum
module Planner = Perm_planner.Planner

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let quota = ref 0.4

(* Estimated wall-clock nanoseconds for one call of [f], via Bechamel's OLS
   over the monotonic clock. *)
let measure_ns name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second !quota) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) analyzed [] with
  | [ o ] -> (
    match Analyze.OLS.estimates o with
    | Some [ t ] -> t
    | Some _ | None -> Float.nan)
  | _ -> Float.nan

let ms ns = ns /. 1e6

let run_query engine sql =
  match Engine.query engine sql with
  | Ok rs -> ignore rs.Engine.rows
  | Error msg -> failwith (Printf.sprintf "bench query failed: %s (%s)" msg sql)

let time_query engine sql =
  (* warm once outside the measurement so cold caches and the major-heap
     spike from data loading don't pollute the OLS estimate *)
  run_query engine sql;
  measure_ns sql (fun () -> run_query engine sql)

(* plain-text table output *)
let print_table title header rows =
  Printf.printf "\n## %s\n\n" title;
  let widths =
    List.fold_left
      (fun ws row -> List.map2 (fun w c -> max w (String.length c)) ws row)
      (List.map String.length header)
      rows
  in
  let print_row row =
    print_string "  ";
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        print_string c;
        print_string (String.make (w - String.length c + 2) ' '))
      row;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout

let fms t = Printf.sprintf "%.3f" (ms t)
let ffac t = Printf.sprintf "%.2fx" t

(* engines with scaled forum data, built once per size *)
let forum_cache : (int, Engine.t) Hashtbl.t = Hashtbl.create 8

let forum_engine size =
  match Hashtbl.find_opt forum_cache size with
  | Some e -> e
  | None ->
    let e = Engine.create () in
    Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
    Gc.compact ();
    Hashtbl.replace forum_cache size e;
    e

(* ------------------------------------------------------------------ *)
(* E2 sanity gate: Figure 2 must hold before we trust any numbers      *)
(* ------------------------------------------------------------------ *)

let e2_sanity () =
  let e = Engine.create () in
  Forum.load e;
  match Engine.query e Forum.q1_provenance with
  | Ok rs when List.length rs.Engine.rows = 4 ->
    print_endline
      "[E2] Figure 2 sanity: provenance of q1 has the paper's 4 rows - OK"
  | Ok rs ->
    failwith
      (Printf.sprintf "[E2] FAILED: expected 4 rows, got %d"
         (List.length rs.Engine.rows))
  | Error msg -> failwith ("[E2] FAILED: " ^ msg)

(* ------------------------------------------------------------------ *)
(* B1: rewrite overhead by query class                                 *)
(* ------------------------------------------------------------------ *)

let query_classes =
  [
    ( "SPJ",
      "SELECT m.text, a.uid FROM messages m JOIN approved a ON m.mid = a.mid \
       WHERE m.mid % 7 = 0",
      "SELECT PROVENANCE m.text, a.uid FROM messages m JOIN approved a ON \
       m.mid = a.mid WHERE m.mid % 7 = 0" );
    ( "AGG (q3)",
      "SELECT count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid GROUP \
       BY v1.mid, text",
      "SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid = \
       a.mid GROUP BY v1.mid, text" );
    ( "UNION (q1)",
      "SELECT mid, text FROM messages UNION SELECT mid, text FROM imports",
      "SELECT PROVENANCE mid, text FROM messages UNION SELECT mid, text FROM \
       imports" );
    ( "NESTED (IN)",
      "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)",
      "SELECT PROVENANCE text FROM messages WHERE mid IN (SELECT mid FROM \
       approved)" );
  ]

let b1 sizes =
  let rows =
    List.concat_map
      (fun size ->
        let e = forum_engine size in
        List.map
          (fun (cls, q, qp) ->
            let t0 = time_query e q in
            let t1 = time_query e qp in
            [ cls; string_of_int size; fms t0; fms t1; ffac (t1 /. t0) ])
          query_classes)
      sizes
  in
  print_table "B1: provenance rewrite overhead by query class"
    [ "class"; "messages"; "original ms"; "provenance ms"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* B2: aggregation rewrite strategy ablation                            *)
(* ------------------------------------------------------------------ *)

let b2 ~rows:n ~group_counts =
  let rows =
    List.map
      (fun groups ->
        let e = Engine.create () in
        (match Engine.execute e "CREATE TABLE g (k int, v int)" with
        | Ok _ -> ()
        | Error msg -> failwith msg);
        let buf = Buffer.create 4096 in
        let flush_batch () =
          if Buffer.length buf > 0 then begin
            (match
               Engine.execute e
                 (Printf.sprintf "INSERT INTO g VALUES %s" (Buffer.contents buf))
             with
            | Ok _ -> ()
            | Error msg -> failwith msg);
            Buffer.clear buf
          end
        in
        for i = 0 to n - 1 do
          if Buffer.length buf > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "(%d, %d)" (i mod groups) i);
          if i mod 500 = 499 then flush_batch ()
        done;
        flush_batch ();
        Gc.compact ();
        let sql = "SELECT PROVENANCE count(*), k FROM g GROUP BY k" in
        let run strategy config =
          Engine.set_agg_strategy e strategy;
          Engine.set_optimizer_config e config;
          let t = time_query e sql in
          Engine.set_optimizer_config e Planner.default_config;
          t
        in
        let no_decorrelate =
          { Planner.default_config with Planner.decorrelate_applies = false }
        in
        let tj = run Engine.Use_join Planner.default_config in
        (* raw lateral: the planner must not de-correlate it back to a join *)
        let tl = run Engine.Use_lateral no_decorrelate in
        Engine.set_agg_strategy e Engine.Use_cost_based;
        run_query e sql;
        let chosen =
          match Engine.last_report e with
          | Some r -> (
            match r.Perm_provenance.Rewriter.agg_choices with
            | Perm_provenance.Rewriter.Agg_join :: _ -> "join"
            | Perm_provenance.Rewriter.Agg_lateral :: _ -> "lateral"
            | [] -> "?")
          | None -> "?"
        in
        [ string_of_int groups; fms tj; fms tl; ffac (tl /. tj); chosen ])
      group_counts
  in
  print_table
    (Printf.sprintf
       "B2: aggregation rewrite strategies (%d rows; lateral re-evaluates per group)"
       n)
    [ "groups"; "join ms"; "lateral ms"; "lateral/join"; "cost-based picks" ]
    rows

(* ------------------------------------------------------------------ *)
(* B3: lazy vs eager provenance                                        *)
(* ------------------------------------------------------------------ *)

let b3 ~size =
  let e = forum_engine size in
  let q =
    "SELECT count(*) AS cnt, text FROM v1 JOIN approved a ON v1.mid = a.mid \
     GROUP BY v1.mid, text"
  in
  let qp =
    "SELECT PROVENANCE count(*) AS cnt, text FROM v1 JOIN approved a ON \
     v1.mid = a.mid GROUP BY v1.mid, text"
  in
  let t_store =
    measure_ns "store" (fun () ->
        (match Engine.execute e "DROP TABLE b3_store" with
        | Ok _ | Error _ -> ());
        match
          Engine.execute e
            (Printf.sprintf "STORE PROVENANCE %s INTO b3_store" q)
        with
        | Ok _ -> ()
        | Error msg -> failwith msg)
  in
  let t_lazy = time_query e qp in
  let t_eager = time_query e "SELECT * FROM b3_store" in
  let break_even = t_store /. Float.max 1.0 (t_lazy -. t_eager) in
  print_table
    (Printf.sprintf "B3: lazy vs eager provenance (forum %d messages)" size)
    [ "mode"; "cost ms"; "notes" ]
    [
      [ "lazy (per query)"; fms t_lazy; "recomputes the rewritten query" ];
      [ "eager: store once"; fms t_store; "STORE PROVENANCE ... INTO" ];
      [ "eager: per read"; fms t_eager; "scan of the stored table" ];
      [
        "break-even";
        Printf.sprintf "%.1f reads" break_even;
        "store cost amortized vs lazy";
      ];
    ]

(* ------------------------------------------------------------------ *)
(* B4: contribution-semantics cost                                     *)
(* ------------------------------------------------------------------ *)

let b4 ~size =
  let e = forum_engine size in
  let variant name sql = [ name; fms (time_query e sql) ] in
  print_table
    (Printf.sprintf "B4: contribution semantics cost (forum %d, q3 shape)" size)
    [ "variant"; "ms" ]
    [
      variant "plain (no provenance)"
        "SELECT count(*), text FROM v1 JOIN approved a ON v1.mid = a.mid \
         GROUP BY v1.mid, text";
      variant "INFLUENCE"
        "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text FROM \
         v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text";
      variant "COPY"
        "SELECT PROVENANCE ON CONTRIBUTION (COPY) count(*), text FROM v1 \
         JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text";
      variant "COPY COMPLETE"
        "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) count(*), text \
         FROM v1 JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text";
    ]

(* ------------------------------------------------------------------ *)
(* B5: scale sweep                                                     *)
(* ------------------------------------------------------------------ *)

let b5 sizes =
  let rows =
    List.concat_map
      (fun size ->
        let e = forum_engine size in
        List.filter_map
          (fun (cls, q, qp) ->
            if cls = "SPJ" || cls = "AGG (q3)" then begin
              let t0 = time_query e q in
              let t1 = time_query e qp in
              Some [ cls; string_of_int size; fms t0; fms t1; ffac (t1 /. t0) ]
            end
            else None)
          query_classes)
      sizes
  in
  print_table "B5: provenance overhead vs. scale"
    [ "class"; "messages"; "original ms"; "provenance ms"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* B6: optimizer ablation on rewritten queries                         *)
(* ------------------------------------------------------------------ *)

let b6 ~size =
  let e = forum_engine size in
  let queries =
    [
      ( "SPJ+prov",
        "SELECT PROVENANCE m.text FROM messages m JOIN approved a ON m.mid = \
         a.mid WHERE m.mid % 11 = 0" );
      ( "AGG+prov",
        "SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mid \
         = a.mid GROUP BY v1.mid, text" );
      ( "nested prov subquery",
        "SELECT text FROM (SELECT PROVENANCE count(*) AS cnt, text FROM v1 \
         JOIN approved a ON v1.mid = a.mid GROUP BY v1.mid, text) p WHERE \
         p.prov_imports_origin = 'superForum'" );
    ]
  in
  let rows =
    List.map
      (fun (name, sql) ->
        Engine.set_optimizer_config e Planner.default_config;
        let t_on = time_query e sql in
        Engine.set_optimizer_config e Planner.disabled_config;
        let t_off = time_query e sql in
        Engine.set_optimizer_config e Planner.default_config;
        [ name; fms t_on; fms t_off; ffac (t_off /. t_on) ])
      queries
  in
  print_table "B6: planner ablation (rewritten queries, optimizer on vs off)"
    [ "query"; "optimized ms"; "unoptimized ms"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* B7: TPC-H-like warehouse queries (companion ICDE'09 evaluation shape) *)
(* ------------------------------------------------------------------ *)

let b7 ~scale =
  let e = Engine.create () in
  Perm_workload.Star.load e ~scale ();
  let rows =
    List.map
      (fun (name, q, qp) ->
        let t0 = time_query e q in
        let t1 = time_query e qp in
        [ name; fms t0; fms t1; ffac (t1 /. t0) ])
      Perm_workload.Star.queries
  in
  print_table
    (Printf.sprintf
       "B7: TPC-H-like star schema, provenance overhead (scale %d orders)" scale)
    [ "query"; "original ms"; "provenance ms"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* B7-par: morsel-driven parallel executor speedup sweep.               *)
(* Serial baseline vs. the domain pool at 1, 2 and 4 workers on the     *)
(* scale-sweep join/aggregation queries. A 1-domain pool isolates the   *)
(* framework overhead (morsel slicing + batch machinery, no extra       *)
(* hardware); speedups > 1 need actual cores.                           *)
(* ------------------------------------------------------------------ *)

let b7_par_queries =
  [
    ("scan+filter", "SELECT mid, text FROM messages WHERE mid % 3 = 0");
    ( "join probe",
      "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid" );
    ( "aggregate",
      "SELECT uid, count(*), max(mid) FROM messages GROUP BY uid" );
    ( "join+prov",
      "SELECT PROVENANCE m.text, a.uid FROM messages m JOIN approved a ON \
       m.mid = a.mid" );
  ]

let b7_par_domains = [ 1; 2; 4 ]

(* [(query, serial_ns, [(domains, ns)])] — shared by the table printer and
   the BENCH_phases.json section. *)
let b7_par_measure ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  Gc.compact ();
  Engine.set_parallel_threshold e 1;
  let rows =
    List.map
      (fun (name, sql) ->
        Engine.set_parallel e Engine.Par_off;
        let t_serial = time_query e sql in
        let par =
          List.map
            (fun n ->
              Engine.set_parallel e (Engine.Par_domains n);
              (n, time_query e sql))
            b7_par_domains
        in
        Engine.set_parallel e Engine.Par_off;
        (name, t_serial, par))
      b7_par_queries
  in
  Engine.close e;
  rows

let b7_par ~size =
  let measured = b7_par_measure ~size in
  let rows =
    List.map
      (fun (name, t_serial, par) ->
        name :: fms t_serial
        :: List.concat_map (fun (_, t) -> [ fms t; ffac (t_serial /. t) ]) par)
      measured
  in
  print_table
    (Printf.sprintf
       "B7-par: morsel-driven parallel speedup (forum %d messages, %d \
        hardware cores)"
       size
       (Domain.recommended_domain_count ()))
    ([ "query"; "serial ms" ]
    @ List.concat_map
        (fun n -> [ Printf.sprintf "%dd ms" n; Printf.sprintf "%dd speedup" n ])
        b7_par_domains)
    rows

(* ------------------------------------------------------------------ *)
(* B8: hash-index ablation — provenance queries benefit from standard   *)
(* relational access paths (paper 1: "storage techniques developed for  *)
(* relational databases")                                               *)
(* ------------------------------------------------------------------ *)

let b8 ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  Gc.compact ();
  let queries =
    [
      ("point lookup", "SELECT text FROM messages WHERE mid = 17");
      ("point lookup + provenance", "SELECT PROVENANCE text FROM messages WHERE mid = 17");
      ( "selective join + provenance",
        "SELECT PROVENANCE m.text, a.uid FROM messages m JOIN approved a ON \
         m.mid = a.mid WHERE m.mid = 17" );
    ]
  in
  let rows =
    List.map
      (fun (name, sql) ->
        (match Engine.execute e "DROP INDEX m_mid" with Ok _ | Error _ -> ());
        let t_noidx = time_query e sql in
        (match Engine.execute e "CREATE INDEX m_mid ON messages (mid)" with
        | Ok _ -> ()
        | Error msg -> failwith msg);
        let t_idx = time_query e sql in
        [ name; fms t_noidx; fms t_idx; ffac (t_noidx /. t_idx) ])
      queries
  in
  print_table
    (Printf.sprintf "B8: hash-index ablation (forum %d messages)" size)
    [ "query"; "no index ms"; "indexed ms"; "speedup" ]
    rows

(* ------------------------------------------------------------------ *)
(* B8-guard: resource-governor overhead — the per-operator cancellation *)
(* guard is only compiled in when a limit is armed, so the interesting  *)
(* number is armed-but-never-firing vs. guardrails off.                 *)
(* ------------------------------------------------------------------ *)

let guard_queries =
  [
    ("scan-filter", "SELECT mid, text FROM messages WHERE mid % 3 = 0");
    ( "join +prov",
      "SELECT PROVENANCE m.text, u.name FROM messages m, users u WHERE \
       m.uid = u.uid" );
    ("agg", "SELECT uid, count(*), max(mid) FROM messages GROUP BY uid");
  ]

let b8_guard_measure ~size =
  (* a private serial engine: the shared forum_cache engine may have been
     left in parallel mode by B7-par, which would swamp the guard delta *)
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  (* spill off: the armed arm must exercise the kill-switch guard, not
     the graceful spill threshold *)
  Engine.set_spill e false;
  (* run the whole battery once before measuring anything: the heap grows
     to working size on the first heavy query, and whichever arm ran
     first would otherwise eat that cost as phantom overhead *)
  List.iter (fun (_, sql) -> run_query e sql) guard_queries;
  Gc.compact ();
  List.map
    (fun (name, sql) ->
      Engine.set_statement_timeout e 0.;
      Engine.set_tuple_budget e 0;
      let t_off = time_query e sql in
      (* armed but never firing: a one-hour deadline and an absurd tuple
         budget measure the pure bookkeeping cost of the guard *)
      Engine.set_statement_timeout e 3_600_000.;
      Engine.set_tuple_budget e 1_000_000_000;
      let t_armed = time_query e sql in
      Engine.set_statement_timeout e 0.;
      Engine.set_tuple_budget e 0;
      (name, t_off, t_armed))
    guard_queries

let b8_guard ~size =
  let rows =
    List.map
      (fun (name, t_off, t_armed) ->
        [ name; fms t_off; fms t_armed; ffac (t_armed /. t_off) ])
      (b8_guard_measure ~size)
  in
  print_table
    (Printf.sprintf
       "B8-guard: governor guard overhead, armed-but-idle vs. off (forum %d \
        messages)"
       size)
    [ "query"; "guards off ms"; "armed ms"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* B9-prof: plan-node profiler overhead. The uninstrumented path        *)
(* compiles identical closures with no wrapper, so "profiler off" must  *)
(* stay at the plain-path baseline (EXPERIMENTS.md targets <= 1.1x);    *)
(* "profiler on" prices the per-pull counters + timer.                  *)
(* ------------------------------------------------------------------ *)

(* same battery as the governor bench: scan-filter, rewritten join, agg *)
let prof_queries = guard_queries

let b9_prof_measure ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  (* warm the heap before measuring either arm (see b8_guard_measure) *)
  List.iter (fun (_, sql) -> run_query e sql) prof_queries;
  Gc.compact ();
  List.map
    (fun (name, sql) ->
      Engine.set_instrumentation e false;
      let t_off = time_query e sql in
      Engine.set_instrumentation e true;
      let t_on = time_query e sql in
      Engine.set_instrumentation e false;
      (name, t_off, t_on))
    prof_queries

let b9_prof ~size =
  let rows =
    List.map
      (fun (name, t_off, t_on) ->
        [ name; fms t_off; fms t_on; ffac (t_on /. t_off) ])
      (b9_prof_measure ~size)
  in
  print_table
    (Printf.sprintf
       "B9-prof: plan-node profiler overhead, on vs. off (forum %d messages)"
       size)
    [ "query"; "profiler off ms"; "profiler on ms"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* B10-hist: telemetry-history overhead. Recording is one ring push +   *)
(* a watchdog baseline check per top-level statement, so the on/off     *)
(* delta should be flat (EXPERIMENTS.md targets < 5% on this battery).  *)
(* ------------------------------------------------------------------ *)

let hist_queries = guard_queries

let b10_hist_measure ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  let h = Engine.history e in
  (* warm the heap before measuring either arm (see b8_guard_measure) *)
  List.iter (fun (_, sql) -> run_query e sql) hist_queries;
  Gc.compact ();
  List.map
    (fun (name, sql) ->
      Perm_obs.History.set_capacity h 0;
      let t_off = time_query e sql in
      Perm_obs.History.set_capacity h 128;
      let t_on = time_query e sql in
      Perm_obs.History.set_capacity h 0;
      (name, t_off, t_on))
    hist_queries

let b10_hist ~size =
  let rows =
    List.map
      (fun (name, t_off, t_on) ->
        [ name; fms t_off; fms t_on; ffac (t_on /. t_off) ])
      (b10_hist_measure ~size)
  in
  print_table
    (Printf.sprintf
       "B10-hist: telemetry history overhead, on vs. off (forum %d messages)"
       size)
    [ "query"; "history off ms"; "history on ms"; "overhead" ]
    rows

(* ------------------------------------------------------------------ *)
(* B11-http: HTTP observability plane overhead. The server reads only   *)
(* snapshots under the engine's obs lock (held for microseconds per     *)
(* statement), so the guard battery under concurrent scrape load must   *)
(* match the server-off baseline within noise (EXPERIMENTS.md < 5%).    *)
(* ------------------------------------------------------------------ *)

let http_queries = guard_queries

(* Bechamel refuses to start sampling until the major heap stabilizes,
   which can never happen while scraper domains allocate concurrently —
   so B11 times both arms with the same plain monotonic loop. Returns
   (median, min): the median prices CPU sharing with the scrapers (an
   artifact of core count, gone with >= 2 cores), while the min is the
   collision-free floor — the statistic that would rise if the plane's
   locking actually blocked the query path, since a scrape is in flight
   almost continuously at bench cadence. *)
let time_query_plain engine sql =
  let clock = Toolkit.Monotonic_clock.make () in
  let now () = Toolkit.Monotonic_clock.get clock in
  let budget_ns = !quota *. 1e9 in
  let samples = ref [] in
  let count = ref 0 in
  let spent = ref 0. in
  (* the sample cap only bounds pathologically fast queries; the median
     must span many scrape cycles, so it has to be high enough that a
     microsecond-scale query still samples across >> 100 ms of wall clock *)
  while !spent < budget_ns && !count < 20_000 do
    let t0 = now () in
    run_query engine sql;
    let dt = now () -. t0 in
    samples := dt :: !samples;
    incr count;
    spent := !spent +. dt
  done;
  let sorted = List.sort Float.compare !samples in
  (List.nth sorted (List.length sorted / 2), List.hd sorted)

let b11_http_measure ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  (* the server raises the minor heap while it runs (fewer cross-domain
     GC barriers); apply the same sizing to the server-off arm so the two
     arms compare GC-for-GC, then restore afterwards *)
  let saved_gc = Gc.get () in
  Gc.set { saved_gc with Gc.minor_heap_size = 4 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set saved_gc) @@ fun () ->
  (* warm the heap before measuring either arm (see b8_guard_measure) *)
  List.iter (fun (_, sql) -> run_query e sql) http_queries;
  Gc.compact ();
  let off =
    List.map (fun (name, sql) -> (name, time_query_plain e sql)) http_queries
  in
  match Perm_engine.Obs_server.start ~port:0 e with
  | Error msg -> failwith ("B11-http: observability server refused: " ^ msg)
  | Ok srv ->
    let port = Perm_engine.Obs_server.port srv in
    let stop = Atomic.make false in
    let scrapes = Atomic.make 0 in
    (* two scraper domains at a 100 ms cadence: one on the full Prometheus
       exposition, one on a JSON stat relation — ~150x more aggressive
       than Prometheus' default 15 s scrape interval, so a scrape overlaps
       most in-flight queries without degenerating into a pure
       CPU-starvation test on single-core machines *)
    let scraper path =
      Domain.spawn (fun () ->
          while not (Atomic.get stop) do
            (match Perm_obs.Httpd.get ~port path with
            | Ok _ -> Atomic.incr scrapes
            | Error _ -> ());
            Unix.sleepf 0.1
          done)
    in
    let scrapers = [ scraper "/metrics"; scraper "/stats/perm_stat_statements" ] in
    let on =
      List.map (fun (name, sql) -> (name, time_query_plain e sql)) http_queries
    in
    Atomic.set stop true;
    List.iter Domain.join scrapers;
    Perm_engine.Obs_server.stop srv;
    let rows =
      List.map2
        (fun (name, off_t) (name', on_t) ->
          assert (name = name');
          (name, off_t, on_t))
        off on
    in
    (rows, Atomic.get scrapes)

let b11_http ~size =
  let measured, scrapes = b11_http_measure ~size in
  let rows =
    List.map
      (fun (name, (off_med, off_min), (on_med, on_min)) ->
        [
          name;
          fms off_med;
          fms on_med;
          ffac (on_med /. off_med);
          fms off_min;
          fms on_min;
          ffac (on_min /. off_min);
        ])
      measured
  in
  print_table
    (Printf.sprintf
       "B11-http: query latency with the HTTP plane scraping vs. off (forum \
        %d messages, %d scrapes served; min = collision-free floor)"
       size scrapes)
    [
      "query";
      "off med ms";
      "scraped med ms";
      "med overhead";
      "off min ms";
      "scraped min ms";
      "floor overhead";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* B12-vec: vectorized batch-at-a-time executor vs the row-at-a-time    *)
(* closures, per query class, plus a batch_rows sweep. Serial on both   *)
(* arms: this isolates the kernel/dispatch win from parallelism (B7-par *)
(* covers the combination).                                             *)
(* ------------------------------------------------------------------ *)

let b12_vec_queries =
  [
    ("scan+filter", "SELECT mid, text FROM messages WHERE mid % 3 = 0");
    ("project+expr", "SELECT mid * 2 + uid, upper(text) FROM messages");
    ( "join probe",
      "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid" );
    ("aggregate", "SELECT uid, count(*), max(mid) FROM messages GROUP BY uid");
    ( "prov join",
      "SELECT PROVENANCE m.text, a.uid FROM messages m JOIN approved a ON \
       m.mid = a.mid" );
  ]

let b12_vec_sweep = [ 256; 1_024; 4_096 ]

(* [(query, row_ns, [(batch_rows, ns)])] — shared by the table printer and
   the BENCH_phases.json "vectorized" section. *)
let b12_vec_measure ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  Gc.compact ();
  Engine.set_parallel e Engine.Par_off;
  let rows =
    List.map
      (fun (name, sql) ->
        Engine.set_vectorized e false;
        let t_row = time_query e sql in
        Engine.set_vectorized e true;
        let sweep =
          List.map
            (fun bn ->
              Engine.set_batch_rows e bn;
              (bn, time_query e sql))
            b12_vec_sweep
        in
        Engine.set_batch_rows e Perm_executor.Executor.default_batch_rows;
        (name, t_row, sweep))
      b12_vec_queries
  in
  Engine.close e;
  rows

let b12_vec ~size =
  let measured = b12_vec_measure ~size in
  let rows =
    List.map
      (fun (name, t_row, sweep) ->
        name :: fms t_row
        :: List.concat_map
             (fun (_, t) -> [ fms t; ffac (t_row /. t) ])
             sweep)
      measured
  in
  print_table
    (Printf.sprintf
       "B12-vec: batch-at-a-time executor vs row closures (forum %d \
        messages, serial)"
       size)
    ([ "query"; "row ms" ]
    @ List.concat_map
        (fun bn -> [ Printf.sprintf "b%d ms" bn; Printf.sprintf "b%d speedup" bn ])
        b12_vec_sweep)
    rows

(* ------------------------------------------------------------------ *)
(* B13-wal: durability cost. Per-statement WAL logging prices one       *)
(* append per mutation plus a sealed commit frame; fsync-on-commit adds *)
(* the stable-storage wait. The spill sweep prices graceful             *)
(* degradation: the same sort+join under shrinking tuple budgets,       *)
(* external runs and chunked builds vs all in memory.                   *)
(* ------------------------------------------------------------------ *)

let b13_inserts = 300

let b13_temp_dir () =
  let d = Filename.temp_file "perm_bench_wal" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let b13_wal_measure () =
  let clock = Toolkit.Monotonic_clock.make () in
  let now () = Toolkit.Monotonic_clock.get clock in
  let exec e sql =
    match Engine.execute e sql with
    | Ok _ -> ()
    | Error msg -> failwith ("B13-wal: " ^ msg)
  in
  let arm ~wal ~fsync =
    let e = Engine.create () in
    let dir = if wal then Some (b13_temp_dir ()) else None in
    (match dir with
    | Some d -> (
      match Engine.enable_wal e d with
      | Ok _ -> Engine.set_wal_fsync e fsync
      | Error err -> failwith ("B13-wal: " ^ Perm_err.to_string err))
    | None -> ());
    exec e "CREATE TABLE b13 (k INTEGER, v TEXT);";
    (* warm: the first inserts pay heap growth and, on the WAL arms,
       file creation *)
    for i = 0 to 49 do
      exec e (Printf.sprintf "INSERT INTO b13 VALUES (%d, 'warm%d');" i i)
    done;
    let t0 = now () in
    for i = 0 to b13_inserts - 1 do
      exec e (Printf.sprintf "INSERT INTO b13 VALUES (%d, 'row%d');" (i + 50) i)
    done;
    let dt = now () -. t0 in
    Engine.close e;
    (match dir with
    | Some d ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote d)))
    | None -> ());
    dt /. float_of_int b13_inserts
  in
  [
    ("wal off", arm ~wal:false ~fsync:false);
    ("wal on, fsync off", arm ~wal:true ~fsync:false);
    ("wal on, fsync on", arm ~wal:true ~fsync:true);
  ]

(* 0 = budget off (pure in-memory); the small budgets force external
   sort runs and chunked join builds through the spill path *)
let b13_spill_budgets = [ 0; 20_000; 2_000; 500 ]

let b13_spill_measure ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  Gc.compact ();
  let sql =
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid \
     ORDER BY m.text, u.name"
  in
  let rows =
    List.map
      (fun budget ->
        Engine.set_tuple_budget e budget;
        (budget, time_query e sql))
      b13_spill_budgets
  in
  Engine.set_tuple_budget e 0;
  Engine.close e;
  rows

let b13_wal ~size =
  let wal_rows =
    let base = ref 0. in
    List.map
      (fun (name, t) ->
        if !base = 0. then base := t;
        [ name; fms t; ffac (t /. !base) ])
      (b13_wal_measure ())
  in
  print_table
    (Printf.sprintf
       "B13-wal: per-insert durability cost (%d single-row inserts)"
       b13_inserts)
    [ "arm"; "ms/insert"; "vs off" ]
    wal_rows;
  let spill_rows =
    List.map
      (fun (budget, t) ->
        [
          (if budget = 0 then "off (in memory)" else string_of_int budget);
          fms t;
        ])
      (b13_spill_measure ~size)
  in
  print_table
    (Printf.sprintf
       "B13-spill: tuple-budget sweep through the spilling sort+join (forum \
        %d messages)"
       size)
    [ "tuple budget"; "ms" ]
    spill_rows

(* ------------------------------------------------------------------ *)
(* B14-forensics: flight-recorder overhead, on vs. off. Recording is a  *)
(* handful of wait-free ring pushes per statement (start, finish, plan  *)
(* milestones), so the on/off delta over the B12 battery must stay flat *)
(* (EXPERIMENTS.md targets <= 5% median) — the number that justifies    *)
(* keeping the recorder on by default. The anomaly burst prices the     *)
(* slow path: a failing statement pays classification plus a full       *)
(* forensics-bundle snapshot.                                           *)
(* ------------------------------------------------------------------ *)

let b14_forensics_queries = b12_vec_queries

let b14_forensics_measure ~size =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:size ~users:(max 10 (size / 20)) ();
  let r = Engine.recorder e in
  (* warm the heap before measuring either arm (see b8_guard_measure) *)
  List.iter (fun (_, sql) -> run_query e sql) b14_forensics_queries;
  Gc.compact ();
  (* the delta under test is a handful of wait-free ring pushes plus a
     ten-entry metric snapshot per statement — single-digit microseconds,
     far below this battery's run-to-run scheduling noise on the
     multi-millisecond joins. Like B11, sample each arm with the plain
     monotonic loop and keep (median, min): the min is the
     interference-free floor, the statistic that would rise if recording
     actually cost anything on the hot path. *)
  let arm capacity sql =
    Perm_obs.Recorder.set_capacity r capacity;
    time_query_plain e sql
  in
  let rows =
    List.map
      (fun (name, sql) ->
        let off = arm 0 sql in
        let on = arm 512 sql in
        (name, off, on))
      b14_forensics_queries
  in
  Engine.close e;
  rows

let b14_burst_statements = 200

(* Every statement in the burst fails, so each one pays anomaly
   classification plus a full bundle snapshot (metrics delta, event
   tail, settings). Retention is capped below the burst size, so the
   store churns — pruning is part of the measured cost. *)
let b14_burst_measure () =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:200 ~users:10 ();
  Engine.Forensics.set_capacity e 32;
  (* warm: the first failures pay classifier and bundle-alloc heap growth *)
  for _ = 1 to 20 do
    ignore (Engine.execute e "SELECT broken FROM nowhere")
  done;
  Gc.compact ();
  let clock = Toolkit.Monotonic_clock.make () in
  let now () = Toolkit.Monotonic_clock.get clock in
  let t0 = now () in
  for _ = 1 to b14_burst_statements do
    ignore (Engine.execute e "SELECT broken FROM nowhere")
  done;
  let dt = now () -. t0 in
  let retained = List.length (Engine.Forensics.list e) in
  Engine.close e;
  (dt /. float_of_int b14_burst_statements, retained)

let b14_forensics ~size =
  let rows =
    List.map
      (fun (name, (off_med, off_min), (on_med, on_min)) ->
        [
          name;
          fms off_med;
          fms on_med;
          ffac (on_med /. off_med);
          fms off_min;
          fms on_min;
          ffac (on_min /. off_min);
        ])
      (b14_forensics_measure ~size)
  in
  print_table
    (Printf.sprintf
       "B14-forensics: flight recorder overhead, on vs. off (forum %d \
        messages; min = interference-free floor)"
       size)
    [
      "query";
      "off med ms";
      "on med ms";
      "med overhead";
      "off min ms";
      "on min ms";
      "floor overhead";
    ]
    rows;
  let per_anomaly, retained = b14_burst_measure () in
  Printf.printf
    "  anomaly burst: %d failing statements, %.3f ms/anomaly (bundle \
     capture included), %d bundles retained\n"
    b14_burst_statements (ms per_anomaly) retained

(* ------------------------------------------------------------------ *)
(* Smoke mode: one instrumented pass over representative queries,       *)
(* reporting the engine's own per-phase breakdown (no Bechamel); with   *)
(* --json the breakdowns and the session metrics land in                *)
(* BENCH_phases.json for offline comparison.                            *)
(* ------------------------------------------------------------------ *)

module Json = Perm_obs.Json
module Trace = Perm_obs.Trace
module Metrics = Perm_obs.Metrics

(* One smoke entry: query name, total milliseconds, per-phase milliseconds. *)
type smoke_entry = {
  sm_name : string;
  sm_sql : string;
  sm_total_ms : float;
  sm_phases : (string * float) list;
}

(* Parallel-mode smoke entries: run with instrumentation off to price the
   bare parallel path, the threshold lowered to reach the 1000-row smoke
   relations, and a 2-domain pool. The PAR prefix keeps them apart in the
   regression baseline. *)
let smoke_parallel_queries =
  [
    ("PAR scan", "SELECT mid, text FROM messages WHERE mid % 3 = 0");
    ( "PAR join",
      "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid" );
    ("PAR agg", "SELECT uid, count(*), max(mid) FROM messages GROUP BY uid");
  ]

let run_smoke () =
  let e = Engine.create () in
  Forum.load_scaled e ~messages:1_000 ~users:50 ();
  Engine.set_instrumentation e true;
  let queries =
    List.concat_map
      (fun (cls, q, qp) -> [ (cls, q); (cls ^ " +prov", qp) ])
      query_classes
  in
  print_endline "\n## smoke: engine phase breakdown per query (1000 messages)\n";
  let entry (name, sql) =
    (match Engine.execute e sql with
    | Ok _ -> ()
    | Error msg ->
      failwith (Printf.sprintf "smoke query %S failed: %s" name msg));
    let root =
      match Engine.last_trace e with
      | Some r -> r
      | None -> failwith "engine recorded no trace"
    in
    let phases =
      List.map
        (fun sp -> (Trace.name sp, Trace.duration_ms sp))
        (Trace.children root)
    in
    Printf.printf "  %-16s %9.3f ms  (%s)\n" name (Trace.duration_ms root)
      (String.concat ", "
         (List.map (fun (n, d) -> Printf.sprintf "%s %.3f" n d) phases));
    {
      sm_name = name;
      sm_sql = sql;
      sm_total_ms = Trace.duration_ms root;
      sm_phases = phases;
    }
  in
  let entries = List.map entry queries in
  Engine.set_instrumentation e false;
  Engine.set_parallel_threshold e 1;
  Engine.set_parallel e (Engine.Par_domains 2);
  (* warm-up: create the worker pool outside the measured entries (the
     filter makes the statement parallel-eligible) *)
  (match Engine.query e "SELECT mid FROM messages WHERE mid > 0" with
  | Ok _ -> ()
  | Error msg -> failwith ("smoke parallel warm-up failed: " ^ msg));
  let par_entries = List.map entry smoke_parallel_queries in
  Engine.set_parallel e Engine.Par_off;
  flush stdout;
  (e, entries @ par_entries)

let smoke ~json () =
  let e, entries = run_smoke () in
  if json then begin
    let m = Engine.metrics e in
    Metrics.set_gc_gauges m;
    (* The B7-par speedup sweep rides along in the baseline document so
       parallel-executor performance is tracked alongside the phase
       breakdowns. A small scale + quota keeps the smoke pass quick. *)
    let saved_quota = !quota in
    let progress what =
      Printf.eprintf "[smoke] measuring %s...\n%!" what
    in
    quota := 0.15;
    progress "b7_par";
    let par_measured = b7_par_measure ~size:4_000 in
    (* B12-vec rides along: the row-closure baseline vs the batch path per
       query class plus the batch_rows sweep — EXPERIMENTS.md quotes the
       serial speedups from here. *)
    progress "b12_vec_measure";
    let vec_measured = b12_vec_measure ~size:4_000 in
    (* B8-guard rides along too: the regression gate only reads "queries",
       so the guardrails section is informational — EXPERIMENTS.md quotes
       the armed-but-idle overhead from here. A small relation keeps every
       query in the low-millisecond range so the quota buys enough samples
       for the off/armed delta to be signal, not run-to-run noise. *)
    quota := 0.3;
    progress "b8_guard_measure";
    let guard_measured = b8_guard_measure ~size:1_000 in
    (* B9-prof rides along the same way: EXPERIMENTS.md quotes the
       profiler-off arm (must stay at the plain-path baseline) and the
       profiler-on overhead from here. *)
    progress "b9_prof_measure";
    let prof_measured = b9_prof_measure ~size:1_000 in
    (* B10-hist rides along the same way: EXPERIMENTS.md quotes the
       history-recording overhead (acceptance target < 5%) from here. *)
    progress "b10_hist_measure";
    let hist_measured = b10_hist_measure ~size:1_000 in
    (* B11-http rides along the same way: EXPERIMENTS.md quotes the
       under-scrape overhead (acceptance target: within noise of the
       server-off arm) from here. *)
    progress "b11_http_measure";
    let http_measured, http_scrapes = b11_http_measure ~size:1_000 in
    (* B13-wal rides along: EXPERIMENTS.md quotes the per-insert WAL and
       fsync cost and the spill-threshold sweep from here. *)
    progress "b13_wal_measure";
    let wal_measured = b13_wal_measure () in
    progress "b13_spill_measure";
    let spill_measured = b13_spill_measure ~size:1_000 in
    (* B14-forensics rides along: EXPERIMENTS.md quotes the recorder-on
       overhead (acceptance target < 5% median) and the anomaly-burst
       bundle-capture cost from here. *)
    progress "b14_forensics_measure";
    let forensics_measured = b14_forensics_measure ~size:1_000 in
    progress "b14_burst_measure";
    let forensics_burst_ms, forensics_retained = b14_burst_measure () in
    quota := saved_quota;
    let profiler_section =
      Json.Obj
        [
          ("forum_messages", Json.Int 1_000);
          ( "queries",
            Json.List
              (List.map
                 (fun (name, t_off, t_on) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ("off_ms", Json.Float (ms t_off));
                       ("on_ms", Json.Float (ms t_on));
                       ("overhead", Json.Float (t_on /. t_off));
                     ])
                 prof_measured) );
        ]
    in
    let history_section =
      Json.Obj
        [
          ("forum_messages", Json.Int 1_000);
          ( "queries",
            Json.List
              (List.map
                 (fun (name, t_off, t_on) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ("off_ms", Json.Float (ms t_off));
                       ("on_ms", Json.Float (ms t_on));
                       ("overhead", Json.Float (t_on /. t_off));
                     ])
                 hist_measured) );
        ]
    in
    let forensics_section =
      Json.Obj
        [
          ("forum_messages", Json.Int 1_000);
          ( "queries",
            Json.List
              (List.map
                 (fun (name, (off_med, off_min), (on_med, on_min)) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ("off_ms", Json.Float (ms off_med));
                       ("on_ms", Json.Float (ms on_med));
                       ("overhead", Json.Float (on_med /. off_med));
                       ("off_min_ms", Json.Float (ms off_min));
                       ("on_min_ms", Json.Float (ms on_min));
                       ("floor_overhead", Json.Float (on_min /. off_min));
                     ])
                 forensics_measured) );
          ( "anomaly_burst",
            Json.Obj
              [
                ("statements", Json.Int b14_burst_statements);
                ("ms_per_anomaly", Json.Float (ms forensics_burst_ms));
                ("bundles_retained", Json.Int forensics_retained);
              ] );
        ]
    in
    let http_section =
      Json.Obj
        [
          ("forum_messages", Json.Int 1_000);
          ("scrapes_served", Json.Int http_scrapes);
          ( "queries",
            Json.List
              (List.map
                 (fun (name, (off_med, off_min), (on_med, on_min)) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ("off_ms", Json.Float (ms off_med));
                       ("scraped_ms", Json.Float (ms on_med));
                       ("overhead", Json.Float (on_med /. off_med));
                       ("off_min_ms", Json.Float (ms off_min));
                       ("scraped_min_ms", Json.Float (ms on_min));
                       ("floor_overhead", Json.Float (on_min /. off_min));
                     ])
                 http_measured) );
        ]
    in
    let guard_section =
      Json.Obj
        [
          ("forum_messages", Json.Int 1_000);
          ( "queries",
            Json.List
              (List.map
                 (fun (name, t_off, t_armed) ->
                   Json.Obj
                     [
                       ("name", Json.String name);
                       ("off_ms", Json.Float (ms t_off));
                       ("armed_ms", Json.Float (ms t_armed));
                       ("overhead", Json.Float (t_armed /. t_off));
                     ])
                 guard_measured) );
        ]
    in
    let parallel_section =
      Json.Obj
        [
          ("hardware_cores", Json.Int (Domain.recommended_domain_count ()));
          ("forum_messages", Json.Int 4_000);
          ( "queries",
            Json.List
              (List.map
                 (fun (name, t_serial, par) ->
                   Json.Obj
                     ([
                        ("name", Json.String name);
                        ("serial_ms", Json.Float (ms t_serial));
                      ]
                     @ List.concat_map
                         (fun (n, t) ->
                           [
                             ( Printf.sprintf "domains_%d_ms" n,
                               Json.Float (ms t) );
                             ( Printf.sprintf "domains_%d_speedup" n,
                               Json.Float (t_serial /. t) );
                           ])
                         par))
                 par_measured) );
        ]
    in
    let vectorized_section =
      Json.Obj
        [
          ("forum_messages", Json.Int 4_000);
          ("default_batch_rows", Json.Int Perm_executor.Executor.default_batch_rows);
          ( "queries",
            Json.List
              (List.map
                 (fun (name, t_row, sweep) ->
                   Json.Obj
                     ([
                        ("name", Json.String name);
                        ("row_ms", Json.Float (ms t_row));
                      ]
                     @ List.concat_map
                         (fun (bn, t) ->
                           [
                             ( Printf.sprintf "batch_%d_ms" bn,
                               Json.Float (ms t) );
                             ( Printf.sprintf "batch_%d_speedup" bn,
                               Json.Float (t_row /. t) );
                           ])
                         sweep))
                 vec_measured) );
        ]
    in
    let durability_section =
      Json.Obj
        [
          ("inserts", Json.Int b13_inserts);
          ( "wal",
            Json.List
              (List.map
                 (fun (name, t) ->
                   Json.Obj
                     [
                       ("arm", Json.String name);
                       ("ms_per_insert", Json.Float (ms t));
                     ])
                 wal_measured) );
          ("spill_forum_messages", Json.Int 1_000);
          ( "spill",
            Json.List
              (List.map
                 (fun (budget, t) ->
                   Json.Obj
                     [
                       ("tuple_budget", Json.Int budget);
                       ("ms", Json.Float (ms t));
                     ])
                 spill_measured) );
        ]
    in
    let doc =
      Json.Obj
        [
          ("suite", Json.String "perm-bench-smoke");
          ("forum_messages", Json.Int 1_000);
          ("durability", durability_section);
          ("vectorized", vectorized_section);
          ("parallel", parallel_section);
          ("guardrails", guard_section);
          ("profiler", profiler_section);
          ("history", history_section);
          ("http", http_section);
          ("forensics", forensics_section);
          ( "queries",
            Json.List
              (List.map
                 (fun en ->
                   Json.Obj
                     [
                       ("name", Json.String en.sm_name);
                       ("sql", Json.String en.sm_sql);
                       ("total_ms", Json.Float en.sm_total_ms);
                       ( "phases",
                         Json.Obj
                           (List.map
                              (fun (n, d) -> (n, Json.Float d))
                              en.sm_phases) );
                     ])
                 entries) );
          ("metrics", Metrics.to_json m);
        ]
    in
    Out_channel.with_open_text "BENCH_phases.json" (fun oc ->
        Out_channel.output_string oc (Json.to_pretty_string doc));
    print_endline "wrote BENCH_phases.json"
  end;
  entries

(* ------------------------------------------------------------------ *)
(* Regression gate: a fresh smoke pass vs. a committed baseline         *)
(* ------------------------------------------------------------------ *)

let load_baseline path =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> failwith ("cannot read baseline: " ^ msg)
  in
  let doc =
    match Json.parse text with
    | Ok doc -> doc
    | Error msg -> failwith (Printf.sprintf "baseline %s: %s" path msg)
  in
  let queries =
    match Option.bind (Json.member "queries" doc) Json.to_list_opt with
    | Some qs -> qs
    | None -> failwith (Printf.sprintf "baseline %s has no \"queries\" list" path)
  in
  List.filter_map
    (fun q ->
      match
        ( Option.bind (Json.member "name" q) Json.to_string_opt,
          Option.bind (Json.member "total_ms" q) Json.to_float_opt )
      with
      | Some name, Some total ->
        let phases =
          match Json.member "phases" q with
          | Some (Json.Obj fields) ->
            List.filter_map
              (fun (n, v) ->
                Option.map (fun f -> (n, f)) (Json.to_float_opt v))
              fields
          | _ -> []
        in
        Some (name, total, phases)
      | _ -> None)
    queries

(* A measurement regresses when it exceeds [baseline * tolerance + slack]:
   the multiplicative part catches real slowdowns, the additive slack keeps
   micro-phase noise (a few tens of microseconds) from tripping the gate. *)
let compare_baseline ~path ~tolerance ~slack entries =
  let baseline = load_baseline path in
  let regressions = ref [] in
  let flag what base cur =
    if cur > (base *. tolerance) +. slack then
      regressions := Printf.sprintf "%s: %.3f ms -> %.3f ms" what base cur :: !regressions
  in
  let rows =
    List.map
      (fun (name, base_total, base_phases) ->
        match List.find_opt (fun en -> en.sm_name = name) entries with
        | None ->
          regressions := Printf.sprintf "%s: missing from fresh run" name :: !regressions;
          [ name; Printf.sprintf "%.3f" base_total; "-"; "-"; "MISSING" ]
        | Some en ->
          flag name base_total en.sm_total_ms;
          List.iter
            (fun (phase, base_ms) ->
              match List.assoc_opt phase en.sm_phases with
              | Some cur_ms -> flag (name ^ "/" ^ phase) base_ms cur_ms
              | None -> ())
            base_phases;
          let ratio =
            if base_total > 0. then en.sm_total_ms /. base_total else 1.
          in
          let status =
            if en.sm_total_ms > (base_total *. tolerance) +. slack then "REGRESSED"
            else "ok"
          in
          [
            name;
            Printf.sprintf "%.3f" base_total;
            Printf.sprintf "%.3f" en.sm_total_ms;
            Printf.sprintf "%.2fx" ratio;
            status;
          ])
      baseline
  in
  print_table
    (Printf.sprintf "bench --compare vs %s (tolerance %gx + %g ms slack)" path
       tolerance slack)
    [ "query"; "baseline ms"; "current ms"; "ratio"; "status" ]
    rows;
  match !regressions with
  | [] ->
    print_endline "bench compare: no regressions";
    0
  | rs ->
    Printf.printf "bench compare: %d regression%s\n" (List.length rs)
      (if List.length rs = 1 then "" else "s");
    List.iter (fun r -> Printf.printf "  REGRESSED %s\n" (r : string)) (List.rev rs);
    1

(* ------------------------------------------------------------------ *)

let arg_value flag =
  let n = Array.length Sys.argv in
  let rec go i =
    if i >= n - 1 then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

let arg_float flag default =
  match arg_value flag with
  | Some s -> (
    match float_of_string_opt s with
    | Some f -> f
    | None -> failwith (Printf.sprintf "%s expects a number, got %S" flag s))
  | None -> default

let () =
  let fast = Array.exists (fun a -> a = "--fast") Sys.argv in
  let json = Array.exists (fun a -> a = "--json") Sys.argv in
  (match arg_value "--compare" with
  | Some baseline ->
    let tolerance = arg_float "--tolerance" 5.0 in
    let slack = arg_float "--slack" 25.0 in
    e2_sanity ();
    let _, entries = run_smoke () in
    exit (compare_baseline ~path:baseline ~tolerance ~slack entries)
  | None -> ());
  if Array.exists (fun a -> a = "--smoke") Sys.argv then begin
    e2_sanity ();
    ignore (smoke ~json ());
    exit 0
  end;
  if fast then quota := 0.1;
  let sizes = if fast then [ 1_000 ] else [ 1_000; 10_000; 50_000 ] in
  let sweep =
    if fast then [ 1_000; 5_000 ] else [ 1_000; 5_000; 20_000; 50_000 ]
  in
  let b2_rows = if fast then 5_000 else 40_000 in
  let b2_groups = if fast then [ 10; 1000 ] else [ 10; 1_000; 20_000 ] in
  let mid_size = if fast then 1_000 else 10_000 in
  print_endline
    "Perm reproduction benchmarks (see DESIGN.md section 5, EXPERIMENTS.md)";
  e2_sanity ();
  b1 sizes;
  b2 ~rows:b2_rows ~group_counts:b2_groups;
  b3 ~size:mid_size;
  b4 ~size:mid_size;
  b5 sweep;
  b6 ~size:mid_size;
  b7 ~scale:(if fast then 300 else 3_000);
  b7_par ~size:(if fast then 2_000 else 20_000);
  b12_vec ~size:(if fast then 2_000 else 20_000);
  b8 ~size:(if fast then 2_000 else 20_000);
  b8_guard ~size:(if fast then 2_000 else 20_000);
  b9_prof ~size:(if fast then 2_000 else 20_000);
  b10_hist ~size:(if fast then 2_000 else 20_000);
  b11_http ~size:(if fast then 2_000 else 20_000);
  b13_wal ~size:(if fast then 2_000 else 20_000);
  b14_forensics ~size:(if fast then 2_000 else 20_000);
  print_newline ()
