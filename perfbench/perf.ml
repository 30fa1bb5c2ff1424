(* The repository's benchmark: one named workload per process.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
     perf.exe --selftest BENCHMARK.json

   Load comes from one client on one domain in a closed loop: the next
   statement is sent when the previous one has returned. The session keeps
   its default settings (vectorized on, parallel off, instrumentation off,
   recorder and history on). The loop runs whole rounds of generated SQL
   until [--seconds] have passed. Every statement's result is checked, and
   the check runs outside the statement's timing.

   With [--trace 0] the run reports the end-to-end metrics. With [--trace 1]
   it reports the per-layer metrics instead: traced rounds, alternating with
   untraced ones, drive each statement through the public layer calls in the
   order [Engine.execute_err] makes them, each call under a [Perm_obs.Trace]
   span. The spans are kept in memory and written as Chrome trace JSON to
   [--out] when the run ends. No tracing is added inside the library.

   stdout gets one [name workload value unit n=<samples>] line per metric,
   then, as its last line, one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. The exit code is 1 when a check
   failed and 2 on a usage error. *)

module Engine = Perm_engine.Engine
module Forum = Perm_workload.Forum
module Star = Perm_workload.Star
module Ast = Perm_sql.Ast
module Parser = Perm_sql.Parser
module Fingerprint = Perm_sql.Fingerprint
module Analyzer = Perm_analyzer.Analyzer
module Rewriter = Perm_provenance.Rewriter
module Planner = Perm_planner.Planner
module Executor = Perm_executor.Executor
module Plan = Perm_algebra.Plan
module Tuple = Perm_storage.Tuple
module Value = Perm_value.Value
module Trace = Perm_obs.Trace
module Json = Perm_obs.Json
module Profile = Perm_obs.Profile
module Wal = Perm_wal

(* ------------------------------------------------------------------ *)
(* Clock, samples, seeded generator                                    *)
(* ------------------------------------------------------------------ *)

let now_ns = Monotonic_clock.now
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let to_array t = Array.sub t.a 0 t.n

  (* linear interpolation between the closest ranks *)
  let quantile t q =
    if t.n = 0 then Float.nan
    else begin
      let s = to_array t in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (t.n - 1) in
      let i = int_of_float pos in
      if i + 1 >= t.n then s.(i)
      else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
    end

  let median t = quantile t 0.5
  let min t = quantile t 0.

  let mean t =
    if t.n = 0 then Float.nan
    else Array.fold_left ( +. ) 0. (to_array t) /. float_of_int t.n
end

(* splitmix64: the key and value stream behind every generated statement *)
module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let int t bound = Int64.(to_int (unsigned_rem (next t) (of_int bound)))
end

(* The data generators take their own seed; the key stream is separate so
   the same [--seed] gives the same tables and the same statements. *)
let data_seeds seed =
  let r = Rng.make seed in
  (1 + Rng.int r 0x3FFFFFFE, 1 + Rng.int r 0x3FFFFFFE)

let key_rng seed = Rng.make (seed lxor 0x5BD1E995)

(* ------------------------------------------------------------------ *)
(* Statements, checks and workloads                                    *)
(* ------------------------------------------------------------------ *)

type kind = Write | Plain | Prov

type stmt = {
  sql : string;
  kind : kind;
  cls : int;  (** pair class: a [Plain] statement and its [Prov] twin *)
  row : Tuple.t option;  (** the row a [Write] appends to [messages] *)
  check : Engine.outcome -> bool;
}

type instance = {
  engine : Engine.t;
  next_round : unit -> stmt list;
  finish : unit -> (string * bool) list;
      (** end-of-run checks; releases what the instance holds *)
  discard : unit -> unit;  (** release without checking *)
}

type workload = {
  name : string;
  classes : int;
  load : seed:int -> dir:string -> Engine.t;  (** timed as set-up *)
  attach : seed:int -> dir:string -> Engine.t -> instance;
      (** untimed: builds the statement stream and what its checks expect *)
}

let fail fmt = Printf.ksprintf failwith fmt

let exec_ok e sql =
  match Engine.execute e sql with
  | Ok _ -> ()
  | Error msg -> fail "set-up statement failed: %s (%s)" msg sql

let rows_of e sql =
  match Engine.query e sql with
  | Ok rs -> rs.Engine.rows
  | Error msg -> fail "query failed: %s (%s)" msg sql

let wal_ok = function
  | Ok _ -> ()
  | Error e -> fail "WAL: %s" (Perm_err.to_string e)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Row-order-insensitive digest of a result. *)
let digest rows =
  List.fold_left
    (fun acc r ->
      let h = Tuple.hash r in
      acc + (h * 0x9E3779B1) + (h lsr 7))
    0 rows

let provenance_of sql = "SELECT PROVENANCE " ^ String.sub sql 7 (String.length sql - 7)

(* The prov result, cut to the plain result's columns, equals the plain
   result as a set. A top-level LIMIT sits above the provenance marker, so
   it limits provenance rows: there the cut result is only contained in the
   plain one. *)
let projects_onto e (plain, prov, limited) =
  match Engine.query e plain, Engine.query e prov with
  | Ok p, Ok q ->
    let k = List.length p.Engine.columns in
    let set rows =
      let h = Tuple.Hash.create 64 in
      List.iter (fun r -> Tuple.Hash.replace h r ()) rows;
      h
    in
    let a = set p.Engine.rows
    and b = set (List.map (fun r -> Array.sub r 0 k) q.Engine.rows) in
    let within x y = Tuple.Hash.fold (fun r () ok -> ok && Tuple.Hash.mem y r) x true in
    Tuple.Hash.length b > 0 && within b a && (limited || within a b)
  | _ -> false

(* Paper Figure 2: the provenance of q1 over the Figure 1 database. *)
let e2_gate () =
  let e = Engine.create () in
  Forum.load e;
  let result = Engine.query e Forum.q1_provenance in
  Engine.close e;
  match result with
  | Ok rs ->
    let mids =
      List.sort compare
        (List.filter_map
           (fun r -> match r.(0) with Value.Int m -> Some m | _ -> None)
           rs.Engine.rows)
    in
    mids = [ 1; 2; 3; 4 ]
  | Error _ -> false

(* -- b1: the paper's query classes, each plain statement before its twin *)

let b1_pairs =
  [
    "SELECT m.text, a.uid FROM messages m JOIN approved a ON m.mid = a.mid \
     WHERE m.mid % 7 = 0";
    Forum.q3;
    Forum.q1;
    "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved)";
  ]
  |> List.map (fun q -> (q, provenance_of q, false))
  |> fun forum ->
  forum @ List.map (fun (_, q, p) -> (q, p, q == Star.top_customers)) Star.queries

let b1 ~name ~messages ~star_scale =
  {
    name;
    classes = List.length b1_pairs;
    load =
      (fun ~seed ~dir:_ ->
        let forum_seed, star_seed = data_seeds seed in
        let e = Engine.create () in
        Forum.load_scaled e ~messages ~users:(max 10 (messages / 20))
          ~seed:forum_seed ();
        Star.load e ~scale:star_scale ~seed:star_seed ();
        e);
    attach =
      (fun ~seed:_ ~dir:_ e ->
        (* every repetition must match the first run's row count and digest *)
        let first = Hashtbl.create 16 in
        let stable sql = function
          | Engine.Rows rs -> (
            let fp = (List.length rs.Engine.rows, digest rs.Engine.rows) in
            match Hashtbl.find_opt first sql with
            | None ->
              Hashtbl.add first sql fp;
              true
            | Some fp0 -> fp0 = fp)
          | _ -> false
        in
        let round =
          List.concat
            (List.mapi
               (fun cls (plain, prov, _) ->
                 [
                   { sql = plain; kind = Plain; cls; row = None; check = stable plain };
                   { sql = prov; kind = Prov; cls; row = None; check = stable prov };
                 ])
               b1_pairs)
        in
        {
          engine = e;
          next_round = (fun () -> round);
          finish =
            (fun () ->
              List.mapi
                (fun i pair ->
                  (Printf.sprintf "class %d: prov projects onto plain" i,
                   projects_onto e pair))
                b1_pairs);
          discard = ignore;
        });
  }

(* -- point-lookup: one indexed row per statement *)

let lookups_per_round = 64

let point_lookup ~messages =
  {
    name = "point-lookup";
    classes = 1;
    load =
      (fun ~seed ~dir:_ ->
        let forum_seed, _ = data_seeds seed in
        let e = Engine.create () in
        Forum.load_scaled e ~messages ~users:(max 10 (messages / 20))
          ~seed:forum_seed ();
        exec_ok e "CREATE INDEX messages_mid ON messages (mid)";
        e);
    attach =
      (fun ~seed ~dir:_ e ->
        let expected = Hashtbl.create messages in
        List.iter
          (fun r ->
            match r with
            | [| Value.Int mid; text; uid |] -> Hashtbl.replace expected mid (text, uid)
            | _ -> ())
          (rows_of e "SELECT mid, text, uid FROM messages");
        let keys = key_rng seed in
        let matches k r =
          match Hashtbl.find_opt expected k with
          | Some (text, uid) ->
            Array.length r >= 2 && Value.equal r.(0) text && Value.equal r.(1) uid
          | None -> false
        in
        let plain k = function
          | Engine.Rows { rows = [ r ]; _ } -> Array.length r = 2 && matches k r
          | _ -> false
        in
        let prov k = function
          | Engine.Rows { rows = [ r ]; columns } -> (
            matches k r
            &&
            match List.find_index (String.equal "prov_messages_mid") columns with
            | Some i -> Value.equal r.(i) (Value.Int k)
            | None -> false)
          | _ -> false
        in
        let lookup = "SELECT text, uid FROM messages WHERE mid = " in
        {
          engine = e;
          next_round =
            (fun () ->
              List.concat
                (List.init lookups_per_round (fun _ ->
                     let k = 1 + Rng.int keys messages in
                     let q = lookup ^ string_of_int k in
                     [
                       { sql = q; kind = Plain; cls = 0; row = None; check = plain k };
                       { sql = provenance_of q; kind = Prov; cls = 0; row = None;
                         check = prov k };
                     ])));
          finish = (fun () -> []);
          discard = ignore;
        });
  }

(* -- durable-write: fsynced single-row inserts, reads that follow them *)

let words =
  [| "lorem"; "ipsum"; "dolor"; "sit"; "amet"; "hello"; "world"; "forum";
     "post"; "reply"; "thread"; "topic"; "question"; "answer"; "idea" |]

let inserts_per_read = 24

(* Every [purge_every] rounds a retention purge deletes the inserted rows,
   so the table stays within 4% of its base size and the read cost does not
   depend on how many rounds a run gets through. *)
let purge_every = 8

let durable_write ~messages =
  let users = max 10 (messages / 20) in
  {
    name = "durable-write";
    classes = 1;
    load =
      (fun ~seed ~dir ->
        (* load through a logging session, then recover a fresh one from
           the log: set-up includes the replay a restart would pay *)
        let forum_seed, _ = data_seeds seed in
        let loader = Engine.create () in
        wal_ok (Engine.enable_wal loader dir);
        Forum.load_scaled loader ~messages ~users ~seed:forum_seed ();
        Engine.disable_wal loader;
        Engine.close loader;
        let e = Engine.create () in
        wal_ok (Engine.enable_wal e dir);
        e);
    attach =
      (fun ~seed ~dir e ->
        let base_counts = Hashtbl.create users in
        List.iter
          (function
            | [| Value.Int u; Value.Int c |] -> Hashtbl.replace base_counts u c
            | _ -> ())
          (rows_of e "SELECT uid, count(*) FROM messages GROUP BY uid");
        let base_rows, base_max =
          match rows_of e "SELECT count(*), max(mid) FROM messages" with
          | [ [| Value.Int n; Value.Int m |] ] -> (n, m)
          | _ -> fail "durable-write: cannot read the base table"
        in
        (* the model: what the table holds after every acknowledged write *)
        let counts = Hashtbl.copy base_counts in
        let extra = ref 0 and next_mid = ref (base_max + 1) and rounds = ref 0 in
        let count u = Option.value ~default:0 (Hashtbl.find_opt counts u) in
        let rng = key_rng seed in
        let insert () =
          let mid = !next_mid and uid = 1 + Rng.int rng users in
          incr next_mid;
          let text =
            String.concat " "
              (List.init 3 (fun _ -> words.(Rng.int rng (Array.length words))))
          in
          {
            sql = Printf.sprintf "INSERT INTO messages VALUES (%d, '%s', %d)" mid text uid;
            kind = Write;
            cls = -1;
            row = Some [| Value.Int mid; Value.Text text; Value.Int uid |];
            check =
              (function
              | Engine.Affected 1 ->
                Hashtbl.replace counts uid (count uid + 1);
                incr extra;
                true
              | _ -> false);
          }
        in
        let purge () =
          {
            sql = Printf.sprintf "DELETE FROM messages WHERE mid > %d" base_max;
            kind = Write;
            cls = -1;
            row = None;
            check =
              (function
              | Engine.Affected n when n = !extra ->
                Hashtbl.reset counts;
                Hashtbl.iter (Hashtbl.replace counts) base_counts;
                extra := 0;
                true
              | _ -> false);
          }
        in
        let read ~prov =
          let u = 1 + Rng.int rng users in
          let q = Printf.sprintf "SELECT uid, count(*) FROM messages WHERE uid = %d GROUP BY uid" u in
          let group_ok r =
            Value.equal r.(0) (Value.Int u) && Value.equal r.(1) (Value.Int (count u))
          in
          if prov then
            (* one row per contributing message, each carrying the group *)
            { sql = provenance_of q; kind = Prov; cls = 0; row = None;
              check =
                (function
                | Engine.Rows rs ->
                  List.length rs.Engine.rows = count u && List.for_all group_ok rs.Engine.rows
                | _ -> false) }
          else
            { sql = q; kind = Plain; cls = 0; row = None;
              check =
                (function
                | Engine.Rows { rows = []; _ } -> count u = 0
                | Engine.Rows { rows = [ r ]; _ } -> Array.length r = 2 && group_ok r
                | _ -> false) }
        in
        let close () = Engine.disable_wal e in
        {
          engine = e;
          next_round =
            (fun () ->
              let ins () = List.init inserts_per_read (fun _ -> insert ()) in
              (* built eagerly in order, so the key stream stays sequential *)
              let a = ins () in
              let p = read ~prov:false in
              let b = ins () in
              let q = read ~prov:true in
              incr rounds;
              a @ [ p ] @ b @ [ q ] @ if !rounds mod purge_every = 0 then [ purge () ] else []);
          finish =
            (fun () ->
              close ();
              let r = Engine.create () in
              let recovered =
                match Engine.enable_wal r dir with
                | Error _ -> false
                | Ok _ -> (
                  let ok =
                    match rows_of r "SELECT count(*), max(mid) FROM messages" with
                    | [ [| Value.Int n; Value.Int m |] ] ->
                      n = base_rows + !extra
                      && m = if !extra = 0 then base_max else !next_mid - 1
                    | _ -> false
                  in
                  Engine.disable_wal r;
                  ok)
              in
              Engine.close r;
              rm_rf dir;
              [ ("recovery: count(*) and max(mid) match the acknowledged inserts",
                 recovered) ]);
          discard =
            (fun () ->
              close ();
              rm_rf dir);
        });
  }

(* Sizes: [quick] shrinks every workload tenfold for the self-test. *)
let workloads ~quick =
  let n x = if quick then x / 10 else x in
  [
    b1 ~name:"b1-1k" ~messages:(n 1_000) ~star_scale:(n 250);
    b1 ~name:"b1-10k" ~messages:(n 10_000) ~star_scale:(n 2_500);
    point_lookup ~messages:(n 10_000);
    durable_write ~messages:(n 10_000);
  ]

(* ------------------------------------------------------------------ *)
(* Running statements                                                  *)
(* ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let note tally what ok =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 then Printf.eprintf "check failed: %s\n%!" what
  end

(* One statement: its latency in ms, then its check (outside the timing). *)
let exec tally engine st =
  let t0 = now_ns () in
  let r = Engine.execute engine st.sql in
  let ms = ms_since t0 in
  (match r with
  | Ok o -> note tally st.sql (st.check o)
  | Error msg -> note tally (st.sql ^ " -> " ^ msg) false);
  ms

(* Latency sums of an untraced round: all of it, its writes, and per pair
   class its plain and its provenance statements. *)
type round = { r_ms : float; r_write : float; r_plain : float array; r_prov : float array }

let run_round tally w inst =
  let plain = Array.make w.classes 0. and prov = Array.make w.classes 0. in
  let write = ref 0. in
  let total =
    List.fold_left
      (fun acc st ->
        let ms = exec tally inst.engine st in
        (match st.kind with
        | Plain -> plain.(st.cls) <- plain.(st.cls) +. ms
        | Prov -> prov.(st.cls) <- prov.(st.cls) +. ms
        | Write -> write := !write +. ms);
        acc +. ms)
      0. (inst.next_round ())
  in
  { r_ms = total; r_write = !write; r_plain = plain; r_prov = prov }

(* Set-up: a fresh session loaded from the seed, plus one warm-up round,
   at least [min_setups] times and for at least [min_setup_s] seconds, so
   that a set-up of a few milliseconds still gets a steady median. The last
   session is kept for the measured loop. *)
let setups_made = ref 0

(* a session stays reachable through its GC alarm until it is closed *)
let drop inst =
  inst.discard ();
  Engine.close inst.engine

let set_up tally w ~seed ~out ~min_setups ~min_setup_s =
  let times = Samples.create () in
  let t_start = now_ns () in
  let rec go i prev =
    Option.iter drop prev;
    Gc.compact ();
    incr setups_made;
    let dir = Filename.concat out (Printf.sprintf "wal-%d-%d" (Unix.getpid ()) !setups_made) in
    rm_rf dir;
    let t0 = now_ns () in
    let engine = w.load ~seed ~dir in
    let load_ms = ms_since t0 in
    let inst = w.attach ~seed ~dir engine in
    let warm = run_round tally w inst in
    Samples.add times ((load_ms +. warm.r_ms) /. 1000.);
    if i < min_setups || ms_since t_start < min_setup_s *. 1000. then go (i + 1) (Some inst)
    else inst
  in
  let inst = go 1 None in
  Gc.compact ();
  (inst, times)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let metric m_name m_unit m_n m_value = { m_name; m_value; m_unit; m_n }

let geomean = function
  | [] -> Float.nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Live heap ([Gc.stat] runs a full major collection first): the session's
   data, indexes, caches and telemetry stores. The engine trims its trace
   log in batches, so live memory is a sawtooth over statements, with a
   period near one second on b1-1k. The loop samples it at jittered gaps of
   0.2-0.6 s, so samples fall at every phase, and reports the mean. *)
let heap_live_mb () =
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let heap_gap_ns jitter = Int64.of_int ((200 + Rng.int jitter 400) * 1_000_000)

(* Latencies are floors. Each part of a round (its writes, and per pair
   class its plain and its provenance statements) gets its fastest time in
   the run, and a metric sums the floors of its parts. On a shared host a
   run's median moves with the host's load (2-25% between runs of this
   benchmark), a part's floor much less. A floor can miss garbage-collection
   work that a short part escapes; the per-layer gc.* counts report it. *)
let end_to_end tally w inst ~seconds =
  let writes = Samples.create () in
  let cls_plain = Array.init w.classes (fun _ -> Samples.create ())
  and cls_prov = Array.init w.classes (fun _ -> Samples.create ()) in
  let heap = Samples.create () and jitter = Rng.make 7 in
  let deadline = ref (Int64.add (now_ns ()) (Int64.of_float (seconds *. 1e9))) in
  let next_heap = ref (Int64.add (now_ns ()) (heap_gap_ns jitter)) in
  let continue = ref true in
  while !continue do
    let r = run_round tally w inst in
    Samples.add writes r.r_write;
    Array.iteri (fun c ms -> Samples.add cls_plain.(c) ms) r.r_plain;
    Array.iteri (fun c ms -> Samples.add cls_prov.(c) ms) r.r_prov;
    let now = now_ns () in
    if Int64.compare now !next_heap >= 0 then begin
      Samples.add heap (heap_live_mb ());
      (* the loop still runs rounds for [seconds] *)
      deadline := Int64.add !deadline (Int64.sub (now_ns ()) now);
      next_heap := Int64.add (now_ns ()) (heap_gap_ns jitter)
    end;
    continue := Int64.compare (now_ns ()) !deadline < 0
  done;
  Samples.add heap (heap_live_mb ());
  let n = Samples.length writes in
  let floor parts = Array.fold_left (fun acc s -> acc +. Samples.min s) 0. parts in
  let plain = floor cls_plain and prov = floor cls_prov in
  let overhead =
    geomean
      (List.init w.classes (fun c -> Samples.min cls_prov.(c) /. Samples.min cls_plain.(c)))
  in
  [
    metric "round_ms_min" "ms" n (Samples.min writes +. plain +. prov);
    metric "plain_ms_min" "ms" n plain;
    metric "prov_ms_min" "ms" n prov;
    metric "prov_overhead_x" "x" n overhead;
    metric "heap_live_mb" "MB" (Samples.length heap) (Samples.mean heap);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer run                                                       *)
(* ------------------------------------------------------------------ *)

type pass = {
  p_span : Trace.span;
  p_rules : int;
  p_ops_added : int;
  p_plan_ops : int;
  p_rows : int;
}

(* One pass of a statement through the public layer calls, in the order
   Engine.execute_err makes them, each under a span. Writes stop after the
   fingerprint: the engine applies them without a plan. *)
let layer_pass engine parent name sql =
  let sp = Trace.child parent name in
  let call label f = Trace.timed sp label f in
  let get = function Ok x -> x | Error msg -> fail "%s: %s (%s)" name msg sql in
  let st =
    call "sql.parse" (fun () -> Parser.parse_statement sql)
    |> Result.map_error (Parser.error_to_string ~input:sql)
    |> get
  in
  ignore (call "sql.fingerprint" (fun () -> Fingerprint.of_sql sql));
  let pass =
    match st with
    | Ast.St_query q ->
      let analyzed =
        get (call "analyzer.analyze" (fun () -> Analyzer.analyze_query (Engine.catalog engine) q))
      in
      let rewritten, report = call "provenance.rewrite" (fun () -> Rewriter.rewrite analyzed) in
      let stats = Engine.stats engine in
      let optimized = call "planner.optimize" (fun () -> Planner.optimize stats rewritten) in
      ignore
        (call "executor.plan_hash" (fun () ->
             let mode = if Executor.batch_eligible optimized then "vector" else "serial" in
             Executor.plan_hash ~mode optimized));
      ignore (call "planner.estimate" (fun () -> Planner.estimate_total stats optimized));
      let rows = get (call "executor.run_plan" (fun () -> Engine.run_plan engine optimized)) in
      {
        p_span = sp;
        p_rules = List.fold_left (fun acc (_, n) -> acc + n) 0 report.Rewriter.rule_counts;
        p_ops_added = Plan.count_operators rewritten - Plan.count_operators analyzed;
        p_plan_ops = Plan.count_operators optimized;
        p_rows = List.length rows;
      }
    | _ -> { p_span = sp; p_rules = 0; p_ops_added = 0; p_plan_ops = 0; p_rows = 0 }
  in
  Trace.finish sp;
  pass

let bump h k v = Hashtbl.replace h k (v +. Option.value ~default:0. (Hashtbl.find_opt h k))
let total h k = Option.value ~default:0. (Hashtbl.find_opt h k)

let child_ms sp label =
  match Trace.find sp label with Some c -> Trace.duration_ms c | None -> 0.

let children_ms sp = List.fold_left (fun acc c -> acc +. Trace.duration_ms c) 0. (Trace.children sp)

let timed_layers =
  [ "sql.parse"; "sql.fingerprint"; "analyzer.analyze"; "provenance.rewrite";
    "planner.optimize"; "executor.plan_hash"; "planner.estimate" ]

let op_kinds =
  [ "scan"; "filter"; "project"; "join"; "aggregate"; "distinct"; "set_op";
    "sort"; "limit"; "apply" ]

(* A traced round. Each statement gets a root span with three parts: a
   "cold" layer pass in the state the untraced loop would meet, then the
   engine's own execution, then a "warm" layer pass. The layer metrics come
   from the cold pass; the unattributed engine time is the engine's time
   minus the warm pass, which sees the same caches the engine just saw. A
   write's frames are also appended to a log the benchmark owns, to time
   the WAL layer apart from the engine. *)
let traced_round tally inst ~wal ~keep =
  let acc = Hashtbl.create 32 in
  let add = bump acc in
  let wal0 = Engine.wal_status inst.engine in
  let writes = ref 0 in
  List.iter
    (fun st ->
      let root = Trace.start "statement" in
      Trace.annotate root "sql" st.sql;
      let cold = layer_pass inst.engine root "cold" st.sql in
      let sp = Trace.child root "engine.execute" in
      let ms = exec tally inst.engine st in
      Trace.finish sp;
      (match st.row with
      | Some row ->
        incr writes;
        add "insert_ms" ms;
        Trace.timed root "wal.append" (fun () ->
            Wal.append wal Wal.Begin;
            Wal.append wal (Wal.Insert ("messages", [ row ]));
            Wal.append wal Wal.Commit);
        Trace.timed root "wal.fsync" (fun () -> Wal.fsync wal)
      | None -> ());
      let warm = layer_pass inst.engine root "warm" st.sql in
      Trace.finish root;
      List.iter (fun l -> add (l ^ "_ms") (child_ms cold.p_span l)) timed_layers;
      let run_cold = child_ms cold.p_span "executor.run_plan" in
      add "executor.run_ms" run_cold;
      if st.kind = Prov then add "prov_run_ms" run_cold;
      add "storage.rebuild_ms" (run_cold -. child_ms warm.p_span "executor.run_plan");
      add "engine.statement_ms" ms;
      add "engine.unattributed_ms" (ms -. children_ms warm.p_span);
      add "wal.append_ms" (child_ms root "wal.append");
      add "wal.fsync_ms" (child_ms root "wal.fsync");
      add "provenance.rules_fired" (float_of_int cold.p_rules);
      add "provenance.plan_ops_added" (float_of_int cold.p_ops_added);
      add "planner.plan_ops" (float_of_int cold.p_plan_ops);
      add "executor.rows_out" (float_of_int cold.p_rows);
      keep root)
    (inst.next_round ());
  let get = total acc in
  let stmt_ms = get "engine.statement_ms" in
  let per_write f =
    match wal0, Engine.wal_status inst.engine with
    | Some a, Some b when !writes > 0 -> float_of_int (max 0 (f b - f a)) /. float_of_int !writes
    | _ -> 0.
  in
  (* WAL time as a share of the inserts' latency; 0 without inserts *)
  let of_inserts k = if !writes > 0 then get k /. get "insert_ms" else 0. in
  List.map (fun l -> (l ^ "_ms", "ms", get (l ^ "_ms"))) timed_layers
  @ [
      ("executor.run_ms", "ms", get "executor.run_ms");
      ("executor.prov_run_share", "frac", get "prov_run_ms" /. get "executor.run_ms");
      ("storage.rebuild_ms", "ms", get "storage.rebuild_ms");
      ("engine.statement_ms", "ms", stmt_ms);
      ("engine.unattributed_ms", "ms", get "engine.unattributed_ms");
      ("engine.unattributed_frac", "frac", get "engine.unattributed_ms" /. stmt_ms);
      ("wal.append_share", "frac", of_inserts "wal.append_ms");
      ("wal.fsync_share", "frac", of_inserts "wal.fsync_ms");
      ("wal.bytes_per_write", "bytes", per_write (fun s -> s.Engine.ws_bytes));
      ("wal.records_per_write", "count", per_write (fun s -> s.Engine.ws_records));
      ("wal.fsyncs_per_write", "count", per_write (fun s -> s.Engine.ws_fsyncs));
      ("provenance.rules_fired", "count", get "provenance.rules_fired");
      ("provenance.plan_ops_added", "count", get "provenance.plan_ops_added");
      ("planner.plan_ops", "count", get "planner.plan_ops");
      ("executor.rows_out", "count", get "executor.rows_out");
    ]

(* One round with per-operator instrumentation on: the retained plan
   profile, keyed by statement fingerprint and pre-order node id, gives
   each operator kind's self time and rows. *)
let operator_profile tally w inst =
  let e = inst.engine in
  Engine.reset_statement_stats e;
  Engine.set_instrumentation e true;
  let stmts = inst.next_round () in
  ignore (run_round tally w { inst with next_round = (fun () -> stmts) });
  Engine.set_instrumentation e false;
  let kinds = Hashtbl.create 64 in
  List.iter
    (fun st ->
      if st.kind <> Write then
        match Engine.plan_query e st.sql with
        | Ok (_, plan) ->
          let fp = Fingerprint.of_sql st.sql in
          List.iter
            (fun (node, id) -> Hashtbl.replace kinds (fp, id) (Plan.operator_kind node))
            (Executor.node_ids plan)
        | Error msg -> fail "plan_query: %s" msg)
    stmts;
  let self = Hashtbl.create 16 and rows = Hashtbl.create 16 in
  let total_self = ref 0. and root_rows = ref 0 and peak = ref 0 in
  List.iter
    (fun (pn : Profile.plan_node) ->
      let kind =
        Option.value ~default:"other" (Hashtbl.find_opt kinds (pn.Profile.pn_fingerprint, pn.Profile.pn_node))
      in
      bump self kind pn.Profile.pn_self_ms;
      bump rows kind (float_of_int pn.Profile.pn_act_rows);
      total_self := !total_self +. pn.Profile.pn_self_ms;
      if pn.Profile.pn_node = 0 then root_rows := !root_rows + pn.Profile.pn_act_rows;
      peak := max !peak pn.Profile.pn_peak_bytes)
    (Engine.plan_profile e);
  List.concat_map
    (fun k ->
      [
        (Printf.sprintf "executor.op.%s.self_share" k, "frac",
         total self k /. Float.max !total_self 1e-9);
        (Printf.sprintf "executor.op.%s.rows" k, "count", total rows k);
      ])
    op_kinds
  @ [
      ("executor.rows_examined_per_row_out", "ratio",
       total rows "scan" /. float_of_int (max 1 !root_rows));
      ("executor.peak_batch_bytes", "bytes", float_of_int !peak);
    ]

let per_layer tally w inst ~seconds ~out =
  let traced = Hashtbl.create 64 in
  let order = ref [] in
  let add_sample (k, u, v) =
    match Hashtbl.find_opt traced k with
    | Some s -> Samples.add s v
    | None ->
      let s = Samples.create () in
      Samples.add s v;
      Hashtbl.add traced k s;
      order := (k, u) :: !order
  in
  let untraced = Samples.create () and traced_wall = Samples.create () in
  let minor = Samples.create () and promoted = Samples.create () and major = Samples.create () in
  let wal_dir = Filename.concat out (Printf.sprintf "trace-wal-%d" (Unix.getpid ())) in
  rm_rf wal_dir;
  let noop _ = Ok () in
  let wal =
    match
      Wal.open_ ~dir:wal_dir
        ~apply:{ Wal.ap_sql = noop; ap_insert = (fun _ _ -> Ok ());
                 ap_truncate = noop; ap_replace = (fun _ _ -> Ok ());
                 ap_prov = (fun _ _ -> Ok ()) }
    with
    | Ok (w, _) -> w
    | Error msg -> fail "benchmark WAL: %s" msg
  in
  (* spans of the first statements are kept for the Chrome export *)
  let kept = ref [] and n_kept = ref 0 in
  let keep root =
    if !n_kept < 4096 then begin
      kept := root :: !kept;
      incr n_kept
    end
  in
  let t0 = now_ns () in
  let deadline = Int64.add t0 (Int64.of_float (seconds *. 1e9)) in
  let continue = ref true in
  while !continue do
    let g0 = Gc.quick_stat () in
    let r = run_round tally w inst in
    let g1 = Gc.quick_stat () in
    Samples.add untraced r.r_ms;
    Samples.add minor (g1.Gc.minor_words -. g0.Gc.minor_words);
    Samples.add promoted (g1.Gc.promoted_words -. g0.Gc.promoted_words);
    Samples.add major (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    let t = now_ns () in
    List.iter add_sample (traced_round tally inst ~wal ~keep);
    Samples.add traced_wall (ms_since t);
    continue := Int64.compare (now_ns ()) deadline < 0
  done;
  Wal.close wal;
  rm_rf wal_dir;
  let ops = operator_profile tally w inst in
  let trace_file = Filename.concat out (Printf.sprintf "trace-%s.json" w.name) in
  Out_channel.with_open_text trace_file (fun oc ->
      output_string oc (Json.to_string (Trace.to_chrome_json (List.rev !kept))));
  Printf.printf "# %d traced statement trees written to %s\n" !n_kept trace_file;
  let n = Samples.length traced_wall in
  List.map
    (fun (k, u) ->
      let s = Hashtbl.find traced k in
      metric k u (Samples.length s) (Samples.median s))
    (List.rev !order)
  @ List.map (fun (k, u, v) -> metric k u 1 v) ops
  @ [
      metric "gc.minor_words" "words" (Samples.length minor) (Samples.mean minor);
      metric "gc.promoted_words" "words" (Samples.length promoted) (Samples.mean promoted);
      metric "gc.major_collections" "count" (Samples.length major) (Samples.mean major);
      metric "trace.overhead_x" "x" n (Samples.median traced_wall /. Samples.median untraced);
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type outcome = { correct : bool; attempted : int; failed : int; metrics : metric list }

let run_workload w ~seed ~seconds ~trace ~out ~min_setups ~min_setup_s =
  mkdir_p out;
  let tally = { attempted = 0; failed = 0 } in
  note tally "E2: Figure 2 provenance of q1" (e2_gate ());
  let inst, setup = set_up tally w ~seed ~out ~min_setups ~min_setup_s in
  let metrics =
    if trace then per_layer tally w inst ~seconds ~out
    else begin
      let m = end_to_end tally w inst ~seconds in
      (* as many set-ups again after the loop: the median then samples the
         host at both ends of the run, not during one second of it *)
      let extra, more = set_up tally w ~seed ~out ~min_setups ~min_setup_s in
      drop extra;
      Array.iter (Samples.add setup) (Samples.to_array more);
      metric "setup_s" "s" (Samples.length setup) (Samples.median setup) :: m
    end
  in
  List.iter (fun (what, ok) -> note tally what ok) (inst.finish ());
  Engine.close inst.engine;
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) metrics in
  { correct = tally.failed = 0 && finite; attempted = tally.attempted;
    failed = tally.failed; metrics }

let json_line o =
  let m =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name m.m_value m.m_unit)
      o.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed (String.concat ", " m)

(* The self-test runs every workload of BENCHMARK.json, shrunk, in both
   modes, and checks that each declared metric is printed with its unit. *)
let selftest path =
  let spec = In_channel.with_open_text path In_channel.input_all in
  let json = match Json.parse spec with Ok j -> j | Error e -> fail "%s: %s" path e in
  let list key =
    Option.value ~default:[] (Option.bind (Json.member key json) Json.to_list_opt)
  in
  let str key j = Option.bind (Json.member key j) Json.to_string_opt in
  let declared key = List.filter_map (fun m -> Option.map (fun n -> (n, str "unit" m)) (str "name" m)) (list key) in
  let available = workloads ~quick:true in
  let ok = ref true in
  let complain fmt = Printf.ksprintf (fun s -> ok := false; prerr_endline s) fmt in
  List.iter
    (fun wj ->
      let name = Option.value ~default:"?" (str "name" wj) in
      match List.find_opt (fun w -> w.name = name) available with
      | None -> complain "%s: workload not implemented" name
      | Some w ->
        List.iter
          (fun (trace, key) ->
            let o = run_workload w ~seed:1 ~seconds:0. ~trace ~out:"perfbench-selftest"
                ~min_setups:1 ~min_setup_s:0. in
            if not o.correct then complain "%s: checks failed" name;
            let printed = List.map (fun m -> (m.m_name, Some m.m_unit)) o.metrics in
            List.iter
              (fun (n, u) ->
                match List.assoc_opt n printed with
                | None -> complain "%s: %s not printed" name n
                | Some u' when u' <> u -> complain "%s: %s printed with another unit" name n
                | Some _ -> ())
              (declared key);
            if List.length printed <> List.length (declared key) then
              complain "%s: prints %d %s metrics, BENCHMARK.json declares %d" name
                (List.length printed) key (List.length (declared key)))
          [ (false, "end_to_end"); (true, "per_layer") ])
    (list "workloads");
  if !ok then print_endline "perfbench self-test: OK" else exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".bench_build/perfbench-out" and spec = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated data and keys");
      ("--seconds", Arg.Set_float seconds, "S measured time (whole rounds, at least one)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "DIR working directory for logs and traces");
      ("--selftest", Arg.Set_string spec, "BENCHMARK.json run every workload shrunk");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !spec <> "" then selftest !spec
  else
    match List.find_opt (fun w -> w.name = !workload) (workloads ~quick:false) with
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    | Some w ->
      let o =
        run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
          ~min_setups:5 ~min_setup_s:1.
      in
      List.iter
        (fun m -> Printf.printf "%s %s %.6g %s n=%d\n" m.m_name w.name m.m_value m.m_unit m.m_n)
        o.metrics;
      print_endline (json_line o);
      if not o.correct then exit 1
