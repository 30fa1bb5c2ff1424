(* Bounded per-fingerprint telemetry and the regression watchdog.

   This is the session's one per-fingerprint store. Each statement
   fingerprint has an entry holding running totals (calls, errors, rows,
   total and max milliseconds, phase sums, rewrite-rule counts — the
   perm_stat_statements view) and a ring buffer of execution records —
   wall and phase milliseconds, rows out, the planner's total row
   estimate, worker skew, and a structural plan hash. It also keeps
   cadence-sampled rings for selected Metrics series. Everything is
   bounded: rings have fixed capacities and eviction counters, and whole
   entries are shed least-recently-executed first past a fingerprint cap
   or a byte budget, so a long session can never OOM on its own
   telemetry; it just forgets.

   The watchdog folds every successful execution into an EWMA baseline
   (and consults the retained ring for a p95) and flags executions that
   exceed the baseline by a configurable factor, attributing the likely
   cause in precedence order: the plan hash changed, the input
   cardinality grew, the parallel workers were skewed — or unknown. A
   plan-hash change is always reported, independent of timing, so plan
   flips are visible even when the new plan happens to be fast. *)

(* ------------------------------------------------------------------ *)
(* Rings                                                               *)
(* ------------------------------------------------------------------ *)

type 'a ring = {
  mutable rbuf : 'a option array;
  mutable rstart : int;  (* index of the oldest element *)
  mutable rlen : int;
  mutable rdropped : int;  (* elements evicted to make room *)
}

let ring_make cap =
  { rbuf = Array.make (max 1 cap) None; rstart = 0; rlen = 0; rdropped = 0 }

let ring_capacity r = Array.length r.rbuf

(* Push, returning the element evicted to make room (if any) so callers
   can maintain incremental summaries over the window. *)
let ring_push_evict r x =
  let cap = ring_capacity r in
  if r.rlen = cap then begin
    (* overwrite the oldest slot *)
    let old = r.rbuf.(r.rstart) in
    r.rbuf.(r.rstart) <- Some x;
    r.rstart <- (r.rstart + 1) mod cap;
    r.rdropped <- r.rdropped + 1;
    old
  end
  else begin
    r.rbuf.((r.rstart + r.rlen) mod cap) <- Some x;
    r.rlen <- r.rlen + 1;
    None
  end

let ring_push r x = ignore (ring_push_evict r x)

let ring_get r i =
  match r.rbuf.((r.rstart + i) mod ring_capacity r) with
  | Some x -> x
  | None -> invalid_arg "History.ring_get: empty slot"

let ring_to_list r = List.init r.rlen (ring_get r)

let ring_fold r f init =
  let acc = ref init in
  for i = 0 to r.rlen - 1 do
    acc := f !acc (ring_get r i)
  done;
  !acc

(* Shrink or grow in place, keeping the newest [cap] elements. *)
let ring_set_capacity r cap =
  let cap = max 1 cap in
  if cap <> ring_capacity r then begin
    let kept = min r.rlen cap in
    let dropped_now = r.rlen - kept in
    let buf = Array.make cap None in
    for i = 0 to kept - 1 do
      buf.(i) <- Some (ring_get r (dropped_now + i))
    done;
    r.rbuf <- buf;
    r.rstart <- 0;
    r.rlen <- kept;
    r.rdropped <- r.rdropped + dropped_now
  end

(* ------------------------------------------------------------------ *)
(* Records                                                             *)
(* ------------------------------------------------------------------ *)

type exec_record = {
  ex_fingerprint : string;
  ex_seq : int;  (* global, monotone across the whole history *)
  ex_ts : float;  (* unix seconds at statement start *)
  ex_plan_hash : string;  (* "" when the statement had no query plan *)
  ex_ms : float;
  ex_rows : int;
  ex_est_rows : float;  (* planner total estimate; 0 when unplanned *)
  ex_skew : float;  (* max worker skew of the execution; 1.0 = balanced *)
  ex_error : bool;
  ex_phase_ms : (string * float) list;
}

type cause = Plan_change | Cardinality | Skew | Unknown

let cause_label = function
  | Plan_change -> "plan-change"
  | Cardinality -> "cardinality"
  | Skew -> "skew"
  | Unknown -> "unknown"

type regression = {
  rg_fingerprint : string;
  rg_seq : int;
  rg_ts : float;
  rg_ms : float;
  rg_baseline_ms : float;
  rg_factor : float;  (* rg_ms / baseline (1.0 when baseline unknown) *)
  rg_cause : cause;
  rg_detail : string;
  rg_plan_hash : string;
}

type metric_sample = {
  sm_name : string;
  sm_seq : int;
  sm_ts : float;
  sm_value : float;
}

type statement = {
  st_fingerprint : string;
  st_query : string;
  st_calls : int;
  st_errors : int;
  st_rows : int;
  st_total_ms : float;
  st_max_ms : float;
  st_phase_ms : (string * float) list;
  st_rule_counts : (string * int) list;
  st_provenance : bool;
}

(* One fingerprint's running totals, updated in place per execution:
   readers take a [statement] copy ([snapshot]) under the same lock the
   recording statement holds. Phase and rule sums keep first-seen order. *)
type totals = {
  t_query : string;
  t_provenance : bool;
  mutable t_calls : int;
  mutable t_errors : int;
  mutable t_rows : int;
  mutable t_total_ms : float;
  mutable t_max_ms : float;
  mutable t_phase_ms : (string * float ref) list;
  mutable t_rule_counts : (string * int ref) list;
}

type entry = {
  en_fingerprint : string;
  en_totals : totals;
  en_ring : exec_record ring;
  en_hist : int array;  (* windowed wall-time histogram over the ring *)
  mutable en_hist_n : int;  (* non-error records counted in en_hist *)
  mutable en_ewma_ms : float;
  mutable en_ewma_rows : float;
  mutable en_ewma_est : float;
  mutable en_samples : int;  (* executions folded into the baseline *)
  mutable en_last_hash : string;
  mutable en_last_seq : int;  (* recency, for LRU eviction *)
}

type t = {
  mutable capacity : int;  (* per-fingerprint ring size; 0 disables *)
  mutable max_fingerprints : int;
  mutable max_bytes : int;  (* approximate budget over all rings *)
  mutable factor : float;  (* watchdog slowdown threshold *)
  mutable min_samples : int;  (* baseline warm-up before flagging *)
  mutable cadence_s : float;  (* metric sampling cadence; 0 = every call *)
  mutable last_sample_s : float;
  mutable seq : int;
  mutable evicted : int;  (* records lost to fingerprint/byte eviction *)
  mutable budget_tick : int;  (* stride counter for the byte-budget scan *)
  entries : (string, entry) Hashtbl.t;
  regressions : regression ring;
  series : (string, metric_sample ring) Hashtbl.t;
}

(* The metric series sampled into history rings. *)
let tracked =
  [ "engine.statements"; "engine.errors"; "engine.statement.ms"; "gc.heap_words" ]

(* Watchdog cause attribution: estimated or actual rows past [card_factor]
   times their baseline EWMA mean cardinality changed; worker skew at or
   past [skew_threshold] means parallel imbalance. *)
let card_factor = 2.0
let skew_threshold = 1.5

let create () =
  {
    capacity = 128;
    max_fingerprints = 256;
    max_bytes = 8 * 1024 * 1024;
    factor = 3.0;
    min_samples = 3;
    cadence_s = 1.0;
    last_sample_s = Float.neg_infinity;
    seq = 0;
    evicted = 0;
    budget_tick = 0;
    entries = Hashtbl.create 64;
    regressions = ring_make 256;
    series = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* Windowed wall-time histogram                                        *)
(* ------------------------------------------------------------------ *)

(* Windowed p95 over an entry's ring, maintained incrementally so
   recording a statement costs O(1) instead of a sort of the whole ring.
   Wall times land in log-scale buckets (ratio 1.3, 1 µs .. ~45 min);
   the bucket of an evicted record is decremented when the ring wraps,
   so the counts always describe exactly the retained window. The p95
   estimate is the upper bound of the bucket holding the target rank —
   an overestimate by at most one bucket (30%), the same contract as the
   Metrics histograms. *)
let hist_buckets = 64
let hist_ratio = 1.3
let hist_log_ratio = log hist_ratio
let hist_floor_ms = 0.001

let bucket_of_ms ms =
  if ms <= hist_floor_ms then 0
  else
    let i = int_of_float (Float.ceil (log (ms /. hist_floor_ms) /. hist_log_ratio)) in
    min (hist_buckets - 1) (max 0 i)

let bucket_upper_ms i = hist_floor_ms *. (hist_ratio ** float_of_int i)

let hist_add en ms =
  let b = bucket_of_ms ms in
  en.en_hist.(b) <- en.en_hist.(b) + 1;
  en.en_hist_n <- en.en_hist_n + 1

let hist_remove en ms =
  let b = bucket_of_ms ms in
  if en.en_hist.(b) > 0 then begin
    en.en_hist.(b) <- en.en_hist.(b) - 1;
    en.en_hist_n <- en.en_hist_n - 1
  end

let hist_rebuild en =
  Array.fill en.en_hist 0 hist_buckets 0;
  en.en_hist_n <- 0;
  ring_fold en.en_ring
    (fun () r -> if not r.ex_error then hist_add en r.ex_ms)
    ()

let hist_p95 en =
  if en.en_hist_n = 0 then 0.
  else begin
    let rank =
      max 1 (int_of_float (Float.ceil (0.95 *. float_of_int en.en_hist_n)))
    in
    let cum = ref 0 and res = ref 0. and found = ref false in
    for i = 0 to hist_buckets - 1 do
      if not !found then begin
        cum := !cum + en.en_hist.(i);
        if !cum >= rank then begin
          res := bucket_upper_ms i;
          found := true
        end
      end
    done;
    !res
  end

let reset t =
  Hashtbl.reset t.entries;
  Hashtbl.reset t.series;
  t.regressions.rlen <- 0;
  t.regressions.rstart <- 0;
  t.regressions.rdropped <- 0;
  t.seq <- 0;
  t.evicted <- 0;
  t.last_sample_s <- Float.neg_infinity

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let enabled t = t.capacity > 0
let capacity t = t.capacity

let set_capacity t cap =
  let cap = max 0 cap in
  t.capacity <- cap;
  if cap = 0 then Hashtbl.reset t.entries
  else
    Hashtbl.iter
      (fun _ en ->
        ring_set_capacity en.en_ring cap;
        hist_rebuild en)
      t.entries

let set_max_fingerprints t n = t.max_fingerprints <- max 1 n
let factor t = t.factor
let set_factor t f = t.factor <- Float.max 0. f
let set_min_samples t n = t.min_samples <- max 1 n
let cadence t = t.cadence_s
let set_cadence t s = t.cadence_s <- Float.max 0. s

(* ------------------------------------------------------------------ *)
(* Memory accounting                                                   *)
(* ------------------------------------------------------------------ *)

(* Coarse per-record cost model, in bytes: a boxed record, its strings,
   and a handful of list cells for the phase breakdown. The goal is a
   stable order-of-magnitude figure the governor can bound, not an exact
   heap measurement. An entry's fixed part counts its totals: the record,
   the first query text and one list cell per phase or rule sum. *)
let exec_record_bytes fp_len = 160 + fp_len + 16 + (5 * 48)
let regression_bytes = 240
let metric_sample_bytes = 64

let entry_bytes en =
  let st = en.en_totals in
  96 + 120 + String.length st.t_query
  + (48 * (List.length st.t_phase_ms + List.length st.t_rule_counts))

let approx_bytes t =
  let b = ref (t.regressions.rlen * regression_bytes) in
  Hashtbl.iter
    (fun fp en ->
      b :=
        !b + (en.en_ring.rlen * exec_record_bytes (String.length fp))
        + entry_bytes en)
    t.entries;
  Hashtbl.iter
    (fun _ r -> b := !b + (r.rlen * metric_sample_bytes) + 48)
    t.series;
  !b

let dropped t =
  let b = ref t.evicted in
  Hashtbl.iter (fun _ en -> b := !b + en.en_ring.rdropped) t.entries;
  Hashtbl.iter (fun _ r -> b := !b + r.rdropped) t.series;
  !b + t.regressions.rdropped

(* Evict the least-recently-touched fingerprint entry. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun fp en acc ->
        match acc with
        | Some (_, seq) when seq <= en.en_last_seq -> acc
        | _ -> Some (fp, en.en_last_seq))
      t.entries None
  in
  match victim with
  | None -> ()
  | Some (fp, _) ->
    (match Hashtbl.find_opt t.entries fp with
    | Some en -> t.evicted <- t.evicted + en.en_ring.rlen
    | None -> ());
    Hashtbl.remove t.entries fp

(* The byte budget needs a full scan to evaluate, so it is only
   re-checked every [budget_stride] recordings (and whenever the
   configuration changes, via the setters below). The overshoot between
   checks is bounded: at most stride × record size, a few KiB against a
   megabyte-scale budget. *)
let budget_stride = 32

let enforce_bytes t =
  if t.max_bytes > 0 then begin
    let guard = ref (Hashtbl.length t.entries) in
    while approx_bytes t > t.max_bytes && !guard > 0 && Hashtbl.length t.entries > 1 do
      evict_lru t;
      decr guard
    done
  end

let enforce_budget t =
  if Hashtbl.length t.entries > t.max_fingerprints then evict_lru t;
  t.budget_tick <- t.budget_tick + 1;
  if t.budget_tick >= budget_stride then begin
    t.budget_tick <- 0;
    enforce_bytes t
  end

(* Shrinking the budget takes effect immediately, not at the next stride. *)
let set_max_bytes t n =
  t.max_bytes <- max 0 n;
  enforce_bytes t

(* ------------------------------------------------------------------ *)
(* Recording and the watchdog                                          *)
(* ------------------------------------------------------------------ *)

let find_or_create t fingerprint ~sql ~provenance =
  match Hashtbl.find_opt t.entries fingerprint with
  | Some en -> en
  | None ->
    let en =
      {
        en_fingerprint = fingerprint;
        en_totals =
          {
            t_query = sql;
            t_provenance = provenance;
            t_calls = 0;
            t_errors = 0;
            t_rows = 0;
            t_total_ms = 0.;
            t_max_ms = 0.;
            t_phase_ms = [];
            t_rule_counts = [];
          };
        en_ring = ring_make t.capacity;
        en_hist = Array.make hist_buckets 0;
        en_hist_n = 0;
        en_ewma_ms = 0.;
        en_ewma_rows = 0.;
        en_ewma_est = 0.;
        en_samples = 0;
        en_last_hash = "";
        en_last_seq = 0;
      }
    in
    Hashtbl.replace t.entries fingerprint en;
    en

let ewma_alpha = 0.3

let ring_p95 = hist_p95

(* Floor under the baseline: a slowdown is flagged only when it reaches
   [factor] times at least this much. Sub-millisecond statements swing by
   several times on scheduler jitter alone, and each flag captures a
   forensics bundle, so the floor sits where jitter does not reach. Plan
   changes are flagged whatever the timing. *)
let baseline_floor = 1.0

let baseline_ms en =
  if en.en_samples = 0 then 0. else Float.max en.en_ewma_ms (ring_p95 en)

(* Add [by] to [key]'s sum, appending a new key at the end. *)
let bump add sums key by =
  match List.find_opt (fun (k, _) -> String.equal k key) sums with
  | Some (_, r) ->
    r := add !r by;
    sums
  | None -> sums @ [ (key, ref by) ]

let add_totals st ~ms ~rows ~error ~phases ~rules =
  st.t_calls <- st.t_calls + 1;
  if error then st.t_errors <- st.t_errors + 1;
  st.t_rows <- st.t_rows + rows;
  st.t_total_ms <- st.t_total_ms +. ms;
  st.t_max_ms <- Float.max st.t_max_ms ms;
  st.t_phase_ms <-
    List.fold_left (fun acc (p, d) -> bump ( +. ) acc p d) st.t_phase_ms phases;
  st.t_rule_counts <-
    List.fold_left (fun acc (r, n) -> bump ( + ) acc r n) st.t_rule_counts rules

let record t ~fingerprint ~sql ~provenance ~ts ~plan_hash ~ms ~rows ~est_rows
    ~skew ~error ~phases ~rules =
  if t.capacity <= 0 then None
  else begin
    t.seq <- t.seq + 1;
    let seq = t.seq in
    let en = find_or_create t fingerprint ~sql ~provenance in
    add_totals en.en_totals ~ms ~rows ~error ~phases ~rules;
    let plan_changed =
      (not error) && en.en_last_hash <> "" && plan_hash <> ""
      && plan_hash <> en.en_last_hash
    in
    let baseline = baseline_ms en in
    let regression =
      if error then None
      else if plan_changed then
        Some
          {
            rg_fingerprint = fingerprint;
            rg_seq = seq;
            rg_ts = ts;
            rg_ms = ms;
            rg_baseline_ms = baseline;
            rg_factor = (if baseline > 0. then ms /. baseline else 1.);
            rg_cause = Plan_change;
            rg_detail =
              Printf.sprintf "plan hash %s -> %s" en.en_last_hash plan_hash;
            rg_plan_hash = plan_hash;
          }
      else if
        en.en_samples >= t.min_samples
        && ms >= t.factor *. Float.max baseline baseline_floor
      then begin
        let cause, detail =
          if
            est_rows > card_factor *. Float.max 1. en.en_ewma_est
            || float_of_int rows > card_factor *. Float.max 1. en.en_ewma_rows
          then
            ( Cardinality,
              Printf.sprintf
                "est rows %.0f vs baseline %.0f; rows out %d vs %.0f" est_rows
                en.en_ewma_est rows en.en_ewma_rows )
          else if skew >= skew_threshold then
            (Skew, Printf.sprintf "worker skew %.2f" skew)
          else (Unknown, "no plan, cardinality or skew change")
        in
        Some
          {
            rg_fingerprint = fingerprint;
            rg_seq = seq;
            rg_ts = ts;
            rg_ms = ms;
            rg_baseline_ms = baseline;
            rg_factor =
              (if baseline > 0. then ms /. baseline else 1.);
            rg_cause = cause;
            rg_detail = detail;
            rg_plan_hash = plan_hash;
          }
      end
      else None
    in
    Option.iter (fun r -> ring_push t.regressions r) regression;
    let evicted =
      ring_push_evict en.en_ring
        {
          ex_fingerprint = fingerprint;
          ex_seq = seq;
          ex_ts = ts;
          ex_plan_hash = plan_hash;
          ex_ms = ms;
          ex_rows = rows;
          ex_est_rows = est_rows;
          ex_skew = skew;
          ex_error = error;
          ex_phase_ms = phases;
        }
    in
    (match evicted with
    | Some old when not old.ex_error -> hist_remove en old.ex_ms
    | _ -> ());
    if not error then hist_add en ms;
    en.en_last_seq <- seq;
    if not error then begin
      if plan_changed || en.en_samples = 0 then begin
        (* first sample, or a new plan: the old timing baseline no longer
           describes what this statement does — restart from here *)
        en.en_ewma_ms <- ms;
        en.en_ewma_rows <- float_of_int rows;
        en.en_ewma_est <- est_rows;
        en.en_samples <- 1
      end
      else begin
        en.en_ewma_ms <- (ewma_alpha *. ms) +. ((1. -. ewma_alpha) *. en.en_ewma_ms);
        en.en_ewma_rows <-
          (ewma_alpha *. float_of_int rows)
          +. ((1. -. ewma_alpha) *. en.en_ewma_rows);
        en.en_ewma_est <-
          (ewma_alpha *. est_rows) +. ((1. -. ewma_alpha) *. en.en_ewma_est);
        en.en_samples <- en.en_samples + 1
      end
    end;
    if plan_hash <> "" then en.en_last_hash <- plan_hash;
    enforce_budget t;
    regression
  end

(* ------------------------------------------------------------------ *)
(* Metric sampling                                                     *)
(* ------------------------------------------------------------------ *)

let sample_due t ~now =
  enabled t && now -. t.last_sample_s >= t.cadence_s

let metric_value = function
  | Metrics.Counter r -> Some (float_of_int r.c)
  | Metrics.Gauge r -> Some r.g
  | Metrics.Histogram h ->
    if h.Metrics.h_count = 0 then None else Some (Metrics.quantile h 0.95)

let sample t metrics ~now =
  if sample_due t ~now then begin
    t.last_sample_s <- now;
    t.seq <- t.seq + 1;
    let seq = t.seq in
    let values =
      Metrics.fold metrics
        (fun acc name m ->
          if List.mem name tracked then
            match metric_value m with
            | Some v -> (name, v) :: acc
            | None -> acc
          else acc)
        []
    in
    List.iter
      (fun (name, v) ->
        let r =
          match Hashtbl.find_opt t.series name with
          | Some r -> r
          | None ->
            let r = ring_make (max 1 (t.capacity * 4)) in
            Hashtbl.replace t.series name r;
            r
        in
        ring_push r { sm_name = name; sm_seq = seq; sm_ts = now; sm_value = v })
      values
  end

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let executions t =
  Hashtbl.fold (fun _ en acc -> ring_to_list en.en_ring @ acc) t.entries []
  |> List.sort (fun a b -> compare a.ex_seq b.ex_seq)

let executions_for t fingerprint =
  match Hashtbl.find_opt t.entries fingerprint with
  | None -> []
  | Some en -> ring_to_list en.en_ring

let fingerprints t =
  Hashtbl.fold (fun fp _ acc -> fp :: acc) t.entries []
  |> List.sort compare

let regressions t = ring_to_list t.regressions

let metric_samples t =
  Hashtbl.fold (fun _ r acc -> ring_to_list r @ acc) t.series []
  |> List.sort (fun a b ->
         match compare a.sm_name b.sm_name with
         | 0 -> compare a.sm_seq b.sm_seq
         | c -> c)

(* Costliest first; ties broken by fingerprint for deterministic output. *)
let snapshot en =
  let st = en.en_totals in
  {
    st_fingerprint = en.en_fingerprint;
    st_query = st.t_query;
    st_calls = st.t_calls;
    st_errors = st.t_errors;
    st_rows = st.t_rows;
    st_total_ms = st.t_total_ms;
    st_max_ms = st.t_max_ms;
    st_phase_ms = List.map (fun (p, r) -> (p, !r)) st.t_phase_ms;
    st_rule_counts = List.map (fun (p, r) -> (p, !r)) st.t_rule_counts;
    st_provenance = st.t_provenance;
  }

let statements t =
  Hashtbl.fold (fun _ en acc -> snapshot en :: acc) t.entries []
  |> List.sort (fun a b ->
         match compare b.st_total_ms a.st_total_ms with
         | 0 -> compare a.st_fingerprint b.st_fingerprint
         | c -> c)

let phase_ms st name =
  match List.assoc_opt name st.st_phase_ms with Some v -> v | None -> 0.

let rule_firings st =
  List.fold_left (fun acc (_, n) -> acc + n) 0 st.st_rule_counts

let mean_ms st =
  if st.st_calls = 0 then 0. else st.st_total_ms /. float_of_int st.st_calls

let baseline t fingerprint =
  match Hashtbl.find_opt t.entries fingerprint with
  | None -> None
  | Some en ->
    if en.en_samples = 0 then None
    else Some (baseline_ms en, en.en_samples)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let exec_to_json r =
  Json.Obj
    [
      ("kind", Json.String "execution");
      ("fingerprint", Json.String r.ex_fingerprint);
      ("seq", Json.Int r.ex_seq);
      ("ts", Json.Float r.ex_ts);
      ("plan_hash", Json.String r.ex_plan_hash);
      ("ms", Json.Float r.ex_ms);
      ("rows", Json.Int r.ex_rows);
      ("est_rows", Json.Float r.ex_est_rows);
      ("skew", Json.Float r.ex_skew);
      ("error", Json.Bool r.ex_error);
      ( "phases",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.ex_phase_ms) );
    ]

let regression_to_json r =
  Json.Obj
    [
      ("kind", Json.String "regression");
      ("fingerprint", Json.String r.rg_fingerprint);
      ("seq", Json.Int r.rg_seq);
      ("ts", Json.Float r.rg_ts);
      ("ms", Json.Float r.rg_ms);
      ("baseline_ms", Json.Float r.rg_baseline_ms);
      ("factor", Json.Float r.rg_factor);
      ("cause", Json.String (cause_label r.rg_cause));
      ("detail", Json.String r.rg_detail);
      ("plan_hash", Json.String r.rg_plan_hash);
    ]

let metric_sample_to_json s =
  Json.Obj
    [
      ("kind", Json.String "metric");
      ("name", Json.String s.sm_name);
      ("seq", Json.Int s.sm_seq);
      ("ts", Json.Float s.sm_ts);
      ("value", Json.Float s.sm_value);
    ]

let export_jsonl t =
  List.map exec_to_json (executions t)
  @ List.map regression_to_json (regressions t)
  @ List.map metric_sample_to_json (metric_samples t)

(* Streaming variant of [export_jsonl]: records are emitted one at a time
   so a large telemetry dump never materializes as a single list/string in
   memory (the CLI writes each straight to the file). Same record order. *)
let iter_export t f =
  List.iter (fun ex -> f (exec_to_json ex)) (executions t);
  List.iter (fun r -> f (regression_to_json r)) (regressions t);
  List.iter (fun s -> f (metric_sample_to_json s)) (metric_samples t)

(* Records lost specifically to fingerprint-LRU / byte-budget eviction, as
   opposed to ordinary ring wrap-around — exported as its own gauge so an
   alert can tell "history is just full" from "the budget is shedding
   whole fingerprints". *)
let evicted t = t.evicted
