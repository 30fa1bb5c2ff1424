(* Default latency-histogram bucket upper bounds, in milliseconds: a
   log-ish scale from 5µs to 5s. The last implicit bucket is +inf. *)
let default_bounds =
  [|
    0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.;
    100.; 250.; 500.; 1000.; 2500.; 5000.;
  |]

type histogram = {
  bounds : float array;
  buckets : int array;  (* length = Array.length bounds + 1 (overflow) *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type metric =
  | Counter of { mutable c : int }
  | Gauge of { mutable g : float }
  | Histogram of histogram

(* The registry is read by the HTTP observability plane from a different
   domain than the one executing statements, so every operation that
   touches [tbl] structurally — or reads a multi-word histogram — takes
   the registry mutex. Counter/gauge single-field writes would be benign
   races under the OCaml 5 memory model, but Hashtbl resizes are not, and
   a torn histogram (count bumped, bucket not yet) would render a
   non-monotone exposition; locking everything keeps the invariants
   simple. The critical sections are a few dozen instructions, far below
   contention concern at statement granularity. *)
type t = {
  tbl : (string, metric) Hashtbl.t;
  mu : Mutex.t;
  mutable generation : int;  (* bumped by [reset] *)
}

(* OCaml's [Mutex] is not reentrant and 5.1 has no [Mutex.protect].
   [f t a b] runs under the lock, which is released however it returns.
   The per-statement operations below pass a top-level [f] and its
   arguments, so taking the lock allocates no closure. *)
let with_lock t f a b =
  Mutex.lock t.mu;
  match f t a b with
  | x ->
    Mutex.unlock t.mu;
    x
  | exception e ->
    Mutex.unlock t.mu;
    raise e

let create () = { tbl = Hashtbl.create 64; mu = Mutex.create (); generation = 0 }

let reset t =
  with_lock t
    (fun t () () ->
      Hashtbl.reset t.tbl;
      t.generation <- t.generation + 1)
    () ()

let generation t = t.generation

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_add t name make =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.replace t.tbl name m;
    m

let mismatch name m expected =
  invalid_arg
    (Printf.sprintf "metric %S is a %s, not a %s" name (kind_name m) expected)

let new_counter () = Counter { c = 0 }
let new_gauge () = Gauge { g = 0. }

let incr_unlocked t name by =
  match find_or_add t name new_counter with
  | Counter r -> r.c <- r.c + by
  | m -> mismatch name m "counter"

let incr ?(by = 1) t name = with_lock t incr_unlocked name by

let set_gauge_unlocked t name v =
  match find_or_add t name new_gauge with
  | Gauge r -> r.g <- v
  | m -> mismatch name m "gauge"

let set_gauge t name v = with_lock t set_gauge_unlocked name v

let new_histogram bounds =
  {
    bounds;
    buckets = Array.make (Array.length bounds + 1) 0;
    h_count = 0;
    h_sum = 0.;
    h_min = Float.infinity;
    h_max = Float.neg_infinity;
  }

let bucket_index bounds v =
  (* first bound >= v; the trailing overflow bucket catches the rest *)
  let n = Array.length bounds in
  let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
  go 0

let find_or_add_histogram t name bounds =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> m
  | None ->
    let m = Histogram (new_histogram bounds) in
    Hashtbl.replace t.tbl name m;
    m

let declare_histogram_unlocked t name bounds =
  match find_or_add_histogram t name bounds with
  | Histogram _ -> ()
  | m -> mismatch name m "histogram"

let declare_histogram ?(bounds = default_bounds) t name =
  with_lock t declare_histogram_unlocked name bounds

let observe_unlocked t (name, bounds) v =
  match find_or_add_histogram t name bounds with
  | Histogram h ->
    let i = bucket_index h.bounds v in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  | m -> mismatch name m "histogram"

let observe ?(bounds = default_bounds) t name v =
  with_lock t observe_unlocked (name, bounds) v

let counter_unlocked t name () =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter r) -> r.c
  | Some m -> mismatch name m "counter"
  | None -> 0

let counter t name = with_lock t counter_unlocked name ()

let counters t names =
  with_lock t (fun t names () -> Array.map (fun n -> counter_unlocked t n ()) names) names ()

let gauge t name =
  with_lock t
    (fun t name () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Gauge r) -> Some r.g
      | Some m -> mismatch name m "gauge"
      | None -> None)
    name ()

(* Deep copy, so callers can inspect a histogram outside the lock without
   seeing torn updates from a concurrently-observing domain. *)
let copy_histogram h =
  {
    bounds = h.bounds;
    buckets = Array.copy h.buckets;
    h_count = h.h_count;
    h_sum = h.h_sum;
    h_min = h.h_min;
    h_max = h.h_max;
  }

let histogram t name =
  with_lock t
    (fun t name () ->
      match Hashtbl.find_opt t.tbl name with
      | Some (Histogram h) -> Some (copy_histogram h)
      | Some m -> mismatch name m "histogram"
      | None -> None)
    name ()

(* Upper bound of the bucket where the cumulative count first reaches
   [q * count] — a coarse but monotone quantile estimate. *)
let quantile h q =
  if h.h_count = 0 then Float.nan
  else begin
    let target =
      Float.max 1. (Float.round (q *. float_of_int h.h_count))
    in
    let acc = ref 0 and result = ref h.h_max in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if float_of_int !acc >= target then begin
             result :=
               (if i < Array.length h.bounds then h.bounds.(i) else h.h_max);
             raise Exit
           end)
         h.buckets
     with Exit -> ());
    (* never report a quantile above the observed maximum *)
    Float.min !result h.h_max
  end

(* OCaml runtime health, refreshed on demand (metrics dumps, the
   [perm_metrics] system view, bench JSON) rather than per statement: the
   [Gc.quick_stat] call is cheap but not free, and gauges only need to be
   current when somebody looks. *)
let set_gc_gauges t =
  let s = Gc.quick_stat () in
  set_gauge t "gc.minor_collections" (float_of_int s.Gc.minor_collections);
  set_gauge t "gc.major_collections" (float_of_int s.Gc.major_collections);
  set_gauge t "gc.compactions" (float_of_int s.Gc.compactions);
  set_gauge t "gc.heap_words" (float_of_int s.Gc.heap_words);
  set_gauge t "gc.top_heap_words" (float_of_int s.Gc.top_heap_words);
  set_gauge t "gc.minor_words" s.Gc.minor_words

let names_unlocked t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])

let names t = with_lock t (fun t () () -> names_unlocked t) () ()

(* Consistent point-in-time copy of the whole registry, in sorted name
   order. Histograms are deep-copied; this is what cross-domain readers
   (the Prometheus renderer, JSON dumps) iterate. *)
let snapshot t =
  with_lock t
    (fun t () () ->
      List.map
        (fun name ->
          let m =
            match Hashtbl.find t.tbl name with
            | Counter r -> Counter { c = r.c }
            | Gauge r -> Gauge { g = r.g }
            | Histogram h -> Histogram (copy_histogram h)
          in
          (name, m))
        (names_unlocked t))
    () ()

let fold t f init =
  List.fold_left (fun acc (name, m) -> f acc name m) init (snapshot t)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let dump_text ?prefix t =
  let keep name =
    match prefix with
    | None -> true
    | Some p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, m) ->
      if keep name then
        match m with
        | Counter r ->
          Buffer.add_string buf (Printf.sprintf "counter    %-44s %d\n" name r.c)
        | Gauge r ->
          Buffer.add_string buf (Printf.sprintf "gauge      %-44s %g\n" name r.g)
        | Histogram h ->
          if h.h_count = 0 then
            Buffer.add_string buf
              (Printf.sprintf "histogram  %-44s count=0\n" name)
          else
            Buffer.add_string buf
              (Printf.sprintf
                 "histogram  %-44s count=%d sum=%.3f min=%.3f max=%.3f \
                  p50<=%.3f p95<=%.3f p99<=%.3f\n"
                 name h.h_count h.h_sum h.h_min h.h_max (quantile h 0.50)
                 (quantile h 0.95) (quantile h 0.99)))
    (snapshot t);
  Buffer.contents buf

let histogram_to_json h =
  let buckets =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i n ->
              if n = 0 then []
              else
                let le =
                  if i < Array.length h.bounds then
                    Json.Float h.bounds.(i)
                  else Json.String "+inf"
                in
                [ Json.Obj [ ("le", le); ("count", Json.Int n) ] ])
            h.buckets))
  in
  let q p = Json.Float (if h.h_count = 0 then 0. else quantile h p) in
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", Json.Float (if h.h_count = 0 then 0. else h.h_min));
      ("max", Json.Float (if h.h_count = 0 then 0. else h.h_max));
      ("p50", q 0.50);
      ("p95", q 0.95);
      ("p99", q 0.99);
      ("buckets", Json.List buckets);
    ]

let to_json t =
  Json.Obj
    (List.map
       (fun (name, m) ->
         ( name,
           match m with
           | Counter r -> Json.Int r.c
           | Gauge r -> Json.Float r.g
           | Histogram h -> histogram_to_json h ))
       (snapshot t))
