(* The perm_stat_* virtual system relations. Each view is declared once,
   as its columns — a name, a dtype and the getter that reads the column
   off one item — and the items a scan sees. The catalog schema, the
   columnar batches of a scan and the rows of the /stats endpoints all
   come from that one declaration. Views are read at scan time, so a
   view reflects its store as of the statement that scans it. *)

module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Catalog = Perm_catalog.Catalog
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column
module Metrics = Perm_obs.Metrics
module History = Perm_obs.History
module Profile = Perm_obs.Profile
module Executor = Perm_executor.Executor

type view =
  | View : {
      cols : (string * Dtype.t * ('a -> Value.t)) list;
      items : unit -> 'a list;  (* a scan's rows, in view order *)
      count : unit -> int;  (* the planner's estimate, without the items *)
    }
      -> view

type t = (string * view) list

(* A column of a dtype: its name and the getter of its value. *)
let int name f = (name, Dtype.Int, fun x -> Value.Int (f x))
let float name f = (name, Dtype.Float, fun x -> Value.Float (f x))
let text name f = (name, Dtype.Text, fun x -> Value.Text (f x))
let bool name f = (name, Dtype.Bool, fun x -> Value.Bool (f x))

(* A view whose estimate counts its items. *)
let view cols items = View { cols; items; count = (fun () -> List.length (items ())) }

let statements history =
  let phase name = float (name ^ "_ms") (fun st -> History.phase_ms st name) in
  View
    {
      items = (fun () -> History.statements history);
      count = (fun () -> List.length (History.fingerprints history));
      cols =
        [
          text "fingerprint" (fun st -> st.History.st_fingerprint);
          text "query" (fun st -> st.History.st_query);
          int "calls" (fun st -> st.History.st_calls);
          int "errors" (fun st -> st.History.st_errors);
          int "rows" (fun st -> st.History.st_rows);
          float "total_ms" (fun st -> st.History.st_total_ms);
          float "mean_ms" History.mean_ms;
          float "max_ms" (fun st -> st.History.st_max_ms);
          phase "analyze";
          phase "rewrite";
          phase "optimize";
          phase "execute";
          int "rule_firings" History.rule_firings;
          text "rules" (fun st ->
              String.concat ","
                (List.map
                   (fun (rule, n) -> Printf.sprintf "%s=%d" rule n)
                   (List.sort compare st.History.st_rule_counts)));
          bool "provenance" (fun st -> st.History.st_provenance);
        ];
    }

(* One row per metric: counters and gauges fill [value], histograms the
   count and, once they hold a sample, the sum, extremes and quantiles.
   [refresh] brings the lazily published gauges up to date first. *)
let metric_rows metrics ~refresh =
  let hist f (_, m) =
    match m with
    | Metrics.Histogram h when h.Metrics.h_count > 0 -> f h
    | _ -> Value.Null
  in
  let quantile q =
    hist (fun h ->
        let v = Metrics.quantile h q in
        if Float.is_nan v then Value.Null else Value.Float v)
  in
  View
    {
      items =
        (fun () ->
          refresh ();
          List.rev (Metrics.fold metrics (fun acc name m -> (name, m) :: acc) []));
      count = (fun () -> List.length (Metrics.names metrics));
      cols =
        [
          text "name" fst;
          text "kind" (function
              | _, Metrics.Counter _ -> "counter"
              | _, Metrics.Gauge _ -> "gauge"
              | _, Metrics.Histogram _ -> "histogram");
          ( "value",
            Dtype.Float,
            function
            | _, Metrics.Counter { c } -> Value.Float (float_of_int c)
            | _, Metrics.Gauge { g } -> Value.Float g
            | _, Metrics.Histogram _ -> Value.Null );
          ( "count",
            Dtype.Int,
            function
            | _, Metrics.Histogram h -> Value.Int h.Metrics.h_count
            | _ -> Value.Null );
          ("sum", Dtype.Float, hist (fun h -> Value.Float h.Metrics.h_sum));
          ("min", Dtype.Float, hist (fun h -> Value.Float h.Metrics.h_min));
          ("max", Dtype.Float, hist (fun h -> Value.Float h.Metrics.h_max));
          ("p50", Dtype.Float, quantile 0.50);
          ("p95", Dtype.Float, quantile 0.95);
          ("p99", Dtype.Float, quantile 0.99);
        ];
    }

let history_rows history =
  let phase name =
    ( name ^ "_ms",
      Dtype.Float,
      fun r ->
        match List.assoc_opt name r.History.ex_phase_ms with
        | Some v -> Value.Float v
        | None -> Value.Null )
  in
  view
    [
      text "fingerprint" (fun r -> r.History.ex_fingerprint);
      int "seq" (fun r -> r.History.ex_seq);
      float "ts" (fun r -> r.History.ex_ts);
      text "plan_hash" (fun r -> r.History.ex_plan_hash);
      float "total_ms" (fun r -> r.History.ex_ms);
      int "rows" (fun r -> r.History.ex_rows);
      float "est_rows" (fun r -> r.History.ex_est_rows);
      float "skew" (fun r -> r.History.ex_skew);
      bool "error" (fun r -> r.History.ex_error);
      phase "analyze";
      phase "rewrite";
      phase "optimize";
      phase "execute";
    ]
    (fun () -> History.executions history)

(* The nine views over the session's stores. [anomalies] lists the
   forensics bundles oldest first, like the other telemetry views. *)
let create ~history ~profile ~metrics ~refresh_metrics ~anomalies : t =
  [
    ("perm_stat_statements", statements history);
    ( "perm_stat_relations",
      view
        [
          text "relation" (fun r -> r.Profile.rel_name);
          int "scans" (fun r -> r.Profile.rel_scans);
          int "rows" (fun r -> r.Profile.rel_rows);
        ]
        (fun () -> Profile.relations profile) );
    ("perm_metrics", metric_rows metrics ~refresh:refresh_metrics);
    ( "perm_stat_plans",
      view
        [
          text "fingerprint" (fun n -> n.Profile.pn_fingerprint);
          int "node_id" (fun n -> n.Profile.pn_node);
          text "operator" (fun n -> n.Profile.pn_operator);
          float "est_rows" (fun n -> n.Profile.pn_est_rows);
          int "act_rows" (fun n -> n.Profile.pn_act_rows);
          float "self_ms" (fun n -> n.Profile.pn_self_ms);
          int "loops" (fun n -> n.Profile.pn_loops);
          int "peak_bytes" (fun n -> n.Profile.pn_peak_bytes);
        ]
        (fun () -> Profile.plan_nodes profile) );
    ( "perm_stat_workers",
      view
        [
          int "domain" (fun w -> w.Profile.wk_domain);
          int "morsels" (fun w -> w.Profile.wk_morsels);
          float "busy_ms" (fun w -> w.Profile.wk_busy_ms);
          float "idle_ms" (fun w -> w.Profile.wk_idle_ms);
          int "rows" (fun w -> w.Profile.wk_rows);
          float "max_skew" (fun w -> w.Profile.wk_max_skew);
        ]
        (fun () -> Profile.workers profile) );
    ("perm_stat_history", history_rows history);
    ( "perm_stat_regressions",
      view
        [
          text "fingerprint" (fun r -> r.History.rg_fingerprint);
          int "seq" (fun r -> r.History.rg_seq);
          float "ts" (fun r -> r.History.rg_ts);
          float "total_ms" (fun r -> r.History.rg_ms);
          float "baseline_ms" (fun r -> r.History.rg_baseline_ms);
          float "factor" (fun r -> r.History.rg_factor);
          text "cause" (fun r -> History.cause_label r.History.rg_cause);
          text "detail" (fun r -> r.History.rg_detail);
          text "plan_hash" (fun r -> r.History.rg_plan_hash);
        ]
        (fun () -> History.regressions history) );
    ( "perm_metrics_history",
      view
        [
          text "name" (fun s -> s.History.sm_name);
          int "seq" (fun s -> s.History.sm_seq);
          float "ts" (fun s -> s.History.sm_ts);
          float "value" (fun s -> s.History.sm_value);
        ]
        (fun () -> History.metric_samples history) );
    ( "perm_stat_anomalies",
      view
        [
          int "id" (fun b -> b.Bundles.fs_id);
          float "ts" (fun b -> b.Bundles.fs_ts);
          text "class" (fun b -> b.Bundles.fs_class);
          text "fingerprint" (fun b -> b.Bundles.fs_fingerprint);
          text "detail" (fun b -> b.Bundles.fs_detail);
          text "sql" (fun b -> b.Bundles.fs_sql);
        ]
        anomalies );
  ]

let register (t : t) cat =
  List.iter
    (fun (name, View v) ->
      let cols = List.map (fun (c, ty, _) -> Column.make c ty) v.cols in
      match Catalog.add_virtual cat name (Schema.make_exn cols) with
      | Ok _ -> ()
      | Error msg -> invalid_arg ("registering virtual relation: " ^ msg))
    t

let find (t : t) name = List.assoc_opt (String.lowercase_ascii name) t
let names (t : t) = List.sort compare (List.map fst t)
let estimate (View v) = v.count ()
let columns (View v) = List.map (fun (c, _, _) -> c) v.cols

(* A scan: every column read off the items at once, in batches of at
   most [rows] rows. *)
let batches (View v) ~rows =
  let items = Array.of_list (v.items ()) in
  Executor.batches_of_columns ~batch_rows:rows
    (Array.of_list (List.map (fun (_, _, get) -> Array.map get items) v.cols))
    (Array.length items)

let rows (View v) =
  List.map
    (fun x -> Array.of_list (List.map (fun (_, _, get) -> get x) v.cols))
    (v.items ())
