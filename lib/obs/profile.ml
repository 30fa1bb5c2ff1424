(* Retained plan-node, relation and worker-domain profiles — the
   accumulator behind the perm_stat_plans, perm_stat_relations and
   perm_stat_workers system views.

   Plan profiles are keyed by (statement fingerprint, node id): the engine
   assigns stable pre-order ids over the optimized plan, so repeated
   executions of the same statement shape fold into one row per operator.
   Relation profiles are keyed by base-relation name. Worker profiles are
   keyed by domain index and accumulate across every parallel batch the
   session ran. All stores are string/int keyed so this module stays
   independent of the algebra. *)

type plan_node = {
  pn_fingerprint : string;
  pn_node : int;  (* stable pre-order id within the optimized plan *)
  pn_operator : string;
  mutable pn_est_rows : float;  (* planner estimate, latest plan wins *)
  mutable pn_act_rows : int;  (* actual rows out, summed over executions *)
  mutable pn_self_ms : float;  (* self wall-time (exclusive of children) *)
  mutable pn_loops : int;  (* operator (re)invocations *)
  mutable pn_peak_bytes : int;  (* largest measured batch bytes, max *)
}

type worker = {
  wk_domain : int;  (* 0 = the calling domain *)
  mutable wk_morsels : int;
  mutable wk_busy_ms : float;
  mutable wk_idle_ms : float;
  mutable wk_rows : int;
  mutable wk_max_skew : float;
      (* max over batches of busy_ms / mean busy_ms of that batch *)
}

type relation = {
  rel_name : string;
  mutable rel_scans : int;
  mutable rel_rows : int;
}

type t = {
  plans : (string * int, plan_node) Hashtbl.t;
  relations : (string, relation) Hashtbl.t;
  workers : (int, worker) Hashtbl.t;
}

let create () =
  {
    plans = Hashtbl.create 64;
    relations = Hashtbl.create 16;
    workers = Hashtbl.create 8;
  }

let reset t =
  Hashtbl.reset t.plans;
  Hashtbl.reset t.relations;
  Hashtbl.reset t.workers

let record_plan_node t ~fingerprint ~node ~operator ~est_rows ~act_rows
    ~self_ms ~loops ~peak_bytes =
  let key = (fingerprint, node) in
  let pn =
    match Hashtbl.find_opt t.plans key with
    | Some pn -> pn
    | None ->
      let pn =
        {
          pn_fingerprint = fingerprint;
          pn_node = node;
          pn_operator = operator;
          pn_est_rows = est_rows;
          pn_act_rows = 0;
          pn_self_ms = 0.;
          pn_loops = 0;
          pn_peak_bytes = 0;
        }
      in
      Hashtbl.replace t.plans key pn;
      pn
  in
  pn.pn_est_rows <- est_rows;
  pn.pn_act_rows <- pn.pn_act_rows + act_rows;
  pn.pn_self_ms <- pn.pn_self_ms +. self_ms;
  pn.pn_loops <- pn.pn_loops + loops;
  if peak_bytes > pn.pn_peak_bytes then pn.pn_peak_bytes <- peak_bytes

let record_scan t ~relation ~rows =
  let rel =
    match Hashtbl.find_opt t.relations relation with
    | Some rel -> rel
    | None ->
      let rel = { rel_name = relation; rel_scans = 0; rel_rows = 0 } in
      Hashtbl.replace t.relations relation rel;
      rel
  in
  rel.rel_scans <- rel.rel_scans + 1;
  rel.rel_rows <- rel.rel_rows + rows

let record_worker t ~domain ~morsels ~busy_ms ~idle_ms ~rows ~skew =
  let wk =
    match Hashtbl.find_opt t.workers domain with
    | Some wk -> wk
    | None ->
      let wk =
        {
          wk_domain = domain;
          wk_morsels = 0;
          wk_busy_ms = 0.;
          wk_idle_ms = 0.;
          wk_rows = 0;
          wk_max_skew = 0.;
        }
      in
      Hashtbl.replace t.workers domain wk;
      wk
  in
  wk.wk_morsels <- wk.wk_morsels + morsels;
  wk.wk_busy_ms <- wk.wk_busy_ms +. busy_ms;
  wk.wk_idle_ms <- wk.wk_idle_ms +. idle_ms;
  wk.wk_rows <- wk.wk_rows + rows;
  if skew > wk.wk_max_skew then wk.wk_max_skew <- skew

(* Fingerprint order, then tree order — the natural reading order of the
   perm_stat_plans view. *)
let plan_nodes t =
  Hashtbl.fold (fun _ pn acc -> pn :: acc) t.plans []
  |> List.sort (fun a b ->
         match compare a.pn_fingerprint b.pn_fingerprint with
         | 0 -> compare a.pn_node b.pn_node
         | c -> c)

let relations t =
  Hashtbl.fold (fun _ rel acc -> rel :: acc) t.relations []
  |> List.sort (fun a b -> compare a.rel_name b.rel_name)

let workers t =
  Hashtbl.fold (fun _ wk acc -> wk :: acc) t.workers []
  |> List.sort (fun a b -> compare a.wk_domain b.wk_domain)
