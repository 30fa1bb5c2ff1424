module Plan = Perm_algebra.Plan
module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch
open Eval
open Runs
open Compile

exception Runtime_error = Eval.Runtime_error

type provider = Compile.provider = {
  probe_index : string -> int -> Value.t -> Tuple.t Seq.t;
  scan_batches : string -> int -> Batch.t array;
}

let batches_of_columns = Gather.batches_of_columns
let batches_of_list = Gather.batches_of_list
let plan_hash = Plan_hash.plan_hash

module Token = Perm_err.Token
module Spill = Perm_storage.Spill

let default_batch_rows = Perm_storage.Heap.chunk_rows

let rec batch_eligible (p : Plan.t) =
  match p with
  | Plan.Prov _ -> false
  | _ -> List.for_all batch_eligible (Plan.children p)

(* ------------------------------------------------------------------ *)
(* Guardrails and root materialization                                 *)
(* ------------------------------------------------------------------ *)

(* The guard only wraps operators that can *create* row multiplicity —
   sources, joins, aggregations, sorts, set ops, applies. Pass-through
   nodes (Project/Filter/Limit) emit at most one row per guarded input
   row, so wrapping them too would add a Seq.map per batch per node
   without tightening the cancellation bound: every stream is charged at
   its multiplicity source, and every operator (re)invocation — the
   Apply case — re-checks the deadline at thunk start. *)
let guard_this_node (node : Plan.t) =
  match node with
  | Plan.Project _ | Plan.Filter _ | Plan.Limit _ -> false
  | _ -> true

(* Cancel-token checks sit at batch boundaries: one [Token.charge] per
   batch (of its live row count) at every multiplicity-source node, plus a
   deadline check at operator start. Kill latency is bounded by one batch
   per operator. Installed only when the token is active — the unguarded
   path compiles the exact same closures. *)
let guard_bwrap (token : Token.t) : bwrapper =
 fun node thunk ->
  if not (guard_this_node node) then thunk
  else
    fun () ->
      Token.check token;
      Seq.map
        (fun b ->
          Token.charge token (Batch.live b);
          b)
        (thunk ())

let over_row_limit limit =
  raise
    (Perm_err.Cancel
       ( Perm_err.Resource_exhausted,
         Printf.sprintf "row limit exceeded (limit %d)" limit ))

(* Root materialization: the one place every result passes through, so the
   row-limit guardrail and the live row-progress counter live here. *)
let materialize_batches ?row_limit ?progress (bs : Batch.t Seq.t) =
  let acc = ref [] in
  let count = ref 0 in
  Seq.iter
    (fun b ->
      let n = Batch.live b in
      (match progress with None -> () | Some p -> Progress.add_rows p n);
      (match row_limit with
      | Some limit when !count + n > limit -> over_row_limit limit
      | _ -> ());
      count := !count + n;
      List.iter (fun t -> acc := t :: !acc) (Batch.to_tuples b))
    bs;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Instrumented execution (EXPLAIN ANALYZE, \trace on)                 *)
(* ------------------------------------------------------------------ *)

type node_stats = {
  stat_kind : string;
  mutable stat_id : int;  (* stable pre-order id within the plan; -1 until
                             [finalize], and stays -1 for helper nodes the
                             executor synthesizes (e.g. the swapped join a
                             Right join compiles into) *)
  mutable stat_invocations : int;
  mutable stat_rows : int;
  mutable stat_time_s : float;
  mutable stat_self_s : float;  (* exclusive time, derived by [finalize] *)
  mutable stat_peak_rows : int;  (* max rows out of a single invocation *)
  mutable stat_peak_bytes : int;  (* largest measured heap footprint
                                     of one batch *)
}

(* Stats are keyed by the physical identity of the plan node: the plan is a
   tree built once per statement, so [==] identifies each operator uniquely
   and survives the trip through [Pretty.plan_to_string ~annotate]. *)
type exec_stats = { mutable entries : (Plan.t * node_stats) list }

let lookup stats node = List.assq_opt node stats.entries

let stats_entries stats = List.rev_map snd stats.entries
let stats_nodes stats = List.rev stats.entries

(* Stable node ids: pre-order over the plan tree, so the same statement
   shape yields the same numbering on every execution. Ids advance even
   for nodes that never executed (short-circuited subtrees), which keeps
   the numbering a function of the plan alone. *)
let node_ids plan =
  let id = ref 0 in
  let rec walk acc node =
    let this = !id in
    incr id;
    List.fold_left walk ((node, this) :: acc) (Plan.children node)
  in
  List.rev (walk [] plan)

(* Derive the per-node columns that need the whole tree: stable ids and
   self time (inclusive minus the children's inclusive time — children of
   an Apply right side re-run per outer row, and their cumulative time is
   already cumulative across invocations, so the subtraction stays
   exact). *)
let finalize stats plan =
  List.iter
    (fun (node, id) ->
      match lookup stats node with
      | None -> ()
      | Some ns ->
        ns.stat_id <- id;
        let child_s =
          List.fold_left
            (fun acc c ->
              match lookup stats c with
              | Some cns -> acc +. cns.stat_time_s
              | None -> acc)
            0. (Plan.children node)
        in
        ns.stat_self_s <- Float.max 0. (ns.stat_time_s -. child_s))
    (node_ids plan)

(* Per-base-relation view of the recorded stats: the leaf scans, labelled
   with the table they read. Feeds the perm_stat_relations system view. *)
let scan_stats stats =
  List.rev
    (List.filter_map
       (fun (p, ns) ->
         match p with
         | Plan.Scan { table; _ } | Plan.Index_scan { table; _ } ->
           Some (table, ns)
         | _ -> None)
       stats.entries)

let now_s () = Perm_obs.Trace.now ()

(* Operator counters: rows accumulate by live count per batch, and
   peak_bytes is the largest reachable-heap footprint
   ([Batch.measured_bytes]) among the batches the node measured, less the
   column arrays it shares with its children's latest batches: a filter
   or a projection passes its input's columns on, and those belong to
   the input. Measuring walks the batch, so a node measures its first
   batch and then only a batch with more live rows than any it measured
   before: a stream of equal batches costs one walk, not one per batch.
   Every pull is timed,
   so the measured interval covers the operator AND its children
   (inclusive time, as in Postgres EXPLAIN ANALYZE). A child measures its
   batch inside its parent's pull, so each interval gives back the
   measuring time that accrued during it: no node is charged for byte
   counts. *)
let instrumenting_bwrap stats : bwrapper =
  let measuring = ref 0. in
  (* each wrapped node's latest batch columns; children wrap first *)
  let latest = ref [] in
  fun node thunk ->
    let inputs =
      List.filter_map (fun c -> List.assq_opt c !latest) (Plan.children node)
    in
    let last = ref [||] in
    latest := (node, last) :: !latest;
    let ns =
      {
        stat_kind = Plan.operator_kind node;
        stat_id = -1;
        stat_invocations = 0;
        stat_rows = 0;
        stat_time_s = 0.;
        stat_self_s = 0.;
        stat_peak_rows = 0;
        stat_peak_bytes = 0;
      }
    in
    stats.entries <- (node, ns) :: stats.entries;
    let widest = ref 0 in
    let timed f =
      let t0 = now_s () and m0 = !measuring in
      let r = f () in
      ns.stat_time_s <-
        ns.stat_time_s +. (now_s () -. t0) -. (!measuring -. m0);
      r
    in
    fun () ->
      ns.stat_invocations <- ns.stat_invocations + 1;
      let inv_rows = ref 0 in
      let rec step s () =
        match timed s with
        | Seq.Nil -> Seq.Nil
        | Seq.Cons (b, rest) ->
          let live = Batch.live b in
          last := b.Batch.cols;
          ns.stat_rows <- ns.stat_rows + live;
          inv_rows := !inv_rows + live;
          if !inv_rows > ns.stat_peak_rows then ns.stat_peak_rows <- !inv_rows;
          if live > !widest || ns.stat_peak_bytes = 0 then begin
            widest := max live !widest;
            let t0 = now_s () in
            let bytes = Batch.measured_bytes (List.map ( ! ) inputs) b in
            measuring := !measuring +. (now_s () -. t0);
            if bytes > ns.stat_peak_bytes then ns.stat_peak_bytes <- bytes
          end;
          Seq.Cons (b, step rest)
      in
      step (timed thunk)

(* The batch wrapper of one compile: operator counters when [stats] is
   given, under the cancel guard when the token is armed. *)
let batch_wrap token stats =
  let w = match stats with Some s -> instrumenting_bwrap s | None -> no_bwrap in
  if Token.active token then fun node thunk -> guard_bwrap token node (w node thunk)
  else w

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let statement_cx ?spill ~provider ~batch_rows bwrap =
  {
    provider;
    batch_rows = max 1 batch_rows;
    bwrap;
    spill = spill_of spill;
    outer = no_outer;
    builds = [];
    gather = None;
  }

(* Compile and drain [plan], finalizing [stats] on success. Spill files
   an abandoned lazy consumer left behind (LIMIT over a spilled sort never
   reaches the sort's own cleanup) are released when the statement ends,
   however it ends. *)
let execute ?row_limit ?progress ?stats cx plan =
  match
    Fun.protect ~finally:Spill.release_all (fun () ->
        materialize_batches ?row_limit ?progress ((compile_batch cx plan) ()))
  with
  | rows ->
    Option.iter (fun s -> finalize s plan) stats;
    Ok rows
  | exception Runtime_error msg -> Error msg

let run ?(token = Token.none) ?row_limit ?progress
    ?(batch_rows = default_batch_rows) ?spill ~provider plan =
  execute ?row_limit ?progress
    (statement_cx ?spill ~provider ~batch_rows (batch_wrap token None))
    plan

let run_instrumented ?(token = Token.none) ?row_limit ?progress
    ?(batch_rows = default_batch_rows) ?spill ~provider plan =
  let stats = { entries = [] } in
  execute ?row_limit ?progress ~stats
    (statement_cx ?spill ~provider ~batch_rows (batch_wrap token (Some stats)))
    plan
  |> Result.map (fun rows -> (rows, stats))

(* ------------------------------------------------------------------ *)
(* Morsel-driven parallel execution (Leis et al., SIGMOD 2014)         *)
(* ------------------------------------------------------------------ *)

(* Parallel execution is a gather inside the ordinary batch plan. One
   spine — Filter, Project and probe-side Join operators over a base-table
   Scan — runs once per morsel on the domain pool. Everything else runs
   serially through the same batch compiler: the spine joins' build sides,
   built once before the fan-out and shared read-only by every task, and
   the Aggregate/Sort/Limit/Project operators above the spine, which
   consume the gathered batches. A morsel is a run of whole batches of the
   driving table's cached columnar image, sliced without copying; each
   task compiles the spine against a provider that serves only its
   morsel, so the cursors of join residuals stay domain-local. Morsel
   outputs concatenate in morsel order, which is scan order, so the
   operators above the gather see exactly the serial batch stream and
   results are byte-identical by construction. *)

module Par = struct
  type report = {
    par_domains : int;  (* pool size, caller included *)
    par_morsels : int;  (* tasks fanned out *)
    par_participants : int;  (* workers that executed at least one morsel *)
    par_pool : Pool.report;  (* per-worker accounting and morsel slices *)
  }
end

type spine = { sp_root : Plan.t; sp_table : string; sp_joins : Plan.t list }

let default_parallel_threshold = 2048

(* The one parallel-eligibility decision. It descends from the root through
   the operators that run serially above a gather (Sort, Limit, Project,
   Aggregate) to the highest spine: Filter/Project/Join operators, entered
   through the left input of Inner/Cross/Left/Semi/Anti joins, down to a
   base-table Scan. The spine must do per-row work (at least one Filter
   or Join) and the driving table must hold at least [threshold] rows.
   [Error] carries a reason slug for the engine's fallback counters. *)
let parallel_spine ~threshold ~table_rows plan =
  let rec walk ~work joins (p : Plan.t) =
    match p with
    | Plan.Scan { table; _ } ->
      if work then Ok (table, List.rev joins) else Error "shape"
    | Plan.Filter { child; _ } -> walk ~work:true joins child
    | Plan.Project { child; _ } | Plan.Baserel { child; _ }
    | Plan.External { child; _ } ->
      walk ~work joins child
    | Plan.Join
        { kind = Plan.Inner | Plan.Cross | Plan.Left | Plan.Semi | Plan.Anti;
          left; _ } ->
      walk ~work:true (p :: joins) left
    | Plan.Join _ -> Error "outer-join"
    | Plan.Index_scan _ -> Error "index-scan"
    | Plan.Values _ -> Error "values"
    | _ -> Error "shape"
  in
  let rec find (p : Plan.t) =
    let here () =
      Result.map
        (fun (table, joins) ->
          { sp_root = p; sp_table = table; sp_joins = joins })
        (walk ~work:false [] p)
    in
    match p with
    | Plan.Sort { child; _ } | Plan.Limit { child; _ }
    | Plan.Aggregate { child; _ } | Plan.Group_annotate { child; _ } ->
      find child
    | Plan.Project { child; _ } -> (
      match here () with Ok _ as ok -> ok | Error _ -> find child)
    | _ -> here ()
  in
  match find plan with
  | Ok sp when table_rows sp.sp_table < threshold -> Error "small"
  | r -> r

(* Fold one task's operator counters into the statement's: counts and
   times add up across morsels, peaks take the maximum. *)
let merge_stats into (task : exec_stats) =
  List.iter
    (fun (node, ns) ->
      match lookup into node with
      | None -> into.entries <- (node, ns) :: into.entries
      | Some acc ->
        acc.stat_invocations <- acc.stat_invocations + ns.stat_invocations;
        acc.stat_rows <- acc.stat_rows + ns.stat_rows;
        acc.stat_time_s <- acc.stat_time_s +. ns.stat_time_s;
        acc.stat_peak_rows <- max acc.stat_peak_rows ns.stat_peak_rows;
        acc.stat_peak_bytes <- max acc.stat_peak_bytes ns.stat_peak_bytes)
    (List.rev task.entries)

(* A spine join's build side is shared read-only by every morsel task, so
   it cannot take the Grace join: past the spill threshold the gather
   gives up and the engine re-runs the statement serially, where the
   build spills in place. The exception carries the reason to the
   engine's recorder. *)
let shared_build cx join =
  match compile_join_build cx join () with
  | Built jb -> jb
  | Over_budget { cfg; _ } ->
    raise
      (Spill.Fallback_needed
         (Printf.sprintf "parallel join build passed the spill threshold %d"
            cfg.Spill.threshold))

let run_parallel ?(token = Token.none) ?row_limit ?progress ?spill
    ?(instrument = false) ~pool ~batch_rows ~provider spine plan =
  let stats = if instrument then Some { entries = [] } else None in
  let cx = statement_cx ?spill ~provider ~batch_rows (batch_wrap token stats) in
  let report = ref None in
  let gathered () =
    Token.check token;
    let builds = List.map (fun j -> (j, shared_build cx j)) spine.sp_joins in
    let image = provider.scan_batches spine.sp_table cx.batch_rows in
    let nb = Array.length image in
    (* whole batches per morsel, about four morsels per domain so fast
       workers can steal the tail *)
    let target = 4 * Pool.size pool in
    let per = max 1 ((nb + target - 1) / target) in
    let n = (nb + per - 1) / per in
    Option.iter (fun p -> Progress.set_morsels_total p n) progress;
    let outs = Array.make n [] in
    let task_stats =
      Array.init n (fun _ -> Option.map (fun _ -> { entries = [] }) stats)
    in
    let task i () =
      Token.check token;
      let morsel = Array.sub image (i * per) (min per (nb - (i * per))) in
      (* the driving scan is the only one compiled here: every spine
         join's right input is prebuilt in [builds] *)
      let provider = { provider with scan_batches = (fun _ _ -> morsel) } in
      let run =
        compile_batch
          { cx with provider; bwrap = batch_wrap token task_stats.(i); builds }
          spine.sp_root
      in
      let out = List.of_seq (run ()) in
      outs.(i) <- out;
      Option.iter Progress.incr_morsels_done progress;
      List.fold_left (fun acc b -> acc + Batch.live b) 0 out
    in
    let rp = Pool.run pool (Array.init n task) in
    Option.iter
      (fun s -> Array.iter (Option.iter (merge_stats s)) task_stats)
      stats;
    report :=
      Some
        {
          Par.par_domains = Pool.size pool;
          par_morsels = n;
          par_participants = rp.Pool.rp_participants;
          par_pool = rp;
        };
    Seq.concat_map List.to_seq (Array.to_seq outs)
  in
  let cx = { cx with gather = Some (spine.sp_root, gathered) } in
  execute ?row_limit ?progress ?stats cx plan
  (* every operator above the spine pulls its input, so the gather ran *)
  |> Result.map (fun rows -> (rows, Option.get !report, stats))

let eval_const e =
  match row_free no_outer e () with
  | v -> Ok v
  | exception Runtime_error msg -> Error msg
