(* Operator compilation: the batch compile context and the plan walker
   that compiles every operator into a batch stream. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
module Batch = Perm_storage.Batch
module Spill = Perm_storage.Spill
open Eval
open Gather
open Grouping
open Runs
open Kernels
open Hash_join

(* Chaos-harness injection points (no-ops unless armed via Perm_fault). *)
let fp_join_build = Perm_fault.point "join.build"
let fp_agg_merge = Perm_fault.point "agg.merge"
let fp_sort = Perm_fault.point "sort.materialize"

type provider = {
  probe_index : string -> int -> Value.t -> Tuple.t Seq.t;
  scan_batches : string -> int -> Perm_storage.Batch.t array;
      (* columnar batches of at most [batch_rows] live rows, in scan order.
         Storage backends may serve these from a cached columnar image;
         callers must never mutate the column arrays. *)
}

(* ------------------------------------------------------------------ *)
(* Batch-at-a-time execution                                           *)
(* ------------------------------------------------------------------ *)

(* The executor exchanges columnar batches (column arrays + a selection
   vector, [Perm_storage.Batch]) between operators instead of pulling one
   tuple at a time through per-row closures. Filters narrow the selection
   vector with tight kernels specialized on the constant's constructor;
   projections on dense batches share column pointers (the provenance
   rewrites are projection-heavy, so attribute moves become free); joins
   expand matches out of line into capped output batches; aggregation
   feeds group states from column reads. Every operator emits its rows in
   a documented order — joins in left order with matches in right order,
   groups and DISTINCT in first-seen order, stable sorts — whatever the
   batch size, so results are byte-identical across batch sizes and the
   serial/parallel determinism contract holds by construction. *)

type bop = unit -> Batch.t Seq.t
type bwrapper = Plan.t -> bop -> bop

let no_bwrap : bwrapper = fun _ thunk -> thunk

(* ---- batch operator compilation ---------------------------------- *)

(* What running a build side yields: the build, or — past the spill
   threshold — what the Grace join needs: the build input in pieces and
   the function that builds one. *)
type build_side =
  | Built of join_build
  | Over_budget of {
      cfg : Spill.config;
      pieces : Batch.t array Seq.t;
      build : Batch.t -> join_build;
    }

(* Batch compilation context. [spill] is the statement's spill
   configuration; [outer] resolves the attributes bound by enclosing
   Apply operators (none at the root). Both substitution lists are empty
   on the serial path; {!run_parallel} fills [gather] with the morsel
   gather standing in for the spine root, and [builds] with the spine
   joins' prebuilt build sides. Nodes match by physical identity. *)
type bcx = {
  provider : provider;
  batch_rows : int;
  bwrap : bwrapper;
  spill : Spill.config option;
  outer : resolver;
  builds : (Plan.t * join_build) list;
  gather : (Plan.t * bop) option;
}

let layout cx schema = { pos = positions_of_schema schema; outer = cx.outer }

let join_keys left right pred =
  match pred with
  | None -> ([], [])
  | Some p -> split_join_pred (Plan.schema left) (Plan.schema right) p

(* A join's residual conjuncts over row [p] of a left batch and row [r]
   of the build columns [cols]: the batch evaluator reads the left row,
   and its outer resolver the build row, through a cursor: NOT shareable
   across domains. *)
let residual_of cx left_schema right_schema = function
  | [] -> None
  | preds ->
    let rpos = positions_of_schema right_schema in
    let rcols = ref [||] and rr = ref 0 in
    let outer a =
      match rpos a with
      | Some j -> Some (fun () -> !rcols.(j).(!rr))
      | None -> cx.outer a
    in
    let lay = { pos = positions_of_schema left_schema; outer } in
    let f = bpred_of lay (Expr.conjoin preds) in
    Some
      (fun cols b p r ->
        rcols := cols;
        rr := r;
        f b p)

(* The group annotation under a sort (and the filter between them, if
   any) when every sort key and the filter read only the annotation's
   head columns: its group-by outputs and aggregates. *)
let sorted_groups (child : Plan.t) keys =
  let over_heads (ga : Plan.t) exprs =
    match ga with
    | Plan.Group_annotate { group_by; aggs; _ } ->
      let heads =
        List.map snd group_by
        @ List.map (fun (c : Plan.agg_call) -> c.agg_out) aggs
      in
      List.for_all (fun e -> subset_of (Expr.attrs e) heads) exprs
    | _ -> false
  in
  let keys = List.map fst keys in
  match child with
  | Plan.Group_annotate _ when over_heads child keys -> Some (child, None)
  | Plan.Filter { child = ga; pred } when over_heads ga (pred :: keys) ->
    Some (ga, Some (child, pred))
  | _ -> None

(* [reads], when given, tells which output columns the parent reads; a
   group annotation gathers only those (a projection passes it to its
   child, no other operator does). *)
let rec compile_batch ?reads cx (plan : Plan.t) : bop =
  match cx.gather with
  | Some (root, gathered) when root == plan -> gathered
  | _ ->
    (* children compile, and so wrap, before their parent *)
    let op = compile_batch_node ?reads cx plan in
    cx.bwrap plan op

and compile_batch_node ?reads cx (plan : Plan.t) : bop =
  let batch_rows = cx.batch_rows in
  match plan with
  | Plan.Scan { table; _ } ->
    fun () -> Array.to_seq (cx.provider.scan_batches table batch_rows)
  | Plan.Index_scan { table; key_col; key; _ } ->
    let arity = List.length (Plan.schema plan) in
    let fkey = row_free cx.outer key in
    fun () ->
      let rows = Array.of_seq (cx.provider.probe_index table key_col (fkey ())) in
      slice_columns ~batch_rows (columns_of_rows ~arity rows)
        (Array.length rows)
  | Plan.Values { rows; _ } ->
    let arity = List.length (Plan.schema plan) in
    let compiled =
      Array.of_list
        (List.map
           (fun row -> Array.of_list (List.map (row_free no_outer) row))
           rows)
    in
    fun () ->
      (* evaluated row by row, so the first failing row reports *)
      let n = Array.length compiled in
      let cols = Array.init arity (fun _ -> Array.make n Value.Null) in
      Array.iteri
        (fun r row -> Array.iteri (fun c f -> cols.(c).(r) <- f ()) row)
        compiled;
      slice_columns ~batch_rows cols n
  | Plan.Project { child; cols } ->
    let lay = layout cx (Plan.schema child) in
    let builders = project_builders lay cols in
    let read = Array.make (List.length (Plan.schema child)) false in
    List.iter
      (fun (e, _) ->
        Attr.Set.iter
          (fun a -> Option.iter (fun i -> read.(i) <- true) (lay.pos a))
          (Expr.attrs e))
      cols;
    let run_child = compile_batch ~reads:(Array.get read) cx child in
    fun () -> Seq.map (apply_project builders) (run_child ())
  | Plan.Filter { child; pred } ->
    let kernels = filter_kernels (layout cx (Plan.schema child)) pred in
    let run_child = compile_batch cx child in
    fun () -> Seq.filter_map (apply_filter kernels) (run_child ())
  | Plan.Join { kind; left; right; pred } ->
    compile_batch_join cx plan kind left right pred
  | Plan.Apply { kind; left; right } -> compile_batch_apply cx kind left right
  | Plan.Aggregate { child; group_by; aggs } ->
    compile_batch_aggregate cx child group_by aggs
  | Plan.Group_annotate { child; group_by; aggs; rep } ->
    compile_batch_group_annotate ?reads cx child group_by aggs rep
  | Plan.Mark_first { child; keys; among; _ } ->
    (* the flag column is the input's with TRUE on the first row of every
       key among the representative rows *)
    let lay = layout cx (Plan.schema child) in
    let table =
      grouper ~spill:cx.spill ~what:"DISTINCT" lay
        (List.map (fun a -> Expr.Attr a) keys)
    in
    let among = Option.map (bpred_of lay) among in
    let run_child = compile_batch cx child in
    fun () ->
      Seq.memoize (fun () ->
          let t = table () in
          Seq.map
            (fun b ->
              let flags = Array.make b.Batch.rows (Value.Bool false) in
              Option.iter
                (fun b -> mark_firsts t b flags)
                (Option.fold among ~none:(Some b) ~some:(fun f ->
                     narrow_live (f b) b));
              Batch.with_cols b (Array.append b.Batch.cols [| flags |]))
            (run_child ()) ())
  | Plan.Distinct child ->
    let schema = Plan.schema child in
    let table =
      grouper ~spill:cx.spill ~what:"DISTINCT" (layout cx schema)
        (List.map (fun a -> Expr.Attr a) schema)
    in
    let run_child = compile_batch cx child in
    fun () ->
      Seq.memoize (fun () ->
          Seq.filter_map (first_rows (table ())) (run_child ()) ())
  | Plan.Set_op { kind; all; left; right; attrs } ->
    compile_batch_set_op cx kind all left right attrs
  | Plan.Sort { child; keys } -> (
    let sort = compile_sort cx (Plan.schema child) keys in
    match sorted_groups child keys with
    | Some (Plan.Group_annotate { child; group_by; aggs; rep } as ga, filter) ->
      (* the annotation sorts its groups, and the filter between them is
         its group-level keep: both nodes still count their rows *)
      let op =
        compile_batch_group_annotate ?reads cx child group_by aggs rep
          ~sorted:(keys, Option.map snd filter, sort)
      in
      let run = cx.bwrap ga op in
      Option.fold filter ~none:run ~some:(fun (node, _) -> cx.bwrap node run)
    | _ ->
      let run_child = compile_batch cx child in
      fun () -> sort run_child)
  | Plan.Limit { child; limit; offset } ->
    let run_child = compile_batch cx child in
    fun () ->
      let rec go skip rem s () =
        if rem = 0 then Seq.Nil
        else
          match s () with
          | Seq.Nil -> Seq.Nil
          | Seq.Cons (b, rest) ->
            let n = Batch.live b in
            if skip >= n then go (skip - n) rem rest ()
            else
              let take_n = min rem (n - skip) in
              let b' =
                if skip = 0 && take_n = n then b
                else
                  let sel = Batch.sel_array b in
                  Batch.with_sel b (Array.sub sel skip take_n) take_n
              in
              Seq.Cons (b', go 0 (rem - take_n) rest)
      in
      go offset
        (match limit with Some n -> n | None -> max_int)
        (run_child ())
  | Plan.Prov _ ->
    err "internal: provenance marker reached the executor (rewriter not run)"
  | Plan.Baserel { child; _ } | Plan.External { child; _ } ->
    compile_batch cx child

(* A permutation sort of the stream [run_child ()] yields
   ({!sort_rows}): in memory every column is then gathered once, past
   the threshold each sorted piece is a run to merge. *)
and compile_sort cx schema keys =
  let batch_rows = cx.batch_rows in
  let arity = List.length schema in
  let keys = sort_keys (layout cx schema) keys in
  let sort = sort_rows keys in
  fun run_child ->
    Perm_fault.trip fp_sort;
    match input_of cx.spill (run_child ()) with
    | Fits s ->
      let batches = Array.of_seq s in
      let rows, _, perm = sort ~runs:false batches in
      gather_rows ~batch_rows ~arity batches rows perm
    | Spills (cfg, pieces) ->
      cfg.Spill.note Spill.Spilled;
      let runs =
        Array.of_seq
          (Seq.map
             (fun piece ->
               let rows, kcols, perm = sort ~runs:true piece in
               write_run cfg piece rows kcols perm)
             pieces)
      in
      batches_of_rows ~arity ~batch_rows
        (merge_runs ~desc:(snd keys) runs ~emit:(fun _ row -> Some row))

(* The build half of a hash join: run the right input once, as one dense
   batch, and chain its rows by key ({!build_join}). Under a spill
   configuration it stops at the threshold and hands the rest to the
   Grace join instead. *)
and compile_join_build cx (join : Plan.t) : unit -> build_side =
  let left, right, pred =
    match join with
    | Plan.Join { left; right; pred; _ } -> (left, right, pred)
    | _ -> err "internal: join build over a non-join node"
  in
  let keys, _ = join_keys left right pred in
  let build = build_join (layout cx (Plan.schema right)) keys in
  let arity = List.length (Plan.schema right) in
  let run_right = compile_batch cx right in
  fun () ->
    Perm_fault.trip fp_join_build;
    match input_of cx.spill (run_right ()) with
    | Fits s -> Built (build (concat_live ~arity (Array.of_seq s)))
    | Spills (cfg, pieces) -> Over_budget { cfg; pieces; build }

and compile_batch_join cx plan kind left right pred =
  let left_schema = Plan.schema left and right_schema = Plan.schema right in
  let l_arity = List.length left_schema
  and r_arity = List.length right_schema in
  let batch_rows = cx.batch_rows in
  match kind with
  | Plan.Right ->
    (* evaluate as a left join with sides swapped, then permute the column
       arrays back — a pointer shuffle per batch, no row rebuilds *)
    let swapped =
      Plan.Join { kind = Plan.Left; left = right; right = left; pred }
    in
    let run = compile_batch cx swapped in
    fun () ->
      Seq.map
        (fun b ->
          let b = Batch.compact b in
          let cols =
            Array.append
              (Array.sub b.Batch.cols r_arity l_arity)
              (Array.sub b.Batch.cols 0 r_arity)
          in
          Batch.dense cols b.Batch.rows)
        (run ())
  | _ ->
    let run_left = compile_batch cx left in
    let build =
      match List.assq_opt plan cx.builds with
      | Some built -> fun () -> Built built
      | None -> compile_join_build cx plan
    in
    let keys, residual = join_keys left right pred in
    let l_lay = layout cx left_schema in
    let residual = residual_of cx left_schema right_schema residual in
    let probe ~kind ~matched_right ~tap jb =
      probe_batch ~kind ~batch_rows ~jb ~head:(join_head jb l_lay keys)
        ~residual:(Option.map (fun f -> f jb.jb_cols) residual)
        ~matched_right ~pads:(Option.is_none tap) ?tap
    in
    fun () ->
      Seq.memoize
        (fun () ->
          match build () with
          | Over_budget { cfg; pieces; build } ->
            grace_join cfg ~kind ~l_arity ~r_arity ~batch_rows ~build ~probe
              pieces (run_left ()) ()
          | Built jb ->
            let matched_right =
              if kind = Plan.Full then
                Some (Array.make (Array.length jb.jb_next) false)
              else None
            in
            let probe = probe ~kind ~matched_right ~tap:None jb in
            let main =
              Seq.concat_map (fun lb -> List.to_seq (probe lb)) (run_left ())
            in
            (* main must be fully consumed before the tail is forced so the
               matched flags are complete; Seq.append guarantees that *)
            Option.fold matched_right ~none:main ~some:(fun matched () ->
                Seq.append main (fun () ->
                    unmatched_build ~l_arity ~batch_rows jb matched ()) ()) ())

(* Correlated evaluation. The right side is compiled once, with an outer
   resolver that reads the current left row (row [!lp] of batch [!lb]),
   and re-run for every live left row in order — one evaluation (one
   [loops] tick per right-side operator) per left row. Its batches are
   consumed whole before the next left row is bound. The output of a
   left batch is gathered by index: each output row is a left row and a
   row of the right batches that left row produced, or -1 for the NULL
   pad of an outer or scalar Apply ({!pairs_batches}). *)
and compile_batch_apply cx kind left right =
  let l_pos = positions_of_schema (Plan.schema left) in
  let lb = ref (Batch.dense [||] 0) and lp = ref 0 in
  let outer a =
    match l_pos a with
    | Some i -> Some (fun () -> (Batch.col !lb i).(!lp))
    | None -> cx.outer a
  in
  let run_left = compile_batch cx left in
  let run_right = compile_batch { cx with outer } right in
  (* a scalar subquery contributes its first column *)
  let r_arity =
    match kind with
    | Plan.A_scalar _ -> 1
    | _ -> List.length (Plan.schema right)
  in
  let right_of b p =
    lb := b;
    lp := p;
    List.filter (fun rb -> Batch.live rb > 0) (List.of_seq (run_right ()))
  in
  match kind with
  | Plan.A_semi | Plan.A_anti ->
    let want = kind = Plan.A_semi in
    fun () ->
      Seq.filter_map
        (fun b -> narrow_live (fun p -> (right_of b p <> []) = want) b)
        (run_left ())
  | Plan.A_cross | Plan.A_outer | Plan.A_scalar _ ->
    let apply b =
      let lidx = ref [] and ridx = ref [] and rights = ref [] and base = ref 0 in
      let pair p r =
        lidx := p :: !lidx;
        ridx := r :: !ridx
      in
      Batch.iter_live
        (fun p ->
          let rs = right_of b p in
          let n = List.fold_left (fun n rb -> n + Batch.live rb) 0 rs in
          (match kind with
          | Plan.A_scalar _ when n > 1 ->
            err "scalar subquery returned more than one row"
          | (Plan.A_outer | Plan.A_scalar _) when n = 0 -> pair p (-1)
          | _ ->
            for r = !base to !base + n - 1 do
              pair p r
            done);
          rights := List.rev_append rs !rights;
          base := !base + n)
        b;
      let rb = concat_live ~arity:r_arity (Array.of_list (List.rev !rights)) in
      pairs_batches ~batch_rows:cx.batch_rows b.Batch.cols
        (Array.of_list (List.rev !lidx))
        (Array.sub rb.Batch.cols 0 r_arity)
        (Array.of_list (List.rev !ridx))
    in
    fun () -> Seq.concat_map apply (run_left ())

and compile_batch_aggregate cx child group_by aggs =
  let lay = layout cx (Plan.schema child) in
  let table =
    grouper ~spill:cx.spill ~what:"GROUP BY" lay (List.map fst group_by)
  in
  let states = agg_states lay aggs in
  let run_child = compile_batch cx child in
  fun () ->
    Seq.memoize (fun () ->
        Perm_fault.trip fp_agg_merge;
        let t = table () and st = states () in
        Seq.iter
          (fun b ->
            let ids = group_ids t b in
            feed st b ids t.size)
          (run_child ());
        (* a global aggregate has its one group over no rows too *)
        let n = if group_by = [] then max 1 t.size else t.size in
        slice_columns ~batch_rows:cx.batch_rows (head_columns t.keys st n) n ())

(* In memory the annotation keeps the input batches (immutable once
   emitted) and each batch's group ids. When the ids run in first-seen
   order, each group's rows one after another ({!contiguous}), and no
   ORDER BY sorts the groups, the input is already in output order: each
   input batch passes through with the head columns appended, read at
   its rows' ids ({!heads_at}). Otherwise rows are addressed as (batch,
   position), so no row is materialized as a tuple: output columns
   gather straight from the input columns, in group order
   ({!grouped_order}). Past the threshold each piece of the input is put
   in group order the same way and written as a run keyed by group id;
   the merge (ties to the earlier piece) gives the same order while only
   group states stay in memory. Every run is written before the merge
   starts, so every group is final by then. With a representative flag,
   only flagged rows feed the aggregates, and a group's first flagged row
   gives it its key ({!note_keys}); a group no flagged row reaches is no
   group of the original aggregate: like the rejoin it stands for, emit
   none of its rows.

   [sorted] is an ORDER BY over the head columns, with the filter under
   it ({!sorted_groups}), and the sort it replaces. In memory the filter
   keeps groups and the keys order the k groups stably; each group's rows
   follow in input order. Groups are contiguous in first-seen order, so
   this is the stable row sort's order. Past the threshold the merged
   stream is filtered and sorted as rows. *)
and compile_batch_group_annotate ?sorted ?reads cx child group_by aggs rep =
  let batch_rows = cx.batch_rows in
  let child_schema = Plan.schema child in
  let lay = layout cx child_schema in
  let keys = List.map fst group_by in
  let table = grouper ~spill:cx.spill ~what:"GROUP BY" lay keys in
  let states = agg_states lay aggs in
  let represents = Option.map (filter_kernels lay) rep in
  let run_child = compile_batch cx child in
  let child_arity = List.length child_schema in
  let head_schema =
    List.map snd group_by @ List.map (fun (c : Plan.agg_call) -> c.agg_out) aggs
  in
  let head_arity = List.length head_schema in
  let arity = head_arity + child_arity in
  let head_lay = layout cx head_schema in
  let keep =
    match sorted with
    | Some (_, Some pred, _) -> filter_kernels head_lay pred
    | _ -> []
  in
  (* each group's output position, -1 for the groups left out: those
     left unkeyed, and those the filter drops *)
  let rank_groups keyed n heads =
    let rank = Array.make n (-1) in
    let ids = indices n (fun g -> keyed = [||] || keyed.(g)) in
    (match sorted with
    | None -> Array.iter (fun g -> rank.(g) <- g) ids
    | Some (skeys, _, _) -> (
      Perm_fault.trip fp_sort;
      let skeys = sort_keys head_lay skeys in
      (* the keyed groups' heads, as a selection over the head columns *)
      let hb = Batch.with_sel (Batch.dense heads n) ids (Array.length ids) in
      match apply_filter keep hb with
      | None -> ()
      | Some hb ->
        let (_, rp), _, perm = sort_rows skeys ~runs:false [| hb |] in
        Array.iteri (fun r j -> rank.(rp.(j)) <- r) perm));
    rank
  in
  (* rows numbered in input order, and each row's group *)
  let numbered batches ids =
    let rb, rp = number_rows batches in
    let gids = Array.make (Array.length rb) 0 in
    Array.iteri (fun r b -> gids.(r) <- ids.(b).(rp.(r))) rb;
    (rb, rp, gids)
  in
  fun () ->
    Seq.memoize (fun () ->
        Perm_fault.trip fp_agg_merge;
        let t = table () and st = states () in
        let rk =
          match represents with
          | Some _ when keys <> [] -> Some (rep_keys ())
          | _ -> None
        in
        let last = ref (-1) and buffer = ref [||] in
        (* one grouping pass over a batch: its ids, kept *)
        let assign b =
          let cols = t.key_cols b and ids = Array.make b.Batch.rows 0 in
          fill_ids ~absent:false t cols b ids;
          last := contiguous ids b !last;
          if Array.length !buffer < b.Batch.rows then
            buffer := Array.make b.Batch.rows 0;
          Option.iter
            (fun rb ->
              feed st rb ids t.size;
              Option.iter (fun rk -> note_keys rk t cols rb ids) rk)
            (Option.fold represents ~none:(Some b) ~some:(fun k ->
                 apply_filter ~buffer:!buffer k b));
          ids
        in
        (* once every row is assigned: which groups are keyed, and the
           head columns *)
        let keyed () =
          match rk with
          | Some rk ->
            if Array.length rk.keyed < t.size then
              rk.keyed <- extend false rk.keyed t.size;
            rk.keyed
          | None -> [||]
        in
        let heads () =
          let heads = head_columns t.keys st t.size in
          Option.iter
            (fun rk ->
              Hashtbl.iter
                (fun g key -> Array.iteri (fun c v -> heads.(c).(g) <- v) key)
                rk.apart)
            rk;
          heads
        in
        match input_of cx.spill (run_child ()) with
        | Fits s ->
          let batches = Array.of_seq s in
          let ids = Array.map assign batches in
          if t.size = 0 && group_by = [] then
            Seq.filter_map (apply_filter keep)
              (slice_columns ~batch_rows
                 (Array.append (head_columns [||] st 1)
                    (Array.make child_arity [| Value.Null |]))
                 1)
              ()
          else
            let heads = heads () and keyed = keyed () in
            if sorted = None && !last <> -2 then
              Seq.filter_map
                (fun k -> heads_at ?reads heads keyed batches.(k) ids.(k))
                (Seq.init (Array.length batches) Fun.id)
                ()
            else
              let rb, rp, gids = numbered batches ids in
              gather_rows ?reads ~heads:(heads, gids) ~batch_rows
                ~arity:child_arity batches (rb, rp)
                (grouped_order (rank_groups keyed t.size heads) gids)
                ()
        | Spills (cfg, pieces) ->
          cfg.Spill.note Spill.Spilled;
          let runs =
            Array.of_seq
              (Seq.map
                 (fun piece ->
                   let rb, rp, gids = numbered piece (Array.map assign piece) in
                   write_run cfg piece (rb, rp)
                     [| Array.map (fun g -> Value.Int g) gids |]
                     (grouped_order (Array.init t.size Fun.id) gids))
                 pieces)
          in
          let heads = heads () and keyed = keyed () in
          let head = function
            | Value.Int g when keyed = [||] || keyed.(g) -> Some (row heads g)
            | Value.Int _ -> None
            | _ -> err "internal: untagged group annotation row"
          in
          let merged =
            batches_of_rows ~arity ~batch_rows
              (merge_runs ~desc:[| false |] runs ~emit:(fun key row ->
                   Option.map (fun h -> Tuple.concat h row) (head key.(0))))
          in
          match sorted with
          | None -> merged ()
          | Some (_, _, sort) ->
            sort (fun () -> Seq.filter_map (apply_filter keep) merged) ())

and compile_batch_set_op cx kind all left right attrs =
  let run_left = compile_batch cx left in
  let run_right = compile_batch cx right in
  (* the branches are positional, so one layout over the output
     attributes (unified types) reads both *)
  let table what =
    grouper ~spill:cx.spill ~what (layout cx attrs)
      (List.map (fun a -> Expr.Attr a) attrs)
  in
  match kind, all with
  | Plan.Union, true -> fun () -> Seq.append (run_left ()) (run_right ())
  | Plan.Union, false ->
    let table = table "UNION" in
    fun () ->
      Seq.memoize (fun () ->
          Seq.filter_map (first_rows (table ()))
            (Seq.append (run_left ()) (run_right ()))
            ())
  | (Plan.Intersect | Plan.Except), _ ->
    (* the right rows count per group of one table, which the left rows
       only look up: under ALL each right row cancels one left row of its
       group, and the set forms keep the first of the surviving left rows
       of a key *)
    let right = table "INTERSECT/EXCEPT" in
    let survivors = table "INTERSECT/EXCEPT" in
    let intersect = kind = Plan.Intersect in
    fun () ->
      Seq.memoize (fun () ->
          let t = right () and counts = ref [||] in
          Seq.iter
            (fun b ->
              let ids = group_ids t b in
              if t.size > Array.length !counts then
                counts := extend 0 !counts (max 16 (2 * t.size));
              count_rows !counts b ids)
            (run_right ());
          let left =
            Seq.filter_map
              (fun b ->
                keep_rows
                  (Survivors { intersect; all; counts = !counts })
                  b
                  (group_ids ~absent:true t b))
              (run_left ())
          in
          (if all then left else Seq.filter_map (first_rows (survivors ())) left) ())
