(* Operator compilation: the batch compile context and the plan walker
   that compiles every operator into a batch stream. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
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

(* The dtype of a plain [=] key that is one column of the same immediate
   dtype on both sides: the key the unboxed tables hold. *)
let single_key = function
  | [ { l_expr = Expr.Attr a; r_expr = Expr.Attr b; null_safe = false } ]
    when a.Attr.ty = b.Attr.ty
         && List.mem a.Attr.ty Dtype.[ Int; Date; Bool; Text ] ->
    Some a.Attr.ty
  | _ -> None

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

let rec compile_batch cx (plan : Plan.t) : bop =
  match cx.gather with
  | Some (root, gathered) when root == plan -> gathered
  | _ ->
    (* children compile, and so wrap, before their parent *)
    let op = compile_batch_node cx plan in
    cx.bwrap plan op

and compile_batch_node cx (plan : Plan.t) : bop =
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
    let builders = project_builders (layout cx (Plan.schema child)) cols in
    let run_child = compile_batch cx child in
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
    compile_batch_group_annotate cx child group_by aggs rep
  | Plan.Mark_first { child; keys; among; _ } ->
    (* the flag column is the input's with TRUE on the first row of every
       key among the representative rows *)
    let lay = layout cx (Plan.schema child) in
    let group_of =
      grouper ~spill:cx.spill ~what:"DISTINCT" lay
        (List.map (fun a -> Expr.Attr a) keys)
    in
    let among = Option.map (bpred_of lay) among in
    let run_child = compile_batch cx child in
    fun () ->
      Seq.memoize (fun () ->
          let firsts = firsts group_of in
          Seq.map
            (fun b ->
              let first =
                Option.fold ~none:[||] ~some:firsts
                  (Option.fold among ~none:(Some b) ~some:(fun f ->
                       narrow_live (f b) b))
              in
              let flag p =
                if p < Array.length first && first.(p) then Value.Bool true
                else Value.Bool false
              in
              Batch.with_cols b
                (Array.append b.Batch.cols [| Array.init b.Batch.rows flag |]))
            (run_child ()) ())
  | Plan.Distinct child ->
    let schema = Plan.schema child in
    let group_of =
      grouper ~spill:cx.spill ~what:"DISTINCT" (layout cx schema)
        (List.map (fun a -> Expr.Attr a) schema)
    in
    let run_child = compile_batch cx child in
    fun () ->
      Seq.memoize (fun () ->
          Seq.filter_map (first_rows group_of) (run_child ()) ())
  | Plan.Set_op { kind; all; left; right; attrs } ->
    compile_batch_set_op cx kind all left right attrs
  | Plan.Sort { child; keys } -> (
    let sort = compile_sort cx (Plan.schema child) keys in
    match sorted_groups child keys with
    | Some (Plan.Group_annotate { child; group_by; aggs; rep } as ga, filter) ->
      (* the annotation sorts its groups, and the filter between them is
         its group-level keep: both nodes still count their rows *)
      let op =
        compile_batch_group_annotate cx child group_by aggs rep
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
  let r_lay = layout cx (Plan.schema right) in
  let build =
    build_join ~single:(single_key keys)
      ~null_safety:(Array.of_list (List.map (fun k -> k.null_safe) keys))
      (r_lay, List.map (fun k -> k.r_expr) keys)
  in
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
    let lkeys = (l_lay, List.map (fun k -> k.l_expr) keys) in
    let residual = residual_of cx left_schema right_schema residual in
    let probe ~kind ~matched_right ~tap jb =
      probe_batch ~kind ~batch_rows ~jb ~head:(jb.jb_head lkeys)
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
  let group_of =
    grouper ~spill:cx.spill ~what:"GROUP BY" lay (List.map fst group_by)
  in
  let fresh, feeder, results = agg_feeder lay aggs in
  let run_child = compile_batch cx child in
  let arity = List.length group_by + List.length aggs in
  fun () ->
    Seq.memoize (fun () ->
        Perm_fault.trip fp_agg_merge;
        let order = ref [] in
        let group_of =
          group_of (fun key ->
              let states = fresh () in
              order := (key, states) :: !order;
              states)
        in
        Seq.iter
          (fun b -> group_of b (fun p states -> feed feeder states b p))
          (run_child ());
        let groups =
          if group_by = [] && !order = [] then [| ([||], results (fresh ())) |]
          else
            Array.of_list
              (List.rev_map (fun (key, states) -> (key, results states)) !order)
        in
        let keys = List.length group_by in
        slice_columns ~batch_rows:cx.batch_rows
          (Array.init arity (fun c ->
               Array.map
                 (fun (key, res) -> if c < keys then key.(c) else res.(c - keys))
                 groups))
          (Array.length groups) ())

(* In memory the annotation keeps the input batches (immutable once
   emitted) and addresses rows as (batch, position), so no row is
   materialized as a tuple: output columns gather straight from the input
   columns, in group order ({!grouped_order}). Past the threshold each
   piece of the input is put in group order the same way and written as
   a run keyed by group id; the merge (ties to the earlier piece) gives
   the same order while only group states stay in memory. Every run is
   written before the merge starts, so every group is final by then.
   With a representative flag, only flagged rows feed the aggregates, and
   a group's first flagged row gives it its key.

   [sorted] is an ORDER BY over the head columns, with the filter under
   it ({!sorted_groups}), and the sort it replaces. In memory the filter
   keeps groups and the keys order the k groups stably; each group's rows
   follow in input order. Groups are contiguous in first-seen order, so
   this is the stable row sort's order. Past the threshold the merged
   stream is filtered and sorted as rows. *)
and compile_batch_group_annotate ?sorted cx child group_by aggs rep =
  let batch_rows = cx.batch_rows in
  let child_schema = Plan.schema child in
  let lay = layout cx child_schema in
  let keys = List.map fst group_by in
  let gkey = key_filler lay keys in
  let group_of = grouper ~spill:cx.spill ~what:"GROUP BY" lay keys in
  let fresh, feeder, results = agg_feeder lay aggs in
  let represents =
    match rep with None -> fun _ _ -> true | Some e -> bpred_of lay e
  in
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
  (* each group's output position, -1 for the groups left out *)
  let rank_groups heads =
    let rank = Array.make (Array.length heads) (-1) in
    (match sorted with
    | None ->
      Array.iteri (fun g h -> if Option.is_some h then rank.(g) <- g) heads
    | Some (skeys, _, _) -> (
      Perm_fault.trip fp_sort;
      let skeys = sort_keys head_lay skeys in
      let ids = indices (Array.length heads) (fun g -> heads.(g) <> None) in
      let hb =
        Batch.of_rows ~arity:head_arity
          (Array.map (fun g -> Option.get heads.(g)) ids)
          ~pos:0 ~len:(Array.length ids)
      in
      match apply_filter keep hb with
      | None -> ()
      | Some hb ->
        let (_, rp), _, perm = sort_rows skeys ~runs:false [| hb |] in
        Array.iteri (fun r j -> rank.(ids.(rp.(j))) <- r) perm));
    rank
  in
  fun () ->
    Seq.memoize (fun () ->
        Perm_fault.trip fp_agg_merge;
        let groups = ref [] and count = ref 0 in
        let group_of =
          group_of (fun key ->
              let head = if rep = None || keys = [] then Some key else None in
              let g = (!count, ref head, fresh ()) in
              incr count;
              groups := g :: !groups;
              g)
        in
        let assign b k =
          group_of b (fun p (gid, key, states) ->
              if represents b p then begin
                if Option.is_none !key then key := Some (gkey b p);
                feed feeder states b p
              end;
              k p gid)
        in
        (* a group no representative reaches is no group of the original
           aggregate: like the rejoin it stands for, emit none of its rows *)
        let heads () =
          Array.of_list
            (List.rev_map
               (fun (_, key, states) ->
                 Option.map (fun key -> Array.append key (results states)) !key)
               !groups)
        in
        match input_of cx.spill (run_child ()) with
        | Fits s ->
          let batches = Array.of_seq s in
          let rb, rp, gids = number_rows ~each:assign batches in
          if gids = [||] && group_by = [] then
            Seq.filter_map (apply_filter keep)
              (Seq.return
                 (Batch.dense
                    (Array.append
                       (Array.map (fun v -> [| v |]) (results (fresh ())))
                       (Array.make child_arity [| Value.Null |]))
                    1))
              ()
          else
            let heads = heads () in
            gather_rows
              ~heads:(Array.map (Option.value ~default:[||]) heads, gids)
              ~batch_rows ~arity:child_arity batches (rb, rp)
              (grouped_order (rank_groups heads) gids)
              ()
        | Spills (cfg, pieces) ->
          cfg.Spill.note Spill.Spilled;
          let runs =
            Array.of_seq
              (Seq.map
                 (fun piece ->
                   let rb, rp, gids = number_rows ~each:assign piece in
                   write_run cfg piece (rb, rp)
                     [| Array.map (fun g -> Value.Int g) gids |]
                     (grouped_order (Array.init !count Fun.id) gids))
                 pieces)
          in
          let heads = heads () in
          let head = function
            | Value.Int g -> heads.(g)
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
  let grouper what =
    grouper ~spill:cx.spill ~what (layout cx attrs)
      (List.map (fun a -> Expr.Attr a) attrs)
  in
  match kind, all with
  | Plan.Union, true -> fun () -> Seq.append (run_left ()) (run_right ())
  | Plan.Union, false ->
    let group_of = grouper "UNION" in
    fun () ->
      Seq.memoize (fun () ->
          Seq.filter_map (first_rows group_of)
            (Seq.append (run_left ()) (run_right ()))
            ())
  | (Plan.Intersect | Plan.Except), _ ->
    (* the right rows count per group of one table, which the left rows
       only look up: under ALL each right row cancels one left row of its
       group, and the set forms keep the first of the surviving left rows
       of a key *)
    let counts = grouper "INTERSECT/EXCEPT" in
    let survivors = grouper "INTERSECT/EXCEPT" in
    let keeps =
      let cancels c = !c > 0 && (decr c; true) in
      match kind, all with
      | Plan.Intersect, true -> cancels
      | Plan.Except, true -> fun c -> not (cancels c)
      | _ ->
        let want = kind = Plan.Intersect in
        fun c -> !c > 0 = want
    in
    fun () ->
      Seq.memoize (fun () ->
          let count_of = counts (fun _ -> ref 0) in
          Seq.iter (fun b -> count_of b (fun _ c -> incr c)) (run_right ());
          let none = ref 0 in
          let left =
            Seq.filter_map
              (fun b ->
                let keep = Array.make b.Batch.rows false in
                count_of ~absent:none b (fun p c -> keep.(p) <- keeps c);
                narrow_live (Array.get keep) b)
              (run_left ())
          in
          (if all then left else Seq.filter_map (first_rows survivors) left) ())
