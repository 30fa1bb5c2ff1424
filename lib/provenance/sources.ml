module Plan = Perm_algebra.Plan
module Attr = Perm_algebra.Attr
module Dtype = Perm_value.Dtype

type origin = From_scan of string | From_baserel | From_external | From_nested_prov

type instance = {
  inst_rel : string;
  inst_cols : (string * Dtype.t) list;
  inst_origin : origin;
}

(* Depth-first, left-to-right collection of relation instances. This
   traversal order is the contract between the analyzer (which allocates the
   provenance attributes) and the rewriter (which produces the bindings):
   Rewriter.rewrite mirrors it case by case. *)
let rec instances (plan : Plan.t) =
  match plan with
  | Plan.Scan { table; attrs } | Plan.Index_scan { table; attrs; _ } ->
    [
      {
        inst_rel = table;
        inst_cols = List.map (fun (a : Attr.t) -> (a.Attr.name, a.Attr.ty)) attrs;
        inst_origin = From_scan table;
      };
    ]
  | Plan.Values _ -> []
  | Plan.Baserel { child; rel_name } ->
    [
      {
        inst_rel = rel_name;
        inst_cols =
          List.map
            (fun (a : Attr.t) -> (a.Attr.name, a.Attr.ty))
            (Plan.schema child);
        inst_origin = From_baserel;
      };
    ]
  | Plan.External { ext_attrs; _ } ->
    [
      {
        inst_rel = "external";
        inst_cols =
          List.map (fun (a : Attr.t) -> (a.Attr.name, a.Attr.ty)) ext_attrs;
        inst_origin = From_external;
      };
    ]
  | Plan.Prov { sources; _ } ->
    (* A nested SELECT PROVENANCE: its provenance columns are propagated as
       externally produced provenance of the enclosing computation. *)
    List.map
      (fun (s : Plan.prov_source) ->
        {
          inst_rel = s.prov_rel;
          inst_cols = [ (s.prov_attr.Attr.name, s.prov_attr.Attr.ty) ];
          inst_origin = From_nested_prov;
        })
      sources
  | Plan.Join { kind = Plan.Anti; left; _ } -> instances left
  | Plan.Apply { kind = Plan.A_anti; left; _ } -> instances left
  | Plan.Join { left; right; _ }
  | Plan.Apply { left; right; _ }
  | Plan.Set_op { left; right; _ } ->
    instances left @ instances right
  | Plan.Project { child; _ }
  | Plan.Filter { child; _ }
  | Plan.Aggregate { child; _ }
  | Plan.Group_annotate { child; _ }
  | Plan.Mark_first { child; _ }
  | Plan.Distinct child
  | Plan.Sort { child; _ }
  | Plan.Limit { child; _ } ->
    instances child

let prov_sources plan =
  let insts = instances plan in
  (* Count relation-name occurrences to disambiguate self-joins. *)
  let seen = ref [] in
  List.concat_map
    (fun inst ->
      match inst.inst_origin with
      | From_external | From_nested_prov ->
        (* names are already provenance-style; keep them *)
        List.map
          (fun (col, ty) ->
            {
              Plan.prov_attr = Attr.fresh col ty;
              prov_rel = inst.inst_rel;
              prov_col = col;
            })
          inst.inst_cols
      | From_scan _ | From_baserel ->
        let occurrence =
          match List.assoc_opt inst.inst_rel !seen with
          | Some n ->
            incr n;
            !n
          | None ->
            seen := (inst.inst_rel, ref 0) :: !seen;
            0
        in
        let prefix =
          String.concat ""
            (if occurrence = 0 then [ "prov_"; inst.inst_rel; "_" ]
             else [ "prov_"; inst.inst_rel; "_"; string_of_int occurrence; "_" ])
        in
        List.map
          (fun (col, ty) ->
            {
              Plan.prov_attr = Attr.fresh (prefix ^ col) ty;
              prov_rel = inst.inst_rel;
              prov_col = col;
            })
          inst.inst_cols)
    insts
