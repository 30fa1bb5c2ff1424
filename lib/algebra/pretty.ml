let details plan =
  match (plan : Plan.t) with
  | Plan.Scan _ | Plan.Values _ -> ""
  | Plan.Index_scan { attrs; key_col; key; _ } ->
    let col =
      match List.nth_opt attrs key_col with
      | Some (a : Attr.t) -> a.Attr.name
      | None -> string_of_int key_col
    in
    Printf.sprintf "[%s = %s]" col (Expr.to_string key)
  | Plan.Project { cols; _ } ->
    let show (e, (a : Attr.t)) =
      match e with
      | Expr.Attr src when String.equal src.Attr.name a.Attr.name ->
        Expr.to_string e
      | _ -> Printf.sprintf "%s -> %s" (Expr.to_string e) a.Attr.name
    in
    "[" ^ String.concat ", " (List.map show cols) ^ "]"
  | Plan.Filter { pred; _ } -> "[" ^ Expr.to_string pred ^ "]"
  | Plan.Join { pred = Some p; _ } -> "[" ^ Expr.to_string p ^ "]"
  | Plan.Join { pred = None; _ } -> ""
  | Plan.Apply { kind = Plan.A_scalar a; _ } ->
    Printf.sprintf "[-> %s]" a.Attr.name
  | Plan.Apply _ -> ""
  | Plan.Aggregate { group_by; aggs; _ }
  | Plan.Group_annotate { group_by; aggs; _ } ->
    let gb =
      List.map (fun (e, (a : Attr.t)) ->
          Printf.sprintf "%s -> %s" (Expr.to_string e) a.Attr.name)
        group_by
    in
    let ags =
      List.map
        (fun (c : Plan.agg_call) ->
          let fn =
            match c.agg with
            | Plan.Count_star -> "count(*)"
            | Plan.Count ->
              Printf.sprintf "count(%s%s)"
                (if c.distinct then "distinct " else "")
                (match c.arg with Some e -> Expr.to_string e | None -> "?")
            | Plan.Sum | Plan.Avg | Plan.Min | Plan.Max | Plan.Bool_and
            | Plan.Bool_or ->
              let name =
                match c.agg with
                | Plan.Sum -> "sum"
                | Plan.Avg -> "avg"
                | Plan.Min -> "min"
                | Plan.Max -> "max"
                | Plan.Bool_and -> "bool_and"
                | Plan.Bool_or -> "bool_or"
                | Plan.Count | Plan.Count_star -> assert false
              in
              Printf.sprintf "%s(%s%s)" name
                (if c.distinct then "distinct " else "")
                (match c.arg with Some e -> Expr.to_string e | None -> "?")
          in
          Printf.sprintf "%s -> %s" fn c.agg_out.Attr.name)
        aggs
    in
    let rep =
      match plan with
      | Plan.Group_annotate { rep = Some e; _ } -> "; rep: " ^ Expr.to_string e
      | _ -> ""
    in
    "[group: " ^ String.concat ", " gb ^ "; aggs: " ^ String.concat ", " ags
    ^ rep ^ "]"
  | Plan.Mark_first { keys; among; flag; _ } ->
    Printf.sprintf "[%s -> %s%s]"
      (String.concat ", " (List.map (fun (a : Attr.t) -> a.Attr.name) keys))
      flag.Attr.name
      (match among with None -> "" | Some e -> " among " ^ Expr.to_string e)
  | Plan.Distinct _ -> ""
  | Plan.Set_op _ -> ""
  | Plan.Sort { keys; _ } ->
    "["
    ^ String.concat ", "
        (List.map
           (fun (e, dir) ->
             Expr.to_string e
             ^ match dir with Plan.Asc -> " asc" | Plan.Desc -> " desc")
           keys)
    ^ "]"
  | Plan.Limit { limit; offset; _ } ->
    Printf.sprintf "[limit %s offset %d]"
      (match limit with Some n -> string_of_int n | None -> "all")
      offset
  | Plan.Prov { sources; _ } ->
    "["
    ^ String.concat ", "
        (List.map
           (fun (s : Plan.prov_source) -> s.prov_attr.Attr.name)
           sources)
    ^ "]"
  | Plan.Baserel _ -> ""
  | Plan.External { ext_attrs; _ } ->
    "[" ^ String.concat ", " (List.map (fun (a : Attr.t) -> a.Attr.name) ext_attrs) ^ "]"

let plan_to_string ?(show_attrs = true) ?(annotate = fun _ -> "") plan =
  let buf = Buffer.create 256 in
  let rec go indent plan =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf (Plan.operator_name plan);
    let d = details plan in
    if d <> "" then begin
      Buffer.add_char buf ' ';
      Buffer.add_string buf d
    end;
    let note = annotate plan in
    if note <> "" then begin
      Buffer.add_string buf "  ";
      Buffer.add_string buf note
    end;
    if show_attrs then begin
      Buffer.add_string buf "  => (";
      Buffer.add_string buf
        (String.concat ", "
           (List.map
              (fun (a : Attr.t) -> Format.asprintf "%a" Attr.pp a)
              (Plan.schema plan)));
      Buffer.add_string buf ")"
    end;
    Buffer.add_char buf '\n';
    List.iter (go (indent + 1)) (Plan.children plan)
  in
  go 0 plan;
  Buffer.contents buf

let rec plan_summary plan =
  let kids = Plan.children plan in
  let base =
    match plan with
    | Plan.Scan { table; _ } -> Printf.sprintf "Scan(%s)" table
    | p -> Plan.operator_name p
  in
  match kids with
  | [] -> base
  | kids ->
    Printf.sprintf "%s(%s)"
      (match plan with Plan.Scan _ -> base | p -> Plan.operator_name p)
      (String.concat ", " (List.map plan_summary kids))
