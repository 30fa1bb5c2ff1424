type t = { heaps : (string, Heap.t) Hashtbl.t }

let create () = { heaps = Hashtbl.create 16 }

let copy t =
  let heaps = Hashtbl.create (Hashtbl.length t.heaps) in
  Hashtbl.iter (fun name heap -> Hashtbl.replace heaps name (Heap.copy heap)) t.heaps;
  { heaps }
let norm = String.lowercase_ascii

let create_table t name schema =
  let name = norm name in
  if Hashtbl.mem t.heaps name then
    Error (Printf.sprintf "table %S already exists in store" name)
  else begin
    let heap = Heap.create schema in
    Hashtbl.replace t.heaps name heap;
    Ok heap
  end

let drop_table t name =
  let name = norm name in
  if Hashtbl.mem t.heaps name then begin
    Hashtbl.remove t.heaps name;
    Ok ()
  end
  else Error (Printf.sprintf "table %S does not exist in store" name)

let find t name = Hashtbl.find_opt t.heaps (norm name)

let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.heaps [] |> List.sort String.compare
