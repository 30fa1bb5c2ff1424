let schema_tag = "perm.forensics/1"

let classes =
  [
    "error"; "timeout"; "cancelled"; "resource_exhausted"; "fault";
    "regression"; "degraded"; "wal_replay";
  ]

let ( let* ) = Result.bind

(* Accessor helpers that produce positioned error messages: every failure
   names the JSON path that violated the contract. *)

let field path key json =
  match Json.member key json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing field %S" path key)

let str path json =
  match json with
  | Json.String s -> Ok s
  | _ -> Error (path ^ ": expected a string")

let int_ path json =
  match json with
  | Json.Int n -> Ok n
  | _ -> Error (path ^ ": expected an integer")

let num path json =
  match Json.to_float_opt json with
  | Some f -> Ok f
  | None -> Error (path ^ ": expected a number")

let bool_ path json =
  match json with
  | Json.Bool b -> Ok b
  | _ -> Error (path ^ ": expected a boolean")

let obj path json =
  match json with
  | Json.Obj kvs -> Ok kvs
  | _ -> Error (path ^ ": expected an object")

let list_ path json =
  match Json.to_list_opt json with
  | Some l -> Ok l
  | None -> Error (path ^ ": expected a list")

let str_field path key json = Result.bind (field path key json) (str (path ^ "." ^ key))
let int_field path key json = Result.bind (field path key json) (int_ (path ^ "." ^ key))
let num_field path key json = Result.bind (field path key json) (num (path ^ "." ^ key))
let bool_field path key json = Result.bind (field path key json) (bool_ (path ^ "." ^ key))

(* A map of name -> number (the phases and metrics_delta sections). *)
let num_map path json =
  let* kvs = obj path json in
  let rec go = function
    | [] -> Ok ()
    | (k, v) :: rest ->
      let* _ = num (Printf.sprintf "%s.%s" path k) v in
      go rest
  in
  go kvs

let check_each path items f =
  let rec go i = function
    | [] -> Ok ()
    | item :: rest ->
      let* () = f (Printf.sprintf "%s[%d]" path i) item in
      go (i + 1) rest
  in
  go 0 items

let check_plan json =
  let path = "plan" in
  let* _ = str_field path "plan_hash" json in
  let* _ = num_field path "est_rows" json in
  let* nodes = Result.bind (field path "nodes" json) (list_ (path ^ ".nodes")) in
  check_each (path ^ ".nodes") nodes (fun p node ->
      let* _ = int_field p "node" node in
      let* _ = str_field p "operator" node in
      let* _ = num_field p "est_rows" node in
      let* _ = int_field p "act_rows" node in
      let* _ = num_field p "self_ms" node in
      let* _ = int_field p "loops" node in
      Ok ())

let check_events json =
  let* events = list_ "events" json in
  check_each "events" events (fun p ev ->
      let* _ = int_field p "seq" ev in
      let* _ = num_field p "ts" ev in
      let* _ = str_field p "kind" ev in
      Ok ())

let check_replay path json =
  let* _ = bool_field path "snapshot" json in
  let* _ = int_field path "records" json in
  let* _ = int_field path "committed" json in
  let* _ = int_field path "discarded" json in
  let* _ = int_field path "skipped" json in
  let* _ = int_field path "truncated_bytes" json in
  Ok ()

(* In-memory sessions have no WAL: null is a legal section value. *)
let check_wal json =
  match json with
  | Json.Null -> Ok ()
  | _ ->
    let path = "wal" in
    let* _ = str_field path "dir" json in
    let* _ = int_field path "bytes" json in
    let* _ = int_field path "records" json in
    let* _ = int_field path "last_lsn" json in
    let* _ = int_field path "fsyncs" json in
    let* _ = bool_field path "fsync_on" json in
    let* _ = bool_field path "dirty" json in
    let* _ = int_field path "epoch" json in
    let* replay = field path "replay" json in
    check_replay "wal.replay" replay

let check_spill json =
  let path = "spill" in
  let rec go = function
    | [] -> Ok ()
    | key :: rest ->
      let* _ = int_field path key json in
      go rest
  in
  go [ "spills"; "runs"; "chunks"; "rows"; "bytes"; "fallbacks" ]

let check_settings json =
  let path = "settings" in
  let* _ = int_field path "parallel" json in
  let* _ = int_field path "parallel_threshold" json in
  let* _ = int_field path "batch_rows" json in
  let* _ = bool_field path "vectorized" json in
  let* _ = num_field path "timeout_ms" json in
  let* _ = int_field path "row_limit" json in
  let* _ = int_field path "tuple_budget" json in
  let* _ = bool_field path "spill" json in
  let* _ = bool_field path "wal_fsync" json in
  Ok ()

let validate json =
  let path = "bundle" in
  let* tag = str_field path "schema" json in
  let* () =
    if tag = schema_tag then Ok ()
    else Error (Printf.sprintf "bundle.schema: expected %S, got %S" schema_tag tag)
  in
  let* _ = int_field path "id" json in
  let* _ = num_field path "ts" json in
  let* cls = str_field path "class" json in
  let* () =
    if List.mem cls classes then Ok ()
    else Error (Printf.sprintf "bundle.class: unknown class %S" cls)
  in
  let* _ = str_field path "detail" json in
  let* _ = str_field path "sql" json in
  let* _ = str_field path "fingerprint" json in
  let* () = Result.bind (field path "plan" json) check_plan in
  let* () = Result.bind (field path "phases" json) (num_map "phases") in
  let* () =
    Result.bind (field path "metrics_delta" json) (num_map "metrics_delta")
  in
  let* () = Result.bind (field path "events" json) check_events in
  let* () = Result.bind (field path "wal" json) check_wal in
  let* () = Result.bind (field path "spill" json) check_spill in
  let* () = Result.bind (field path "settings" json) check_settings in
  Ok cls

let validate_string text = Result.bind (Json.parse text) validate
