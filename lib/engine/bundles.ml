(* The forensics bundle store: one self-contained JSON document per
   anomaly ({!Perm_obs.Bundle_schema}), newest first, bounded, with an
   optional on-disk mirror. The engine decides when a statement is an
   anomaly and what its document holds; the store numbers the bundles,
   retains them, mirrors them and announces each one. Callers serialize
   access (the engine's observability lock). *)

module Json = Perm_obs.Json
module Metrics = Perm_obs.Metrics
module Recorder = Perm_obs.Recorder
module Trace = Perm_obs.Trace
module Bundle_schema = Perm_obs.Bundle_schema

type summary = {
  fs_id : int;
  fs_ts : float;
  fs_class : string;
  fs_fingerprint : string;
  fs_detail : string;
  fs_sql : string;
}

type t = {
  mutable bundles : (summary * Json.t) list;
      (* newest first; each document is rendered at capture, recorder tail
         included, so a bundle never keeps a statement's span tree alive *)
  mutable cap : int;  (* retained bundle bound *)
  mutable seq : int;  (* next bundle id (session-monotone) *)
  mutable dir : string option;  (* optional on-disk mirror *)
  metrics : Metrics.t;
  recorder : Recorder.t;
}

let create ~metrics ~recorder =
  { bundles = []; cap = 32; seq = 1; dir = None; metrics; recorder }

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file dir id = Filename.concat dir (Printf.sprintf "bundle-%06d.json" id)

(* Snapshot one bundle: its identity fields, then [sections ()], the
   statement's context (plan, phases, metrics delta, recorder tail, WAL,
   spill, settings, GC). A disabled recorder (capacity 0) disables
   capture with it: that is the bench's off-arm. *)
let capture t ~cls ~detail ~sql ~fingerprint ~ms ~rows sections =
  if Recorder.enabled t.recorder then begin
    let ts = Trace.now () in
    let id = t.seq in
    t.seq <- id + 1;
    let doc =
      Json.Obj
        ([
           ("schema", Json.String Bundle_schema.schema_tag);
           ("id", Json.Int id);
           ("ts", Json.Float ts);
           ("class", Json.String cls);
           ("detail", Json.String detail);
           ("sql", Json.String sql);
           ("fingerprint", Json.String fingerprint);
           ("ms", Json.Float ms);
           ("rows", Json.Int rows);
         ]
        @ sections ())
    in
    let summary =
      {
        fs_id = id;
        fs_ts = ts;
        fs_class = cls;
        fs_fingerprint = fingerprint;
        fs_detail = detail;
        fs_sql = sql;
      }
    in
    t.bundles <-
      List.filteri (fun i _ -> i < t.cap) ((summary, doc) :: t.bundles);
    Metrics.incr t.metrics "forensics.bundles";
    Metrics.incr t.metrics ("forensics.class." ^ cls);
    (* optional on-disk mirror, bounded like the in-memory store: each new
       bundle evicts the file that just fell off the retention window *)
    (match t.dir with
    | Some dir -> (
      try
        mkdir_p dir;
        Out_channel.with_open_text (file dir id) (fun oc ->
            Out_channel.output_string oc (Json.to_pretty_string doc));
        let victim = id - t.cap in
        if victim >= 1 then try Sys.remove (file dir victim) with Sys_error _ -> ()
      with _ -> Metrics.incr t.metrics "forensics.write.errors")
    | None -> ());
    (* the SSE plane tails the recorder; this event becomes an
       `event: anomaly` frame on /events *)
    Recorder.record t.recorder
      (Recorder.Anomaly { id; cls; fingerprint; detail; sql })
  end

let capacity t = t.cap

let set_capacity t n =
  t.cap <- max 0 n;
  t.bundles <- List.filteri (fun i _ -> i < t.cap) t.bundles

let set_dir t dir = t.dir <- dir

(* newest first, like the store *)
let list t = List.map fst t.bundles

let get t id =
  Option.map snd (List.find_opt (fun (s, _) -> s.fs_id = id) t.bundles)

let last t = match t.bundles with (_, doc) :: _ -> Some doc | [] -> None
