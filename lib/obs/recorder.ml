type payload =
  | Stmt_start of { sql : string; fingerprint : string }
  | Stmt_finish of {
      sql : string;
      fingerprint : string;
      span : Trace.span;
      rows : int;
      provenance : bool;
      error : (string * string) option;
    }
  | Plan_node of {
      fingerprint : string;
      node : int;
      operator : string;
      est_rows : float;
      act_rows : int;
    }
  | Wal_append of { frame : string }
  | Wal_fsync of { fsyncs : int }
  | Wal_checkpoint of { epoch : int; ok : bool }
  | Wal_replay of {
      records : int;
      committed : int;
      discarded : int;
      skipped : int;
      truncated_bytes : int;
    }
  | Spill of { kind : string; detail : string }
  | Gc_major of { heap_words : int; major_collections : int }
  | Fault of { point : string }
  | Governor of { verdict : string; detail : string }
  | Watchdog of { fingerprint : string; factor : float; cause : string }
  | Degraded of { reason : string }
  | Note of { tag : string; detail : string }
  | Anomaly of {
      id : int;
      cls : string;
      fingerprint : string;
      detail : string;
      sql : string;
    }

type event = { ev_seq : int; ev_ts : float; ev_payload : payload }

(* The slot array and its capacity swap together (set_capacity publishes a
   whole new ring), so they live in one atomically-replaced record. A
   writer that raced the swap lands its event in the retiring array and
   the event is lost — equivalent to an immediate wrap-around drop.
   [r_base] is the lowest sequence number the ring can hold: events older
   than it were shed when the ring was swapped in. *)
type ring = { r_slots : event option array; r_cap : int; r_base : int }

type t = {
  ring : ring Atomic.t;
  seq : int Atomic.t;  (* total events ever recorded *)
  lost : int Atomic.t;  (* shed by capacity changes, on top of wrap-around *)
}

let default_capacity = 512

let make_ring cap base =
  { r_slots = Array.make (max cap 1) None; r_cap = cap; r_base = base }

let create ?(capacity = default_capacity) () =
  {
    ring = Atomic.make (make_ring (max capacity 0) 0);
    seq = Atomic.make 0;
    lost = Atomic.make 0;
  }

let enabled t = (Atomic.get t.ring).r_cap > 0
let capacity t = (Atomic.get t.ring).r_cap
let recorded t = Atomic.get t.seq

let record_event t payload =
  let ring = Atomic.get t.ring in
  let ts = Unix.gettimeofday () in
  if ring.r_cap = 0 then { ev_seq = -1; ev_ts = ts; ev_payload = payload }
  else begin
    let seq = Atomic.fetch_and_add t.seq 1 in
    let ev = { ev_seq = seq; ev_ts = ts; ev_payload = payload } in
    ring.r_slots.(seq mod ring.r_cap) <- Some ev;
    ev
  end

let record t payload = if enabled t then ignore (record_event t payload)

(* The retained events from a cursor, oldest first, and the cursor to
   resume from; [from total] picks the starting sequence number. Slot index
   is [seq mod cap], so the walk reads each slot once, in order, and never
   sorts. A slot that holds a newer event was overwritten (the event is
   gone); one that holds an older event or nothing belongs to a writer that
   has taken its sequence number but not yet stored the event, so the walk
   stops there and the next call resumes at it rather than skipping it. *)
let walk t from =
  let ring = Atomic.get t.ring in
  let total = Atomic.get t.seq in
  let rec go s acc =
    if s >= total then (total, List.rev acc)
    else
      match ring.r_slots.(s mod ring.r_cap) with
      | Some ev when ev.ev_seq = s -> go (s + 1) (ev :: acc)
      | Some ev when ev.ev_seq > s -> go (s + 1) acc
      | _ -> (s, List.rev acc)
  in
  if ring.r_cap = 0 then (total, [])
  else go (max (from total) (max ring.r_base (total - ring.r_cap))) []

let since t cursor = walk t (fun _ -> cursor)

let recent ?limit t =
  snd
    (walk t (fun total ->
         match limit with Some n -> total - n | None -> 0))

let dropped t =
  let filled =
    Array.fold_left
      (fun n slot -> if Option.is_some slot then n + 1 else n)
      0 (Atomic.get t.ring).r_slots
  in
  Atomic.get t.lost + max 0 (Atomic.get t.seq - Atomic.get t.lost - filled)

let set_capacity t cap =
  let cap = max cap 0 in
  let kept = recent t in
  let keep =
    let drop = List.length kept - cap in
    if drop <= 0 then kept else List.filteri (fun i _ -> i >= drop) kept
  in
  let base =
    match keep with ev :: _ -> ev.ev_seq | [] -> Atomic.get t.seq
  in
  let ring = make_ring cap base in
  (* each event keeps its canonical slot [ev_seq mod cap], so the next
     write (at the live sequence counter) naturally lands after the
     preserved tail and wrap-around overwrites oldest-first *)
  if cap > 0 then
    List.iter (fun ev -> ring.r_slots.(ev.ev_seq mod cap) <- Some ev) keep;
  Atomic.set t.lost
    (Atomic.get t.lost + (List.length kept - List.length keep));
  Atomic.set t.ring ring

let payload_kind = function
  | Stmt_start _ -> "stmt_start"
  | Stmt_finish _ -> "stmt_finish"
  | Plan_node _ -> "plan_node"
  | Wal_append _ -> "wal_append"
  | Wal_fsync _ -> "wal_fsync"
  | Wal_checkpoint _ -> "wal_checkpoint"
  | Wal_replay _ -> "wal_replay"
  | Spill _ -> "spill"
  | Gc_major _ -> "gc_major"
  | Fault _ -> "fault"
  | Governor _ -> "governor"
  | Watchdog _ -> "watchdog"
  | Degraded _ -> "degraded"
  | Note _ -> "note"
  | Anomaly _ -> "anomaly"

let payload_fields = function
  | Stmt_start { sql; fingerprint } ->
    [ ("sql", Json.String sql); ("fingerprint", Json.String fingerprint) ]
  | Stmt_finish { sql; fingerprint; span; rows; provenance; error } ->
    let kind, message =
      match error with
      | Some (kind, msg) -> (Json.String kind, Json.String msg)
      | None -> (Json.Null, Json.Null)
    in
    [
      ("sql", Json.String sql);
      ("fingerprint", Json.String fingerprint);
      ("ms", Json.Float (Trace.duration_ms span));
      ("rows", Json.Int rows);
      ("provenance", Json.Bool provenance);
      ( "phases",
        Json.Obj
          (List.map
             (fun sp -> (Trace.name sp, Json.Float (Trace.duration_ms sp)))
             (Trace.children span)) );
      ("error", kind);
      ("message", message);
    ]
  | Plan_node { fingerprint; node; operator; est_rows; act_rows } ->
    [
      ("fingerprint", Json.String fingerprint);
      ("node", Json.Int node);
      ("operator", Json.String operator);
      ("est_rows", Json.Float est_rows);
      ("act_rows", Json.Int act_rows);
    ]
  | Wal_append { frame } -> [ ("frame", Json.String frame) ]
  | Wal_fsync { fsyncs } -> [ ("fsyncs", Json.Int fsyncs) ]
  | Wal_checkpoint { epoch; ok } ->
    [ ("epoch", Json.Int epoch); ("ok", Json.Bool ok) ]
  | Wal_replay { records; committed; discarded; skipped; truncated_bytes } ->
    [
      ("records", Json.Int records);
      ("committed", Json.Int committed);
      ("discarded", Json.Int discarded);
      ("skipped", Json.Int skipped);
      ("truncated_bytes", Json.Int truncated_bytes);
    ]
  | Spill { kind; detail } ->
    [ ("spill", Json.String kind); ("detail", Json.String detail) ]
  | Gc_major { heap_words; major_collections } ->
    [
      ("heap_words", Json.Int heap_words);
      ("major_collections", Json.Int major_collections);
    ]
  | Fault { point } -> [ ("point", Json.String point) ]
  | Governor { verdict; detail } ->
    [ ("verdict", Json.String verdict); ("detail", Json.String detail) ]
  | Watchdog { fingerprint; factor; cause } ->
    [
      ("fingerprint", Json.String fingerprint);
      ("factor", Json.Float factor);
      ("cause", Json.String cause);
    ]
  | Degraded { reason } -> [ ("reason", Json.String reason) ]
  | Note { tag; detail } ->
    [ ("tag", Json.String tag); ("detail", Json.String detail) ]
  | Anomaly { id; cls; fingerprint; detail; sql } ->
    [
      ("id", Json.Int id);
      ("class", Json.String cls);
      ("fingerprint", Json.String fingerprint);
      ("detail", Json.String detail);
      ("sql", Json.String sql);
    ]

let event_to_json ev =
  Json.Obj
    ([
       ("seq", Json.Int ev.ev_seq);
       ("ts", Json.Float ev.ev_ts);
       ("kind", Json.String (payload_kind ev.ev_payload));
     ]
    @ payload_fields ev.ev_payload)
