(* Kill-and-recover chaos harness for the write-ahead log.

   [run] opens an engine on a WAL directory, arms one fault point at a
   seeded probability, and executes a deterministic workload. Each fully
   successful unit prints [ACK i]; the first fault-induced error makes the
   process SIGKILL itself mid-commit, leaving whatever the log held at
   that instant — including a torn tail — on disk.

   [check] reopens an engine on the same directory (replaying the log)
   and compares its [dump_sql] byte-for-byte against an oracle: a fresh
   in-memory engine that re-runs the first K acknowledged units. A fault
   injected at [wal.fsync] lands after the Commit frame was written, so
   the in-flight unit may legitimately survive a process kill — the
   oracle accepts K or K+1 committed units.

   Driven by the CI wal-recovery job and test/test_wal.ml's in-process
   twin; runnable by hand:

     dune exec bin/wal_harness.exe -- run --dir /tmp/w --seed 3 \
       --point wal.append --prob 0.05
     dune exec bin/wal_harness.exe -- check --dir /tmp/w --seed 3 --acked 17

   [--bulk N] (both arms) adds one unit right after CREATE TABLE that
   inserts N rows in a single INSERT; the mixed units that follow keep
   the table near 200 rows, so without it recovery never replays more
   than one storage chunk. *)

module Engine = Perm_engine.Engine
module Fault = Perm_fault
module Err = Perm_err

let default_units = 60

(* Deterministic 63-bit LCG so run and check derive the identical
   workload from a seed, independent of Random's implementation. *)
let lcg state =
  state := ((!state * 2685821657736338717) + 1442695040888963) land max_int;
  !state

let workload ~seed ~units ~bulk =
  let state = ref (seed lxor 0x5deece66d) in
  let rand k = lcg state mod k in
  let with_bulk = function
    | create :: rest when bulk > 0 ->
      let values = List.init bulk (fun k -> Printf.sprintf "(%d, 'k%d')" k k) in
      create :: [ "INSERT INTO t VALUES " ^ String.concat ", " values ^ ";" ] :: rest
    | units -> units
  in
  with_bulk @@ List.init units (fun i ->
      if i = 0 then [ "CREATE TABLE t (k INTEGER, v TEXT);" ]
      else
        let x = rand 1000 in
        match rand 10 with
        | 0 | 1 ->
          (* explicit transaction: the only path where engine.commit trips *)
          [
            "BEGIN;";
            Printf.sprintf "INSERT INTO t VALUES (%d, 'a%d');" x x;
            Printf.sprintf "INSERT INTO t VALUES (%d, 'b%d');" (x + 1000) x;
            "COMMIT;";
          ]
        | 2 -> [ Printf.sprintf "DELETE FROM t WHERE k %% 11 = %d;" (x mod 11) ]
        | 3 ->
          [ Printf.sprintf "UPDATE t SET v = 'u%d' WHERE k %% 7 = %d;" x (x mod 7) ]
        | _ ->
          [
            Printf.sprintf "INSERT INTO t VALUES (%d, 'r%d'), (%d, 'r%d');" x x
              (x + 100) x;
          ])

let die fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let opt args name =
  let rec go = function
    | [] -> None
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
  in
  go args

let bulk_of args = Option.fold ~none:0 ~some:int_of_string (opt args "--bulk")

let req args name =
  match opt args name with
  | Some v -> v
  | None -> die "missing %s" name

let run args =
  let dir = req args "--dir" in
  let seed = int_of_string (req args "--seed") in
  let units = Option.value ~default:default_units
      (Option.map int_of_string (opt args "--units")) in
  let bulk = bulk_of args in
  let point = opt args "--point" in
  let prob = Option.value ~default:0.05
      (Option.map float_of_string (opt args "--prob")) in
  let e = Engine.create () in
  (match Engine.enable_wal e dir with
  | Ok _ -> ()
  | Error err -> die "enable_wal: %s" (Err.to_string err));
  Fault.set_seed seed;
  (match point with Some p -> Fault.set p prob | None -> ());
  List.iteri
    (fun i unit_stmts ->
      List.iter
        (fun sql ->
          match Engine.execute_err e sql with
          | Ok _ -> ()
          | Error err ->
            if point <> None then begin
              (* crash mid-commit: SIGKILL leaves the torn log behind *)
              Printf.printf "CRASH %d %s\n%!" i (Err.kind_label err.Err.kind);
              Unix.kill (Unix.getpid ()) Sys.sigkill
            end
            else die "unit %d: %s" i (Err.to_string err))
        unit_stmts;
      Printf.printf "ACK %d\n%!" i)
    (workload ~seed ~units ~bulk);
  print_endline "DONE";
  Engine.close e

let oracle_dump all k =
  let e = Engine.create () in
  List.iteri
    (fun i unit_stmts ->
      if i < k then
        List.iter
          (fun sql ->
            match Engine.execute_err e sql with
            | Ok _ -> ()
            | Error err -> die "oracle unit %d: %s" i (Err.to_string err))
          unit_stmts)
    all;
  let dump = Engine.dump_sql e in
  Engine.close e;
  dump

let check args =
  let dir = req args "--dir" in
  let seed = int_of_string (req args "--seed") in
  let units = Option.value ~default:default_units
      (Option.map int_of_string (opt args "--units")) in
  let all = workload ~seed ~units ~bulk:(bulk_of args) in
  let acked = int_of_string (req args "--acked") in
  let e = Engine.create () in
  let replay =
    match Engine.enable_wal e dir with
    | Ok rp -> rp
    | Error err -> die "recovery failed: %s" (Err.to_string err)
  in
  let recovered = Engine.dump_sql e in
  Engine.close e;
  let matches k = k <= List.length all && String.equal recovered (oracle_dump all k) in
  if matches acked then begin
    Printf.printf "OK recovered state = %d committed units (replayed %d records)\n"
      acked replay.Perm_wal.rp_records;
    exit 0
  end
  else if matches (acked + 1) then begin
    (* the in-flight unit's Commit frame hit the file before the injected
       fsync fault errored the statement — legitimately durable *)
    Printf.printf
      "OK recovered state = %d committed units (in-flight commit survived)\n"
      (acked + 1);
    exit 0
  end
  else begin
    Printf.printf "MISMATCH: recovered state matches neither %d nor %d units\n"
      acked (acked + 1);
    Printf.printf "--- recovered ---\n%s\n--- oracle(%d) ---\n%s\n" recovered
      acked (oracle_dump all acked);
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "check" :: args -> check args
  | _ ->
    prerr_endline
      "usage: wal_harness run --dir DIR --seed N [--point P] [--prob F] [--units N] [--bulk N]\n\
      \       wal_harness check --dir DIR --seed N --acked K [--units N] [--bulk N]";
    exit 2
