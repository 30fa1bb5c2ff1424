(* A reusable pool of worker domains for morsel-driven parallel execution
   (Leis et al., SIGMOD 2014). The pool owns [size - 1] spawned domains;
   the calling domain is the remaining worker, so [create 1] is a valid
   degenerate pool that runs everything on the caller without spawning.

   Work arrives as a batch of independent tasks (one per morsel). Tasks are
   claimed with an atomic counter, so fast workers steal the tail of the
   batch from slow ones — the classic morsel scheduling discipline. [run]
   blocks until the whole batch finished and re-raises the first task
   exception on the caller.

   Every batch is timed per worker: each claimed task records a slice
   (worker, task index, start, duration, rows) and each worker accumulates
   morsel/busy/row totals. Two clock reads per ~1000-row morsel keep the
   overhead in the noise, so the accounting is always on — it feeds the
   perm_stat_workers view and the worker lanes of the Chrome trace. *)

let now_s () = Perm_obs.Trace.now ()

type task_slice = {
  ts_worker : int;  (* 0 = the calling domain *)
  ts_task : int;  (* index into the batch's task array (= morsel index) *)
  ts_start : float;  (* Unix.gettimeofday seconds *)
  ts_dur_s : float;
  ts_rows : int;  (* rows the task reported *)
}

type worker_stat = { ws_morsels : int; ws_busy_s : float; ws_rows : int }

type report = {
  rp_participants : int;  (* workers that ran >= 1 task *)
  rp_workers : worker_stat array;  (* length = pool size, index = worker *)
  rp_slices : task_slice list;  (* all task slices, unordered *)
  rp_start_s : float;  (* batch submission time *)
  rp_wall_s : float;  (* batch wall time as seen by the caller *)
}

type batch = {
  tasks : (unit -> int) array;  (* each returns the rows it produced *)
  next : int Atomic.t;  (* next unclaimed task index *)
  mutable completed : int;  (* finished tasks; protected by the pool mutex *)
  mutable participants : int;  (* workers that ran >= 1 task; same lock *)
  mutable error : exn option;  (* first failure; same lock *)
  poisoned : bool Atomic.t;  (* set with [error]; lock-free abort signal *)
  w_morsels : int array;  (* per-worker accounting; merged under the lock *)
  w_busy : float array;
  w_rows : int array;
  mutable slices : task_slice list;
}

(* Chaos-harness injection point: fires inside the per-task handler so an
   injected fault lands in [batch.error] like any task failure, never on a
   bare worker domain. *)
let fp_dispatch = Perm_fault.point "pool.dispatch"

type t = {
  size : int;  (* total workers, including the calling domain *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;  (* bumped once per submitted batch *)
  mutable current : batch option;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let size t = t.size

(* Claim-and-run loop shared by spawned workers and the caller. [worker] is
   this domain's stable index (0 = caller). Once a task has failed the
   batch is poisoned: remaining tasks are still claimed and counted (so
   [run]'s completion accounting stays exact) but their bodies are skipped
   — the generation drains promptly instead of grinding through doomed
   work. Per-task timing is accumulated locally and merged into the batch
   under the pool mutex once, when this worker leaves the batch. *)
let drain t ~worker batch =
  let n = Array.length batch.tasks in
  let morsels = ref 0 and busy = ref 0. and rows = ref 0 in
  let slices = ref [] in
  let rec go ran =
    let i = Atomic.fetch_and_add batch.next 1 in
    if i >= n then ran
    else begin
      (try
         if not (Atomic.get batch.poisoned) then begin
           Perm_fault.trip fp_dispatch;
           let t0 = now_s () in
           let produced = batch.tasks.(i) () in
           let dur = now_s () -. t0 in
           incr morsels;
           busy := !busy +. dur;
           rows := !rows + produced;
           slices :=
             {
               ts_worker = worker;
               ts_task = i;
               ts_start = t0;
               ts_dur_s = dur;
               ts_rows = produced;
             }
             :: !slices
         end
       with e ->
         Mutex.lock t.mutex;
         if batch.error = None then batch.error <- Some e;
         Mutex.unlock t.mutex;
         Atomic.set batch.poisoned true);
      go (ran + 1)
    end
  in
  let ran = go 0 in
  Mutex.lock t.mutex;
  batch.completed <- batch.completed + ran;
  if ran > 0 then batch.participants <- batch.participants + 1;
  batch.w_morsels.(worker) <- batch.w_morsels.(worker) + !morsels;
  batch.w_busy.(worker) <- batch.w_busy.(worker) +. !busy;
  batch.w_rows.(worker) <- batch.w_rows.(worker) + !rows;
  batch.slices <- List.rev_append !slices batch.slices;
  if batch.completed >= n then Condition.broadcast t.work_done;
  Mutex.unlock t.mutex;
  ran

let rec worker_loop t ~worker seen_gen =
  Mutex.lock t.mutex;
  while (not t.stopped) && (t.generation = seen_gen || t.current = None) do
    Condition.wait t.work_ready t.mutex
  done;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let batch = Option.get t.current in
    Mutex.unlock t.mutex;
    ignore (drain t ~worker batch);
    worker_loop t ~worker gen
  end

let create n =
  if n < 1 then invalid_arg "Pool.create: need at least one worker";
  let t =
    {
      size = n;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      current = None;
      stopped = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (n - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t ~worker:(i + 1) 0));
  t

let empty_report () =
  {
    rp_participants = 0;
    rp_workers = [||];
    rp_slices = [];
    rp_start_s = now_s ();
    rp_wall_s = 0.;
  }

(* Run every task to completion, caller included. Not reentrant: one batch
   at a time per pool (the engine runs one gather at a time). *)
let run t (tasks : (unit -> int) array) : report =
  let n = Array.length tasks in
  if n = 0 then empty_report ()
  else if t.stopped then invalid_arg "Pool.run: pool is shut down"
  else begin
    let batch =
      {
        tasks;
        next = Atomic.make 0;
        completed = 0;
        participants = 0;
        error = None;
        poisoned = Atomic.make false;
        w_morsels = Array.make t.size 0;
        w_busy = Array.make t.size 0.;
        w_rows = Array.make t.size 0;
        slices = [];
      }
    in
    let start = now_s () in
    Mutex.lock t.mutex;
    t.current <- Some batch;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    ignore (drain t ~worker:0 batch);
    (* Quiesce unconditionally — also on the error path — so every worker
       has left this generation before the batch is retired and the pool
       is handed back reusable. *)
    Mutex.lock t.mutex;
    while batch.completed < n do
      Condition.wait t.work_done t.mutex
    done;
    t.current <- None;
    let err = batch.error and participants = batch.participants in
    let workers =
      Array.init t.size (fun w ->
          {
            ws_morsels = batch.w_morsels.(w);
            ws_busy_s = batch.w_busy.(w);
            ws_rows = batch.w_rows.(w);
          })
    in
    let slices = batch.slices in
    Mutex.unlock t.mutex;
    (match err with Some e -> raise e | None -> ());
    {
      rp_participants = participants;
      rp_workers = workers;
      rp_slices = slices;
      rp_start_s = start;
      rp_wall_s = now_s () -. start;
    }
  end

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stopped then begin
    t.stopped <- true;
    Condition.broadcast t.work_ready
  end;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

let stopped t = t.stopped
