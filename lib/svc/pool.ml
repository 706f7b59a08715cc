type job = {
  jb_req : Protocol.request;
  jb_conn : int;
  jb_enq_ns : int64;
  jb_deadline_ns : int64 option;
  jb_run : string option;
  jb_reply : Protocol.response -> float -> unit;
}

type t = {
  queue : job Jobq.t;
  mutable workers : unit Domain.t array;
  running : (string * bool Atomic.t) option array;
      (* per worker: the run id of the job it runs, if that job has one,
         and the flag that stops it *)
  running_mutex : Mutex.t;
  mutable drained : bool;
  drain_mutex : Mutex.t;
}

let past deadline_ns = Obs.Clock.now_ns () >= deadline_ns

(* Polled between schedules / fuzz trials — hot paths, and a fuzz job with
   domains > 1 polls one shared closure from every worker domain, so the
   state must be atomic. Reading the clock is a syscall-cheap vdso call but
   still worth throttling — on every 256th call, starting with the FIRST:
   gating on call 255 instead would leave an already-expired deadline (or
   one that expires within the first 255 scheduling steps) unchecked until
   the 256th poll, long after it should have bound. *)
let deadline_cancel deadline_ns =
  let calls = Atomic.make 0 in
  let tripped = Atomic.make false in
  fun () ->
    Atomic.get tripped
    ||
    if Atomic.fetch_and_add calls 1 land 0xff = 0 && past deadline_ns then
    begin
      Atomic.set tripped true;
      true
    end
    else false

let respond job rs =
  job.jb_reply rs (Obs.Clock.elapsed_s ~since:job.jb_enq_ns)

let cancelled job run =
  respond job
    (Protocol.error ~id:job.jb_req.Protocol.rq_id Protocol.Cancelled
       (Printf.sprintf "run %S was cancelled" run))

(* A job that carries a run id is listed in the worker's [running] slot
   while it runs, with a flag [cancel] sets: the engine polls the flag
   beside the deadline, and a job it stopped answers [cancelled]. *)
let run_job t w job =
  let { Protocol.rq_id = id; rq_verb = verb; rq_params = params; _ } =
    job.jb_req
  in
  match job.jb_deadline_ns with
  | Some d when past d ->
    respond job
      (Protocol.error ~id Protocol.Deadline_exceeded
         "deadline exceeded while queued")
  | deadline -> (
    let deadline = Option.map deadline_cancel deadline in
    match job.jb_run with
    | None ->
      respond job
        { Protocol.rs_id = id; rs_result = Jobs.run ?cancel:deadline verb params }
    | Some run -> (
      let stop = Atomic.make false in
      let cancel () =
        Atomic.get stop || match deadline with Some d -> d () | None -> false
      in
      Mutex.protect t.running_mutex (fun () -> t.running.(w) <- Some (run, stop));
      let result =
        Fun.protect
          ~finally:(fun () ->
            Mutex.protect t.running_mutex (fun () -> t.running.(w) <- None))
          (fun () -> Jobs.run ~cancel verb params)
      in
      match result with
      | Error (Protocol.Deadline_exceeded, _) when Atomic.get stop ->
        cancelled job run
      | result -> respond job { Protocol.rs_id = id; rs_result = result }))

let worker t w () =
  let rec loop () =
    match Jobq.pop t.queue with
    | None -> ()
    | Some job ->
      (* jb_reply must not raise; a handler exception is already folded
         into the response by Jobs.run. Belt and braces anyway: a dead
         worker would strand the queue. *)
      (try run_job t w job with _ -> ());
      loop ()
  in
  loop ()

let create ~workers ~queue_bound =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  (* fair dequeue across connections: one pipelining client cannot
     monopolize the workers *)
  let queue = Jobq.create ~key:(fun j -> j.jb_conn) ~bound:queue_bound () in
  let t =
    {
      queue;
      workers = [||];
      running = Array.make workers None;
      running_mutex = Mutex.create ();
      drained = false;
      drain_mutex = Mutex.create ();
    }
  in
  t.workers <- Array.init workers (fun w -> Domain.spawn (worker t w));
  t

let cancel t run =
  let dropped = Jobq.drop t.queue (fun j -> j.jb_run = Some run) in
  List.iter (fun job -> try cancelled job run with _ -> ()) dropped;
  let stopped =
    Mutex.protect t.running_mutex (fun () ->
        Array.fold_left
          (fun n slot ->
            match slot with
            | Some (r, stop) when r = run ->
              Atomic.set stop true;
              n + 1
            | _ -> n)
          0 t.running)
  in
  List.length dropped + stopped

let submit t job = Jobq.try_push t.queue job
let submit_many t jobs = Jobq.try_push_many t.queue jobs
let queue_length t = Jobq.length t.queue

let drain t =
  Mutex.lock t.drain_mutex;
  let first = not t.drained in
  t.drained <- true;
  Mutex.unlock t.drain_mutex;
  if first then begin
    Jobq.close t.queue;
    Array.iter Domain.join t.workers
  end
