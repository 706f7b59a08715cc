exception Halted
exception Forbidden_query of Pid.t

type _ Effect.t +=
  | E_read : Memory.reg -> Value.t Effect.t
  | E_write : Memory.reg * Value.t -> unit Effect.t
  | E_snapshot : Memory.reg array -> Value.t array Effect.t
  | E_query : Value.t Effect.t
  | E_decide : Value.t -> unit Effect.t
  | E_yield : unit Effect.t

module Op = struct
  let read r = Effect.perform (E_read r)
  let write r v = Effect.perform (E_write (r, v))
  let snapshot rs = Effect.perform (E_snapshot rs)
  let query () = Effect.perform E_query
  let decide v = Effect.perform (E_decide v)
  let yield () = Effect.perform E_yield
end

type pending =
  | K_read : Memory.reg * (Value.t, unit) Effect.Deep.continuation -> pending
  | K_write : Memory.reg * Value.t * (unit, unit) Effect.Deep.continuation -> pending
  | K_snapshot :
      Memory.reg array * (Value.t array, unit) Effect.Deep.continuation
      -> pending
  | K_query : (Value.t, unit) Effect.Deep.continuation -> pending
  | K_decide : Value.t * (unit, unit) Effect.Deep.continuation -> pending
  | K_yield : (unit, unit) Effect.Deep.continuation -> pending

type status = Fresh | Runnable | Done

type pstate = {
  pid : Pid.t;
  code : unit -> unit;
  mutable status : status;
  mutable pending : pending option;
  mutable decided : Value.t option;
  mutable steps : int;
  mutable scheds : int;
  mutable first_step : int option;
  mutable decide_at : int option;
  mutable obs_hash : int;
}

type config = {
  n_c : int;
  n_s : int;
  memory : Memory.t;
  pattern : Failure.pattern;
  history : History.t;
  record_trace : bool;
}

type obs = {
  on_sched : Pid.t -> time:int -> unit;
  on_event : Pid.t -> time:int -> Trace.event -> unit;
}

let obs_merge hooks =
  {
    on_sched = (fun pid ~time -> List.iter (fun o -> o.on_sched pid ~time) hooks);
    on_event =
      (fun pid ~time ev -> List.iter (fun o -> o.on_event pid ~time ev) hooks);
  }

let obs_events sink =
  {
    on_sched = (fun _ ~time:_ -> ());
    on_event =
      (fun pid ~time ev -> Obs.Sink.emit sink (Trace.event_to_obs ~time ~pid ev));
  }

let obs_counters reg =
  (* counters are looked up once here, not per event *)
  let c name = Obs.Metrics.counter reg name in
  let scheds = c "runtime.scheds"
  and reads = c "runtime.reads"
  and writes = c "runtime.writes"
  and snapshots = c "runtime.snapshots"
  and queries = c "runtime.queries"
  and decides = c "runtime.decides"
  and nulls = c "runtime.nulls" in
  {
    on_sched = (fun _ ~time:_ -> Obs.Metrics.incr scheds);
    on_event =
      (fun _ ~time:_ ev ->
        Obs.Metrics.incr
          (match ev with
          | Trace.Read _ -> reads
          | Trace.Write _ -> writes
          | Trace.Snapshot _ -> snapshots
          | Trace.Query _ -> queries
          | Trace.Decide _ -> decides
          | Trace.Null -> nulls));
  }

type t = {
  cfg : config;
  c_procs : pstate array;
  s_procs : pstate array;
  mutable now : int;
  mutable steps_total : int;
  tr : Trace.t;
  obs : obs option;
}

let create ?obs cfg ~c_code ~s_code =
  if cfg.pattern.Failure.n_s <> cfg.n_s then
    invalid_arg "Runtime.create: pattern size mismatch";
  let mk pid code =
    {
      pid;
      code;
      status = Fresh;
      pending = None;
      decided = None;
      steps = 0;
      scheds = 0;
      first_step = None;
      decide_at = None;
      obs_hash = 0x811c9dc5;
    }
  in
  {
    cfg;
    c_procs = Array.init cfg.n_c (fun i -> mk (Pid.c i) (c_code i));
    s_procs = Array.init cfg.n_s (fun i -> mk (Pid.s i) (s_code i));
    now = 0;
    steps_total = 0;
    tr = Trace.create ~enabled:cfg.record_trace;
    obs;
  }

let proc t = function
  | Pid.C i ->
    if i < 0 || i >= t.cfg.n_c then invalid_arg "Runtime: C index";
    t.c_procs.(i)
  | Pid.S i ->
    if i < 0 || i >= t.cfg.n_s then invalid_arg "Runtime: S index";
    t.s_procs.(i)

(* Run [f] under the process handler: it executes until the code performs its
   next effect (parked in [p.pending]), returns, or halts. *)
let run_under (p : pstate) (f : unit -> unit) : unit =
  let finish () =
    p.status <- Done;
    p.pending <- None
  in
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> finish ());
      exnc =
        (fun e ->
          match e with
          | Halted -> finish ()
          | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_read r ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                p.pending <- Some (K_read (r, k)))
          | E_write (r, v) ->
            Some (fun k -> p.pending <- Some (K_write (r, v, k)))
          | E_snapshot rs ->
            Some (fun k -> p.pending <- Some (K_snapshot (rs, k)))
          | E_query -> Some (fun k -> p.pending <- Some (K_query k))
          | E_decide v -> Some (fun k -> p.pending <- Some (K_decide (v, k)))
          | E_yield -> Some (fun k -> p.pending <- Some (K_yield k))
          | _ -> None);
    }

let record t p ev =
  Trace.record t.tr ~time:t.now ~pid:p.pid ev;
  match t.obs with
  | None -> ()
  | Some o -> o.on_event p.pid ~time:t.now ev

(* Per-process observation hash: folds in each executed operation together
   with its result. Process code is deterministic and interacts with the
   world only through its effects, so two processes of the same code with
   equal observation hashes are (modulo hash collisions) in the same local
   state — the basis of {!digest}. *)
let obs p tag x =
  p.obs_hash <- (((p.obs_hash * 0x01000193) lxor tag) * 0x01000193) lxor x
                land max_int

(* Execute the pending operation of [p] at the current time, then resume the
   code until its next suspension point. One call = one (non-null) step. *)
let execute t (p : pstate) (op : pending) : unit =
  p.pending <- None;
  p.steps <- p.steps + 1;
  if p.first_step = None then p.first_step <- Some t.now;
  (* The continuations below resume under the deep handler installed by
     [run_under] at process start: subsequent effects re-park in [p.pending],
     normal return / Halted land in that handler's retc/exnc. *)
  match op with
  | K_read (r, k) ->
    let v = Memory.read t.cfg.memory r in
    obs p 1 ((r * 0x01000193) lxor Value.hash v);
    record t p (Trace.Read (r, v));
    Effect.Deep.continue k v
  | K_write (r, v, k) ->
    Memory.write t.cfg.memory r v;
    obs p 2 ((r * 0x01000193) lxor Value.hash v);
    record t p (Trace.Write (r, v));
    Effect.Deep.continue k ()
  | K_snapshot (rs, k) ->
    let vs = Memory.read_many t.cfg.memory rs in
    Array.iteri (fun i r -> obs p 3 ((r * 0x01000193) lxor Value.hash vs.(i))) rs;
    record t p (Trace.Snapshot rs);
    Effect.Deep.continue k vs
  | K_query k ->
    (match p.pid with
    | Pid.C _ -> raise (Forbidden_query p.pid)
    | Pid.S i ->
      let v = History.get t.cfg.history ~q:i ~time:t.now in
      obs p 4 (Value.hash v);
      record t p (Trace.Query v);
      Effect.Deep.continue k v)
  | K_decide (v, k) ->
    p.decided <- Some v;
    p.decide_at <- Some t.now;
    obs p 5 (Value.hash v);
    record t p (Trace.Decide v);
    Effect.Deep.discontinue k Halted
  | K_yield k ->
    obs p 6 0;
    Effect.Deep.continue k ()

(* ------------------------------------------------------------------ *)
(* Per-step footprints — the static face of the next step of each process,
   used by the exhaustive checker's independence relation. *)

type footprint =
  | F_local
  | F_read of Memory.reg array
  | F_write of Memory.reg
  | F_timedep

let start_if_fresh (p : pstate) =
  if p.status = Fresh then begin
    p.status <- Runnable;
    run_under p p.code
  end

let peek t pid = start_if_fresh (proc t pid)

let footprint t pid =
  let p = proc t pid in
  match pid with
  | Pid.S i when Failure.crashed t.cfg.pattern ~time:t.now i ->
    (* crash-stop: crashed stays crashed, so every later step is null *)
    F_local
  | Pid.S i when not (Failure.is_correct t.cfg.pattern i) ->
    (* alive now but crashes later: whether the parked op or a null step
       executes depends on when the process is scheduled *)
    F_timedep
  | _ -> (
    start_if_fresh p;
    match p.pending with
    | None -> F_local (* done or returned: null step *)
    | Some (K_read (r, _)) -> F_read [| r |]
    | Some (K_snapshot (rs, _)) -> F_read rs
    | Some (K_write (r, _, _)) -> F_write r
    | Some (K_query _) -> F_timedep (* result sampled at the step's time *)
    | Some (K_decide _) | Some (K_yield _) -> F_local)

let commute a b =
  match (a, b) with
  | F_timedep, _ | _, F_timedep -> false
  | F_local, _ | _, F_local -> true
  | F_read _, F_read _ -> true
  | F_read rs, F_write w | F_write w, F_read rs ->
    not (Memory.overlaps rs [| w |])
  | F_write r1, F_write r2 -> r1 <> r2

let independent t p q =
  (not (Pid.equal p q)) && commute (footprint t p) (footprint t q)

let step t pid =
  let p = proc t pid in
  p.scheds <- p.scheds + 1;
  t.steps_total <- t.steps_total + 1;
  (match t.obs with None -> () | Some o -> o.on_sched pid ~time:t.now);
  let alive =
    match pid with
    | Pid.C _ -> true
    | Pid.S i -> not (Failure.crashed t.cfg.pattern ~time:t.now i)
  in
  if not alive then record t p Trace.Null
  else begin
    (* A Fresh process first runs its code up to the first operation, then
       performs that operation within this same step, so that step #1 of a
       process is its first shared-memory action. [first_step] is set in
       [execute] only: a process whose code performs no operation (or whose
       first operation never runs) takes a null step and does not count as
       participating. *)
    start_if_fresh p;
    match p.pending with
    | Some op -> execute t p op
    | None -> record t p Trace.Null
  end;
  t.now <- t.now + 1

(* A null step changes only the clock, the process's sched counter,
   [steps_total] and the trace, so restoring those four takes it back
   exactly. Refused where that does not hold: a Fresh process's step starts
   its code, a live process's parked operation executes, and an obs hook
   has already been told. *)
let with_null_step t pid f =
  let p = proc t pid in
  let null =
    match (p.status, pid) with
    | Fresh, _ -> false
    | Done, _ -> true
    | Runnable, Pid.S i -> Failure.crashed t.cfg.pattern ~time:t.now i
    | Runnable, Pid.C _ -> false
  in
  if (not null) || Option.is_some t.obs then None
  else begin
    let now = t.now and total = t.steps_total and scheds = p.scheds in
    let len = Trace.length t.tr in
    let undo () =
      t.now <- now;
      t.steps_total <- total;
      p.scheds <- scheds;
      Trace.truncate t.tr len
    in
    step t pid;
    match f () with
    | v ->
      undo ();
      Some v
    | exception e ->
      undo ();
      raise e
  end

let destroy t =
  let kill p =
    match p.pending with
    | None -> ()
    | Some op ->
      p.pending <- None;
      let disc : type a. (a, unit) Effect.Deep.continuation -> unit =
       fun k -> Effect.Deep.discontinue k Halted
      in
      (match op with
      | K_read (_, k) -> disc k
      | K_write (_, _, k) -> disc k
      | K_snapshot (_, k) -> disc k
      | K_query k -> disc k
      | K_decide (_, k) -> disc k
      | K_yield k -> disc k)
  in
  Array.iter kill t.c_procs;
  Array.iter kill t.s_procs

let time t = t.now
let n_c t = t.cfg.n_c
let n_s t = t.cfg.n_s
let memory t = t.cfg.memory
let pattern t = t.cfg.pattern
let status t pid = (proc t pid).status

let decision t i =
  if i < 0 || i >= t.cfg.n_c then invalid_arg "Runtime.decision";
  t.c_procs.(i).decided

let decisions t = Array.map (fun p -> p.decided) t.c_procs
let all_c_done t = Array.for_all (fun p -> p.decided <> None) t.c_procs
let participating t i = t.c_procs.(i).first_step <> None

let undecided_participants t =
  List.filter
    (fun i -> participating t i && t.c_procs.(i).decided = None)
    (List.init t.cfg.n_c Fun.id)

let steps_taken t pid = (proc t pid).steps
let sched_count t pid = (proc t pid).scheds
let first_step_time t i = t.c_procs.(i).first_step
let decide_time t i = t.c_procs.(i).decide_at
let trace t = t.tr
let steps_total t = t.steps_total

let digest t =
  (* Captures everything that determines future behaviour and the usual
     checker-visible present: the clock, exact memory contents, and for every
     process its status, step/sched counters, decision and observation hash.
     Deliberately excludes absolute event times (first_step, decide_at) and
     the trace, so that converging interleavings digest equal. *)
  let psum p =
    ( (match p.status with Fresh -> 0 | Runnable -> 1 | Done -> 2),
      p.steps,
      p.scheds,
      p.obs_hash,
      p.decided )
  in
  let repr =
    ( t.now,
      Memory.contents t.cfg.memory,
      Array.map psum t.c_procs,
      Array.map psum t.s_procs )
  in
  Digest.string (Marshal.to_string repr [])
