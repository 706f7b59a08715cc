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
  mutable node : int;  (* history node in the attached key context *)
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
  mutable keys : Keys.t option;
  mutable mem_ids : int array;
      (* under [keys]: the value id of each register's content, filled on
         first use and kept current by every write *)
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
      node = Keys.root;
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
    keys = None;
    mem_ids = [||];
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

(* The exact state key, kept up by [execute] on a runtime with a context
   attached and by nothing on one without. A process's history node grows
   one trie edge per executed operation: (kind and register, value id),
   the value being what was read, written, queried or decided. A snapshot
   adds one edge per register it reads, and an empty snapshot one edge of
   its own, so that every executed operation moves the node. Process code
   is deterministic and reaches the world only through its effects, so a
   process's history node fixes its local state: which operation it issues
   next, its step count, whether it participates, its decision (a decide
   is an edge) and whether it has returned. *)

let k_read = 1
and k_write = 2
and k_snapshot = 3
and k_query = 4
and k_decide = 5
and k_yield = 6
and k_empty_snapshot = 7

let edge_op kind r = kind + (8 * r)

(* Register value ids for a memory that grew (or was never read) since
   they were last taken: new cells hold what they were allocated with. *)
let sync_mem t ks =
  let mem = t.cfg.memory in
  let have = Array.length t.mem_ids and n = Memory.size mem in
  if n > have then begin
    let ids = Array.make n 0 in
    Array.blit t.mem_ids 0 ids 0 have;
    for r = have to n - 1 do
      ids.(r) <- Keys.intern ks (Memory.read mem r)
    done;
    t.mem_ids <- ids
  end

let mem_id t ks r =
  if r >= Array.length t.mem_ids then sync_mem t ks;
  t.mem_ids.(r)

let extend ks p kind r vid =
  p.node <- Keys.child ks p.node ~op:(edge_op kind r) ~vid

let attach t ks =
  let ran p = p.steps > 0 in
  if Array.exists ran t.c_procs || Array.exists ran t.s_procs then
    invalid_arg "Runtime.attach: an operation has already executed";
  t.keys <- Some ks;
  t.mem_ids <- [||]

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
    (match t.keys with
    | Some ks -> extend ks p k_read r (mem_id t ks r)
    | None -> ());
    record t p (Trace.Read (r, v));
    Effect.Deep.continue k v
  | K_write (r, v, k) ->
    Memory.write t.cfg.memory r v;
    (match t.keys with
    | Some ks ->
      let vid = Keys.intern ks v in
      if r >= Array.length t.mem_ids then sync_mem t ks;
      t.mem_ids.(r) <- vid;
      extend ks p k_write r vid
    | None -> ());
    record t p (Trace.Write (r, v));
    Effect.Deep.continue k ()
  | K_snapshot (rs, k) ->
    let vs = Memory.read_many t.cfg.memory rs in
    (match t.keys with
    | Some ks ->
      if Array.length rs = 0 then extend ks p k_empty_snapshot 0 0
      else
        for i = 0 to Array.length rs - 1 do
          extend ks p k_snapshot rs.(i) (mem_id t ks rs.(i))
        done
    | None -> ());
    record t p (Trace.Snapshot rs);
    Effect.Deep.continue k vs
  | K_query k ->
    (match p.pid with
    | Pid.C _ -> raise (Forbidden_query p.pid)
    | Pid.S i ->
      let v = History.get t.cfg.history ~q:i ~time:t.now in
      (match t.keys with
      | Some ks -> extend ks p k_query 0 (Keys.intern ks v)
      | None -> ());
      record t p (Trace.Query v);
      Effect.Deep.continue k v)
  | K_decide (v, k) ->
    p.decided <- Some v;
    p.decide_at <- Some t.now;
    (match t.keys with
    | Some ks -> extend ks p k_decide 0 (Keys.intern ks v)
    | None -> ());
    record t p (Trace.Decide v);
    Effect.Deep.discontinue k Halted
  | K_yield k ->
    (match t.keys with Some ks -> extend ks p k_yield 0 0 | None -> ());
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

(* The clock, every register's value id, and per process its status, sched
   count and history node: what determines the future, and the present as
   the checker reads it. Absolute event times and the trace are left out,
   so that interleavings converging on one state key equal. *)
let add_procs ks ps =
  for i = 0 to Array.length ps - 1 do
    let p = ps.(i) in
    let status = match p.status with Fresh -> 0 | Runnable -> 1 | Done -> 2 in
    Keys.add ks ((3 * p.scheds) + status);
    Keys.add ks p.node
  done

let digest t =
  match t.keys with
  | None -> invalid_arg "Runtime.digest: no key context attached"
  | Some ks ->
    sync_mem t ks;
    Keys.start ks;
    Keys.add ks t.now;
    let ids = t.mem_ids in
    Keys.add ks (Array.length ids);
    for r = 0 to Array.length ids - 1 do
      Keys.add ks ids.(r)
    done;
    add_procs ks t.c_procs;
    add_procs ks t.s_procs;
    Keys.finish ks
