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
  mutable node : int;
      (* history node in the attached key context; once the process has
         decided, [lnot] of its decision's value id *)
  mutable spent : bool;  (* a taken-back step consumed its continuation *)
}

type config = {
  n_c : int;
  n_s : int;
  memory : Memory.t;
  pattern : Failure.pattern;
  history : History.t;
  record_trace : bool;
}

type t = {
  cfg : config;
  c_procs : pstate array;
  s_procs : pstate array;
  mutable now : int;
  mutable steps_total : int;
  mutable c_decided : int;  (* C-processes that have decided *)
  tr : Trace.t;
  mutable keys : Keys.t option;
  mutable mem_ids : int array;
      (* under [keys]: the value id of each register's content, for the
         registers below its length, filled on first use and kept current by
         every write; it covers the registers written so far and grows as
         writes reach past it *)
  mutable unit_id : int;  (* under [keys]: the id of [Value.unit] *)
}

let create cfg ~c_code ~s_code =
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
      spent = false;
    }
  in
  {
    cfg;
    c_procs = Array.init cfg.n_c (fun i -> mk (Pid.c i) (c_code i));
    s_procs = Array.init cfg.n_s (fun i -> mk (Pid.s i) (s_code i));
    now = 0;
    steps_total = 0;
    c_decided = 0;
    tr = Trace.create ~enabled:cfg.record_trace;
    keys = None;
    mem_ids = [||];
    unit_id = 0;
  }

let proc t = function
  | Pid.C i ->
    if i < 0 || i >= t.cfg.n_c then invalid_arg "Runtime: C index";
    t.c_procs.(i)
  | Pid.S i ->
    if i < 0 || i >= t.cfg.n_s then invalid_arg "Runtime: S index";
    t.s_procs.(i)

let spent pid =
  invalid_arg
    ("Runtime: " ^ Pid.to_string pid ^ " was spent by a taken-back step")

(* A process whose code may still run: everything that would resume or
   start it refuses a spent one. Inlined, so that [step] pays a test and
   no call for it. *)
let[@inline] unspent t pid =
  let p = proc t pid in
  if p.spent then spent pid;
  p

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

(* Callers test [t.cfg.record_trace] first, so that a run that records no
   trace builds no event. *)
let record t p ev = Trace.record t.tr ~time:t.now ~pid:p.pid ev

(* The exact state key, kept up by [execute] on a runtime with a context
   attached and by nothing on one without. A process's history node grows
   one trie edge per executed operation: (kind and register, value id),
   the value being what was read, written or queried. A snapshot adds one
   edge per register it reads, and an empty snapshot one edge of its own,
   so that every executed operation moves the node. Process code
   is deterministic and reaches the world only through its effects, so a
   process's history node fixes its local state: which operation it issues
   next, its step count, whether it participates and whether it has
   returned. A decide ends that: the process never moves again, so its
   node gives way to its decision's value id, stored as [lnot vid] to keep
   it apart from every node. *)

let k_read = 1
and k_write = 2
and k_snapshot = 3
and k_query = 4
and k_yield = 5
and k_empty_snapshot = 6

let edge_op kind r = kind + (8 * r)

(* Value ids for the registers below [n] at least, taken from memory for
   those [mem_ids] did not cover yet: the array grows by doubling, up to
   the memory's size, so writes that each reach one register further cost
   amortized O(1). Registers from [Memory.extent] up were never written
   and hold [Value.unit]: no key needs them covered. *)
let cover t ks n =
  let have = Array.length t.mem_ids in
  if n > have then begin
    let mem = t.cfg.memory in
    let n = max n (min (Memory.size mem) (2 * have)) in
    let ids = Array.make n t.unit_id in
    Array.blit t.mem_ids 0 ids 0 have;
    for r = have to min n (Memory.extent mem) - 1 do
      ids.(r) <- Keys.intern ks (Memory.read mem r)
    done;
    t.mem_ids <- ids
  end

let mem_id t ks r =
  if r < Array.length t.mem_ids then t.mem_ids.(r)
  else if r >= Memory.extent t.cfg.memory then t.unit_id
  else begin
    cover t ks (r + 1);
    t.mem_ids.(r)
  end

let extend ks p kind r vid =
  p.node <- Keys.child ks p.node ~op:(edge_op kind r) ~vid

let attach t ks =
  let ran p = p.steps > 0 in
  if Array.exists ran t.c_procs || Array.exists ran t.s_procs then
    invalid_arg "Runtime.attach: an operation has already executed";
  t.keys <- Some ks;
  t.mem_ids <- [||];
  t.unit_id <- Keys.intern ks Value.unit

(* What [p]'s parked query returns if it executes now; [Value.unit] for
   any other operation, and for a C-process's query, which [execute]
   refuses. *)
let queried t p op =
  match (op, p.pid) with
  | K_query _, Pid.S i -> History.get t.cfg.history ~q:i ~time:t.now
  | _ -> Value.unit

(* What executing [op] as [p]'s step does to the key, [qv] being what
   [queried] samples: it extends [p]'s history node by the operation's
   edges, or replaces it by a decision, and, for a write, sets the
   register's value id. [execute] calls it as the operation runs, and
   [digest_after] calls it ahead of the step and takes it back, so a
   predicted key is built from the very edges the step adds. A C-process's
   query adds nothing: [execute] refuses it. *)
let advance t ks p op qv =
  match op with
  | K_read (r, _) -> extend ks p k_read r (mem_id t ks r)
  | K_write (r, v, _) ->
    let vid = Keys.intern ks v in
    cover t ks (r + 1);
    t.mem_ids.(r) <- vid;
    extend ks p k_write r vid
  | K_snapshot (rs, _) ->
    if Array.length rs = 0 then extend ks p k_empty_snapshot 0 0
    else
      for i = 0 to Array.length rs - 1 do
        extend ks p k_snapshot rs.(i) (mem_id t ks rs.(i))
      done
  | K_query _ -> (
    match p.pid with
    | Pid.C _ -> ()
    | Pid.S _ -> extend ks p k_query 0 (Keys.intern ks qv))
  | K_decide (v, _) -> p.node <- lnot (Keys.intern ks v)
  | K_yield _ -> extend ks p k_yield 0 0

(* Execute the pending operation of [p] at the current time, then resume the
   code until its next suspension point. One call = one (non-null) step.
   Beyond the effect's own round trip, an unkeyed step pays constant
   bookkeeping: it scans no processes, makes no polymorphic compare, and
   allocates only a process's first-step time, a decision and, when the
   run records its trace, the trace event. *)
let execute t (p : pstate) (op : pending) : unit =
  p.pending <- None;
  p.steps <- p.steps + 1;
  (match p.first_step with
  | None -> p.first_step <- Some t.now
  | Some _ -> ());
  let qv = queried t p op in
  (match t.keys with Some ks -> advance t ks p op qv | None -> ());
  (* The continuations below resume under the deep handler installed by
     [run_under] at process start: subsequent effects re-park in [p.pending],
     normal return / Halted land in that handler's retc/exnc. *)
  match op with
  | K_read (r, k) ->
    let v = Memory.read t.cfg.memory r in
    if t.cfg.record_trace then record t p (Trace.Read (r, v));
    Effect.Deep.continue k v
  | K_write (r, v, k) ->
    Memory.write t.cfg.memory r v;
    if t.cfg.record_trace then record t p (Trace.Write (r, v));
    Effect.Deep.continue k ()
  | K_snapshot (rs, k) ->
    let vs = Memory.read_many t.cfg.memory rs in
    if t.cfg.record_trace then record t p (Trace.Snapshot rs);
    Effect.Deep.continue k vs
  | K_query k -> (
    match p.pid with
    | Pid.C _ -> raise (Forbidden_query p.pid)
    | Pid.S _ ->
      if t.cfg.record_trace then record t p (Trace.Query qv);
      Effect.Deep.continue k qv)
  | K_decide (v, k) ->
    p.decided <- Some v;
    p.decide_at <- Some t.now;
    (match p.pid with
    | Pid.C _ -> t.c_decided <- t.c_decided + 1
    | Pid.S _ -> ());
    if t.cfg.record_trace then record t p (Trace.Decide v);
    Effect.Deep.discontinue k Halted
  | K_yield k -> Effect.Deep.continue k ()

(* ------------------------------------------------------------------ *)
(* Per-step footprints — the static face of the next step of each process,
   used by the exhaustive checker's independence relation. *)

type footprint =
  | F_local
  | F_read of Memory.reg array
  | F_write of Memory.reg
  | F_timedep

(* Is [p] an S-process crashed by now? Its step is then null. *)
let crashed t p =
  match p.pid with
  | Pid.S i -> Failure.crashed t.cfg.pattern ~time:t.now i
  | Pid.C _ -> false

let start_if_fresh (p : pstate) =
  if p.status = Fresh then begin
    p.status <- Runnable;
    run_under p p.code
  end

let peek t pid = start_if_fresh (unspent t pid)

(* Every step of [p] from now on is null: it has returned or decided, or
   it is an S-process crashed by now (crash-stop keeps it crashed). *)
let inert_p t p = p.status = Done || crashed t p
let inert t pid = inert_p t (proc t pid)

let footprint t pid =
  let p = unspent t pid in
  match pid with
  | _ when inert_p t p -> F_local
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
  let p = unspent t pid in
  p.scheds <- p.scheds + 1;
  t.steps_total <- t.steps_total + 1;
  if crashed t p then (if t.cfg.record_trace then record t p Trace.Null)
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
    | None -> if t.cfg.record_trace then record t p Trace.Null
  end;
  t.now <- t.now + 1

let discontinue op =
  let disc : type a. (a, unit) Effect.Deep.continuation -> unit =
   fun k -> Effect.Deep.discontinue k Halted
  in
  match op with
  | K_read (_, k) -> disc k
  | K_write (_, _, k) -> disc k
  | K_snapshot (_, k) -> disc k
  | K_query k -> disc k
  | K_decide (_, k) -> disc k
  | K_yield k -> disc k

(* Discontinue what [p] has parked, if anything: that lands in the
   handler, which marks it Done. *)
let discard p =
  match p.pending with
  | Some op ->
    p.pending <- None;
    discontinue op
  | None -> ()

(* Put a process whose code has run back to the start: it reads [Fresh]
   again, so its next step runs its code from the beginning. *)
let restart p =
  discard p;
  p.status <- Fresh

(* [start_if_fresh] for a step that will be taken back: a process whose
   code raises before its first operation is left [Fresh]. *)
let start_for_take_back p =
  try start_if_fresh p
  with e ->
    restart p;
    raise e

(* A step moves the clock, the step total, the trace and the stepping
   process's sched count; a step that executes something also moves the
   process's status, decision (and with a C-process's, the count of
   decided ones), step count, first-step and decide times and history
   node, and a write the register with its value id. [undo] puts each
   back. The continuation a real step parks cannot be put back, so it
   is discontinued: a process that had started is spent, and one that had
   not is restarted, having held no continuation before the step. A null
   step parks nothing and spends nothing. Refused for a C-process's parked
   query, whose step raises. *)
let with_step t pid f =
  let p = unspent t pid in
  match (p.pending, pid) with
  | Some (K_query _), Pid.C _ -> None
  | _ -> (
    let null = inert_p t p in
    let now = t.now and total = t.steps_total and len = Trace.length t.tr in
    let c_decided = t.c_decided in
    let status = p.status and decided = p.decided and steps = p.steps in
    let scheds = p.scheds and first_step = p.first_step in
    let decide_at = p.decide_at and node = p.node and ids = t.mem_ids in
    if not null then start_for_take_back p;
    let reg =
      match p.pending with Some (K_write (r, _, _)) when not null -> r | _ -> -1
    in
    let old = if reg >= 0 then Memory.read t.cfg.memory reg else Value.unit in
    let id = if reg >= 0 && reg < Array.length ids then ids.(reg) else 0 in
    let undo () =
      t.now <- now;
      t.steps_total <- total;
      Trace.truncate t.tr len;
      p.scheds <- scheds;
      if not null then begin
        (* [discard] leaves the process Done: restore its fields after. A
           started process is spent; a [Fresh] one is restarted, its status
           put back to [Fresh] *)
        discard p;
        p.spent <- status <> Fresh;
        p.status <- status;
        p.decided <- decided;
        t.c_decided <- c_decided;
        p.steps <- steps;
        p.first_step <- first_step;
        p.decide_at <- decide_at;
        p.node <- node;
        t.mem_ids <- ids;
        if reg >= 0 then begin
          Memory.write t.cfg.memory reg old;
          if reg < Array.length ids then ids.(reg) <- id
        end
      end
    in
    match
      step t pid;
      f ()
    with
    | v ->
      (* a reader that stepped [t] and did not take it back would leave
         that step in place *)
      let moved = t.now <> now + 1 || t.steps_total <> total + 1 in
      undo ();
      if moved then
        invalid_arg "Runtime.with_step: the reader moved the runtime";
      Some v
    | exception e ->
      undo ();
      raise e)

let with_null_step t pid f =
  if inert_p t (unspent t pid) then with_step t pid f else None

let destroy t =
  Array.iter discard t.c_procs;
  Array.iter discard t.s_procs

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
let decided_count t = t.c_decided
let all_c_done t = t.c_decided = t.cfg.n_c
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

(* The clock, the value ids of the registers up to the last one that does
   not hold [Value.unit] (every register past it does, so the ids below it
   fix the whole memory, and a block reserved but never written costs the
   key nothing), and per process whether it has started, whether it has
   been scheduled and its history node, or its decision's value id once it
   has decided: what determines the future, and the present as the
   checker reads it. A started process's node fixes
   whether it has returned, so its status needs no field of its own, and a
   step's key can be known before the step ([digest_after]). How often a
   process was scheduled is left out: a live process's count is fixed by
   its node, since each of its moves executes an operation, and an inert
   one's further moves are null and change nothing. Left out too, so that
   interleavings converging on one state key equal: a decided process's
   history (it never moves again), absolute event times and the trace. *)
let add_procs ks ps =
  for i = 0 to Array.length ps - 1 do
    let p = ps.(i) in
    if p.node < 0 then begin
      (* above every flag pair below (0-3), so a decision never reads as
         a node *)
      Keys.add ks 4;
      Keys.add ks (lnot p.node)
    end
    else begin
      let started = if p.status = Fresh then 0 else 1
      and scheduled = if p.scheds = 0 then 0 else 2 in
      Keys.add ks (scheduled + started);
      Keys.add ks p.node
    end
  done

let digest t =
  match t.keys with
  | None -> invalid_arg "Runtime.digest: no key context attached"
  | Some ks ->
    cover t ks (Memory.extent t.cfg.memory);
    let ids = t.mem_ids in
    let n = ref (Array.length ids) in
    while !n > 0 && ids.(!n - 1) = t.unit_id do
      decr n
    done;
    Keys.start ks;
    Keys.add ks t.now;
    Keys.add ks !n;
    for r = 0 to !n - 1 do
      Keys.add ks ids.(r)
    done;
    add_procs ks t.c_procs;
    add_procs ks t.s_procs;
    Keys.finish ks

(* Puts back what [digest_after] moved: the clock, [p]'s sched count and
   history node (or the decision a decide step set there), the value id of
   the register [reg] a write sets, and, when [fresh], the start of [p]'s
   code. *)
let take_back t p ~fresh ~now ~scheds ~node ~reg ~id =
  t.now <- now;
  p.scheds <- scheds;
  p.node <- node;
  if reg >= 0 then t.mem_ids.(reg) <- id;
  if fresh then restart p

(* The step's own changes to the key, made on [t] and taken back: a live
   parked operation's edges and register write are applied by [advance],
   as [execute] applies them, the clock and [pid]'s sched count move on,
   and [digest] writes the key. A [Fresh] process the step would start is
   run to its first operation first, as the step runs it, and restarted
   after. *)
let digest_after t pid =
  let ks =
    match t.keys with
    | None -> invalid_arg "Runtime.digest_after: no key context attached"
    | Some ks -> ks
  in
  let p = unspent t pid in
  let crashed = crashed t p in
  let fresh = p.status = Fresh && not crashed in
  if fresh then start_for_take_back p;
  let op = if crashed then None else p.pending in
  match (op, pid) with
  | Some (K_query _), Pid.C _ ->
    if fresh then restart p;
    None
  | _ -> (
    let reg = match op with Some (K_write (r, _, _)) -> r | _ -> -1 in
    let id = if reg >= 0 then mem_id t ks reg else 0 in
    let now = t.now and scheds = p.scheds and node = p.node in
    match
      (match op with
      | Some op -> advance t ks p op (queried t p op)
      | None -> ());
      t.now <- now + 1;
      p.scheds <- scheds + 1;
      digest t
    with
    | key ->
      take_back t p ~fresh ~now ~scheds ~node ~reg ~id;
      Some key
    | exception e ->
      take_back t p ~fresh ~now ~scheds ~node ~reg ~id;
      raise e)
