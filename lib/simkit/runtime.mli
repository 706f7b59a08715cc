(** The EFD runtime: a deterministic cooperative scheduler for one run.

    A run executes the automata of [n_c] C-processes and [n_s] S-processes
    against a shared {!Memory.t}, a {!Failure.pattern} and a failure-detector
    {!History.t}. Process code is ordinary OCaml written in direct style;
    every shared-memory access, failure-detector query and decision is an
    OCaml effect and costs exactly one step. The schedule (who steps next) is
    driven externally via {!step}, so runs are fully deterministic given
    (codes, schedule, history, inputs) — a property the paper's Figure-1
    local simulations rely on.

    Semantics, following §2.1 of the paper:
    - time is the global step index, advanced by every {!step} call;
    - scheduling an S-process [q_i] at a time [τ] with [q_i ∈ F(τ)] is a
      null step (crashed processes take no steps);
    - a C-process that has decided takes only null steps afterwards;
    - only S-processes may query the failure detector;
    - runtimes are first-class and reentrant: process code of an outer run
      may construct and drive an inner runtime as local computation. *)

type t

exception Halted
(** Raised into a process continuation to terminate it (after a decision, or
    at teardown). Process code must not catch it. *)

exception Forbidden_query of Pid.t
(** A C-process attempted a failure-detector query. *)

(** Operations available inside process code. Each call suspends the process
    until its next scheduled step, at which point the operation takes effect
    atomically. *)
module Op : sig
  val read : Memory.reg -> Value.t
  val write : Memory.reg -> Value.t -> unit

  val snapshot : Memory.reg array -> Value.t array
  (** Atomic multi-register read, provided as a primitive (one step).
      Implementable wait-free from registers — see {!Snapshot} for the
      honest construction; algorithms may use either. *)

  val query : unit -> Value.t
  (** Failure-detector query; S-processes only. *)

  val decide : Value.t -> unit
  (** Record the decision and terminate: all later steps are null. The
      decision becomes visible when the step executes. *)

  val yield : unit -> unit
  (** A null step (state transition without memory access). *)
end

type status =
  | Fresh  (** has not taken a step yet *)
  | Runnable  (** mid-execution, has a pending operation *)
  | Done  (** returned or decided *)

type config = {
  n_c : int;
  n_s : int;
  memory : Memory.t;
  pattern : Failure.pattern;
  history : History.t;
  record_trace : bool;
}

(** {1 Instrumentation}

    An optional observation hook, threaded through every run. With no hook
    installed the only cost is one [option] match per step — the bench
    suite guards that the disabled path stays at pre-instrumentation
    throughput. Hooks must not step the runtime reentrantly. *)

type obs = {
  on_sched : Pid.t -> time:int -> unit;
      (** every {!step} call, before it executes (null steps included) *)
  on_event : Pid.t -> time:int -> Trace.event -> unit;
      (** every executed operation, decision, and null step — exactly the
          occurrences a recorded {!Trace} holds, in the same encoding as
          {!Trace.event_to_obs}, whether or not tracing is on *)
}

val obs_events : Obs.Sink.t -> obs
(** Emit each executed operation as a structured event. On the same run,
    the stream equals [Trace.to_events (trace rt)] of a recorded trace. *)

val obs_counters : Obs.Metrics.registry -> obs
(** Count scheds and executed operations by kind into the registry
    (counters [runtime.scheds], [runtime.reads], [runtime.writes],
    [runtime.snapshots], [runtime.queries], [runtime.decides],
    [runtime.nulls]). *)

val obs_merge : obs list -> obs
(** Fan one hook slot out to several hooks, in order. *)

val create :
  ?obs:obs ->
  config ->
  c_code:(int -> unit -> unit) ->
  s_code:(int -> unit -> unit) ->
  t
(** [create cfg ~c_code ~s_code]: [c_code i] (resp. [s_code i]) is the
    automaton of [p_i] (resp. [q_i]); it is not started until the process is
    first scheduled. [?obs] installs an instrumentation hook for this run;
    omitted, instrumentation is disabled at zero cost. *)

val step : t -> Pid.t -> unit
(** Execute one step of the given process (null if crashed / done) and
    advance time. *)

val with_null_step : t -> Pid.t -> (unit -> 'a) -> 'a option
(** [with_null_step t pid f] takes [pid]'s next step, runs [f] on the state
    it reaches, then takes the step back: [Some (f ())]. It applies only
    when that step executes nothing — [pid] is [Done], or is an S-process
    crashed by [time t] — so the step changes only {!time}, [pid]'s
    {!sched_count}, {!steps_total} and the trace, and those four are
    restored even if [f] raises. Inside [f] the runtime is exactly the one
    [step t pid] reaches ({!digest} included). Returns [None] and leaves
    [t] untouched for a [Fresh] process (starting its code cannot be
    undone), for a live process with a parked operation (the step would
    execute it), and on a runtime created with [?obs] (the hook would
    already have been told). [f] must leave [t] as it found it. *)

(** {1 Step footprints}

    The shared-state face of a process's {e next} step, knowable without
    executing it: a parked operation names its registers up front, and a
    process's own pending operation cannot be changed by other processes'
    steps. This is what makes the relation below stable enough for the
    exhaustive checker's partial-order reduction ({!Exhaustive}). *)

type footprint =
  | F_local
      (** touches no shared state and is time-insensitive: a null step
          (done, returned, or crashed-forever), [yield], or [decide]
          (which writes only process-local state) *)
  | F_read of Memory.reg array  (** [read] (one register) or [snapshot] *)
  | F_write of Memory.reg
  | F_timedep
      (** effect depends on the global time of execution: an FD [query]
          (the history is sampled at the step's time), or any step of a
          live S-process that crashes later in the pattern *)

val footprint : t -> Pid.t -> footprint
(** Footprint of the process's next step. Forces a [Fresh] process to its
    first suspension point (the behaviour-neutral prefix of its first
    {!step}: pure local computation only, no operation executes and
    {!participating}/{!steps_taken} are unchanged — but {!status} moves off
    [Fresh], so callers keying states with {!digest} must call it at
    consistent points; see {!peek}). *)

val peek : t -> Pid.t -> unit
(** Force a [Fresh] process to its first suspension point without executing
    anything (no-op otherwise) — what {!footprint} does on the way to the
    parked operation, exposed so a checker replaying a prefix can restore
    the same peeked-everywhere state shape before comparing digests. *)

val commute : footprint -> footprint -> bool
(** Do steps with these footprints commute? [F_local] commutes with
    everything except [F_timedep]; reads commute with reads; register
    operations commute iff their footprints are disjoint; [F_timedep]
    commutes with nothing (every step advances the clock, so reordering
    moves a time-dependent effect). Sound, not complete: two writes of the
    same value are declared dependent. *)

val independent : t -> Pid.t -> Pid.t -> bool
(** [independent t p q]: are the next steps of two {e distinct} processes
    independent at the current state — i.e. do they {!commute}, so both
    execution orders reach {!digest}-equal states? [false] if [p = q]. *)

val destroy : t -> unit
(** Discontinue all parked process continuations (releases fibers). The
    runtime remains observable but no longer steppable. *)

(** {1 Observers} *)

val time : t -> int
val n_c : t -> int
val n_s : t -> int
val memory : t -> Memory.t
val pattern : t -> Failure.pattern
val status : t -> Pid.t -> status
val decision : t -> int -> Value.t option
(** Decision of C-process [p_i], if any. *)

val decisions : t -> Value.t option array
val all_c_done : t -> bool
val participating : t -> int -> bool
(** Has C-process [p_i] executed at least one operation? Null steps (a
    scheduled process whose code performs no operation) do not count. *)

val undecided_participants : t -> int list
(** C-process indices that participate but have not decided. *)

val steps_taken : t -> Pid.t -> int
(** Number of non-null steps. *)

val sched_count : t -> Pid.t -> int
(** Number of times the process was scheduled (incl. null steps). *)

val first_step_time : t -> int -> int option
val decide_time : t -> int -> int option
val trace : t -> Trace.t

val steps_total : t -> int
(** Total number of {!step} calls on this runtime (incl. null steps) — the
    work counter used by the exhaustive checker's statistics. *)

(** {1 Exact state keys} *)

val attach : t -> Keys.t -> unit
(** [attach t keys]: from now on [t] keeps its state key in [keys], and
    {!digest} reads it. Each executed operation then extends its process's
    history node and, on a write, the register's value id; a runtime with
    no context attached does none of this work. Attaching again replaces
    the context. Raises [Invalid_argument] once any operation has executed
    on [t] (peeks and null steps do not count): the history before it
    would be missing from the key. After attaching, the memory must change
    only through [t]'s own steps. *)

val digest : t -> string
(** The exact state key over the attached context: the clock, the value
    id of every register, and per process its status, sched count and
    history node (its executed operations with their results). Process
    code is deterministic, so two runtimes of the same builder whose keys
    are equal are in the same state, up to absolute event times
    ({!first_step_time}, {!decide_time}) and the trace, which are left out
    so that interleavings converging on one state key equal; they behave
    identically under any common schedule suffix. The key is exact: no
    hash stands in for any part of the state, so equal keys never come
    from different states (different histories that happen to reach one
    local state do key differently). Keys compare only between runtimes
    attached to one context, whose ids they are written in. Raises
    [Invalid_argument] on a runtime with no context attached. *)
