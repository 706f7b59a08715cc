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

val create :
  config -> c_code:(int -> unit -> unit) -> s_code:(int -> unit -> unit) -> t
(** [create cfg ~c_code ~s_code]: [c_code i] (resp. [s_code i]) is the
    automaton of [p_i] (resp. [q_i]); it is not started until the process is
    first scheduled. With [cfg.record_trace] the run records in its
    {!trace} every step that has a {!Trace.event} (all but a [yield]): the
    one place its per-step events are read from ({!Trace.to_events},
    {!Trace.emit}). Without it a step builds no event. *)

val step : t -> Pid.t -> unit
(** Execute one step of the given process (null if crashed / done) and
    advance time. Raises [Invalid_argument] for a process {!with_step}
    spent. *)

val with_step : t -> Pid.t -> (unit -> 'a) -> 'a option
(** [with_step t pid f] takes [pid]'s next step, runs [f] on the state it
    reaches, then takes the step back: [Some (f ())]. Inside [f] the
    runtime is exactly the one [step t pid] reaches ({!digest} included).
    [f] must leave it as it found it: it may take steps that it takes back
    (nested [with_step]s), and [Invalid_argument] is raised once it
    returns if it left the clock moved. Afterwards, even if the step or
    [f] raised, every observable field is as before the step: {!time},
    {!steps_total}, the trace, [pid]'s {!status}, decision,
    {!steps_taken}, {!first_step_time}, {!decide_time}, {!sched_count} and
    history node, {!decided_count} and {!all_c_done}, and the register a
    write wrote, with its value id.

    A {e null} step ([pid] is {!inert}) executes nothing and spends
    nothing. A {e real} step executes [pid]'s parked operation (a [Fresh]
    process first starts its code) and resumes its code up to its next
    operation, which is parked in a new continuation. Continuations are
    one-shot, so that one is discontinued. A process that had started is
    then left {e spent}: it reads as before the step, but {!step},
    {!peek}, {!footprint}, {!digest_after}, [with_step] and
    {!with_null_step} raise [Invalid_argument] on it, and {!destroy}
    skips it. A [Fresh] process held no continuation, only its code, so it
    is {e restarted} instead: it is [Fresh] again, unspent, and its next
    step runs its code from the beginning, reaching what that step would
    have reached without the take-back. The other processes step as
    before.

    Returns [None] and leaves [t] untouched for a C-process parked on a
    query (its step raises {!Forbidden_query}). A [Fresh] C-process whose
    first operation is a query raises it, as {!step} does, and so does a
    [Fresh] process whose code raises before its first operation; either
    is left [Fresh] and unspent. Process code must reach the world only
    through its operations: anything else it changes during a real step
    (an OCaml value outside the runtime, a register it allocates) stays
    changed, and a restarted process's code runs again from the start on
    its next step. *)

val with_null_step : t -> Pid.t -> (unit -> 'a) -> 'a option
(** {!with_step} when [pid] is {!inert}, so that the step spends nothing;
    [None], with [t] untouched, otherwise. *)

val inert : t -> Pid.t -> bool
(** Every step of [pid] from {!time} on is null: it is [Done], or it is an
    S-process crashed by now (crash-stop keeps it crashed, and its code
    never starts or resumes). *)

(** {1 Step footprints}

    The shared-state face of a process's {e next} step, knowable without
    executing it: a parked operation names its registers up front, and a
    process's own pending operation cannot be changed by other processes'
    steps. This is what makes the relation below stable enough for the
    exhaustive checker's partial-order reduction ({!Exhaustive}). *)

type footprint =
  | F_local
      (** touches no shared state and is time-insensitive: a null step
          ({!inert}: done, returned, or crashed-forever, whether or not
          the pattern crashes it later), [yield], or [decide] (which
          writes only process-local state) *)
  | F_read of Memory.reg array  (** [read] (one register) or [snapshot] *)
  | F_write of Memory.reg
  | F_timedep
      (** effect depends on the global time of execution: an FD [query]
          (the history is sampled at the step's time), or any step of a
          live (not finished) S-process that crashes later in the
          pattern *)

val footprint : t -> Pid.t -> footprint
(** Footprint of the process's next step. Forces a [Fresh] process to its
    first suspension point (the behaviour-neutral prefix of its first
    {!step}: pure local computation only, no operation executes and
    {!participating}/{!steps_taken} are unchanged — but {!status} moves off
    [Fresh], so callers keying states with {!digest} must call it at
    consistent points; see {!peek}). An {!inert} process is [F_local]
    without being forced. Raises [Invalid_argument] for a spent process
    ({!with_step}). *)

val peek : t -> Pid.t -> unit
(** Force a [Fresh] process to its first suspension point without executing
    anything (no-op otherwise) — what {!footprint} does on the way to the
    parked operation, exposed so a checker replaying a prefix can restore
    the same peeked-everywhere state shape before comparing digests.
    Raises [Invalid_argument] for a spent process ({!with_step}). *)

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
(** Discontinue all parked process continuations (releases fibers); a
    process spent by {!with_step} has none left. The runtime remains
    observable but no longer steppable. *)

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

val decided_count : t -> int
(** The number of C-processes that have decided. The runtime keeps it as
    they decide, so reading it costs O(1); {!with_step} puts it back with
    the decision it takes back. *)

val all_c_done : t -> bool
(** Every C-process has decided: {!decided_count} is {!n_c}. O(1), so a
    run loop may test it on every step. *)

val participating : t -> int -> bool
(** Has C-process [p_i] executed at least one operation? Null steps (a
    scheduled process whose code performs no operation) do not count. *)

val undecided_participants : t -> int list
(** C-process indices that participate but have not decided. *)

val steps_taken : t -> Pid.t -> int
(** Number of non-null steps. The state key ({!digest}) holds it for a
    process that has not decided (its history node fixes it) and not for
    one that has. *)

val sched_count : t -> Pid.t -> int
(** Number of times the process was scheduled (incl. null steps). The
    state key ({!digest}) holds only whether it is zero. *)

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
    ids of the registers up to the last that does not hold [Value.unit]
    (every register past it does, so a block reserved but never written
    costs the key nothing, and the key's length follows what a run wrote,
    not {!Memory.size}), and per process whether it has started (left
    [Fresh]: scheduled or {!peek}ed), whether it has been scheduled at all
    and its history node (its executed operations with their results); a
    process that has decided gives its decision's value id in place of
    all three. A started process's node fixes whether it has returned, so
    its status needs no field of its own. Left out, so that interleavings
    converging on one state key equal: how often a process was scheduled
    (a live process's node fixes it, since each of its moves executes an
    operation, and an inert one's further moves are null), a decided
    process's history and step count (it never moves again), absolute
    event times ({!first_step_time}, {!decide_time}) and the trace.
    Process code is deterministic, so two runtimes of the same builder
    whose keys are equal are in the same state up to those; they behave
    identically under any common schedule suffix. The key is exact: no
    hash stands in for any part of the state, so equal keys never come
    from states that differ in what the key holds (different histories
    that happen to reach one local state do key differently, until the
    process decides). Keys compare only between runtimes attached to one
    context, whose ids they are written in. Raises [Invalid_argument] on
    a runtime with no context attached. *)

val digest_after : t -> Pid.t -> string option
(** [digest_after t pid]: the key {!digest} gives after [step t pid],
    computed without taking the step. The step's key changes are made on
    [t] by the function the step itself uses to make them, the key is
    written by {!digest}, and the changes are taken back, so [t] is left
    as it was (save that the context may already hold the history node and
    value id the step would create). A null move ([pid] is [Done], or an
    S-process crashed by [time t]) keeps its node, and a parked operation
    adds its edges (a query samples the history at [time t], as the step
    would), or, for a decide, puts the decision in place of the node, as
    the step does. A [Fresh] process's code is first run to its first
    operation, as the step runs it, and the process is restarted
    afterwards as {!with_step} restarts it: it is left [Fresh] and
    unspent, even when its code raises (the exception is raised here, as
    the step raises it). [None] only for a C-process whose next operation
    is a query, whose step raises {!Forbidden_query}. Raises
    [Invalid_argument] on a runtime with no context attached, and for a
    spent process ({!with_step}). *)
