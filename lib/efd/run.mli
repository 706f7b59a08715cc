(** The EFD run harness: wires a task, an algorithm, a failure detector
    history, a failure pattern and a schedule into one run, and reports the
    finite-run verdicts (task satisfaction, wait-freedom, concurrency). *)

module Vectors = Tasklib.Vectors

type policy_factory =
  participants:Simkit.Pid.t list ->
  n_c:int ->
  n_s:int ->
  rng:Random.State.t ->
  Simkit.Schedule.t
(** Builds the schedule policy for a run; only listed C-processes (the
    participants of the chosen input vector) may be scheduled. *)

val fair_policy : policy_factory
(** Shuffled rounds over participants and all S-processes. *)

val k_concurrent_policy : int -> policy_factory
(** The §2.2 arrival controller at concurrency [k]; arrival order is a
    seeded shuffle of the participants; round-based (near-lockstep). *)

val k_concurrent_uniform_policy : int -> policy_factory
(** Same controller, uniform-random step choice — the adversarial flavour
    that can stall admitted processes arbitrarily long. *)

type report = {
  r_outcome : Simkit.Schedule.outcome;
  r_input : Vectors.t;  (** restricted to processes that actually ran *)
  r_output : Vectors.t;
  r_task_ok : bool;
  r_wait_free : bool;
  r_max_conc : int;
  r_min_s_scheds : int;
  r_steps : int;
  r_trace : Simkit.Trace.t option;  (** when [record_trace] was set *)
}

val ok : report -> bool
(** Task satisfied, wait-freedom respected, and every participant decided. *)

type violation = Task_violation | Undecided | Not_wait_free
(** Why a report is not {!ok}, in checking order: the task relation is
    violated; some participant never decided; wait-freedom is violated. *)

val violation_of_report : report -> violation option
(** [None] iff {!ok}. The shrinker keys on this: a candidate reduction is
    kept only if it reproduces the {e same} violation kind. *)

val violation_desc : violation -> string
(** Human-readable one-liner (stable; used in witness descriptions and
    event payloads). *)

val pp_report : Format.formatter -> report -> unit

exception Cancelled
(** Raised out of {!execute} when its [?cancel] hook returns [true]; a
    cancelled run never returns a report (the runtime is destroyed
    first). *)

val execute :
  ?budget:int ->
  ?min_scheds:int ->
  ?record_trace:bool ->
  ?policy:policy_factory ->
  ?cancel:(unit -> bool) ->
  task:Tasklib.Task.t ->
  algo:Algorithm.t ->
  fd:Fdlib.Fd.t ->
  pattern:Simkit.Failure.pattern ->
  input:Vectors.t ->
  seed:int ->
  unit ->
  report
(** One run. [seed] determines the failure-detector history draw and the
    schedule randomness. [budget] (default 400_000) bounds total steps;
    [min_scheds] (default 2_000) is the wait-freedom threshold: a
    participant scheduled at least that often must have decided.
    [?cancel] is polled once per scheduling step; the step after it first
    returns [true], the run raises {!Cancelled} — the cooperative hook the
    service layer's deadlines use. With [record_trace] (default [false])
    the report's [r_trace] holds the run's recorded trace, from which
    {!Simkit.Trace.to_events} gives its per-step events. *)

val labels : task:Tasklib.Task.t -> algo:Algorithm.t -> fd:Fdlib.Fd.t ->
  seed:int -> (string * string) list
(** The canonical label set tagging one run: task, algo, fd, seed. *)

val report_json : ?labels:(string * string) list -> report -> Obs.Json.t
(** The report's machine-readable face (verdicts, steps, concurrency;
    input/output rendered as strings), tagged with [?labels] — pair with
    {!labels} for the standard tagging. *)

type sweep = { total : int; passed : int; failures : string list }

val pp_sweep : Format.formatter -> sweep -> unit

val sweep :
  ?budget:int ->
  ?policy:policy_factory ->
  ?min_participants:int ->
  task:Tasklib.Task.t ->
  algo:Algorithm.t ->
  fd:Fdlib.Fd.t ->
  env:Simkit.Failure.env ->
  seeds:int list ->
  unit ->
  sweep
(** One run per seed: sample a pattern from [env], an input prefix of the
    task, and drive with [policy] (default {!fair_policy}). *)
