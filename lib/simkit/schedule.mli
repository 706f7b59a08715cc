(** Schedule policies: who takes the next step.

    A policy inspects the runtime (time, statuses, decisions) and names the
    next process to step, or [None] to end the run early. Policies are
    stateful values — create a fresh one per run. Fair policies guarantee
    that every process (in particular every correct S-process) is scheduled
    at least once in every window of bounded length, which is the finite
    counterpart of the paper's fair runs. *)

type t = { policy_name : string; next : Runtime.t -> Pid.t option }

val round_robin : n_c:int -> n_s:int -> t
(** p_0 … p_{n_c-1} q_0 … q_{n_s-1}, repeated. Fair. *)

val shuffled_rounds : ?only:Pid.t list -> n_c:int -> n_s:int -> Random.State.t -> t
(** Repeats independent random permutations of all processes (or of [only]).
    Fair within each round. Each round is a Fisher-Yates shuffle of the base
    order, drawing [Random.State.int] once per position from the last down
    to the second, so a seed fixes the pid sequence. The rounds are
    permuted in an array made once, so a step allocates nothing. *)

val explicit : Pid.t list -> t
(** Follow the list, then stop. *)

val explicit_looping : Pid.t list -> t
(** Follow the list, repeated forever. Fair w.r.t. the listed processes. *)

val seq : t -> steps:int -> t -> t
(** [seq a ~steps b]: policy [a] for [steps] scheduling decisions, then [b]. *)

val filtered : (Runtime.t -> Pid.t -> bool) -> t -> t
(** Skip (re-draw) choices rejected by the predicate, up to a bounded number
    of re-draws per step; stops if the underlying policy stops. *)

val starve : Pid.t list -> until:int -> t -> t
(** Adversary: never schedule the given processes before time [until]. *)

val k_concurrent :
  ?mode:[ `Rounds | `Uniform ] ->
  k:int -> arrival:int list -> n_s:int -> Random.State.t -> t
(** Arrival controller producing k-concurrent runs (§2.2): C-processes are
    admitted in [arrival] order with at most [k] undecided participants at
    any time; a new process is admitted when an admitted one decides.
    [arrival] lists C-process indices; C-processes not listed never run.
    [`Rounds] (default) schedules S-processes and admitted C-processes in
    shuffled rounds (everyone moves in near-lockstep); [`Uniform] picks one
    uniformly at random per step — still fair in expectation, but allows
    the long stalls adversarial witnesses need. *)

val c_solo : int -> t
(** Only C-process [p_i], forever (solo run). *)

val s_first : n_c:int -> n_s:int -> s_steps:int -> Random.State.t -> t
(** Adversary flavour: S-processes only for [s_steps] steps, then shuffled
    rounds of everyone. *)

(** {1 Symmetry over interchangeable processes}

    Pure utilities over schedules-as-pid-lists, used by the exhaustive
    checker's symmetry reduction ({!Exhaustive}) and by the tests that
    validate its orbit accounting by enumeration. A {e symmetry class} is a
    list of pids declared interchangeable (same code, same input, no
    pid-dependent failure or FD behaviour); classes must be disjoint. *)

val canonicalize : classes:Pid.t list list -> Pid.t list -> Pid.t list
(** Orbit representative of a schedule under renaming within each class:
    class members are relabelled so that, per class, they first appear in
    class order. Idempotent; pids outside every class are untouched. *)

val orbit_size : classes:Pid.t list list -> Pid.t list -> int
(** Number of schedules in the orbit of the given schedule under renaming
    within each class: the product over classes of m!/(m-k)! where [m] is
    the class size and [k] the number of distinct class members the
    schedule touches. *)

(** {1 Driving a run} *)

type outcome = {
  total_steps : int;  (** scheduling decisions executed *)
  all_decided : bool;
  out_decisions : Value.t option array;
  exhausted : bool;  (** stopped because the budget ran out *)
}

val run : ?stop_when:(Runtime.t -> bool) -> Runtime.t -> t -> budget:int -> outcome
(** Drive the runtime with the policy until every C-process has decided,
    [stop_when] holds, the policy stops, or [budget] steps have executed.
    Does not destroy the runtime (callers may inspect then
    {!Runtime.destroy} it). *)
