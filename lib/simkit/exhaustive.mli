(** Exhaustive schedule enumeration — model checking in miniature.

    For small systems and short horizons the sampled adversaries of
    {!Schedule} can be replaced by full enumeration: every schedule over the
    given processes up to a depth is executed (runs are deterministic, so the
    enumeration is exact) and a property is checked at every prefix or at
    full depth. A returned counterexample is a concrete schedule, directly
    replayable with {!replay_ok}.

    One incremental DFS does all the searching: {!run} runs it from the
    root, {!split} runs it to a shallow frontier and emits the nodes there
    as jobs, and {!run_subtree} runs it below one such job. One live
    runtime is kept per DFS path, so descending costs one step per node. A
    child whose move is null (its process has decided, finished or
    crashed) is read on its parent's runtime and the move taken back
    ({!Runtime.with_null_step}), so a leaf, a memo hit, a frontier job or a
    violation there needs no runtime of its own. The runtime is rebuilt and
    the prefix replayed only when a child that must be expanded finds the
    live runtime moved on (effect continuations cannot be cloned). A memo
    over exact state keys ({!Runtime.digest}) prunes converging
    interleavings while keeping the reported schedule count exact, and
    optional reduction layers prune further on the same terms. {!stats}
    makes the saved work observable. More cores are used by running
    {!split}'s jobs on several processes (the [subtree] service verb).

    Cost before pruning is |pids|^depth schedules: keep |pids| ≤ 4 and
    depth ≤ 12 or so. Used to verify the agreement primitives (safe
    agreement, commit–adopt, adoption set-agreement) against {e all}
    interleavings rather than sampled ones. Every entry point raises
    [Invalid_argument] before any step when |pids|^depth exceeds
    [max_int], the largest count a verdict can credit, and when sleep
    reduction is on over more than [Sys.int_size] pids, the widest sleep
    mask an [int] holds.

    Soundness requirements on the inputs (all hold for the usual
    fresh-memory/fresh-algorithm builders):
    - [build] must be deterministic and return independent runtimes on
      which no operation has executed yet: with the memo on, the engine
      attaches its table's key context ({!Runtime.attach}) to each one;
    - with the memo enabled, [prop] must be a function of the reached state
      as captured by {!Runtime.digest} (memory, statuses, decisions, per
      process observations) — not of absolute event times or the trace;
    - [prop] may be evaluated on a child before that child's turn in DFS
      order (on its parent's runtime, with the child's null move taken and
      then taken back), so it must have no side effects that matter. *)

type verdict =
  | Ok of int  (** number of complete schedules accounted for *)
  | Counterexample of Pid.t list

type mode =
  | Every  (** the property must hold after every step of every schedule *)
  | Final  (** the property is only required at full depth *)

type stats = {
  nodes : int;  (** DFS nodes visited (memo-skipped subtrees excluded) *)
  steps_executed : int;
      (** total {!Runtime.step} calls: replays and the null moves taken and
          taken back to read a child on its parent's runtime included *)
  replays : int;
      (** rebuild-and-replay events (a child to expand whose parent's
          runtime has moved on / baseline runs) *)
  runtimes_built : int;  (** calls to [build] *)
  memo_hits : int;  (** subtrees skipped via the state-key memo *)
  sleep_pruned : int;
      (** subtrees skipped (and credited) by sleep-set partial-order
          reduction; [0] unless {!run} is given [~reduce] with [sleep] *)
  orbits_collapsed : int;
      (** children skipped as non-canonical renamings of an explored class
          member; [0] unless [~reduce] declares symmetry classes *)
  wall_s : float;  (** elapsed seconds ({!Obs.Clock}, monotonic) for the check *)
}

val pp_stats : Format.formatter -> stats -> unit

val stats_json : stats -> Obs.Json.t
(** The record as a JSON object, field names as above. *)

val stats_of_json : Obs.Json.t -> (stats, string) result
(** Inverse of {!stats_json} — how a coordinator reads a remote worker's
    stats back off the wire. *)

val zero_stats : stats
(** All-zero counters, [0.] wall time: the identity of {!merge_stats}. *)

val merge_stats : stats -> stats -> stats
(** Fieldwise sum ([wall_s] included — merged wall time is total CPU-side
    work, not elapsed time). Associative and commutative with identity
    {!zero_stats} (integer fields exactly; [wall_s] up to float
    associativity), so partial results from subtree workers can be folded
    in any order. *)

val merge_verdicts : pids:Pid.t list -> verdict -> verdict -> verdict
(** The verdict monoid for partitioned runs: [Ok m] + [Ok n] = [Ok (m + n)]
    (credited counts are exact, so they add); any counterexample beats [Ok];
    of two counterexamples the lexicographically least survives (schedule
    order = position order in [pids]; a strict prefix orders first).
    Associative and commutative, and — because {!split} emits jobs in DFS
    (= lex) order and each job reports its own lex-least violation — folding
    over any permutation of a frontier's results reproduces the whole-tree
    search's counterexample. *)

val record_stats : ?labels:(string * string) list -> Obs.Metrics.registry -> stats -> unit
(** Export into a metric registry: counters [exhaustive.nodes],
    [exhaustive.steps_executed], [exhaustive.replays],
    [exhaustive.runtimes_built], [exhaustive.memo_hits] (incremented, so
    repeated checks accumulate) and gauge [exhaustive.wall_s], all under
    [?labels]. *)

(** {1 Sound state-space reduction}

    Optional pruning layers for {!run}, {!split} and {!run_subtree},
    composing with the memo. Both are {e credited}: a pruned subtree's
    complete schedules are added to the count, so verdicts — including
    exact counts and the identity of the first counterexample (DFS order is
    lexicographic, and the lex-least violating schedule is never pruned) —
    match the unreduced search. *)

type reduction = {
  sleep : bool;
      (** sleep-set partial-order reduction over the step-footprint
          independence relation ({!Runtime.footprint}): of two adjacent
          independent steps, orders that differ only by commuting them are
          explored once *)
  symmetry : Pid.t list list;
      (** disjoint classes of interchangeable pids: same code, same input,
          and crash/FD behaviour invariant under renaming within the class
          (e.g. idle S-processes under a symmetric failure pattern and
          {!History.trivial}). One schedule per renaming orbit is explored
          and credited with the orbit size. [prop] must be invariant under
          renaming within each class. *)
}

val no_reduction : reduction
(** [{ sleep = false; symmetry = [] }], the default: the trivial context.
    It prunes nothing and never peeks, so the search executes exactly the
    steps of the plain schedules. *)

exception Cancelled
(** Raised by {!run} when its [?cancel] hook fired: the search was
    abandoned mid-enumeration, so {e no} verdict — not even a partial
    count — is reported. Re-running the same configuration without
    [?cancel] reproduces the full deterministic verdict. *)

val run :
  ?memo:bool ->
  ?mode:mode ->
  ?reduce:reduction ->
  ?cancel:(unit -> bool) ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  unit ->
  verdict * stats
(** The incremental engine over the whole tree. [?cancel] (default never)
    is a cooperative cancellation hook polled once per DFS child: the
    moment it returns [true] the run raises {!Cancelled} instead of
    returning — the hook the service layer uses for per-request deadlines.
    A counterexample is the lex-least violating schedule (DFS order).
    [?memo] (default [true]) enables the state-key memo. [?reduce]
    (default {!no_reduction}) enables the reduction layers above; reduction
    forces every process to its first suspension point eagerly
    ({!Runtime.peek}), so [prop] must additionally not distinguish a
    [Fresh] process from a peeked one (true of properties over memory,
    decisions and participation).
    Verdicts (including exact schedule counts) are identical to
    {!run_replay} under the soundness requirements above. *)

(** {1 Frontier splitting — distributing the search}

    {!split} runs the search only to a shallow [split_depth] and emits every
    frontier node as a self-contained {!subtree} job carrying the schedule
    prefix plus the exact reduction context (sleep mask, orbit-multiplier
    product, per-class used counts) the whole-tree search holds when it
    enters that node. {!run_subtree} — typically on another process, via the
    [subtree] service verb — re-enters the same search from that context.
    {!merge_frontier} folds the job results (in any order) with the
    splitter's own result and reproduces {!run}'s verdict and exact
    credited schedule count. It is the same traversal cut at the frontier:
    with the memo off, splitter plus job [nodes], [sleep_pruned] and
    [orbits_collapsed] equal {!run}'s. Jobs replay their prefixes, so steps
    and builds exceed it. With the memo on, [memo_hits] and [nodes] differ
    too, by how much the jobs' memo {!table}s held (a private table per job
    by default). *)

type subtree = {
  sj_id : int;
      (** frontier position in DFS (= lex) order — the dedup key for
          first-result-wins re-dispatch *)
  sj_prefix : Pid.t list;  (** the schedule prefix, length [split_depth] *)
  sj_sleep : Pid.t list;
      (** pids asleep at the frontier node ([[]] unless sleep reduction) *)
  sj_factor : int;  (** orbit-multiplier product along the prefix *)
  sj_used : int list;
      (** per-symmetry-class used-member counts at the frontier node, in
          class declaration order ([[]] when no classes) *)
}

type split_result = {
  fr_jobs : subtree list;  (** in DFS order; [sj_id] = position *)
  fr_cex : Pid.t list option;
      (** [Every]-mode violation at depth <= [split_depth]: the split stopped
          there, and only already-emitted (lex-smaller) jobs can beat it *)
  fr_pruned : int;
      (** complete schedules credited above the frontier (sleep-pruned
          subtrees that never became jobs) — the merge fold's start count *)
  fr_stats : stats;
}

val split :
  ?mode:mode ->
  ?reduce:reduction ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  split_depth:int ->
  prop:(Runtime.t -> bool) ->
  unit ->
  split_result
(** Explore to [split_depth] (raises [Invalid_argument] unless
    [1 <= split_depth < depth]) and emit the frontier. In [Every] mode the
    property is checked on every prefix up to the frontier — {!run_subtree}
    accordingly replays a job's prefix without re-checking it. [~mode],
    [~reduce] and the scenario must match between [split] and the
    [run_subtree] calls that consume its jobs. *)

val merge_frontier :
  pids:Pid.t list -> split_result -> (verdict * stats) list -> verdict * stats
(** [merge_frontier ~pids fr results]: the partitioned run's verdict and
    stats from [fr] and the {!run_subtree} results of its jobs, in any
    order. Folds {!merge_verdicts} from [Ok fr_pruned] (or from [fr_cex]
    when the split stopped on a violation) and {!merge_stats} from
    [fr_stats]. *)

type table
(** A memo table that several {!run_subtree} calls can share. Its entries
    map a reached state (its exact {!Runtime.digest}, clock included) to
    the complete schedules credited below it and, under sleep reduction,
    the sleep mask it was explored under. The table owns the key context
    ({!Keys.t}) those keys are written in, and attaches it to every
    runtime its searches build before the first step, so the runtimes of
    all the jobs it serves key in one set of ids. Only fully verified
    subtrees are stored, so an entry holds for that state wherever it is
    reached in the same search configuration. Hence the jobs of one split
    may share a table, in any order and on any subset, and a job's root is
    looked up and stored like any other node: a job whose root state an
    earlier job has already explored costs only the replay of its prefix.

    Sharing keeps credited counts and the lex-least counterexample as exact
    as private tables do, in any job order. Only a job's effort counters
    ([nodes], [steps_executed], [memo_hits], ...) depend on what the table
    already held. The table records the pids, depth, mode and reduction of
    the first job it served; handing it a job under any other raises
    [Invalid_argument]. [build] and [prop] are closures the table cannot
    compare: callers must key tables by scenario themselves. A table, its
    key context included, is not thread-safe: one domain at a time. *)

val create_table : unit -> table
(** An empty table, bound to the configuration of its first job. *)

val run_subtree :
  ?memo:bool ->
  ?table:table ->
  ?mode:mode ->
  ?reduce:reduction ->
  ?cancel:(unit -> bool) ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  subtree ->
  verdict * stats
(** Run one frontier job to the full [depth] (the same [depth] given to
    {!split}): the prefix is replayed check-free, then the engine expands
    the subtree under the job's seeded context. The memo reads and writes
    [?table] when given, a private table otherwise; [~memo:false] turns it
    off and ignores [?table]. [Ok n] is the subtree's exact credited
    schedule count; a counterexample is the full schedule (prefix included)
    and is the lex-least within the subtree. [?cancel] as in {!run}; a
    cancelled job leaves only verified entries in [?table]. Raises
    [Invalid_argument] on a job inconsistent with [~pids]/[~depth]/
    [~reduce], or on a [?table] bound to another configuration. *)

val schedule_json : Pid.t list -> Obs.Json.t
val schedule_of_json : Obs.Json.t -> (Pid.t list, string) result
(** A schedule (or counterexample) on the wire: a list of
    {!Pid.to_string} names ([p1], [q2], ...). *)

val verdict_fields : verdict -> (string * Obs.Json.t) list
(** A verdict as the fields of an enclosing object: [verdict] (["ok"] or
    ["counterexample"]), [schedules] (the credited count, [null] for a
    counterexample) and, for a counterexample, [cex] ({!schedule_json}).
    Every result that carries a verdict writes it this way: [modelcheck]
    and [subtree] replies, checkpoint records and [wfa modelcheck --json]. *)

val verdict_of_json : Obs.Json.t -> (verdict, string) result
(** Reads {!verdict_fields} back out of the enclosing object. A
    counterexample needs no [schedules] field. *)

val subtree_json : subtree -> Obs.Json.t
val subtree_of_json : Obs.Json.t -> (subtree, string) result
(** Wire format for the [subtree] service verb: pids as {!Pid.to_string}
    names ([p1], [q2], ...). [subtree_of_json] validates shape only; full
    consistency against the scenario is checked by {!run_subtree}. *)

val run_replay :
  ?mode:mode ->
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  unit ->
  verdict * stats
(** The replay-from-scratch baseline (the pre-incremental engine): every
    visited prefix is rebuilt via [build] and re-executed in full. Kept as a
    differential-testing oracle and benchmark yardstick. *)

val replay_ok :
  ?mode:mode ->
  build:(unit -> Runtime.t) ->
  prop:(Runtime.t -> bool) ->
  Pid.t list ->
  bool
(** Replay one concrete schedule on a fresh runtime and report whether the
    property survives it ([Every]: checked after each step; [Final]: checked
    after the last). [false] for a schedule returned as [Counterexample]. *)

val check :
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  verdict
(** [run] with defaults, [Every] mode, verdict only. *)

val check_final :
  build:(unit -> Runtime.t) ->
  pids:Pid.t list ->
  depth:int ->
  prop:(Runtime.t -> bool) ->
  verdict
(** [run] with defaults, [Final] mode, verdict only. *)
