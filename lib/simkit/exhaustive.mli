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
    memo over exact state keys ({!Runtime.digest}) prunes converging
    interleavings while keeping the reported schedule count exact, and
    optional reduction layers prune further on the same terms. A key holds
    what a state's future and the property read, and no more: whether
    each process has been scheduled, not how often, and a decided
    process's decision, not its history, so interleavings that differ only
    in how null moves fell among processes that cannot move again, or in
    how a process came to its decision, converge too.

    A node's children are read on its own runtime before any of them takes
    it: each child's move is taken there, the child read, and the move
    taken back ({!Runtime.with_step}). A child whose move is null (its
    process has decided, finished or crashed) is read this way, so a leaf,
    a memo hit, a frontier job or a violation there needs no runtime of its
    own. When every other process is asleep or inert at such a child, its
    whole subtree takes null moves only, and it is searched then and there,
    on the parent's runtime under nested null moves; the child's turn
    returns what that search found. A node one step above full depth reads
    its leaves this way too, real steps included: a real step of a started
    process uses up its continuation, so that runtime is only read from
    then on, and no leaf needs it. A process that has not started holds no
    continuation, only its code, so its first step is taken back by
    restarting it: such a leaf is read on any runtime, and the runtime
    stays live for later siblings. With the memo on, every other child
    reached by a real step has its key predicted on the parent
    ({!Runtime.digest_after}, which runs a process that has not started to
    its first operation and restarts it), so a memo hit there needs no
    runtime either. The live runtime goes to the first child that needs
    one (a miss to expand); a later one rebuilds it and replays the prefix
    (effect continuations cannot be cloned). {!stats} makes the saved work
    observable. More cores are used by running {!split}'s jobs on several
    processes (the [subtree] service verb).

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
      process observations) — not of absolute event times or the trace,
      nor of how often a process was scheduled ({!Runtime.sched_count} may
      be read only as zero or nonzero), nor of anything but its decision
      for a process that has decided (not its {!Runtime.steps_taken}). A
      memo hit is then credited without reading the child's [prop]: in
      [Every] mode a table stores only states that passed it (every node's
      property is read before the node is expanded, a job's root included),
      so the child would pass too;
    - [prop] may be evaluated on a child before that child's turn in DFS
      order (on its parent's runtime, with the child's move taken and then
      taken back), and on a whole null-move subtree before the turns of
      earlier siblings, so it must have no side effects that matter;
    - process code must reach the world only through its operations: a
      leaf's real step is taken and taken back on its parent's runtime,
      and whatever else the step's code changes (an OCaml value outside
      the runtime) stays changed when the next leaf is read. A process
      that has not started may have its code run, and restarted, several
      times on one runtime before its first step stays taken.

    Restarts: taking back the first step of a process that has not started
    discontinues whatever its code parked and sets it back to not started,
    so its next step runs its code from the beginning. Under the last
    requirement that is exact: the code is deterministic and what it did
    before its first operation touched nothing but its own locals, so the
    rerun parks the same operation on the same state, and the step reaches
    what it would have reached without the take-back. Each restart happens
    inside the take-back, so a plain search (no reduction) still never
    shows [prop] a process that has run its code without being scheduled:
    [prop] is read at a child with the step taken, and at every node with
    each process either scheduled or not started. *)

type verdict =
  | Ok of int  (** number of complete schedules accounted for *)
  | Counterexample of Pid.t list

type mode =
  | Every  (** the property must hold after every step of every schedule *)
  | Final  (** the property is only required at full depth *)

type stats = {
  nodes : int;  (** DFS nodes visited (memo-skipped subtrees excluded) *)
  steps_executed : int;
      (** total {!Runtime.step} calls: replays, and the moves taken and
          taken back to read a child on its parent's runtime, included *)
  replays : int;
      (** rebuild-and-replay events (a child that needs a runtime to
          expand after its parent's has moved on, or whose parent's runtime
          is borrowed / baseline runs) *)
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
    [?memo] (default [true]) enables the state-key memo, in a table each
    domain recycles ({!clear_table}) from one [run] to its next: a run
    allocates a table of its own only while another run on its domain
    holds that one (a run nested in [prop], or one on another thread).
    [?reduce]
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
    accordingly replays a job's prefix without checking the prefixes on
    the way, and reads only the job root's own property. [~mode],
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
    subtrees are stored, each under the mask it was verified under, so an
    entry holds for that state wherever and whenever it is reached in the
    same search configuration: a null-move subtree searched on its
    parent's runtime is looked up and stored before the turns of its
    earlier siblings, and that changes effort only. Hence the jobs of one
    split may share a table, in any order and on any subset, and a job's
    root is looked up and stored like any other node: a job whose root
    state an earlier job has already explored costs only the replay of its
    prefix.

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

val clear_table : table -> unit
(** Empty a table for reuse: its entries, its key context ({!Keys.clear})
    and its binding go, so the next search on it reads exactly what it
    would read on a new table (verdict, effort counters, and keys numbered
    from the start), while its hash tables and key context keep their
    capacity, up to a bound past which they are cut back to their start
    size. A search on a cleared table therefore allocates only for growth
    past what the table held before. *)

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
    {!split}): the prefix is replayed, then the engine expands the subtree
    under the job's seeded context. In [Every] mode the job root's property
    is read before its memo lookup, and a root that fails it answers the
    prefix itself as the counterexample: a job need not come from
    {!split}, and a table must never store a state that failed. The memo
    reads and writes [?table] when given, a private table otherwise;
    [~memo:false] turns it off and ignores [?table]. [Ok n] is the
    subtree's exact credited schedule count; a counterexample is the full
    schedule (prefix included) and is the lex-least within the subtree.
    [?cancel] as in {!run}; a cancelled job leaves only verified entries in
    [?table]. Raises [Invalid_argument] on a job inconsistent with
    [~pids]/[~depth]/[~reduce], or on a [?table] bound to another
    configuration. *)

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
