(** The single-process checkpointed exhaustive engine.

    Instead of one monolithic {!Simkit.Exhaustive.run} DFS (whose progress
    is unserializable mid-flight — effect continuations cannot be cloned),
    the checkpointed engine runs the {e partitioned} form of the same
    search: {!Simkit.Exhaustive.split} derives the frontier, each subtree
    job runs to completion in order (each with a private memo), and a
    {!Record} of answered jobs is written to the {!Store} at start, every
    [interval_s], and at the end. Jobs are numbered in lex order, so the
    run stops after the first job that answers with a counterexample: no
    later job can change the verdict, and none is run or recorded.
    By the merge theorem ([merge_verdicts]/[merge_stats] — commutative,
    associative, credited) the folded verdict, schedule count and
    lex-least counterexample equal the monolithic engine's, so a run
    killed at any instant and {!resume}d finishes with output identical to
    an uninterrupted one.

    On {!Simkit.Exhaustive.Cancelled} (a service-layer deadline), progress
    is saved before the exception propagates: a timed-out checkpointed
    request leaves a store a later request can resume. *)

val default_interval_s : float
(** 30 seconds. *)

val default_split_depth : depth:int -> int
(** The distributed coordinator's default, [max 1 (min 3 (depth - 1))] —
    deep enough for useful journal granularity, shallow enough that the
    split prefix is negligible. *)

val run :
  ?interval_s:float ->
  ?split_depth:int ->
  ?reduce:bool ->
  ?cancel:(unit -> bool) ->
  store:Store.t ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  unit ->
  (Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats, string) result
(** Start a fresh checkpointed check ([depth] ≥ 2; [split_depth] defaults
    to the distributed coordinator's [max 1 (min 3 (depth - 1))]).
    [Error] covers configuration mistakes and store I/O failure. *)

val resume :
  ?interval_s:float ->
  store:Store.t ->
  unit ->
  ( Record.config * Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats,
    string )
  result
(** Reload the newest intact record from [store], rebuild the scenario
    from its config, re-split (deterministic, so the frontier is
    identical), skip every recorded job and run the rest up to the least
    recorded counterexample, if any. [Error] when the store holds no valid
    record, names an unknown scenario, or its job total does not match the
    re-derived frontier (a record from a different engine version). *)

val load_record : Store.t -> (int * Record.t, string) result
(** The newest intact generation parsed as a {!Record} — shared by
    {!resume}, the coordinator's resume path and [wfa resume]. *)
