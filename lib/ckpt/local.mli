(** The single-process checkpointed exhaustive engine.

    Instead of one monolithic {!Simkit.Exhaustive.run} DFS (whose progress
    is unserializable mid-flight — effect continuations cannot be cloned),
    the checkpointed engine runs the {e partitioned} form of the same
    search, as the in-process executor of a {!Ledger}: the ledger splits
    the frontier and hands out the jobs in lex order, each job runs to
    completion with a private memo, and the ledger's {!Record} is
    journaled to the {!Store} (see {!Ledger.journal}). Jobs are numbered in
    lex order, so the run stops after the first job that answers with a
    counterexample: no later job can change the verdict, and none is run
    or recorded. By the merge theorem ([merge_verdicts]/[merge_stats] —
    commutative, associative, credited) the folded verdict, schedule count
    and lex-least counterexample equal the monolithic engine's, so a run
    killed at any instant and resumed finishes with output identical to
    an uninterrupted one. Since every job has a private memo, each job's
    stats are deterministic, and a resumed run's merged stats equal an
    uninterrupted run's except [wall_s].

    On {!Simkit.Exhaustive.Cancelled} (a service-layer deadline), progress
    is saved before the exception propagates: a timed-out checkpointed
    request leaves a store a later request can resume. *)

val default_interval_s : float
(** 30 seconds. *)

val run :
  ?interval_s:float ->
  ?split_depth:int ->
  ?reduce:bool ->
  ?cancel:(unit -> bool) ->
  ?resume:Record.t ->
  store:Store.t ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  unit ->
  (Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats, string) result
(** Check [scenario] to [depth] ([depth] ≥ 2; [split_depth] defaults to
    {!Ledger.default_split_depth}), journaling to [store]: a generation
    before the first job, then at most every [interval_s] seconds after a
    job, then at the end. [resume] (a record read with {!load_record})
    continues that run: its answered jobs are not run again, and a record
    that already holds the least counterexample runs no job. Its config
    must be this call's.

    [Error] covers configuration mistakes, a [resume] record from another
    run or engine, and a store that cannot take the first generation. A
    later save that fails leaves the previous generation to resume from:
    the store emits [ckpt.save.error] and the run goes on. *)

val load_record : Store.t -> (int * Record.t, string) result
(** The newest intact generation parsed as a {!Record}: what [wfa resume]
    hands to either executor. *)
