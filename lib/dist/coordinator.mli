(** Distributed exhaustive model checking: frontier-split search fanned
    out over a fleet of job servers (DESIGN.md §6).

    The coordinator is the fleet executor of a {!Ckpt.Ledger}: the ledger
    runs {!Simkit.Exhaustive.split} locally — a shallow exploration to
    [split_depth] that credits everything it prunes above the frontier —
    and the coordinator ships each job it hands out to a worker as a
    [subtree] request ({!Svc.Protocol}), pipelined 4 deep over one
    connection per worker, from one thread per worker. Results are merged
    with the commutative, associative
    {!Simkit.Exhaustive.merge_verdicts}/[merge_stats], so the distributed
    verdict, schedule count and (lex-least) counterexample are {e exactly}
    those of the single-process run, whatever the arrival order.

    Fault handling, all first-result-wins by job id (the ledger's rules):
    - a worker connection that fails (connect, send or receive) hands back
      the jobs it still owed and retires; the other workers absorb them;
    - an [overloaded] or [shutting_down] reply says nothing about the job:
      it is requeued, uncounted;
    - an [internal], [oversized] or [deadline_exceeded] reply, or a result
      that does not parse, is a counted failure of the job: it is retried
      elsewhere — a worker does not retake a job it failed while some live
      worker has not failed it — and a job that has failed
      {!Ckpt.Ledger.max_failures} times ends the run with an [Error] on
      its next failure, once no live worker is left to try it afresh;
    - a [bad_request] ends the run, since every worker reads params with
      {!Scenario.Spec.work_of_params};
    - an idle worker with no job to take {e steals} the least-covered
      in-flight job of another worker — straggler insurance, bounded by
      never stealing the same job twice on the same worker;
    - once the ledger stops ({!Ckpt.Ledger.stopped}), every dispatch still
      queued or running is a copy the run does not need (a steal whose
      other copy answered first, a job past the least counterexample): the
      coordinator sends each connected worker a [cancel] naming the run,
      the worker answers those copies [cancelled] at its engine's next
      poll, and the run returns without waiting for them to finish. A
      [cancelled] reply says nothing about its job: like [overloaded], it
      is settled as {!Ckpt.Ledger.Busy}, not counted as a failure.

    Otherwise the run fails only when every worker is dead with jobs left. *)

type worker_report = {
  wk_addr : string;  (** the address as given ({!Svc.Addr} textual form) *)
  wk_jobs : int;  (** results accepted from this worker (duplicates lost) *)
  wk_dead : bool;  (** its connection failed at some point *)
}

type report = {
  r_verdict : Simkit.Exhaustive.verdict;
  r_stats : Simkit.Exhaustive.stats;
      (** splitter stats + accepted per-job stats, {!Simkit.Exhaustive.merge_stats}-summed *)
  r_split_depth : int;  (** the depth the frontier was cut at *)
  r_jobs : int;  (** subtree jobs the frontier split into *)
  r_frontier_pruned : int;
      (** schedules credited above the frontier by the splitter itself *)
  r_redispatched : int;  (** re-issues: requeues after failures plus steals *)
  r_workers : worker_report list;
}

val default_split_depth : depth:int -> int
(** {!Ckpt.Ledger.default_split_depth}: the deepest split {!run} makes
    when it is given no [split_depth]. *)

val jobs_per_worker : int
(** 4: the jobs a split sized to the fleet deals each worker at least. *)

val run :
  ?sink:Obs.Sink.t ->
  ?split_depth:int ->
  ?reduce:bool ->
  ?retries:int ->
  ?checkpoint:Ckpt.Store.t * float ->
  ?resume:Ckpt.Record.t ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  workers:string list ->
  unit ->
  (report, string) result
(** Check [scenario] to [depth] over [workers] (each an {!Svc.Addr} in
    textual form). [split_depth] cuts the frontier there; without it, a
    resumed run cuts where its record did, and a new one at the
    shallowest depth from 1 to {!default_split_depth} whose frontier holds
    at least {!jobs_per_worker} jobs per worker (the deepest when none
    does): fewer, larger jobs cost fewer round trips, prefix replays and
    worker memo tables, and each worker still has a window's worth to
    pipeline. [reduce] enables the scenario's sleep+symmetry
    reduction on splitter and workers alike. [retries] (default 5) is
    per-worker {!Svc.Client.connect} patience. Subtree requests carry no
    deadline of their own; a worker's default deadline applies. [sink]
    receives the [dist.*] events ({!Obs.Event.Name}).

    [checkpoint] [(store, interval_s)] journals job completions through
    {!Ckpt.Ledger.journal}: a {!Ckpt.Record} generation is written before
    the first dispatch, then after accepted results at most every
    [interval_s] seconds (never closer than 50 ms, since saves hold the
    lock every worker thread needs), then at completion — all under the
    coordinator lock, so every generation is a consistent snapshot.
    Workers stay stateless. [resume] seeds the ledger from a previously
    journaled record (read with {!Ckpt.Local.load_record}): only
    unfinished subtrees are redispatched, against the same fleet or a
    different one. [Error] when the record's config or job total does not
    match this run's.

    [Error] otherwise covers configuration mistakes (no workers, bad
    address, bad [split_depth], params the workers' reader refuses), a
    store that cannot take the first generation (nothing is dispatched),
    a worker's [bad_request], a job past its failure bound, and total
    fleet failure with jobs unresolved; a counterexample is not an error
    but a {!report} whose verdict is [Counterexample]. *)
