(** Distributed exhaustive model checking: frontier-split search fanned
    out over a fleet of job servers (DESIGN.md §6).

    The coordinator runs {!Simkit.Exhaustive.split} locally — a shallow
    exploration to [split_depth] that credits everything it prunes above
    the frontier — and ships each emitted subtree to a worker as a
    [subtree] request ({!Svc.Protocol}), pipelined over one connection
    per worker. Results are merged with the commutative, associative
    {!Simkit.Exhaustive.merge_verdicts}/[merge_stats], so the distributed
    verdict, schedule count and (lex-least) counterexample are {e exactly}
    those of the single-process run, whatever the arrival order.

    Fault handling, all first-result-wins by job id:
    - a worker connection that fails (connect, send or receive) requeues
      the jobs it still owed and retires; the other workers absorb them;
    - a server-side error reply ([deadline_exceeded], [overloaded], ...)
      requeues that one job; a [bad_request] ends the run, since every
      worker reads params with {!Scenario.Spec.work_of_params};
    - an idle worker with an empty queue {e steals} the least-covered
      in-flight job of another worker — straggler insurance, bounded by
      never stealing the same job twice on the same worker.

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
  r_jobs : int;  (** subtree jobs the frontier split into *)
  r_frontier_pruned : int;
      (** schedules credited above the frontier by the splitter itself *)
  r_redispatched : int;  (** re-issues: requeues after failures plus steals *)
  r_workers : worker_report list;
}

val default_split_depth : depth:int -> int
(** [max 1 (min 3 (depth - 1))] — deep enough to out-number a small fleet
    in jobs, shallow enough that the local split is negligible work. *)

val run :
  ?sink:Obs.Sink.t ->
  ?split_depth:int ->
  ?reduce:bool ->
  ?retries:int ->
  ?backoff_ms:int ->
  ?deadline_ms:int ->
  ?window:int ->
  ?checkpoint:Ckpt.Store.t * float ->
  ?resume:Ckpt.Record.t ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  workers:string list ->
  unit ->
  (report, string) result
(** Check [scenario] to [depth] over [workers] (each an {!Svc.Addr} in
    textual form). [reduce] enables the scenario's sleep+symmetry
    reduction on splitter and workers alike. [retries]/[backoff_ms]
    (defaults 5/50) are per-worker {!Svc.Client.connect} patience;
    [deadline_ms] rides on every subtree request; [window] (default 4)
    is the per-connection pipelining depth. [sink] receives the [dist.*]
    events ({!Obs.Event.Name}).

    [checkpoint] [(store, interval_s)] journals job completions: a
    {!Ckpt.Record} generation is written before the first dispatch, then
    after accepted results at most every [interval_s] seconds, then at
    completion — all under the coordinator lock, so every generation is a
    consistent snapshot. Workers stay stateless. [resume] seeds the result
    table from a previously journaled record (loaded via
    {!Ckpt.Local.load_record}): only unfinished subtrees are redispatched,
    against the same fleet or a different one. [Error] when the record's
    config or job total does not match this run's.

    [Error] otherwise covers configuration mistakes (no workers, bad
    address, bad [split_depth], params the workers' reader refuses), a
    worker's [bad_request], and total fleet failure with jobs unresolved;
    a counterexample is not an error but a {!report} whose verdict is
    [Counterexample]. *)
