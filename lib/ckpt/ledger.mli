(** The books of a partitioned exhaustive run, kept once for both of its
    executors: {!Local} runs the jobs in process, [Dist.Coordinator] over a
    fleet of job servers. The ledger decides which jobs are still needed,
    which answer wins, when a failure ends the run, what a journal
    generation holds and how the results merge; an executor decides only
    how a job is executed and who executes it.

    A transition does no I/O, reads no clock and takes no lock. An executor
    that calls the ledger from several threads holds its own lock around
    every call.

    The rules:
    - Jobs are numbered in lex order, so no job past the least one
      answered with a counterexample can change the verdict. The run
      needs exactly the unanswered jobs up to that one, and it is done
      once none is left.
    - The first answer of a job wins. Later answers, and answers of jobs
      the run no longer needs, are dropped. Each {!record} therefore holds
      every entry of the previous one.
    - A job is pending while it is needed and no dispatch of it is in
      flight. A job whose last dispatch fails or whose worker dies is
      pending again, so an unfinished job is always pending or in flight.
    - {!take} hands out pending jobs least id first. A worker with none to
      take steals the least-covered in-flight job it has not run yet,
      least id first among equals: straggler insurance, and no worker
      steals a job twice.
    - Retry elsewhere: a worker does not retake a job it failed while
      some live worker has not failed that job.
    - A job may fail {!max_failures} times. The next failure ends the run
      with an [Error] naming the job, its failure count and the last
      error, unless a live worker has not failed that job yet. *)

type t

val default_split_depth : depth:int -> int
(** [max 1 (min 3 (depth - 1))]: deep enough to out-number a small fleet
    in jobs and give the journal useful granularity, shallow enough that
    the split is negligible work. *)

val max_failures : int
(** 3: the counted failures one job may have before the next ends the
    run. A constant, not a setting. *)

val start :
  ?split_depth:int ->
  ?reduce:bool ->
  ?resume:Record.t ->
  scenario:Mcheck.Scenario.t ->
  depth:int ->
  workers:int ->
  unit ->
  (t, string) result
(** Split [scenario] at [split_depth] (default {!default_split_depth}) for
    [workers] workers numbered from 0. [Error] when
    {!Simkit.Exhaustive.split} refuses the configuration (it needs
    [1 <= split_depth < depth], hence [depth >= 2], and a schedule count
    that fits an [int]), and when [resume]'s config or job total differs
    from this run's. The jobs [resume] records are answered before the
    run starts, entries past a counterexample included. *)

val config : t -> Record.config
val frontier : t -> Simkit.Exhaustive.split_result

val redispatched : t -> int
(** Re-issues so far: failed or lost jobs made pending again, plus
    steals. *)

val dead : t -> int -> bool
(** Whether the worker was reported {!lost}. *)

type take =
  | Jobs of Simkit.Exhaustive.subtree list
      (** at most [max] pending jobs, now in flight on the worker *)
  | Steal of Simkit.Exhaustive.subtree
      (** a duplicate of a job in flight elsewhere *)
  | Wait  (** nothing this worker may take until another transition *)
  | Stop  (** the run is done or has failed *)

val take : t -> worker:int -> max:int -> take

val stopped : t -> bool
(** Whether {!take} answers [Stop] now: the run is done or has failed.
    Once [true], it stays so, and every dispatch still in flight is a copy
    the run no longer needs. *)

val answer : t -> Record.done_job -> bool
(** Settle one dispatch of the job with its answer; [true] when the answer
    was credited. *)

type failure =
  | Busy of string
      (** says nothing about the job (the server is overloaded, shutting
          down, or cancelled the run's copies once the run stopped): the
          job is pending again if the run still needs it, uncounted *)
  | Failed of string  (** the job failed on this worker: counted *)
  | Refused of string
      (** every worker would refuse the job: the run ends with this error *)

val fail : t -> worker:int -> int -> failure -> bool
(** Settle one dispatch of the job with a failure; [true] when the job is
    pending again, to be emitted as a redispatch. *)

val lost : t -> worker:int -> int list -> int list
(** The worker is dead; settle its dispatches of the listed jobs and
    return those that are pending again. *)

val record : t -> Record.t
(** The journal generation: config, job total and every answered job. *)

val result :
  t -> (Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats, string) result
(** The one {!Simkit.Exhaustive.merge_frontier} of the split and the
    answered jobs in id order. [Error] when a failure ended the run, or
    when jobs are still unresolved (every worker died). *)

val journal :
  (Store.t * float) option -> t -> (force:bool -> unit, string) result
(** Beside the ledger, the one place a run's journal is written: given
    [Some (store, interval_s)], save {!record}'s first generation
    now and return the saver an executor calls with [force:false] after each
    credited answer (a save at most every [interval_s] seconds) and with
    [force:true] at the end. [Error] when the first generation cannot be
    written: the run must not start. A later failed save leaves the
    previous generation to resume from; the store emits
    [ckpt.save.error] and the run goes on. A generation that holds no
    answered job is saved without fsync ({!Store.save}[ ~sync:false]):
    a power loss before the first answer may leave the store with no
    generation, which [wfa resume] reports, and loses no answered work.
    Given [None], the saver does nothing. *)
