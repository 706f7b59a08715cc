(** Execution of the work a [scenario] or [subtree] request carries, and
    of the CLI's flag modes.

    Each kind of work is set up and run once, here: {!solve}, {!check}
    and {!fuzz} return the engine's own values, {!run_work} renders them
    as the [scenario] verb's [result], and [wfa solve] / [modelcheck] /
    [fuzz] print them. Work arrives already read by {!Scenario.Spec}'s
    strict reader, so anything malformed is [Bad_request] carrying the
    field path; an invalid request must never crash a worker. The
    [cancel] hook (default: never) reaches the cancellable engines, and
    {!Simkit.Exhaustive.Cancelled}, {!Efd.Adversary.Cancelled} and
    {!Efd.Run.Cancelled} become [Deadline_exceeded] (which {!Pool} turns
    into [Cancelled] when a [cancel] stopped the job). An
    [Invalid_argument] raised while building the task, algorithm,
    detector, pattern, input or fuzz target is [Bad_request], as is any
    out of the exhaustive engines (they check the tree and the job before
    the first step); one raised mid-run by [solve] or [fuzz] is
    [Internal]. *)

type error = Protocol.err_code * string

type solved = {
  so_task : Tasklib.Task.t;
  so_algo : Efd.Algorithm.t;
  so_fd : Fdlib.Fd.t;
  so_pattern : Simkit.Failure.pattern;
  so_seed : int;
  so_report : Efd.Run.report;
}
(** A solve's report with the task, algorithm, detector and pattern it
    ran. *)

val solve :
  ?cancel:(unit -> bool) -> Scenario.Spec.solve -> (solved, error) result
(** One {!Efd.Run.execute}, bounded by [budget] and cancellable at every
    scheduling step. *)

val report_json : solved -> Obs.Json.t
(** {!Efd.Run.report_json} under {!Efd.Run.labels}. *)

val check :
  ?cancel:(unit -> bool) ->
  Scenario.Spec.modelcheck ->
  (Simkit.Exhaustive.verdict * Simkit.Exhaustive.stats, error) result
(** One exhaustive check of a {!Mcheck.Scenario}, cancellable between
    schedules. *)

val fuzz :
  ?cancel:(unit -> bool) ->
  Scenario.Spec.fuzz ->
  (Efd.Adversary.target * Efd.Adversary.fuzz_result, error) result
(** Adversary fuzzing of the kind's target, cancellable between trials;
    the target is what {!Efd.Adversary.shrink_target} and
    {!Efd.Adversary.explain_target} take. *)

val run_work :
  ?cancel:(unit -> bool) -> Scenario.Spec.work -> (Obs.Json.t, error) result
(** Run one typed piece of work and render it:
    - solve: [{ "ok": bool, "report": <run report> }];
    - modelcheck: [{ "scenario", "depth", "n_s", "reduce", "verdict":
      "ok" | "counterexample", "schedules", "cex"?, "stats" }]; [cex],
      present with a counterexample, is its schedule
      ({!Simkit.Exhaustive.schedule_json});
    - fuzz: [{ "found": bool, "fuzz": ..., "witness"? }]. *)

val run :
  ?cancel:(unit -> bool) ->
  Protocol.verb ->
  Obs.Json.t ->
  (Obs.Json.t, error) result
(** Dispatch a pool verb. [Ping]/[Stats]/[Metrics]/[Shutdown]/[Cancel]
    are server-side verbs and return [Internal] here; the queued verbs
    accept:

    - [scenario]: params are one {!Scenario.Spec} object, validated
      server-side (errors carry the JSON path; unknown names list the
      valid ones); result
      [{ "scenario": <name>, "verb": <verb>, "result": <work result> }],
      the work result as {!run_work} renders it.
    - [subtree]: modelcheck params plus [job] (one
      {!Simkit.Exhaustive.subtree}) and an optional [run] string — one
      frontier job of a distributed check; result [{ "id", "verdict",
      "schedules", "cex"?, "stats" }] as for a model check. Jobs that
      carry the same [run] id, scenario, [n_s], [depth] and [reduce]
      share one memo table per pool domain (the table of the last such
      key the domain served, cleared and reused when the key changes);
      without [run] a job gets a private memo. Cancellable between
      schedules. *)
