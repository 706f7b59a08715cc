(** Execution of the service verbs that carry real work.

    {!Scenario.Spec.work_of_params} alone reads work params, so a native
    [solve] / [modelcheck] / [fuzz] request's params are exactly a
    scenario file's [params], and every verb runs one executor over
    {!Scenario.Spec.work}. Anything malformed is [Bad_request] carrying
    the field path; an invalid request must never crash a worker. The
    pool's [cancel] hook reaches the cancellable engines, and
    {!Simkit.Exhaustive.Cancelled}, {!Efd.Adversary.Cancelled} and
    {!Efd.Run.Cancelled} become [Deadline_exceeded] (which {!Pool} turns
    into [Cancelled] when a [cancel] stopped the job). An
    [Invalid_argument] raised while building the task, algorithm,
    detector, pattern, input or fuzz target is [Bad_request], as is any
    out of the exhaustive engines (they check the tree and the job before
    the first step); one raised mid-run by [solve] or [fuzz] is
    [Internal]. *)

val run_work :
  ?cancel:(unit -> bool) ->
  Scenario.Spec.work ->
  (Obs.Json.t, Protocol.err_code * string) result
(** Run one typed piece of work; the result is the matching verb's result
    object below. *)

val run :
  ?cancel:(unit -> bool) ->
  Protocol.verb ->
  Obs.Json.t ->
  (Obs.Json.t, Protocol.err_code * string) result
(** Dispatch on the verb. [Ping]/[Stats]/[Metrics]/[Shutdown]/[Cancel]
    are server-side verbs and return [Internal] here; the queued
    verbs accept:

    - [solve]: one {!Efd.Run.execute}; result
      [{ "ok": bool, "report": <run report> }]. Bounded by [budget] and
      cancellable at every scheduling step.
    - [modelcheck]: one exhaustive check of a {!Mcheck.Scenario}; result
      [{ "scenario", "depth", "n_s", "reduce", "verdict": "ok" |
      "counterexample", "schedules", "cex"?, "stats" }]; [cex], present
      with a counterexample, is its schedule
      ({!Simkit.Exhaustive.schedule_json}). Cancellable between schedules.
    - [fuzz]: adversary fuzzing; result
      [{ "found": bool, "fuzz": ..., "witness": ... }]. Cancellable
      between trials.
    - [subtree]: [modelcheck] params plus [job] (one
      {!Simkit.Exhaustive.subtree}) and an optional [run] string — one
      frontier job of a distributed check; result [{ "id", "verdict",
      "schedules", "cex"?, "stats" }] as for [modelcheck]. Jobs that carry
      the same [run] id, scenario, [n_s], [depth] and [reduce] share one
      memo table per pool domain (the table of the last such key the
      domain served, cleared and reused when the key changes); without
      [run] a job gets a private memo.
      Cancellable between schedules.
    - [scenario]: params are one {!Scenario.Spec} object, validated
      server-side (errors carry the JSON path; unknown names list the
      valid ones); result
      [{ "scenario": <name>, "verb": <verb>, "result": <verb result> }]. *)
