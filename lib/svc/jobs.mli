(** Execution of the service verbs that carry real work.

    One function per queued verb, mapping JSON params to the same engine
    entry points the CLI uses and back to a JSON result. Handlers validate
    params up front ([Bad_request] on anything malformed — an invalid
    request must never crash a worker) and thread the pool's [cancel] hook
    into the cancellable engines, translating {!Simkit.Exhaustive.Cancelled},
    {!Efd.Adversary.Cancelled} and {!Efd.Run.Cancelled} into
    [Deadline_exceeded]. *)

val run :
  ?cancel:(unit -> bool) ->
  Protocol.verb ->
  Obs.Json.t ->
  (Obs.Json.t, Protocol.err_code * string) result
(** Dispatch on the verb. [Ping]/[Stats]/[Shutdown] are server-side verbs
    and return [Internal] here; the queued verbs accept:

    - [solve]: [task], [fd], [policy], [n], [k], [j], [l], [crashes]
      ([[i, t], ...] — crash S-process [i] at time [t]), [seed],
      [budget] — one {!Efd.Run.execute}; result
      [{ "ok": bool, "report": <run report> }]. Bounded by [budget] and
      cancellable at every scheduling step.
    - [modelcheck]: [depth], [n_s], [reduce] — exhaustive safe-agreement
      check; result [{ "verdict": "ok"|"counterexample", ... }].
      Cancellable between schedules. With [checkpoint_dir] (plus optional
      [checkpoint_interval_s], default 30) the check runs the partitioned
      journaling engine ({!Ckpt.Local}) and survives a killed server;
      with [resume: true] it continues the record in [checkpoint_dir]
      instead of starting over (ignoring [scenario]/[depth]/[n_s]/[reduce]
      — the record's config wins). The result then carries a
      ["checkpoint"] field. Verdict and credited count are identical
      across all three paths.
    - [subtree]: [scenario], [n_s], [depth], [reduce], [job] (one
      {!Simkit.Exhaustive.subtree}), optional [run] — one frontier job of
      a distributed check; result [{ "id", "verdict", "schedules" | "cex",
      "stats" }]. Jobs that carry the same [run] id, scenario, [n_s],
      [depth] and [reduce] share one memo table per pool domain (the
      table of the last such key the domain served); without [run] a job
      gets a private memo. Cancellable between schedules.
    - [fuzz]: [kind], [n], [j], [seed], [budget], [domains] — adversary
      fuzzing; result [{ "found": bool, "fuzz": ..., "witness": ... }].
      Cancellable between trials.
    - [scenario]: params are one {!Scenario.Spec} object — validated
      server-side (malformed input is a [Bad_request] carrying the JSON
      path; unknown names list the valid ones) and dispatched to the
      solve / modelcheck / fuzz handler it describes; result
      [{ "scenario": <name>, "verb": <verb>, "result": <verb result> }].
      Name resolution shares {!Scenario.Build} with the CLI, so client
      and server cannot drift. *)
