(** The campaign runner: execute a list of scenario specs and compare
    every result against its expectation.

    {!run_client} is the production path — scenarios travel to a live
    [wfa serve] as [scenario]-verb requests on one pipelined connection
    (at most [window] in flight; the server validates each spec itself
    and spreads them over its worker pool), each carrying its own
    [deadline_ms], so a slow scenario comes back [deadline_exceeded] and
    is reported as a {e timeout}, not a wrong answer, and backpressure
    ([overloaded]) surfaces per scenario rather than wedging the run.
    {!run_local} executes the same specs in-process through {!Jobs.run_work} —
    the identical code path the server's workers use — for quickstarts
    and tests that do not want a server.

    Outcomes per scenario are {!Scenario.Spec.classify} verdicts: [pass]
    (result matches the expectation, including expected violations and
    expected error classes), [fail] (ran, wrong answer), [timeout],
    [error]. A campaign {e succeeds} iff every scenario passes. *)

type row = {
  row_spec : Scenario.Spec.t;
  row_outcome : Scenario.Spec.outcome;
  row_detail : string;  (** one line: "expected X, got Y" *)
  row_latency_s : float;
      (** submit-to-result, client-side (includes queue wait) *)
}

type summary = {
  s_name : string;  (** campaign name *)
  s_rows : row list;  (** in input order, one per scenario *)
  s_pass : int;
  s_fail : int;
  s_timeout : int;
  s_error : int;
  s_wall_s : float;
}

val ok : summary -> bool
(** Every scenario passed. *)

val run_client :
  ?window:int ->
  ?default_deadline_ms:int ->
  name:string ->
  client:Client.t ->
  Scenario.Spec.t list ->
  summary
(** Pipelined execution over an existing connection. [window] (default
    [16], clamped to ≥ 1) bounds in-flight requests; [default_deadline_ms]
    applies to scenarios without their own. A transport failure
    mid-campaign classifies the affected and remaining scenarios as
    [error] rather than raising — a dead server is a result, not a
    crash. *)

val run_local :
  ?default_deadline_ms:int ->
  name:string ->
  Scenario.Spec.t list ->
  summary
(** Sequential in-process execution through {!Jobs.run_work}, deadlines
    enforced with the same cooperative-cancellation hook the pool uses
    ({!Pool.deadline_cancel}). *)

val record : summary -> Obs.Bench_record.t
(** The [wfa.bench] record (id ["campaign"] → [BENCH_campaign.json]): one
    row per scenario group (pass/fail/timeout/error counts) plus a
    [total] row carrying [scenarios_per_s] and
    [p50_scenario_latency_s] / [p99_scenario_latency_s] — the metrics the
    baseline gate watches. *)

val pp_summary : Format.formatter -> summary -> unit
(** The human table: per-group counts, every non-passing scenario with
    its one-line detail, and the totals. *)
