(** A scenario as data: one solve / modelcheck / fuzz workload, its
    environment and engine budget, and the outcome it is {e expected} to
    produce — the paper's solvability classification as an executable,
    diffable file format instead of compiled-in configurations.

    The JSON form (canonical field order; [to_string] re-prints a parsed
    canonical file byte-identically):

    {v
    { "v": 1,
      "name": "mc/safe-agreement/d8",
      "verb": "modelcheck",                 // "solve" | "modelcheck" | "fuzz"
      "params": { ... },                    // the verb's parameter object
      "deadline_ms": 2000,                  // optional per-scenario deadline
      "expect": { "outcome": "safe" } }
    v}

    [params] by verb (defaults applied at parse; optional fields omitted on
    print when at their default):
    - [solve]: [task], [fd], [policy], [n], [k] (1 for [consensus]), [j],
      [l]?, [crashes]?
      ([[i, t], ...] — crash S-process [i] at time [t]), [seed], [budget]
    - [modelcheck]: [scenario], [n_s], [depth], [reduce]
    - [fuzz]: [kind], [n], [j], [seed], [budget], [domains]

    [expect.outcome] by verb:
    - [solve]: ["solves"], ["violation"] (optionally with
      ["kind": "task_violation" | "undecided" | "not_wait_free"]), or
      ["error"] with ["code"]
    - [modelcheck]: ["safe"], ["violation"] (a counterexample exists), or
      ["error"]
    - [fuzz]: ["safe"] (no witness within budget), ["violation"] (witness
      found), or ["error"]

    [expect] may be omitted for [solve] and [modelcheck]: the expectation
    is then {e derived} from the registry's solvability classification —
    a task solves iff the policy's concurrency stays within its wait-free
    level ({!Tasklib.Registry.standard}'s table) or the failure detector
    supplies the missing advice; a modelcheck scenario expects the verdict
    it is built to exhibit ({!Mcheck.Scenario.expected_safe}). Derivation
    refuses the genuinely ambiguous cases (fuzz, [At_least]-classified
    tasks above their known level) rather than guessing; an explicit
    [expect] always overrides and can pin violation kinds or error
    classes.

    Parsing is strict and untrusted-input safe: {!of_string} reads through
    {!Obs.Json.of_string}'s guards, every numeric field is bounded, unknown
    fields are rejected (a typo must fail loudly, not silently fall back to
    a default), and every error carries the JSON path of the offending
    field plus the list of valid alternatives where one exists —
    [$.params.scenario: unknown scenario "typo"
    (safe-agreement|race-false|read-collision)] is one-line diagnosable. *)

type expect =
  | Safe
  | Violation of string option  (** [Some kind] pins the violation kind *)
  | Solves
  | Err of string  (** a protocol error-code name, e.g. ["overloaded"] *)

type solve = {
  sv_task : Build.task_kind;
  sv_fd : Build.fd_kind;
  sv_policy : Build.policy;
  sv_n : int;
  sv_k : int;
  sv_j : int;
  sv_l : int option;
  sv_crashes : (int * int) list;
  sv_seed : int;
  sv_budget : int;
}

type modelcheck = {
  mc_scenario : string;  (** a {!Mcheck.Scenario} registry name *)
  mc_n_s : int;
  mc_depth : int;
  mc_reduce : bool;
}

type fuzz = {
  fz_kind : string;  (** a {!Build.fuzz_kinds} name *)
  fz_n : int;
  fz_j : int;
  fz_seed : int;
  fz_budget : int;
  fz_domains : int;
}

type work = Solve of solve | Modelcheck of modelcheck | Fuzz of fuzz

type t = {
  sp_name : string;
  sp_work : work;
  sp_deadline_ms : int option;
  sp_expect : expect;
}

val version : int
(** [1]. *)

val verb : t -> string
(** ["solve"] / ["modelcheck"] / ["fuzz"] — the kind of work the
    scenario runs (its ["verb"] field; on the wire every kind travels as
    a [scenario] request). *)

val equal : t -> t -> bool

val expect_string : expect -> string
(** ["safe"], ["violation"], ["violation:KIND"], ["solves"],
    ["error:CODE"] — the stable display form. *)

val to_json : t -> Obs.Json.t
val to_string : t -> string
(** {!Obs.Json.to_string_pretty} of {!to_json} — the canonical bytes. *)

val work_of_params :
  ?path:string -> verb:string -> Obs.Json.t -> (work, string) result
(** The reader {!of_json} applies to a file's [params]: [verb] is
    ["solve"], ["modelcheck"] or ["fuzz"], and [params] must be that
    verb's params object, with the same defaults, bounds and refusal of
    unknown fields. The server reads a [subtree] request's params with it
    (as ["modelcheck"]), and {!check} reads work built in code back
    through it. [path] (default ["params"]) prefixes error locations:
    [params.depth: 65 out of range [1, 64]]. *)

val check : work -> (unit, string) result
(** Print [work] as params and read them back with {!work_of_params}:
    [Error] is what a scenario file with the same params gets, so work
    built in code (the CLI's flag values) is refused where a spec would
    be, with the same message. *)

val of_json : ?path:string -> Obs.Json.t -> (t, string) result
(** Full validation: names resolved against {!Build} and
    {!Mcheck.Scenario.names}, bounds checked, unknown fields rejected.
    [path] (default ["$"]) prefixes error locations. *)

val of_string : string -> (t, string) result
(** {!Obs.Json.of_string} under its untrusted-input guards, then
    {!of_json}. *)

val load : string -> (t, string) result
(** Read a scenario file; errors (including I/O) are prefixed with the
    file name. *)

(** {1 Outcome classification}

    Comparing what a scenario {e did} against what it {e expected} — the
    campaign runner's verdict per scenario. *)

type outcome =
  | Pass  (** the observed result matches [sp_expect] *)
  | Fail  (** the scenario executed, but its result contradicts the
              expectation *)
  | Timeout
      (** the deadline was exceeded and the expectation was not
          [error:deadline_exceeded] — reported distinctly so a slow
          scenario is not mistaken for a wrong one *)
  | Error
      (** an unexpected transport- or server-side error (including
          unexpected [overloaded] backpressure) *)

val outcome_string : outcome -> string

val classify : t -> (Obs.Json.t, string * string) result -> outcome * string
(** [classify t result] where [result] is the verb's result object on
    success or [(error-code-name, message)] on failure. The string is a
    one-line human detail ("expected X, got Y"). *)
