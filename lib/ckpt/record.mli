(** The checkpoint record: what a deep exhaustive run durably is.

    PR 4 made schedule counts credited and mergeable and PR 6 turned the
    search into independent {!Simkit.Exhaustive.subtree} jobs with a
    commutative, associative merge — so the complete progress of a run is
    nothing more than its configuration (enough to re-derive the identical
    frontier deterministically) plus the set of jobs already answered,
    each with its verdict and stats. Resuming re-splits, skips the
    recorded ids, and folds recorded and fresh results together: the final
    verdict, credited count and lex-least counterexample are those of an
    uninterrupted run {e by construction}, not by luck.

    The record serializes to one {!Obs.Json.t} value (stats via
    {!Simkit.Exhaustive.stats_json}, schedules via [schedule_json] — the
    PR 7 wire codecs), which {!Store} persists in either payload codec. *)

type config = {
  cf_scenario : string;  (** {!Mcheck.Scenario} name *)
  cf_n_s : int;
  cf_depth : int;
  cf_reduce : bool;
  cf_split_depth : int;
}

type done_job = {
  dj_id : int;  (** {!Simkit.Exhaustive.subtree} [sj_id] *)
  dj_verdict : Simkit.Exhaustive.verdict;
  dj_stats : Simkit.Exhaustive.stats;
}

type t = {
  ck_config : config;
  ck_total : int;  (** jobs the frontier splits into under [ck_config] *)
  ck_done : done_job list;  (** ascending [dj_id], each unique, < [ck_total] *)
}

val make : config:config -> total:int -> done_:done_job list -> t
(** Sorts and de-duplicates [done_] by id (first wins — the coordinator's
    first-result-wins rule). Raises [Invalid_argument] on an id outside
    [0, total). *)

val done_of_json : Obs.Json.t -> (done_job, string) result
(** One answered job, [{id, verdict, schedules, cex, stats}] — the shape of
    a [subtree] reply too, which the coordinator reads with this. *)

val json : t -> Obs.Json.t
val of_json : Obs.Json.t -> (t, string) result
(** [of_json ∘ json = Ok] (the qcheck battery pins this through the store
    in both codecs). [of_json] validates shape and the id invariants. *)

val equal : t -> t -> bool
(** Structural, [wall_s] included — for round-trip tests. *)
