(** Structured events: a name plus ordered JSON fields.

    Events deliberately carry no wall-clock timestamp of their own:
    simulation runs are deterministic, and an event stream that is a pure
    function of the run diffs cleanly across machines and replays (the
    live-emitted and trace-bridged streams of the same run compare equal).
    Emitters that want real time attach a field explicitly. *)

type t = { name : string; fields : (string * Json.t) list }

val make : string -> (string * Json.t) list -> t
val equal : t -> t -> bool

(** Well-known event names. Emitters are free to mint ad-hoc names, but
    events consumed across module boundaries (tests, external tooling)
    should use these constants so renames stay atomic. *)
module Name : sig
  val adversary_witness : string
  (** A randomized search found a violating run (fields: seed, seeds_tried,
      desc). *)

  val adversary_exhausted : string
  (** A randomized search ran out of seeds (field: seeds_tried — distinct
      seeds actually executed). *)

  val adversary_fuzz_witness : string
  (** The domain-parallel fuzzer found a witness (fields: trial, seed,
      trials, domains, desc). *)

  val adversary_fuzz_exhausted : string
  (** The fuzzer exhausted its trial budget (fields: trials, domains). *)

  val adversary_shrunk : string
  (** The delta-debugging shrinker minimized a witness (fields: steps plus
      before/after sizes of the three axes). *)

  (** {2 Service layer ([Svc.Server])} *)

  val svc_start : string
  (** The job server is listening (fields: socket, workers, queue_bound). *)

  val svc_stop : string
  (** The server finished draining and stopped (fields: served, drained). *)

  val svc_accept_error : string
  (** [accept] on the listening socket failed, e.g. out of descriptors;
      the server backs off briefly before retrying (field: error). *)

  val svc_shard_start : string
  (** An I/O shard's event loop is up (field: shard). *)

  val svc_shard_stop : string
  (** An I/O shard exited after flushing its connections (fields: shard,
      conns — connections adopted over its lifetime). *)

  val svc_shard_error : string
  (** A shard's event loop caught an unexpected exception and kept going
      (fields: shard, error). *)

  val svc_conn_open : string
  (** A client connection was accepted and adopted by a shard (fields:
      conn, shard). *)

  val svc_conn_close : string
  (** A client connection ended (fields: conn, requests). *)

  val svc_request : string
  (** A request was accepted into the queue (fields: conn, id, verb). *)

  val svc_reject : string
  (** A request was rejected without running (fields: conn, id, code) —
      backpressure ([overloaded]), drain ([shutting_down]), malformed or
      oversized frames. *)

  val svc_done : string
  (** A request completed (fields: conn, id, verb, status, ms). *)

  val svc_timeout : string
  (** A request hit its deadline before or during execution (fields: conn,
      id, verb, ms). *)

  val svc_drain : string
  (** Graceful shutdown began (field: pending — queued + in-flight jobs
      that will still be served). *)

  val svc_cancel : string
  (** A [cancel] was answered (fields: conn, run, stopped — the run's jobs
      dropped from the queue or told to stop). *)

  (** {2 Distributed model checking ([Dist.Coordinator])} *)

  val dist_split : string
  (** The frontier was split into subtree jobs (fields: jobs, split_depth,
      pruned — schedules credited above the frontier). *)

  val dist_dispatch : string
  (** A subtree job was sent to a worker (fields: job, worker). *)

  val dist_result : string
  (** A subtree result was accepted — first response wins (fields: job,
      worker, verdict). *)

  val dist_redispatch : string
  (** A job was re-issued: its worker died, its response was an error, or
      an idle worker stole an in-flight straggler (fields: job, reason). *)

  val dist_worker_dead : string
  (** A worker connection failed; its in-flight jobs were requeued
      (fields: worker, error, requeued). *)

  val dist_done : string
  (** The distributed run completed (fields: jobs, redispatched, cancels
      — workers sent a [cancel] for the copies still queued or running —
      workers, dead). *)

  (** {2 Checkpoint store ([Ckpt.Store])} *)

  val ckpt_save : string
  (** A generation was durably written (fields: gen, bytes, codec). *)

  val ckpt_save_error : string
  (** A generation could not be written; the older ones are untouched
      (fields: gen, error). *)

  val ckpt_load : string
  (** A generation was loaded and validated (fields: gen, bytes). *)

  val ckpt_rollback : string
  (** A newer generation failed validation and was skipped in favour of an
      older one (fields: gen, reason). *)

  val ckpt_resume : string
  (** A checkpointed run resumed from a loaded record (fields: gen, total,
      done — subtree jobs already answered). *)
end

val to_json : t -> Json.t
(** An object with ["ev"] first, then the fields in order. *)

val to_line : t -> string
(** One line of JSON, no trailing newline — the JSON-lines encoding used
    by the stdout/file sinks. *)

val pp : Format.formatter -> t -> unit
