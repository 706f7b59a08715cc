(** The worker pool: [Domain]s draining the bounded {!Jobq}.

    Each worker pops a job, checks its deadline (a job whose deadline
    passed while it sat in the queue is answered [deadline_exceeded]
    without being started), runs it through {!Jobs.run} with a cancel hook
    that trips once the deadline passes mid-execution or a {!cancel}
    names the job's run, and hands the response to the job's [jb_reply] —
    the server-provided closure that owns the socket write and the
    metrics.

    {!drain} is the graceful half of shutdown: close the queue, let the
    workers finish every job that was already accepted (each gets a
    reply), then join them. *)

type job = {
  jb_req : Protocol.request;
  jb_conn : int;  (** connection id, for events *)
  jb_enq_ns : int64;  (** {!Obs.Clock.now_ns} at enqueue, for latency *)
  jb_deadline_ns : int64 option;  (** absolute monotonic deadline *)
  jb_run : string option;
      (** the run id the request carries ({!Protocol.run_of_params}), by
          which {!cancel} stops it *)
  jb_reply : Protocol.response -> float -> unit;
      (** response and queue+run latency in seconds; must not raise *)
}

type t

val create : workers:int -> queue_bound:int -> t
(** Spawns [workers] ≥ 1 domains immediately. *)

val submit : t -> job -> [ `Ok | `Full | `Closed ]
(** Non-blocking; [`Full] is the backpressure signal. *)

val submit_many : t -> job list -> [ `Ok | `Full | `Closed ] list
(** Submit a batch under one queue-lock acquisition — what an I/O shard
    uses to hand over every request decoded in one poll wakeup. Returns
    one verdict per job, in order; jobs past the bound get [`Full]. *)

val deadline_cancel : int64 -> unit -> bool
(** The cancel hook a worker threads into a job's engine for an absolute
    monotonic deadline: sticky, thread-safe (parallel fuzz domains poll one
    shared closure), and consults the clock on the {e first} call and every
    256th thereafter — so an already-expired deadline trips on the very
    first poll. {!Campaign.run_local} enforces a scenario's deadline with
    it too. *)

val cancel : t -> string -> int
(** [cancel t run]: stop the jobs whose [jb_run] is [run] and return how
    many it reached. Queued ones leave the queue and are answered
    [cancelled] at once, on the calling thread; running ones are flagged,
    and their engine's cancel hook, polled beside the deadline, stops them
    at its next poll, after which they answer [cancelled] (one that ends
    before its next poll answers as it would have). A job taken from the
    queue at the instant of the call can miss it and run to its end. *)

val queue_length : t -> int

val drain : t -> unit
(** Close the queue, run every already-accepted job to a reply, join the
    workers. Idempotent. *)
