(** The job server: poll-driven I/O shards over a Unix-domain or TCP
    listening socket ({!Addr}), fronting {!Pool}.

    One accept thread multiplexes the listening socket against a self-pipe
    (so {!shutdown} can interrupt it from a signal handler) and deals
    accepted descriptors round-robin to a fixed set of {e I/O shards}.
    Each shard is one thread running an event loop over its connections'
    non-blocking descriptors via {!Poll} (a [poll(2)] stub —
    [Unix.select] caps at [FD_SETSIZE] = 1024 fds, shards are sized for
    thousands): incremental frame decoding through {!Frame.decoder},
    buffered non-blocking writes, and {e pipelining} — any number of
    requests in flight per connection, responses written in completion
    order and matched by the [id] the protocol already carries.

    Ownership story: a connection belongs to exactly one shard, and that
    shard is the {e only} thread that ever reads, writes or closes the
    descriptor. [ping]/[stats]/[shutdown] are answered inline by the
    shard; job verbs are submitted to the pool in one batch per poll
    wakeup, and a [cancel] is answered by the shard once the jobs read
    before it in that wakeup are queued ({!Pool.cancel}); workers hand finished responses (serialized on the
    worker) back to the owning shard through its wake pipe rather than
    touching the socket. A connection survives until its write queue is
    flushed and its in-flight jobs have completed, so a client that hangs
    up mid-job can never cause a late reply to land on a kernel-reused
    descriptor — single-writer ownership replaces the old refcounted
    replier. Responses longer than [max_reply] degrade to a bounded
    [oversized] error instead of killing the connection.

    Submission never blocks: a full queue is an immediate [overloaded]
    reply — the backpressure contract — and a draining server answers
    [shutting_down]. Graceful shutdown ({!shutdown} then {!wait}, or a
    signal under {!run}): stop accepting, drain the pool so every
    accepted job is answered, let each shard flush its write queues,
    close the connections, join the threads. Zero accepted in-flight
    jobs are lost.

    Instrumentation: per-verb latency histograms, queue-depth and
    in-flight gauges and accepted/rejected/timed-out counters in the
    registry, [svc.*] events ({!Obs.Event.Name}, including
    [svc.shard.*]) to the optional sink. With no sink, the event paths
    allocate nothing per request. *)

type config = {
  listen : Addr.t;
      (** where to listen: [unix:PATH] or [tcp:HOST:PORT]; TCP port [0]
          lets the kernel pick — read it back with {!listen_addr} *)
  workers : int;  (** pool worker domains executing jobs *)
  shards : int;  (** I/O shard event-loop threads *)
  queue_bound : int;
  default_deadline_ms : int option;
      (** applied when a request carries no [deadline_ms]; [None] = no
          deadline *)
  max_frame : int;  (** request frames beyond this are rejected unread *)
  max_reply : int;
      (** responses beyond this are replaced by an [oversized] error
          (clamped to at least 256 bytes so the error itself fits) *)
}

val default_config : listen:Addr.t -> config
(** workers = 2, shards = 2, queue_bound = 64, no default deadline,
    max_frame = {!Frame.default_max_len},
    max_reply = {!Frame.max_wire_len}. *)

type t

val start : ?sink:Obs.Sink.t -> ?registry:Obs.Metrics.registry -> config -> t
(** Bind, listen, spawn the pool, the shards and the accept thread,
    return immediately. Replaces a stale socket file for Unix-path
    addresses; sets [SO_REUSEADDR] for TCP (restarts must not trip over
    their own [TIME_WAIT] remnants). Ignores [SIGPIPE] process-wide (a
    client hanging up mid-reply must not kill the server). *)

val listen_addr : t -> Addr.t
(** The address actually bound — with [tcp:HOST:0] this carries the port
    the kernel picked, which is how tests and in-process worker fleets
    learn where to connect. *)

val shutdown : t -> unit
(** Trigger graceful shutdown; returns immediately; idempotent.
    Async-signal-safe in the OCaml sense (an atomic store and a pipe
    write), so it can be called from a [Sys.Signal_handle]; after {!wait}
    has completed it is a guarded no-op — it will never write into the
    closed (possibly kernel-reused) wake descriptor. *)

val wait : t -> unit
(** Block until shutdown completes: accept loop joined, pool drained
    (every accepted job replied), shards flushed and joined, connections
    closed. *)

val stats_json : t -> Obs.Json.t
(** The live counters the [stats] verb reports: accepted, rejected,
    served, timed-out, in-flight, queue depth, workers, shards. *)

val run :
  ?sink:Obs.Sink.t ->
  ?registry:Obs.Metrics.registry ->
  ?on_listen:(Addr.t -> unit) ->
  config ->
  unit
(** {!start}, install [SIGTERM]/[SIGINT] handlers that {!shutdown}, then
    {!wait} — the body of [wfa serve]. [on_listen] fires once the socket
    is bound, with {!listen_addr} — how [wfa serve --listen tcp::0]
    announces the kernel-chosen port. The previous signal handlers are
    restored on return (even by exception), so a second server — or the
    process's own handlers — behave correctly afterwards. *)
