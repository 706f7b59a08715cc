(** A bounded multi-producer/multi-consumer queue — the server's
    backpressure point.

    Producers (connection threads) never block: {!try_push} fails fast with
    [`Full] at the high-watermark so the server can reply [overloaded]
    immediately instead of letting latency grow without bound. Consumers
    (pool workers) block in {!pop}; after {!close} they drain whatever was
    already accepted and then see [None] — the drain half of graceful
    shutdown is built into the queue. *)

type 'a t

val create : ?key:('a -> int) -> bound:int -> unit -> 'a t
(** [bound] ≥ 1 (raises [Invalid_argument] otherwise) and is global —
    admission control stays one shared high-watermark either way.

    [key] classifies items (the pool keys on the connection id) and turns
    {!pop} into a round-robin over classes: each pop serves the class at
    the head of the rotation and sends it to the back, FIFO within a
    class. A client pipelining 100 requests then delays everyone else by
    at most one job per turn instead of 100, and under saturation the
    slots freed by pops are contested fairly rather than re-won by the
    noisiest tenant. Without [key] the queue is a plain FIFO. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]

val try_push_many : 'a t -> 'a list -> [ `Ok | `Full | `Closed ] list
(** Push a batch under one lock acquisition (one verdict per item, in
    order): the shard→pool boundary submits every request decoded in a
    poll wakeup at once instead of taking the queue mutex per frame. *)

val pop : 'a t -> 'a option
(** Blocks while the queue is empty and open. [None] once the queue is
    closed {e and} drained — the consumer's signal to exit. *)

val drop : 'a t -> ('a -> bool) -> 'a list
(** Remove every queued item the predicate accepts and return them, in the
    order they would have been popped within their class; the others keep
    their places and the rotation its order. The predicate runs under the
    queue's lock, once per queued item, and must not raise. *)

val close : 'a t -> unit
(** Idempotent. Pending and future {!try_push} calls see [`Closed]; blocked
    {!pop} calls wake and drain. *)

val length : 'a t -> int
(** Instantaneous depth (racy by nature; for gauges). *)
