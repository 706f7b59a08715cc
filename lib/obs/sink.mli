(** Pluggable event consumers.

    A sink is where instrumented code sends its {!Event.t}s. The four
    stock sinks cover the usual deployments: [null] (instrumentation
    compiled in but discarded), [buffer] (tests and in-process analysis),
    [stdout] and [file] (JSON-lines for external tooling). Sinks count
    what passes through them, so "did anything fire?" needs no buffer. *)

type t

val emit : t -> Event.t -> unit
val count : t -> int
(** Events emitted through this sink so far. *)

val close : t -> unit
(** Flush and release; further [emit]s are dropped. Idempotent. *)

val null : unit -> t
(** Discards everything (still counts). *)

val buffer : unit -> t * (unit -> Event.t list)
(** An in-memory sink and its reader (chronological order). *)

val stdout : unit -> t
(** One compact JSON object per line on standard output. *)

val file : string -> t
(** JSON-lines to a fresh file (truncates). Buffered; {!close} flushes. *)

val of_fn : ?close:(unit -> unit) -> (Event.t -> unit) -> t
(** Custom sink from a function. *)
