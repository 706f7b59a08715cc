(** A small client for the service protocol — what [wfa call] and the
    tests use. {!call} is the synchronous one-at-a-time round-trip;
    {!send}/{!recv} are the pipelined halves: write any number of
    requests before reading a single response, then match the responses
    (which may arrive out of order) to requests by id. *)

type t

type error =
  | Server of Protocol.err_code * string
      (** the server answered with an error response *)
  | Transport of string
      (** connection-level failure: framing, parse, id mismatch, EOF *)

val error_string : error -> string

val connect :
  ?retries:int ->
  ?backoff_ms:int ->
  ?deadline_ms:int ->
  ?codec:Protocol.Codec.t ->
  string ->
  t
(** Connect to an address in {!Addr} textual form ([unix:PATH],
    [tcp:HOST:PORT], or a bare socket path). [retries] (default [0])
    re-attempts connection refusals — [ECONNREFUSED], a not-yet-created
    socket file ([ENOENT]), [ECONNRESET] — sleeping [backoff_ms] (default
    [50]) before the first retry and doubling up to a 2 s cap; a freshly
    [exec]'d server is usually reachable well inside the first doubling.
    [deadline_ms] bounds the {e whole} retry loop in wall time: each
    backoff sleep is clamped to the remaining budget and no retry starts
    past the deadline, so the worst-case overrun is one connect attempt
    rather than a full (possibly seconds-long) backoff. Raises
    [Unix.Unix_error] once the budget is exhausted or on a non-retryable
    error, and [Invalid_argument] if the address does not parse.

    [codec] (default [Json]) is the wire codec every request is sent in,
    from the first: a frame names its codec by its first byte and the
    server answers in the codec the request arrived in, so connecting
    costs no round trip. *)

val close : t -> unit
(** Idempotent. *)

val discard : t -> unit
(** Close at once, with a reset rather than an orderly shutdown: bytes
    not yet sent and replies not yet read are dropped, and the connection
    leaves no TIME_WAIT entry behind. For a client done with a connection
    whose every reply it needed has been read. Idempotent. *)

val call :
  ?deadline_ms:int -> ?params:Obs.Json.t -> t -> Protocol.verb ->
  (Obs.Json.t, error) result
(** Send one request (ids auto-increment per connection) and block for its
    response. Accepts replies carrying the request's id or [-1] (the
    server's id for requests it could not parse). Do not mix with
    pipelined {!send}s that still have responses outstanding. *)

val send :
  ?deadline_ms:int -> ?params:Obs.Json.t -> t -> Protocol.verb ->
  (int, error) result
(** Write one request frame without waiting; returns its id. The server
    executes pipelined requests concurrently and replies in completion
    order. *)

val recv : t -> (int * (Obs.Json.t, error) result, error) result
(** Block for the next response frame: [(id, result)]. The outer error is
    always [Transport] (EOF, framing, parse); a server-side error for a
    particular request is the inner [Error (Server _)]. *)
