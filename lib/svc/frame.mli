(** Length-prefixed frames over a file descriptor.

    The wire unit of the service protocol: a 4-byte big-endian payload
    length followed by that many payload bytes (UTF-8 JSON, but this layer
    does not care). Framing is what lets the server bound work {e before}
    parsing: an adversarial or misconfigured client announcing a frame
    beyond [max_len] is rejected after reading (and discarding) exactly
    that frame — the stream stays synchronized, the connection stays up,
    and the payload never reaches the JSON parser. *)

val default_max_len : int
(** 1 MiB. *)

val max_wire_len : int
(** The largest length the 4-byte header can carry ([2^31 - 1]); a header
    with the top bit set is reported as [Desynced]. *)

type error =
  | Eof  (** clean end of stream at a frame boundary *)
  | Truncated  (** end of stream inside a header or payload *)
  | Oversized of int
      (** announced length exceeded [max_len]; the payload was read and
          discarded, so the next frame can still be read *)
  | Desynced of int
      (** announced length exceeded {!max_wire_len}: no writer produces
          such a header, there is no payload to skip, and the byte stream
          is unrecoverable — the caller must close the connection *)

val error_string : error -> string

val encode : string -> string
(** [encode payload] is the full wire image (header + payload) as one
    string — what a shard queues on a connection's non-blocking write
    buffer. Raises [Invalid_argument] beyond {!max_wire_len}. *)

val write : Unix.file_descr -> string -> unit
(** Write one frame (header + payload) in one [write] call, looping only
    over a partial write.
    Raises [Unix.Unix_error] as the underlying syscalls do; raises
    [Invalid_argument] on a payload longer than {!max_wire_len}. *)

val read : ?max_len:int -> Unix.file_descr -> (string, error) result
(** Read one frame. [max_len] defaults to {!default_max_len}. Blocking;
    raises [Unix.Unix_error] on transport errors other than orderly
    shutdown. *)

(** {1 Incremental decoding}

    The push-style counterpart of {!read} for non-blocking shards: {!feed}
    whatever chunk the socket yielded, then pull with {!next} until it
    returns [`Await]. Error semantics mirror the blocking reader:
    [Oversized] is reported once, {e after} the offending payload has been
    fully discarded (the stream stays synchronized and decoding continues);
    [Desynced] is sticky and terminal. [Eof] / [Truncated] never appear —
    end-of-stream is the caller's to observe on the socket. *)

type decoder

val decoder : ?max_len:int -> unit -> decoder
(** One per connection; the internal buffer is reused across frames. *)

val feed : decoder -> Bytes.t -> int -> int -> unit
(** [feed d src off len] appends [src[off..off+len)]. The bytes of a
    payload being discarded as oversized are dropped without buffering. *)

val next : decoder -> ([ `Frame of string | `Await ], error) result
(** The next complete frame, [`Await] if more input is needed, or an
    [Oversized] / [Desynced] report as described above. *)

(** {1 Zero-copy views}

    {!next_view} is {!next} without the payload copy: on [V_frame] the
    payload lies in place at
    [frame_buf d.[frame_off d .. frame_off d + frame_len d)], valid until
    the next {!feed} (which may compact or regrow the buffer). [V_frame]
    is a constant constructor, so a steady stream of frames is delivered
    without a single allocation — the shard hot path. *)

type view = V_await | V_frame | V_oversized of int | V_desynced of int

val next_view : decoder -> view
val frame_buf : decoder -> Bytes.t
val frame_off : decoder -> int
val frame_len : decoder -> int
