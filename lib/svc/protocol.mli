(** The service wire protocol: JSON request/response envelopes.

    One frame ({!Frame}) carries one envelope. The grammar (DESIGN.md §5):

    {v
    request  ::= { "v": 1, "id": <int>, "verb": <verb>,
                   "params": <object>?, "deadline_ms": <int>? }
    verb     ::= "ping" | "stats" | "metrics" | "subtree" | "scenario"
               | "shutdown" | "cancel"
    response ::= { "v": 1, "id": <int>, "ok": true,  "result": <value> }
               | { "v": 1, "id": <int>, "ok": false,
                   "error": { "code": <code>, "msg": <string> } }
    code     ::= "bad_request" | "oversized" | "overloaded"
               | "deadline_exceeded" | "shutting_down" | "internal"
               | "cancelled"
    v}

    [id] is chosen by the client and echoed verbatim; responses to frames
    whose request could not be identified (oversized, unparseable) carry
    [id = -1]. [deadline_ms] is relative to the server's receipt of the
    request; the server falls back to its configured default when absent.
    Unknown fields are ignored — the schema can grow compatibly. *)

type verb =
  | Ping  (** liveness probe; answered inline by the shard *)
  | Stats  (** server counters snapshot; answered inline *)
  | Metrics  (** {!Obs.Metrics} registry snapshot as JSON; answered inline *)
  | Subtree  (** pool job: one frontier subtree ({!Simkit.Exhaustive.split}) *)
  | Shutdown  (** begin graceful drain *)
  | Scenario
      (** pool job: one caller-supplied {!Scenario.Spec} object as params —
          validated server-side (a structured [bad_request] carrying the
          JSON path on anything malformed, never a crash), then run as the
          solve, model check or fuzz it describes. The one request shape
          for that work: the native [solve], [modelcheck] and [fuzz] verbs
          are retired, and a frame naming one gets [bad_request]. *)
  | Cancel
      (** [{"run": <string>}]: stop the jobs that carry this [run] id
          ({!run_of_params}; the coordinator tags every [subtree] job of a
          run with one). Queued ones are dropped and running ones stop at
          their engine's next cancellation poll; each answers [cancelled].
          Answered inline with [{"cancelled": <jobs stopped>}]; a run with
          no job queued or running is a no-op, and later jobs of the run
          run as usual. *)

val verb_string : verb -> string
val verb_of_string : string -> verb option

type err_code =
  | Bad_request  (** unparseable frame, unknown verb, invalid params *)
  | Oversized  (** frame longer than the server's [max_frame] *)
  | Overloaded  (** bounded queue at its high-watermark — backpressure *)
  | Deadline_exceeded  (** deadline passed while queued or mid-execution *)
  | Shutting_down  (** server is draining; request was not accepted *)
  | Internal  (** handler raised; the message carries the exception *)
  | Cancelled
      (** a {!Cancel} for the job's [run] stopped it: says nothing about
          the job itself *)

val err_code_string : err_code -> string
val err_code_of_string : string -> err_code option

type request = {
  rq_id : int;
  rq_verb : verb;
  rq_params : Obs.Json.t;  (** [Obj []] when absent *)
  rq_deadline_ms : int option;
      (** validated to [1 .. max_deadline_ms] at parse time *)
}

val max_deadline_ms : int
(** [2^31 - 1] (~24 days). A wire [deadline_ms] above this is rejected as
    [bad_request] at parse time: larger values would overflow the
    millisecond→nanosecond conversion in the server's deadline arithmetic
    and wrap into a spurious (or absent) deadline. *)

type response = {
  rs_id : int;
  rs_result : (Obs.Json.t, err_code * string) result;
}

val request : ?deadline_ms:int -> ?params:Obs.Json.t -> id:int -> verb -> request
val ok : id:int -> Obs.Json.t -> response
val error : id:int -> err_code -> string -> response

val request_json : request -> Obs.Json.t
val response_json : response -> Obs.Json.t

val request_of_json : Obs.Json.t -> (request, string) result
val response_of_json : Obs.Json.t -> (response, string) result

val parse : string -> (Obs.Json.t, string) result
(** {!Obs.Json.of_string} under wire-appropriate guards (nesting ≤ 64):
    the only JSON entry point the server and client use on bytes read from
    a socket. *)

(** The two wire codecs behind the framed envelope. [Json] is the default,
    the debug path, and the canonical semantics; [Binary] is the compact
    hot-path encoding. A client picks its codec and sends it from its
    first frame, with no handshake: each frame names its codec by its
    first byte. A binary envelope opens with the magic byte [0xB1], which
    no JSON envelope can ({!Obs.Json.to_string} emits ['{'}]), so
    {!Codec.detect} needs one byte of lookahead and readers keep no codec
    state. Responses travel in the codec their request arrived in.

    Binary envelope (all integers big-endian):
    {v
    byte 0      0xB1 magic
    byte 1      version (1)
    byte 2      kind: 0 request | 1 ok-response | 2 error-response
    request:    byte 3 verb tag, byte 4 flags (bit 0: deadline present),
                bytes 5..12 id, [bytes 13..20 deadline_ms,] params value
    verb tag:   0 ping | 1 stats | 2 metrics | 5 subtree | 7 shutdown
              | 9 scenario | 10 cancel
                (3, 4, 6 and 8 are unassigned: they were the retired solve,
                modelcheck, fuzz and hello verbs')
    ok:         byte 3 reserved, bytes 4..11 id, result value
    error:      byte 3 code tag, bytes 4..11 id, u32 msg length, msg bytes
    value:      0 null | 1 false | 2 true | 3 int (8B) | 4 float (IEEE 8B)
              | 5 str (u32 len + bytes) | 6 list (u32 count + values)
              | 7 obj (u32 count, then per field: u32 klen + key + value)
    v}

    The value model is exactly {!Obs.Json.t} under the JSON writer's
    canonicalization (non-finite floats encode as null), so decoding a
    binary envelope and decoding its JSON rendering yield equal values —
    the invariant [test_codec.ml]'s differential battery pins down. The
    binary reader enforces the same guards as {!parse}: nesting ≤ 64,
    announced lengths checked against remaining input before allocation. *)
module Codec : sig
  type t = Json | Binary

  val to_string : t -> string
  (** ["json"] / ["binary"]. *)

  val magic : char

  val detect : string -> t
  (** By first byte; an empty payload detects as [Json] (and fails JSON
      parsing with a real error). *)

  val encode_request : t -> request -> string
  val encode_response : t -> response -> string

  val encode_request_into : Buffer.t -> t -> request -> unit
  (** Append the envelope to [buf] — the allocation-reuse entry point the
      server and client thread their per-connection buffers through. *)

  val encode_response_into : Buffer.t -> t -> response -> unit

  val decode_request : string -> (request, string) result
  (** Codec-detecting: binary envelopes through the binary reader, anything
      else through {!parse} + {!request_of_json}. *)

  val decode_response : string -> (response, string) result
end

val cancel_params : string -> Obs.Json.t
(** [{"run": <id>}] — the {!Cancel} request params for a run id. *)

val run_of_params : Obs.Json.t -> string option
(** The [run] id a request's params carry, if it is a string: what
    {!Cancel} matches queued and running jobs by. *)
