module P = Protocol

type t = {
  fd : Unix.file_descr;
  mutable next_id : int;
  mutable closed : bool;
  codec : P.Codec.t;
}

type error = Server of P.err_code * string | Transport of string

let error_string = function
  | Server (code, msg) -> Printf.sprintf "%s: %s" (P.err_code_string code) msg
  | Transport msg -> "transport: " ^ msg

(* Retryable refusals: the server may still be binding (ECONNREFUSED), or
   its Unix socket file may not exist yet (ENOENT). Anything else — bad
   address, permission, unreachable network — is a configuration error and
   retrying would only mask it. *)
let retryable = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET -> true
  | _ -> false

let backoff_cap_ms = 2000

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* SO_LINGER 0 turns the close into a reset: the kernel keeps no
   TIME_WAIT entry, which a peer that opens connections by the hundred
   each second would otherwise pile up by the ten thousand until they
   crowd the ephemeral ports its later connects and binds search. *)
let discard t =
  if not t.closed then begin
    (try Unix.setsockopt_optint t.fd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error _ -> ());
    close t
  end

(* Replies may be large (fuzz witnesses embed full run reports): read with a
   generous frame cap rather than the server-side default. *)
let reply_max_len = 64 * 1024 * 1024

(* -- pipelined half-calls ------------------------------------------------ *)

let send ?deadline_ms ?params t verb =
  let id = t.next_id in
  t.next_id <- id + 1;
  let rq = P.request ?deadline_ms ?params ~id verb in
  match Frame.write t.fd (P.Codec.encode_request t.codec rq) with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Transport ("write: " ^ Unix.error_message e))
  | () -> Ok id

let recv t =
  match Frame.read ~max_len:reply_max_len t.fd with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Transport ("read: " ^ Unix.error_message e))
  | Error e -> Error (Transport (Frame.error_string e))
  | Ok payload -> (
    (* codec-detecting, so a JSON error reply parses fine on a binary
       connection *)
    match P.Codec.decode_response payload with
    | Error msg -> Error (Transport msg)
    | Ok rs -> (
      match rs.P.rs_result with
      | Ok result -> Ok (rs.P.rs_id, Ok result)
      | Error (code, msg) -> Ok (rs.P.rs_id, Error (Server (code, msg)))))

let connect ?(retries = 0) ?(backoff_ms = 50) ?deadline_ms
    ?(codec = P.Codec.Json) target =
  let addr =
    match Addr.of_string target with
    | Ok a -> a
    | Error msg -> invalid_arg ("Svc.Client.connect: " ^ msg)
  in
  let sa = Addr.sockaddr addr in
  let started = Obs.Clock.now_ns () in
  let remaining_s () =
    match deadline_ms with
    | None -> infinity
    | Some ms ->
      (float_of_int ms /. 1000.) -. Obs.Clock.elapsed_s ~since:started
  in
  let rec attempt left backoff =
    let fd = Unix.socket (Addr.domain addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () ->
      (match addr with
      | Addr.Tcp _ -> (
        (* small pipelined frames: Nagle would batch them against us *)
        try Unix.setsockopt fd Unix.TCP_NODELAY true
        with Unix.Unix_error _ -> ())
      | Addr.Unix_path _ -> ());
      { fd; next_id = 0; closed = false; codec }
    | exception e -> (
      (try Unix.close fd with Unix.Unix_error _ -> ());
      match e with
      | Unix.Unix_error (err, _, _)
        when left > 0 && retryable err && remaining_s () > 0. ->
        (* clamp to the remaining budget: a 2 s backoff must not overrun
           a 100 ms deadline just because the doubling got there first *)
        Unix.sleepf
          (Float.min (float_of_int backoff /. 1000.) (remaining_s ()));
        attempt (left - 1) (min (backoff * 2) backoff_cap_ms)
      | e -> raise e)
  in
  attempt (max 0 retries) (max 1 backoff_ms)

(* -- one blocking round-trip --------------------------------------------- *)

let call ?deadline_ms ?params t verb =
  match send ?deadline_ms ?params t verb with
  | Error _ as e -> e
  | Ok id -> (
    match recv t with
    | Error _ as e -> e
    | Ok (rid, _) when rid <> id && rid <> -1 ->
      Error
        (Transport (Printf.sprintf "response id %d for request %d" rid id))
    | Ok (_, result) -> result)
