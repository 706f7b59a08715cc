module J = Obs.Json

type verb =
  | Ping
  | Stats
  | Metrics
  | Subtree
  | Shutdown
  | Scenario
  | Cancel

let verb_string = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Subtree -> "subtree"
  | Shutdown -> "shutdown"
  | Scenario -> "scenario"
  | Cancel -> "cancel"

let verb_of_string = function
  | "ping" -> Some Ping
  | "stats" -> Some Stats
  | "metrics" -> Some Metrics
  | "subtree" -> Some Subtree
  | "shutdown" -> Some Shutdown
  | "scenario" -> Some Scenario
  | "cancel" -> Some Cancel
  | _ -> None

type err_code =
  | Bad_request
  | Oversized
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Internal
  | Cancelled

let err_code_string = function
  | Bad_request -> "bad_request"
  | Oversized -> "oversized"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"
  | Cancelled -> "cancelled"

let err_code_of_string = function
  | "bad_request" -> Some Bad_request
  | "oversized" -> Some Oversized
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | "cancelled" -> Some Cancelled
  | _ -> None

type request = {
  rq_id : int;
  rq_verb : verb;
  rq_params : J.t;
  rq_deadline_ms : int option;
}

type response = { rs_id : int; rs_result : (J.t, err_code * string) result }

let request ?deadline_ms ?(params = J.Obj []) ~id verb =
  { rq_id = id; rq_verb = verb; rq_params = params; rq_deadline_ms = deadline_ms }

let ok ~id result = { rs_id = id; rs_result = Ok result }
let error ~id code msg = { rs_id = id; rs_result = Error (code, msg) }

let request_json rq =
  J.Obj
    ([
       ("v", J.Int 1);
       ("id", J.Int rq.rq_id);
       ("verb", J.Str (verb_string rq.rq_verb));
       ("params", rq.rq_params);
     ]
    @
    match rq.rq_deadline_ms with
    | None -> []
    | Some ms -> [ ("deadline_ms", J.Int ms) ])

let response_json rs =
  J.Obj
    ([ ("v", J.Int 1); ("id", J.Int rs.rs_id) ]
    @
    match rs.rs_result with
    | Ok result -> [ ("ok", J.Bool true); ("result", result) ]
    | Error (code, msg) ->
      [
        ("ok", J.Bool false);
        ( "error",
          J.Obj [ ("code", J.Str (err_code_string code)); ("msg", J.Str msg) ]
        );
      ])

let check_version j =
  match J.member "v" j with
  | Some (J.Int 1) -> Ok ()
  | Some _ -> Error "unsupported protocol version"
  | None -> Error "missing field \"v\""

let int_field name j =
  match J.member name j with
  | Some v -> (
    match J.to_int_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %S is not an integer" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let max_deadline_ms = 0x7fffffff

let ( let* ) = Result.bind

let request_of_json j =
  match j with
  | J.Obj _ ->
    let* () = check_version j in
    let* id = int_field "id" j in
    let* verb =
      match J.member "verb" j with
      | Some (J.Str s) -> (
        match verb_of_string s with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "unknown verb %S" s))
      | Some _ -> Error "field \"verb\" is not a string"
      | None -> Error "missing field \"verb\""
    in
    let* params =
      match J.member "params" j with
      | None -> Ok (J.Obj [])
      | Some (J.Obj _ as p) -> Ok p
      | Some _ -> Error "field \"params\" is not an object"
    in
    let* deadline_ms =
      match J.member "deadline_ms" j with
      | None -> Ok None
      | Some v -> (
        match J.to_int_opt v with
        | Some ms when ms > 0 && ms <= max_deadline_ms -> Ok (Some ms)
        | Some ms when ms > 0 ->
          (* beyond ~24 days the ms -> ns conversion would overflow native
             ints; an attacker-supplied bomb must die here, at the parse
             boundary, not wrap into a spurious verdict downstream *)
          Error
            (Printf.sprintf "field \"deadline_ms\" exceeds maximum %d"
               max_deadline_ms)
        | Some _ -> Error "field \"deadline_ms\" must be positive"
        | None -> Error "field \"deadline_ms\" is not an integer")
    in
    Ok { rq_id = id; rq_verb = verb; rq_params = params; rq_deadline_ms = deadline_ms }
  | _ -> Error "request is not an object"

let response_of_json j =
  match j with
  | J.Obj _ ->
    let* () = check_version j in
    let* id = int_field "id" j in
    let* result =
      match J.member "ok" j with
      | Some (J.Bool true) -> (
        match J.member "result" j with
        | Some r -> Ok (Ok r)
        | None -> Error "missing field \"result\"")
      | Some (J.Bool false) -> (
        match J.member "error" j with
        | Some (J.Obj _ as e) -> (
          match (J.member "code" e, J.member "msg" e) with
          | Some (J.Str c), Some (J.Str msg) -> (
            match err_code_of_string c with
            | Some code -> Ok (Error (code, msg))
            | None -> Error (Printf.sprintf "unknown error code %S" c))
          | _ -> Error "malformed \"error\" object")
        | Some _ -> Error "field \"error\" is not an object"
        | None -> Error "missing field \"error\"")
      | Some _ -> Error "field \"ok\" is not a boolean"
      | None -> Error "missing field \"ok\""
    in
    Ok { rs_id = id; rs_result = result }
  | _ -> Error "response is not an object"

(* Frames are already bounded by Frame.read's max_len; the depth guard here
   is the one that matters for adversarial payloads. *)
let parse s = J.of_string ~max_depth:64 s

(* ---------------------------------------------------------------- codec *)

module Codec = struct
  type t = Json | Binary

  let to_string = function Json -> "json" | Binary -> "binary"

  (* 0xB1 can never open a JSON envelope (the writer emits '{' = 0x7B, the
     parser skips only ASCII whitespace), so one byte of lookahead is enough
     to tell the codecs apart — reads never need per-connection state. *)
  let magic = '\xb1'
  let version = '\x01'
  let detect s = if String.length s > 0 && s.[0] = magic then Binary else Json

  let kind_request = '\x00'
  let kind_ok = '\x01'
  let kind_error = '\x02'

  let verb_tag = function
    | Ping -> 0
    | Stats -> 1
    | Metrics -> 2
    | Subtree -> 5
    | Shutdown -> 7
    (* 3, 4, 6 and 8 stay unassigned: a client from before the native
       solve, modelcheck and fuzz verbs and [hello] were retired may still
       send them, and must get bad_request *)
    | Scenario -> 9
    | Cancel -> 10

  let verb_of_tag = function
    | 0 -> Some Ping
    | 1 -> Some Stats
    | 2 -> Some Metrics
    | 5 -> Some Subtree
    | 7 -> Some Shutdown
    | 9 -> Some Scenario
    | 10 -> Some Cancel
    | _ -> None

  let err_tag = function
    | Bad_request -> 0
    | Oversized -> 1
    | Overloaded -> 2
    | Deadline_exceeded -> 3
    | Shutting_down -> 4
    | Internal -> 5
    | Cancelled -> 6

  let err_of_tag = function
    | 0 -> Some Bad_request
    | 1 -> Some Oversized
    | 2 -> Some Overloaded
    | 3 -> Some Deadline_exceeded
    | 4 -> Some Shutting_down
    | 5 -> Some Internal
    | 6 -> Some Cancelled
    | _ -> None

  (* -- binary writer: straight from the envelope record to bytes --------
     The value encoding itself (tags, guards, non-finite-float
     canonicalization) lives in [Obs.Binval] so the checkpoint store writes
     the same bytes; the envelope header framing around it stays here. *)

  let add_u32 = Obs.Binval.add_u32
  let add_i64 = Obs.Binval.add_i64
  let add_value = Obs.Binval.add_value

  let add_request_binary buf rq =
    Buffer.add_char buf magic;
    Buffer.add_char buf version;
    Buffer.add_char buf kind_request;
    Buffer.add_char buf (Char.unsafe_chr (verb_tag rq.rq_verb));
    Buffer.add_char buf
      (match rq.rq_deadline_ms with None -> '\x00' | Some _ -> '\x01');
    add_i64 buf rq.rq_id;
    (match rq.rq_deadline_ms with None -> () | Some ms -> add_i64 buf ms);
    add_value buf rq.rq_params

  let add_response_binary buf rs =
    Buffer.add_char buf magic;
    Buffer.add_char buf version;
    match rs.rs_result with
    | Ok result ->
      Buffer.add_char buf kind_ok;
      Buffer.add_char buf '\x00';
      add_i64 buf rs.rs_id;
      add_value buf result
    | Error (code, msg) ->
      Buffer.add_char buf kind_error;
      Buffer.add_char buf (Char.unsafe_chr (err_tag code));
      add_i64 buf rs.rs_id;
      add_u32 buf (String.length msg);
      Buffer.add_string buf msg

  let encode_request_into buf codec rq =
    match codec with
    | Json -> J.to_buffer buf (request_json rq)
    | Binary -> add_request_binary buf rq

  let encode_response_into buf codec rs =
    match codec with
    | Json -> J.to_buffer buf (response_json rs)
    | Binary -> add_response_binary buf rs

  let encode_request codec rq =
    let buf = Buffer.create 128 in
    encode_request_into buf codec rq;
    Buffer.contents buf

  let encode_response codec rs =
    let buf = Buffer.create 256 in
    encode_response_into buf codec rs;
    Buffer.contents buf

  (* -- binary reader ---------------------------------------------------- *)

  exception Bin = Obs.Binval.Error

  let bin_fail fmt = Printf.ksprintf (fun s -> raise (Bin s)) fmt

  (* the same nesting bound [parse] applies to wire JSON *)
  let max_value_depth = 64

  let get_i64 = Obs.Binval.get_i64
  let decode_value s pos = Obs.Binval.decode_value ~max_depth:max_value_depth s pos

  let check_header s ~kind_min ~kind_max =
    if String.length s < 4 then bin_fail "truncated binary envelope";
    if s.[0] <> magic then bin_fail "not a binary envelope";
    if s.[1] <> version then bin_fail "unsupported protocol version";
    let kind = Char.code s.[2] in
    if kind < kind_min || kind > kind_max then
      bin_fail "unexpected envelope kind %d" kind;
    kind

  let finish s pos v =
    if !pos <> String.length s then bin_fail "trailing garbage" else v

  let decode_request_binary s =
    match
      let _ = check_header s ~kind_min:0 ~kind_max:0 in
      if String.length s < 13 then bin_fail "truncated binary envelope";
      let verb =
        match verb_of_tag (Char.code s.[3]) with
        | Some v -> v
        | None -> bin_fail "unknown verb tag %d" (Char.code s.[3])
      in
      let flags = Char.code s.[4] in
      if flags land lnot 1 <> 0 then bin_fail "unknown flags 0x%02x" flags;
      let pos = ref 5 in
      let id = get_i64 s pos in
      let deadline_ms =
        if flags land 1 = 0 then None
        else begin
          if String.length s - !pos < 8 then
            bin_fail "truncated binary envelope";
          let ms = get_i64 s pos in
          if ms > 0 && ms <= max_deadline_ms then Some ms
          else if ms > 0 then
            bin_fail "field \"deadline_ms\" exceeds maximum %d" max_deadline_ms
          else bin_fail "field \"deadline_ms\" must be positive"
        end
      in
      let params = decode_value s pos in
      (match params with
      | J.Obj _ -> ()
      | _ -> bin_fail "field \"params\" is not an object");
      finish s pos
        { rq_id = id; rq_verb = verb; rq_params = params; rq_deadline_ms = deadline_ms }
    with
    | rq -> Ok rq
    | exception Bin msg -> Error msg

  let decode_response_binary s =
    match
      let kind = check_header s ~kind_min:1 ~kind_max:2 in
      if String.length s < 12 then bin_fail "truncated binary envelope";
      (* byte 3 is the error-code tag for error envelopes, reserved for ok;
         the id always sits at bytes 4..11 *)
      let pos = ref 4 in
      if kind = Char.code kind_ok then begin
        let id = get_i64 s pos in
        let result = decode_value s pos in
        finish s pos { rs_id = id; rs_result = Ok result }
      end
      else begin
        let code =
          match err_of_tag (Char.code s.[3]) with
          | Some c -> c
          | None -> bin_fail "unknown error code tag %d" (Char.code s.[3])
        in
        let id = get_i64 s pos in
        if String.length s - !pos < 4 then bin_fail "truncated binary envelope";
        let len =
          (Char.code s.[!pos] lsl 24)
          lor (Char.code s.[!pos + 1] lsl 16)
          lor (Char.code s.[!pos + 2] lsl 8)
          lor Char.code s.[!pos + 3]
        in
        pos := !pos + 4;
        if len < 0 || String.length s - !pos < len then
          bin_fail "truncated binary envelope";
        let msg = String.sub s !pos len in
        pos := !pos + len;
        finish s pos { rs_id = id; rs_result = Error (code, msg) }
      end
    with
    | rs -> Ok rs
    | exception Bin msg -> Error msg

  (* keep the "invalid JSON: " prefix the pre-codec server and client put
     on parse-stage errors; envelope-shape errors stay bare in both codecs *)
  let parse_json s =
    match parse s with
    | Ok _ as ok -> ok
    | Error msg -> Error ("invalid JSON: " ^ msg)

  let ( let* ) = Result.bind

  let decode_request s =
    match detect s with
    | Binary -> decode_request_binary s
    | Json ->
      let* j = parse_json s in
      request_of_json j

  let decode_response s =
    match detect s with
    | Binary -> decode_response_binary s
    | Json ->
      let* j = parse_json s in
      response_of_json j
end

(* ---------------------------------------------------------------- cancel *)

let cancel_params run = J.Obj [ ("run", J.Str run) ]

let run_of_params params =
  match J.member "run" params with Some (J.Str run) -> Some run | _ -> None
