(* The codec differential: the binary codec must carry exactly the value
   model of the JSON codec — same envelopes, same params, same validation
   outcomes. Every property round-trips arbitrary envelopes through both
   codecs and compares the decoded values, so a divergence in either
   direction (a binary writer bug, a binary reader bug, a JSON
   canonicalization the binary side missed) shows up as a concrete
   counterexample. The robustness property feeds the binary reader
   adversarial bytes: it must answer [Error], never raise or overread. *)

module J = Obs.Json
module P = Svc.Protocol
module C = Svc.Protocol.Codec

(* ------------------------------------------------------------ generators *)

let verbs =
  [
    P.Ping; P.Stats; P.Metrics; P.Subtree; P.Shutdown; P.Scenario; P.Cancel;
  ]

let err_codes =
  [
    P.Bad_request; P.Oversized; P.Overloaded; P.Deadline_exceeded;
    P.Shutting_down; P.Internal; P.Cancelled;
  ]

(* printable strings keep the comparison about codecs, not about UTF-8
   validation corner cases in the JSON escape tables *)
let str_gen = QCheck.Gen.(string_size ~gen:printable (int_bound 12))

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (8, float);
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
        (1, oneofl [ 0.; -0.; 1.5; -1e300; 4.25e-12 ]);
      ])

let value_gen =
  QCheck.Gen.(
    sized_size (int_bound 4) @@ fix (fun self n ->
        let leaf =
          frequency
            [
              (1, return J.Null);
              (1, map (fun b -> J.Bool b) bool);
              (3, map (fun i -> J.Int i) int);
              (2, map (fun f -> J.Float f) float_gen);
              (3, map (fun s -> J.Str s) str_gen);
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (3, leaf);
              ( 1,
                map (fun xs -> J.List xs)
                  (list_size (int_bound 4) (self (n / 2))) );
              ( 1,
                map (fun kvs -> J.Obj kvs)
                  (list_size (int_bound 4) (pair str_gen (self (n / 2)))) );
            ]))

(* params must be an object on the wire — both decoders enforce it *)
let params_gen =
  QCheck.Gen.(
    map (fun kvs -> J.Obj kvs) (list_size (int_bound 4) (pair str_gen value_gen)))

let request_gen =
  QCheck.Gen.(
    map
      (fun (id, verb, params, deadline) ->
        P.request ?deadline_ms:deadline ~params ~id verb)
      (quad int (oneofl verbs) params_gen
         (opt (int_range 1 P.max_deadline_ms))))

let response_gen =
  QCheck.Gen.(
    map
      (fun (id, result) ->
        match result with
        | Ok v -> P.ok ~id v
        | Error (code, msg) -> P.error ~id code msg)
      (pair int
         (frequency
            [
              (3, map (fun v -> Ok v) value_gen);
              ( 1,
                map
                  (fun (c, m) -> Error (c, m))
                  (pair (oneofl err_codes) str_gen) );
            ])))

let request_arb =
  QCheck.make request_gen ~print:(fun rq ->
      J.to_string_pretty (P.request_json rq))

let response_arb =
  QCheck.make response_gen ~print:(fun rs ->
      J.to_string_pretty (P.response_json rs))

(* ------------------------------------------------------------ equality *)

(* J.equal, not (=): it treats NaN as equal to itself, and NaN params are
   legal inputs (both writers canonicalize them to null, but the originals
   still flow through printers on failure) *)
let request_equal a b =
  a.P.rq_id = b.P.rq_id
  && a.P.rq_verb = b.P.rq_verb
  && a.P.rq_deadline_ms = b.P.rq_deadline_ms
  && J.equal a.P.rq_params b.P.rq_params

let response_equal a b =
  a.P.rs_id = b.P.rs_id
  &&
  match (a.P.rs_result, b.P.rs_result) with
  | Ok va, Ok vb -> J.equal va vb
  | Error (ca, ma), Error (cb, mb) -> ca = cb && ma = mb
  | _ -> false

let decode_request_exn codec rq =
  match C.decode_request (C.encode_request codec rq) with
  | Ok rq' -> rq'
  | Error msg ->
    QCheck.Test.fail_reportf "%s decode failed: %s" (C.to_string codec) msg

let decode_response_exn codec rs =
  match C.decode_response (C.encode_response codec rs) with
  | Ok rs' -> rs'
  | Error msg ->
    QCheck.Test.fail_reportf "%s decode failed: %s" (C.to_string codec) msg

(* ------------------------------------------------------------ properties *)

(* the differential oracle: an envelope pushed through each codec decodes
   to the same value — the JSON path is the spec, the binary path must
   agree with it field for field *)
let prop_request_differential =
  QCheck.Test.make ~name:"request: binary decodes equal to JSON" ~count:500
    request_arb (fun rq ->
      request_equal
        (decode_request_exn C.Json rq)
        (decode_request_exn C.Binary rq))

let prop_response_differential =
  QCheck.Test.make ~name:"response: binary decodes equal to JSON" ~count:500
    response_arb (fun rs ->
      response_equal
        (decode_response_exn C.Json rs)
        (decode_response_exn C.Binary rs))

(* binary round-trips exactly (modulo the shared non-finite-float
   canonicalization, which the JSON writer applies too) *)
let canonical_finite rq =
  let rec finite = function
    | J.Float f -> Float.is_finite f
    | J.List xs -> List.for_all finite xs
    | J.Obj kvs -> List.for_all (fun (_, v) -> finite v) kvs
    | J.Null | J.Bool _ | J.Int _ | J.Str _ -> true
  in
  finite rq.P.rq_params

let prop_binary_roundtrip =
  QCheck.Test.make ~name:"request: binary round-trips finite values exactly"
    ~count:500
    (QCheck.make
       QCheck.Gen.(graft_corners request_gen [] ())
       ~print:(fun rq -> J.to_string_pretty (P.request_json rq)))
    (fun rq ->
      QCheck.assume (canonical_finite rq);
      request_equal rq (decode_request_exn C.Binary rq))

(* adversarial bytes: anything opening with the magic byte reaches the
   binary reader, which must return a result — no exception, ever *)
let prop_binary_robust =
  QCheck.Test.make ~name:"binary reader never raises on junk" ~count:1000
    QCheck.(
      make
        Gen.(
          map
            (fun s -> String.make 1 C.magic ^ s)
            (string_size ~gen:(char_range '\x00' '\xff') (int_bound 64)))
        ~print:(fun s -> String.escaped s))
    (fun payload ->
      (match C.decode_request payload with Ok _ | Error _ -> true)
      && match C.decode_response payload with Ok _ | Error _ -> true)

(* ------------------------------------------------------------ unit cases *)

let check_bool = Alcotest.(check bool)

(* the canonicalization pinned down: both writers turn non-finite floats
   into null, so the decoded params agree (and never carry a NaN) *)
let test_nonfinite_floats () =
  List.iter
    (fun f ->
      let rq =
        P.request ~params:(J.Obj [ ("x", J.Float f) ]) ~id:7 P.Scenario
      in
      let decoded codec = (decode_request_exn codec rq).P.rq_params in
      check_bool "json side is null" true
        (J.equal (decoded C.Json) (J.Obj [ ("x", J.Null) ]));
      check_bool "binary side is null" true
        (J.equal (decoded C.Binary) (J.Obj [ ("x", J.Null) ])))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* both decoders reject the same invalid deadlines with the same shape of
   error — validation must not depend on the codec *)
let test_deadline_validation_parity () =
  let encode_binary_deadline ms =
    (* hand-build the envelope: the encoder refuses to emit what the
       decoder must reject *)
    let buf = Buffer.create 32 in
    Buffer.add_char buf C.magic;
    Buffer.add_string buf "\x01\x00\x00\x01";
    Buffer.add_int64_be buf 9L;
    Buffer.add_int64_be buf (Int64.of_int ms);
    Buffer.add_string buf "\x07\x00\x00\x00\x00";
    Buffer.contents buf
  in
  let json_deadline ms =
    J.to_string
      (J.Obj
         [
           ("v", J.Int 1); ("id", J.Int 9); ("verb", J.Str "ping");
           ("deadline_ms", J.Int ms);
         ])
  in
  List.iter
    (fun ms ->
      match
        (C.decode_request (json_deadline ms),
         C.decode_request (encode_binary_deadline ms))
      with
      | Error _, Error _ -> ()
      | Ok _, _ -> Alcotest.failf "json accepted deadline %d" ms
      | _, Ok _ -> Alcotest.failf "binary accepted deadline %d" ms)
    [ 0; -1; P.max_deadline_ms + 1 ];
  (* and the valid extremes parse on both *)
  List.iter
    (fun ms ->
      match
        (C.decode_request (json_deadline ms),
         C.decode_request (encode_binary_deadline ms))
      with
      | Ok a, Ok b ->
        check_bool "equal deadline" true (request_equal a b);
        check_bool "deadline survives" true (a.P.rq_deadline_ms = Some ms)
      | Error e, _ | _, Error e -> Alcotest.failf "deadline %d: %s" ms e)
    [ 1; P.max_deadline_ms ]

let test_detect () =
  let rq = P.request ~id:1 P.Ping in
  check_bool "json detects json" true
    (C.detect (C.encode_request C.Json rq) = C.Json);
  check_bool "binary detects binary" true
    (C.detect (C.encode_request C.Binary rq) = C.Binary);
  check_bool "empty detects json" true (C.detect "" = C.Json)

let test_trailing_garbage_rejected () =
  let payload = C.encode_request C.Binary (P.request ~id:1 P.Ping) in
  match C.decode_request (payload ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_request_differential;
      prop_response_differential;
      prop_binary_roundtrip;
      prop_binary_robust;
    ]
  @ [
      Alcotest.test_case "non-finite floats canonicalize to null" `Quick
        test_nonfinite_floats;
      Alcotest.test_case "deadline validation parity" `Quick
        test_deadline_validation_parity;
      Alcotest.test_case "codec detection by first byte" `Quick test_detect;
      Alcotest.test_case "trailing garbage rejected" `Quick
        test_trailing_garbage_rejected;
    ]
