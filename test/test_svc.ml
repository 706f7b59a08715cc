(* The service layer: framing, protocol codecs, the bounded queue, and
   in-process end-to-end runs of the job server — backpressure, deadlines,
   graceful drain, events and metrics. *)

module J = Obs.Json
module P = Svc.Protocol

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let socket_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%s/wfa-test-%d-%d.sock" (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !n

(* ------------------------------------------------------------- framing *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payloads = [ ""; "x"; String.make 100_000 'y'; "{\"v\":1}" ] in
  let writer = Thread.create (fun () -> List.iter (Svc.Frame.write a) payloads) () in
  List.iter
    (fun expect ->
      match Svc.Frame.read b with
      | Ok got -> check_string "payload" expect got
      | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e))
    payloads;
  Thread.join writer;
  Unix.close a;
  (match Svc.Frame.read b with
  | Error Svc.Frame.Eof -> ()
  | _ -> Alcotest.fail "expected Eof at clean boundary");
  Unix.close b

let test_frame_oversized_keeps_sync () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let big = String.make 100_000 'z' in
  let writer =
    Thread.create
      (fun () ->
        Svc.Frame.write a big;
        Svc.Frame.write a "next";
        Unix.close a)
      ()
  in
  (match Svc.Frame.read ~max_len:1024 b with
  | Error (Svc.Frame.Oversized n) -> check_int "announced length" 100_000 n
  | _ -> Alcotest.fail "expected Oversized");
  (* the oversized payload was discarded: the stream is still framed *)
  (match Svc.Frame.read ~max_len:1024 b with
  | Ok got -> check_string "next frame" "next" got
  | Error e -> Alcotest.failf "read after oversized: %s" (Svc.Frame.error_string e));
  Thread.join writer;
  Unix.close b

let test_frame_desynced () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* top bit set: announces a length no writer can produce, nothing to skip *)
  let hdr = Bytes.of_string "\x80\x00\x00\x01garbage" in
  ignore (Unix.write a hdr 0 (Bytes.length hdr));
  (match Svc.Frame.read b with
  | Error (Svc.Frame.Desynced n) ->
    check_bool "beyond wire limit" true (n > Svc.Frame.max_wire_len)
  | _ -> Alcotest.fail "expected Desynced");
  Unix.close a;
  Unix.close b

let test_frame_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a header promising 100 bytes, then only 3, then EOF *)
  let hdr = Bytes.of_string "\x00\x00\x00\x64abc" in
  ignore (Unix.write a hdr 0 (Bytes.length hdr));
  Unix.close a;
  (match Svc.Frame.read b with
  | Error Svc.Frame.Truncated -> ()
  | _ -> Alcotest.fail "expected Truncated");
  Unix.close b

(* ---------------------------------------------------- incremental decode *)

let pump_all d on_frame on_error =
  let rec go () =
    match Svc.Frame.next d with
    | Ok `Await -> ()
    | Ok (`Frame p) ->
      on_frame p;
      go ()
    | Error e ->
      on_error e;
      go ()
  in
  go ()

let test_decoder_incremental () =
  (* one byte at a time across three frame boundaries, including an empty
     payload: every frame must come out exactly once, in order *)
  let d = Svc.Frame.decoder () in
  let wire =
    Svc.Frame.encode "hello" ^ Svc.Frame.encode "" ^ Svc.Frame.encode "worlds"
  in
  let b = Bytes.of_string wire in
  let got = ref [] in
  for i = 0 to Bytes.length b - 1 do
    Svc.Frame.feed d b i 1;
    pump_all d
      (fun p -> got := p :: !got)
      (fun e -> Alcotest.failf "decode: %s" (Svc.Frame.error_string e))
  done;
  check_bool "byte-by-byte frames" true
    (List.rev !got = [ "hello"; ""; "worlds" ]);
  (* and the same frames in a single feed *)
  let d = Svc.Frame.decoder () in
  Svc.Frame.feed d b 0 (Bytes.length b);
  let got = ref [] in
  pump_all d
    (fun p -> got := p :: !got)
    (fun e -> Alcotest.failf "decode: %s" (Svc.Frame.error_string e));
  check_bool "single-feed frames" true
    (List.rev !got = [ "hello"; ""; "worlds" ])

let test_decoder_oversized_skip () =
  (* an oversized frame fed in small chunks is discarded without buffering,
     reported exactly once, and the stream stays framed for what follows *)
  let d = Svc.Frame.decoder ~max_len:8 () in
  let wire =
    Svc.Frame.encode (String.make 100_000 'z') ^ Svc.Frame.encode "next"
  in
  let b = Bytes.of_string wire in
  let oversized = ref 0 in
  let frames = ref [] in
  let i = ref 0 in
  while !i < Bytes.length b do
    let len = min 7 (Bytes.length b - !i) in
    Svc.Frame.feed d b !i len;
    i := !i + len;
    pump_all d
      (fun p -> frames := p :: !frames)
      (function
        | Svc.Frame.Oversized n ->
          check_int "announced length" 100_000 n;
          incr oversized
        | e -> Alcotest.failf "decode: %s" (Svc.Frame.error_string e))
  done;
  check_int "oversized reported once" 1 !oversized;
  check_bool "stream stays framed after skip" true (!frames = [ "next" ])

let test_decoder_desynced_sticky () =
  let d = Svc.Frame.decoder () in
  let b = Bytes.of_string "\xff\xff\xff\xffjunk" in
  Svc.Frame.feed d b 0 (Bytes.length b);
  (match Svc.Frame.next d with
  | Error (Svc.Frame.Desynced n) ->
    check_bool "beyond wire limit" true (n > Svc.Frame.max_wire_len)
  | _ -> Alcotest.fail "expected Desynced");
  (* unrecoverable: feeding well-formed frames cannot resynchronize *)
  let g = Bytes.of_string (Svc.Frame.encode "x") in
  Svc.Frame.feed d g 0 (Bytes.length g);
  match Svc.Frame.next d with
  | Error (Svc.Frame.Desynced _) -> ()
  | _ -> Alcotest.fail "Desynced must be sticky"

(* ------------------------------------------------------------ protocol *)

let test_protocol_roundtrip () =
  let rq =
    P.request ~deadline_ms:250
      ~params:(J.Obj [ ("depth", J.Int 8) ])
      ~id:7 P.Scenario
  in
  (match P.request_of_json (P.request_json rq) with
  | Ok rq' ->
    check_int "id" 7 rq'.P.rq_id;
    check_bool "verb" true (rq'.P.rq_verb = P.Scenario);
    check_bool "deadline" true (rq'.P.rq_deadline_ms = Some 250);
    check_bool "params" true (J.equal rq'.P.rq_params rq.P.rq_params)
  | Error e -> Alcotest.failf "request round-trip: %s" e);
  List.iter
    (fun rs ->
      match P.response_of_json (P.response_json rs) with
      | Ok rs' ->
        check_int "id" rs.P.rs_id rs'.P.rs_id;
        check_bool "result" true (rs'.P.rs_result = rs.P.rs_result)
      | Error e -> Alcotest.failf "response round-trip: %s" e)
    [ P.ok ~id:3 (J.Str "pong"); P.error ~id:(-1) P.Overloaded "queue full" ]

let test_protocol_rejects () =
  let bad s =
    match P.parse s with
    | Error _ -> true
    | Ok j -> Result.is_error (P.request_of_json j)
  in
  List.iter
    (fun (label, s) -> check_bool label true (bad s))
    [
      ("not json", "]");
      ("not an object", "[1,2]");
      ("missing version", "{\"id\":1,\"verb\":\"ping\"}");
      ("wrong version", "{\"v\":2,\"id\":1,\"verb\":\"ping\"}");
      ("missing id", "{\"v\":1,\"verb\":\"ping\"}");
      ("unknown verb", "{\"v\":1,\"id\":1,\"verb\":\"dance\"}");
      ("params not object", "{\"v\":1,\"id\":1,\"verb\":\"ping\",\"params\":3}");
      ( "non-positive deadline",
        "{\"v\":1,\"id\":1,\"verb\":\"ping\",\"deadline_ms\":0}" );
    ]

(* --------------------------------------------------------------- jobq *)

let test_jobq_bound_and_order () =
  let q = Svc.Jobq.create ~bound:2 () in
  check_bool "push 1" true (Svc.Jobq.try_push q 1 = `Ok);
  check_bool "push 2" true (Svc.Jobq.try_push q 2 = `Ok);
  check_bool "push 3 is Full" true (Svc.Jobq.try_push q 3 = `Full);
  check_int "length" 2 (Svc.Jobq.length q);
  check_bool "pop 1" true (Svc.Jobq.pop q = Some 1);
  check_bool "push 4 after pop" true (Svc.Jobq.try_push q 4 = `Ok);
  Svc.Jobq.close q;
  check_bool "push after close" true (Svc.Jobq.try_push q 5 = `Closed);
  (* close drains: already-accepted items still come out, then None *)
  check_bool "drain 2" true (Svc.Jobq.pop q = Some 2);
  check_bool "drain 4" true (Svc.Jobq.pop q = Some 4);
  check_bool "empty after drain" true (Svc.Jobq.pop q = None)

(* Fair dequeue: a greedy client (conn 0) and a polite one (conn 1) share
   a keyed queue of bound 2. The bound stays global — greed is rejected at
   admission — and pops alternate between the classes, so the polite
   client's request waits behind at most one greedy job per round. *)
let test_jobq_fair_dequeue () =
  let q = Svc.Jobq.create ~key:fst ~bound:2 () in
  check_bool "greedy 1" true (Svc.Jobq.try_push q (0, 1) = `Ok);
  check_bool "greedy 2" true (Svc.Jobq.try_push q (0, 2) = `Ok);
  check_bool "greedy over bound" true (Svc.Jobq.try_push q (0, 3) = `Full);
  check_bool "first pop is greedy" true (Svc.Jobq.pop q = Some (0, 1));
  check_bool "polite wins freed slot" true (Svc.Jobq.try_push q (1, 1) = `Ok);
  check_bool "greedy still rejected" true (Svc.Jobq.try_push q (0, 3) = `Full);
  (* rotation: conn 0's turn, then conn 1's — even though (0,3) below is
     pushed before conn 1 is served again *)
  check_bool "round-robin serves 0" true (Svc.Jobq.pop q = Some (0, 2));
  check_bool "greedy refills" true (Svc.Jobq.try_push q (0, 3) = `Ok);
  check_bool "round-robin serves 1" true (Svc.Jobq.pop q = Some (1, 1));
  check_bool "then 0 again" true (Svc.Jobq.pop q = Some (0, 3));
  (* interleaving with a backlog: 3 greedy jobs queued ahead of 1 polite
     one; FIFO would serve the polite job last, round-robin serves it
     second *)
  let q = Svc.Jobq.create ~key:fst ~bound:4 () in
  List.iter
    (fun x -> check_bool "push" true (Svc.Jobq.try_push q x = `Ok))
    [ (0, 1); (0, 2); (0, 3); (1, 9) ];
  let order = List.init 4 (fun _ -> Option.get (Svc.Jobq.pop q)) in
  check_bool "polite served second" true
    (order = [ (0, 1); (1, 9); (0, 2); (0, 3) ])

let test_jobq_blocking_pop () =
  let q = Svc.Jobq.create ~bound:4 () in
  let got = Atomic.make (-1) in
  let consumer =
    Thread.create
      (fun () ->
        match Svc.Jobq.pop q with
        | Some v -> Atomic.set got v
        | None -> Atomic.set got (-2))
      ()
  in
  Thread.delay 0.02;
  check_bool "push wakes" true (Svc.Jobq.try_push q 42 = `Ok);
  Thread.join consumer;
  check_int "popped" 42 (Atomic.get got)

(* connect against nothing (ENOENT, retryable): a 400 ms backoff doubling
   over 10 retries would sleep for many seconds, but the 200 ms deadline
   budget clamps the first sleep and forbids the second attempt *)
let test_connect_deadline_clamp () =
  let path = socket_path () in
  let t0 = Obs.Clock.now_ns () in
  (try
     let c =
       Svc.Client.connect ~retries:10 ~backoff_ms:400 ~deadline_ms:200 path
     in
     Svc.Client.close c;
     Alcotest.fail "connected with no server listening"
   with Unix.Unix_error _ -> ());
  let elapsed = Obs.Clock.elapsed_s ~since:t0 in
  check_bool
    (Printf.sprintf "gave up inside the budget (%.3fs)" elapsed)
    true
    (elapsed < 1.5)

(* ----------------------------------------------------------- end-to-end *)

(* A solve, model check or fuzz travels as a [scenario] request: [as_scenario]
   wraps a work verb's params in a spec (its expectation, which the server
   does not read, is one every verb accepts), and [result] unwraps the
   work's result from the reply. *)
let as_scenario verb params =
  J.Obj
    [
      ("v", J.Int 1);
      ("name", J.Str "t");
      ("verb", J.Str verb);
      ("params", params);
      ("expect", J.Obj [ ("outcome", J.Str "violation") ]);
    ]

let result reply =
  match J.member "result" reply with
  | Some r -> r
  | None -> Alcotest.failf "no result in %s" (J.to_string reply)

let with_server ?sink ?registry cfg f =
  let t = Svc.Server.start ?sink ?registry cfg in
  Fun.protect
    ~finally:(fun () ->
      Svc.Server.shutdown t;
      Svc.Server.wait t)
    (fun () -> f t)

let default_cfg path =
  {
    (Svc.Server.default_config ~listen:(Svc.Addr.Unix_path path)) with
    workers = 1;
  }

let test_server_ping_solve_stats () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | r ->
        Alcotest.failf "ping: %s"
          (match r with
          | Ok j -> J.to_string j
          | Error e -> Svc.Client.error_string e));
      (match
         Svc.Client.call
           ~params:
             (as_scenario "solve"
                (J.Obj [ ("task", J.Str "consensus"); ("n", J.Int 3) ]))
           c P.Scenario
       with
      | Ok j ->
        check_bool "solve ok" true
          (J.member "ok" (result j) = Some (J.Bool true))
      | Error e -> Alcotest.failf "solve: %s" (Svc.Client.error_string e));
      (match Svc.Client.call c P.Stats with
      | Ok j -> (
        match J.member "accepted" j with
        | Some (J.Int n) -> check_bool "accepted >= 1" true (n >= 1)
        | _ -> Alcotest.fail "stats: no accepted field")
      | Error e -> Alcotest.failf "stats: %s" (Svc.Client.error_string e));
      (* malformed params are a clean bad_request, not a dead worker *)
      (match
         Svc.Client.call
           ~params:(as_scenario "solve" (J.Obj [ ("task", J.Str "nope") ]))
           c P.Scenario
       with
      | Error (Svc.Client.Server (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "expected bad_request");
      (* so is a tree whose schedule count overflows an int (3^40) *)
      (match
         Svc.Client.call
           ~params:
             (as_scenario "modelcheck"
                (J.Obj [ ("depth", J.Int 40); ("n_s", J.Int 1) ]))
           c P.Scenario
       with
      | Error (Svc.Client.Server (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "expected bad_request for 3^40 schedules");
      (* and the worker still serves afterwards *)
      (match
         Svc.Client.call
           ~params:(as_scenario "modelcheck" (J.Obj [ ("depth", J.Int 6) ]))
           c P.Scenario
       with
      | Ok j ->
        check_bool "modelcheck ok" true
          (J.member "verdict" (result j) = Some (J.Str "ok"))
      | Error e -> Alcotest.failf "modelcheck: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

(* Raw pipelined connection: write several requests without waiting, then
   collect every response, keyed by id. *)
let raw_calls path requests =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  List.iter
    (fun rq -> Svc.Frame.write fd (J.to_string (P.request_json rq)))
    requests;
  let replies = Hashtbl.create 8 in
  let rec collect n =
    if n > 0 then
      match Svc.Frame.read ~max_len:(64 * 1024 * 1024) fd with
      | Ok payload ->
        (match P.parse payload with
        | Ok j -> (
          match P.response_of_json j with
          | Ok rs ->
            Hashtbl.replace replies rs.P.rs_id rs.P.rs_result;
            collect (n - 1)
          | Error e -> Alcotest.failf "bad response: %s" e)
        | Error e -> Alcotest.failf "bad response JSON: %s" e)
      | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
  in
  collect (List.length requests);
  Unix.close fd;
  replies

(* about 40 ms of search on a 2-vCPU host: long enough that pings overtake
   it, a 5 ms deadline trips on it and a queue of them fills *)
let slow_params =
  as_scenario "modelcheck" (J.Obj [ ("depth", J.Int 20); ("n_s", J.Int 2) ])

let slow_modelcheck ?deadline_ms ~id () =
  P.request ?deadline_ms ~params:slow_params ~id P.Scenario

let test_server_backpressure () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with queue_bound = 1 } in
  with_server cfg (fun _ ->
      (* one worker, bound 1: the first slow job occupies the worker, the
         second fills the queue, the rest must be rejected as overloaded *)
      let replies =
        raw_calls path (List.init 5 (fun i -> slow_modelcheck ~id:i ()))
      in
      let ok, overloaded =
        Hashtbl.fold
          (fun _ r (ok, ov) ->
            match r with
            | Ok _ -> (ok + 1, ov)
            | Error (P.Overloaded, _) -> (ok, ov + 1)
            | Error (c, m) ->
              Alcotest.failf "unexpected error %s: %s" (P.err_code_string c) m)
          replies (0, 0)
      in
      check_int "every request answered" 5 (ok + overloaded);
      check_bool "some rejected with overloaded" true (overloaded >= 1);
      check_bool "some served" true (ok >= 1))

let test_server_deadline () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      (* [slow_params] runs for tens of milliseconds; a 5 ms deadline trips
         either while queued or mid-execution — both are deadline_exceeded,
         and the cancelled engine reports no verdict *)
      (match
         Svc.Client.call ~deadline_ms:5 ~params:slow_params c P.Scenario
       with
      | Error (Svc.Client.Server (P.Deadline_exceeded, _)) -> ()
      | Ok _ -> Alcotest.fail "deadline did not trip"
      | Error e -> Alcotest.failf "deadline: %s" (Svc.Client.error_string e));
      (* the worker survives a timed-out job *)
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "ping after timeout");
      Svc.Client.close c)

let test_server_client_eof_with_inflight_job () =
  let path = socket_path () in
  let t = Svc.Server.start (default_cfg path) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Svc.Frame.write fd (J.to_string (P.request_json (slow_modelcheck ~id:1 ())));
  (* hang up before the reply: the job must still run to completion and
     write into a descriptor the refcount kept open (never one the kernel
     reused), and the server must stay serviceable *)
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_served () =
    match J.member "served" (Svc.Server.stats_json t) with
    | Some (J.Int n) when n >= 1 -> ()
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "job was not served after client EOF";
      Thread.delay 0.005;
      wait_served ()
  in
  wait_served ();
  let c = Svc.Client.connect path in
  (match Svc.Client.call c P.Ping with
  | Ok (J.Str "pong") -> ()
  | _ -> Alcotest.fail "ping after orphaned job");
  Svc.Client.close c;
  Svc.Server.shutdown t;
  Svc.Server.wait t

let test_server_drain_loses_nothing () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with queue_bound = 8 } in
  let t = Svc.Server.start cfg in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let jobs = 4 in
  List.iter
    (fun rq -> Svc.Frame.write fd (J.to_string (P.request_json rq)))
    (List.init jobs (fun i ->
         P.request
           ~params:(as_scenario "modelcheck" (J.Obj [ ("depth", J.Int 10) ]))
           ~id:i P.Scenario));
  (* wait until all four are accepted (connection handshake and dispatch
     are asynchronous), then shut down with them queued/in-flight: every
     accepted job must still be answered *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_accepted () =
    match J.member "accepted" (Svc.Server.stats_json t) with
    | Some (J.Int n) when n >= jobs -> ()
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "jobs were not accepted in time";
      Thread.delay 0.005;
      wait_accepted ()
  in
  wait_accepted ();
  Svc.Server.shutdown t;
  let answered = ref 0 in
  (try
     for _ = 1 to jobs do
       match Svc.Frame.read ~max_len:(64 * 1024 * 1024) fd with
       | Ok payload ->
         (match Result.bind (P.parse payload) P.response_of_json with
         | Ok { P.rs_result = Ok _; _ } -> incr answered
         | Ok { P.rs_result = Error (c, m); _ } ->
           Alcotest.failf "drained job failed %s: %s" (P.err_code_string c) m
         | Error e -> Alcotest.failf "bad response: %s" e)
       | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
     done
   with e ->
     Unix.close fd;
     raise e);
  Unix.close fd;
  Svc.Server.wait t;
  check_int "zero accepted jobs lost" jobs !answered

let test_server_oversized_and_events () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with max_frame = 256 } in
  let sink, events = Obs.Sink.buffer () in
  let registry = Obs.Metrics.registry () in
  with_server ~sink ~registry cfg (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      Svc.Frame.write fd (String.make 1000 ' ');
      (match Result.bind (P.parse (Result.get_ok (Svc.Frame.read fd)))
               P.response_of_json with
      | Ok { P.rs_id = -1; rs_result = Error (P.Oversized, _) } -> ()
      | _ -> Alcotest.fail "expected oversized reply with id -1");
      (* the connection survives; a well-formed request still works *)
      Svc.Frame.write fd (J.to_string (P.request_json (P.request ~id:9 P.Ping)));
      (match Result.bind (P.parse (Result.get_ok (Svc.Frame.read fd)))
               P.response_of_json with
      | Ok { P.rs_id = 9; rs_result = Ok (J.Str "pong") } -> ()
      | _ -> Alcotest.fail "expected pong after oversized");
      Unix.close fd;
      Thread.delay 0.05);
  let names = List.map (fun e -> e.Obs.Event.name) (events ()) in
  let has n = List.mem n names in
  check_bool "svc.start" true (has Obs.Event.Name.svc_start);
  check_bool "svc.conn.open" true (has Obs.Event.Name.svc_conn_open);
  check_bool "svc.reject" true (has Obs.Event.Name.svc_reject);
  check_bool "svc.drain" true (has Obs.Event.Name.svc_drain);
  check_bool "svc.stop" true (has Obs.Event.Name.svc_stop);
  (* the reject landed in the labeled counter too *)
  let rejected = ref 0 in
  Obs.Metrics.iter_counters registry (fun name labels v ->
      if name = "svc.requests.rejected" && labels = [ ("code", "oversized") ]
      then rejected := v);
  check_int "rejected{code=oversized}" 1 !rejected

let test_server_desynced_frame_closes_conn () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* an unframeable header: the stream can never resynchronize, so the
         server must answer once and hang up rather than misparse payload
         bytes as frames *)
      ignore (Unix.write fd (Bytes.of_string "\xff\xff\xff\xff") 0 4);
      (match
         Result.bind
           (P.parse (Result.get_ok (Svc.Frame.read fd)))
           P.response_of_json
       with
      | Ok { P.rs_id = -1; rs_result = Error (P.Oversized, _) } -> ()
      | _ -> Alcotest.fail "expected oversized reply with id -1");
      (match Svc.Frame.read fd with
      | Error Svc.Frame.Eof -> ()
      | _ -> Alcotest.fail "expected the server to close the connection");
      Unix.close fd)

let test_server_shutdown_verb_refuses_new () =
  let path = socket_path () in
  let t = Svc.Server.start (default_cfg path) in
  let c = Svc.Client.connect path in
  (match Svc.Client.call c P.Shutdown with
  | Ok (J.Str "draining") -> ()
  | _ -> Alcotest.fail "shutdown reply");
  (* a queued verb on the draining server is refused, not queued *)
  (match
     Svc.Client.call
       ~params:(as_scenario "modelcheck" (J.Obj [ ("depth", J.Int 6) ]))
       c P.Scenario
   with
  | Error (Svc.Client.Server (P.Shutting_down, _)) -> ()
  | Error (Svc.Client.Transport _) -> ()  (* conn already torn down: also fine *)
  | Error (Svc.Client.Server (c, m)) ->
    Alcotest.failf "unexpected error %s: %s" (P.err_code_string c) m
  | Ok _ -> Alcotest.fail "request accepted after shutdown");
  Svc.Client.close c;
  Svc.Server.wait t

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_server_deadline_bomb () =
  (* parse-level boundary: the largest legal deadline is accepted, one
     past it is not *)
  let rq_json ms =
    J.Obj
      [
        ("v", J.Int 1);
        ("id", J.Int 1);
        ("verb", J.Str "ping");
        ("deadline_ms", J.Int ms);
      ]
  in
  check_bool "max_deadline_ms accepted" true
    (Result.is_ok (P.request_of_json (rq_json P.max_deadline_ms)));
  check_bool "max_deadline_ms + 1 rejected" true
    (Result.is_error (P.request_of_json (rq_json (P.max_deadline_ms + 1))));
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      (* ~295 years in ms: times 10^6 this overflows int64 nanoseconds,
         which used to wrap the absolute deadline negative and kill the
         job with deadline_exceeded on arrival; it must be a parse-time
         bad_request instead *)
      Svc.Frame.write fd
        "{\"v\":1,\"id\":7,\"verb\":\"scenario\",\"deadline_ms\":9300000000000}";
      (match
         Result.bind
           (P.parse (Result.get_ok (Svc.Frame.read fd)))
           P.response_of_json
       with
      | Ok { P.rs_id = -1; rs_result = Error (P.Bad_request, msg) } ->
        check_bool "error names deadline_ms" true (contains msg "deadline_ms")
      | _ -> Alcotest.fail "expected bad_request for the deadline bomb");
      Unix.close fd;
      (* the boundary value means "far future", never an instant timeout *)
      let c = Svc.Client.connect path in
      (match
         Svc.Client.call ~deadline_ms:P.max_deadline_ms
           ~params:(as_scenario "modelcheck" (J.Obj [ ("depth", J.Int 6) ]))
           c P.Scenario
       with
      | Ok j ->
        check_bool "verdict ok" true
          (J.member "verdict" (result j) = Some (J.Str "ok"))
      | Error e ->
        Alcotest.failf "max deadline: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

let test_deadline_cancel_first_poll () =
  (* the cancel hook must consult the clock on its FIRST call: a deadline
     already expired at dispatch used to survive 255 polls of the throttle
     window before anyone looked at the clock *)
  let now = Obs.Clock.now_ns () in
  let expired = Svc.Pool.deadline_cancel (Int64.sub now 1L) in
  check_bool "expired deadline trips on the first poll" true (expired ());
  check_bool "and stays tripped" true (expired ());
  let far = Svc.Pool.deadline_cancel (Int64.add now 60_000_000_000L) in
  check_bool "a far-future deadline does not trip" false (far ())

let test_server_pipelining_out_of_order () =
  let path = socket_path () in
  (* one worker: the slow job sent FIRST must be answered LAST, overtaken
     by the pings the shard answers inline while the job runs *)
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let pings = 8 in
      List.iter
        (fun rq -> Svc.Frame.write fd (J.to_string (P.request_json rq)))
        (slow_modelcheck ~id:0 ()
        :: List.init pings (fun i -> P.request ~id:(i + 1) P.Ping));
      let order = ref [] in
      for _ = 0 to pings do
        match Svc.Frame.read ~max_len:(64 * 1024 * 1024) fd with
        | Ok payload -> (
          match Result.bind (P.parse payload) P.response_of_json with
          | Ok rs ->
            (match rs.P.rs_result with
            | Ok _ -> ()
            | Error (c, m) ->
              Alcotest.failf "id %d failed %s: %s" rs.P.rs_id
                (P.err_code_string c) m);
            order := rs.P.rs_id :: !order
          | Error e -> Alcotest.failf "bad response: %s" e)
        | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
      done;
      let order = List.rev !order in
      check_int "every request answered" (pings + 1) (List.length order);
      check_int "slow job answered last, out of send order" 0
        (List.nth order pings);
      (* ping responses from one connection keep their relative order *)
      List.iteri
        (fun i id -> if i < pings then check_int "ping order" (i + 1) id)
        order;
      Unix.close fd)

(* One subtree job of a [run]: safe-agreement over 5 pids below [p1]. At
   depth 20 it runs far longer than any test waits; at depth 6 it takes
   milliseconds. *)
let subtree_job ~run ~depth =
  J.Obj
    [
      ("scenario", J.Str "safe-agreement");
      ("n_s", J.Int 3);
      ("depth", J.Int depth);
      ("reduce", J.Bool false);
      ("run", J.Str run);
      ( "job",
        Simkit.Exhaustive.subtree_json
          {
            Simkit.Exhaustive.sj_id = 0;
            sj_prefix = [ Simkit.Pid.c 0 ];
            sj_sleep = [];
            sj_factor = 1;
            sj_used = [];
          } );
    ]

let int_member name j =
  match Option.bind (J.member name j) J.to_int_opt with
  | Some n -> n
  | None -> Alcotest.failf "no integer %S in %s" name (J.to_string j)

(* Poll [stats] on [c] until [f] holds of it: the pool has reached a
   state the test needs (a job running, jobs queued). *)
let await_stats c what f =
  let rec go tries =
    match Svc.Client.call c P.Stats with
    | Ok st when f st -> ()
    | Ok st when tries = 0 ->
      Alcotest.failf "%s never held: %s" what (J.to_string st)
    | Ok _ ->
      Thread.delay 0.005;
      go (tries - 1)
    | Error e -> Alcotest.failf "stats: %s" (Svc.Client.error_string e)
  in
  go 2000

(* A cancel names a run: it drops that run's queued jobs, stops its
   running one at the engine's next poll (each answers [cancelled]),
   leaves another run's job alone, and is a no-op for a run with nothing
   queued or running. Over both codecs. *)
let test_server_cancel () =
  List.iter
    (fun codec ->
      let cname = P.Codec.to_string codec in
      let path = socket_path () in
      with_server (default_cfg path) (fun _ ->
          let jobs = Svc.Client.connect ~codec path in
          let ctl = Svc.Client.connect ~codec path in
          let send params =
            match Svc.Client.send ~params jobs P.Subtree with
            | Ok id -> id
            | Error e -> Alcotest.failf "send: %s" (Svc.Client.error_string e)
          in
          let cancel run =
            match
              Svc.Client.call ~params:(P.cancel_params run) ctl P.Cancel
            with
            | Ok r -> int_member "cancelled" r
            | Error e -> Alcotest.failf "cancel: %s" (Svc.Client.error_string e)
          in
          let running = send (subtree_job ~run:"r1" ~depth:20) in
          await_stats ctl "one job running" (fun st ->
              int_member "inflight" st = 1 && int_member "queue_depth" st = 0);
          let queued = [ send (subtree_job ~run:"r1" ~depth:20) ] in
          let other = send (subtree_job ~run:"r2" ~depth:6) in
          let queued = send (subtree_job ~run:"r1" ~depth:20) :: queued in
          await_stats ctl "three jobs queued" (fun st ->
              int_member "queue_depth" st = 3);
          check_int (cname ^ ": unknown run is a no-op") 0 (cancel "r3");
          check_int (cname ^ ": still queued") 3
            (int_member "queue_depth"
               (Result.get_ok (Svc.Client.call ctl P.Stats)));
          let t0 = Unix.gettimeofday () in
          check_int (cname ^ ": r1's running and queued jobs") 3 (cancel "r1");
          let replies = Hashtbl.create 4 in
          for _ = 1 to 4 do
            match Svc.Client.recv jobs with
            | Ok (id, r) ->
              Hashtbl.replace replies id (r, Unix.gettimeofday () -. t0)
            | Error e -> Alcotest.failf "recv: %s" (Svc.Client.error_string e)
          done;
          let cancelled id =
            match Hashtbl.find_opt replies id with
            | Some (Error (Svc.Client.Server (P.Cancelled, _)), s) -> Some s
            | _ -> None
          in
          List.iter
            (fun id ->
              check_bool (cname ^ ": queued r1 job cancelled") true
                (cancelled id <> None))
            queued;
          (match cancelled running with
          | Some s ->
            check_bool
              (Printf.sprintf "%s: running job stopped (%.3f s)" cname s)
              true (s < 5.)
          | None -> Alcotest.failf "%s: the running r1 job was not cancelled" cname);
          (match Hashtbl.find_opt replies other with
          | Some (Ok r, _) ->
            check_bool (cname ^ ": r2's job ran to its verdict") true
              (J.member "verdict" r = Some (J.Str "ok"))
          | _ -> Alcotest.failf "%s: r2's job did not answer ok" cname);
          (match Svc.Client.call ~params:(J.Obj []) ctl P.Cancel with
          | Error (Svc.Client.Server (P.Bad_request, _)) -> ()
          | _ -> Alcotest.failf "%s: a cancel without a run is refused" cname);
          check_int (cname ^ ": a finished run has nothing to cancel") 0
            (cancel "r1");
          Svc.Client.close jobs;
          Svc.Client.close ctl))
    [ P.Codec.Json; P.Codec.Binary ]

let test_server_reply_cap () =
  let path = socket_path () in
  let cfg = { (default_cfg path) with max_reply = 256 } in
  with_server cfg (fun _ ->
      let c = Svc.Client.connect path in
      (* a solve report is far larger than 256 bytes: it must degrade to a
         bounded oversized error carrying the request's id — pre-fix the
         unframeable reply escaped as an exception and killed the
         connection's thread mid-write *)
      (match
         Svc.Client.call
           ~params:
             (as_scenario "solve"
                (J.Obj [ ("task", J.Str "consensus"); ("n", J.Int 3) ]))
           c P.Scenario
       with
      | Error (Svc.Client.Server (P.Oversized, msg)) ->
        check_bool "error names the reply limit" true
          (contains msg "reply limit")
      | Ok j ->
        Alcotest.failf "reply of %d bytes was not capped"
          (String.length (J.to_string j))
      | Error e -> Alcotest.failf "solve: %s" (Svc.Client.error_string e));
      (* the connection survives, and small replies still fit *)
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "ping after capped reply");
      Svc.Client.close c)

let test_server_run_twice_restores_signals () =
  let hits = Atomic.make 0 in
  let mine = Sys.Signal_handle (fun _ -> Atomic.incr hits) in
  let prev = Sys.signal Sys.sigterm mine in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigterm prev)
    (fun () ->
      let serve_and_stop () =
        let path = socket_path () in
        let th = Thread.create (fun () -> Svc.Server.run (default_cfg path)) () in
        let deadline = Unix.gettimeofday () +. 10. in
        let rec connect () =
          match Svc.Client.connect path with
          | c -> c
          | exception Unix.Unix_error _ ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "server did not come up";
            Thread.delay 0.01;
            connect ()
        in
        let c = connect () in
        (match Svc.Client.call c P.Shutdown with
        | Ok (J.Str "draining") -> ()
        | _ -> Alcotest.fail "shutdown reply");
        Svc.Client.close c;
        Thread.join th
      in
      let expect_hits label n =
        let deadline = Unix.gettimeofday () +. 5. in
        while Atomic.get hits < n && Unix.gettimeofday () < deadline do
          Thread.delay 0.005
        done;
        check_int label n (Atomic.get hits)
      in
      (* run installs its own SIGTERM/SIGINT handlers; when it returns it
         must put OURS back — pre-fix the stale handler kept pointing a
         later SIGTERM at the dead server's shutdown *)
      serve_and_stop ();
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      expect_hits "handler restored after first run" 1;
      (* and a second server in the same process starts, serves, stops *)
      serve_and_stop ();
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      expect_hits "handler restored after second run" 2)

(* ------------------------------------------------- addresses and TCP *)

let test_addr_parse () =
  let ok s expect =
    match Svc.Addr.of_string s with
    | Ok a -> check_string s expect (Svc.Addr.to_string a)
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  ok "/tmp/x.sock" "unix:/tmp/x.sock";
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:127.0.0.1:4000" "tcp:127.0.0.1:4000";
  ok "tcp::0" "tcp::0";
  ok "tcp:host.example:65535" "tcp:host.example:65535";
  List.iter
    (fun s ->
      match Svc.Addr.of_string s with
      | Ok a -> Alcotest.failf "%s parsed as %s" s (Svc.Addr.to_string a)
      | Error _ -> ())
    [ ""; "unix:"; "tcp:127.0.0.1"; "tcp:h:66000"; "tcp:h:-1"; "tcp:h:x" ];
  (* round-trip through to_string *)
  (match Svc.Addr.of_string "tcp::9" with
  | Ok a -> check_bool "reparse" true (Svc.Addr.of_string (Svc.Addr.to_string a) = Ok a)
  | Error e -> Alcotest.fail e)

(* the same end-to-end server, over a kernel-chosen TCP port: ping, a job
   verb, and listen_addr reporting the real port back *)
let test_server_tcp () =
  let cfg =
    {
      (Svc.Server.default_config
         ~listen:(Svc.Addr.Tcp ("127.0.0.1", 0)))
      with
      workers = 1;
    }
  in
  with_server cfg (fun t ->
      let addr = Svc.Server.listen_addr t in
      (match addr with
      | Svc.Addr.Tcp ("127.0.0.1", p) ->
        check_bool "kernel picked a real port" true (p > 0)
      | a -> Alcotest.failf "bound %s" (Svc.Addr.to_string a));
      let c = Svc.Client.connect (Svc.Addr.to_string addr) in
      (match Svc.Client.call c P.Ping with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "ping over tcp");
      (match
         Svc.Client.call
           ~params:(as_scenario "modelcheck" (J.Obj [ ("depth", J.Int 5) ]))
           c P.Scenario
       with
      | Ok j ->
        check_bool "modelcheck over tcp" true
          (J.member "verdict" (result j) = Some (J.Str "ok"))
      | Error e -> Alcotest.failf "modelcheck: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

let test_server_metrics_verb () =
  let path = socket_path () in
  let registry = Obs.Metrics.registry () in
  with_server ~registry (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      (* inline verbs don't touch the registry; run one pool job so the
         accepted/latency metrics exist before the snapshot *)
      (match
         Svc.Client.call
           ~params:(as_scenario "modelcheck" (J.Obj [ ("depth", J.Int 4) ]))
           c P.Scenario
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "modelcheck: %s" (Svc.Client.error_string e));
      (match Svc.Client.call c P.Metrics with
      | Ok j -> (
        match J.member "metrics" j with
        | Some (J.List ms) ->
          (* the server's own counters live in the registry the snapshot
             reads — at least the accepted-requests counter must show *)
          check_bool "some metrics" true (ms <> [])
        | _ -> Alcotest.fail "metrics: no metrics list")
      | Error e -> Alcotest.failf "metrics: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

(* A binary client sends binary from its first frame: connecting takes no
   round trip, so it connects to a listener that never answers, and the
   verb surface works over binary, errors included. *)
let test_binary_client () =
  let path = socket_path () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  let c = Svc.Client.connect ~codec:P.Codec.Binary path in
  ignore (Svc.Client.send c P.Ping);
  let fd, _ = Unix.accept listener in
  (match Svc.Frame.read fd with
  | Ok payload ->
    check_bool "first frame is binary" true
      (P.Codec.detect payload = P.Codec.Binary)
  | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e));
  List.iter Unix.close [ fd; listener ];
  Sys.remove path;
  Svc.Client.close c;
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect ~codec:P.Codec.Binary path in
      (match
         Svc.Client.call
           ~params:
             (as_scenario "solve"
                (J.Obj [ ("task", J.Str "consensus"); ("n", J.Int 3) ]))
           c P.Scenario
       with
      | Ok j ->
        check_bool "solve over binary" true
          (J.member "ok" (result j) = Some (J.Bool true))
      | Error e -> Alcotest.failf "solve: %s" (Svc.Client.error_string e));
      (match
         Svc.Client.call
           ~params:(as_scenario "solve" (J.Obj [ ("task", J.Str "nope") ]))
           c P.Scenario
       with
      | Error (Svc.Client.Server (P.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "expected bad_request over binary");
      Svc.Client.close c)

(* Retired verbs: a JSON hello, which a client from before its retirement
   opens with to offer binary, and a binary frame with its old verb tag 8
   each get bad_request (such a client takes it as "no binary" and stays
   on JSON); so do the native solve, modelcheck and fuzz verbs, with
   params that a scenario spec of theirs would run, in JSON and as binary
   verb tags 3, 4 and 6. The connection then answers a ping. *)
let test_retired_verbs () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let reply frame =
        Svc.Frame.write fd frame;
        match Result.map P.Codec.decode_response (Svc.Frame.read fd) with
        | Ok (Ok rs) -> rs.P.rs_result
        | Ok (Error e) -> Alcotest.failf "decode: %s" e
        | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
      in
      let native =
        [
          ("solve", J.Obj [ ("task", J.Str "consensus"); ("n", J.Int 3) ]);
          ("modelcheck", J.Obj [ ("depth", J.Int 4) ]);
          ("fuzz", J.Obj [ ("n", J.Int 4); ("budget", J.Int 10) ]);
        ]
      in
      (* a binary request for [params] under verb tag [tag] *)
      let tagged tag params =
        let b =
          Bytes.of_string
            (P.Codec.encode_request P.Codec.Binary
               (P.request ~params ~id:2 P.Ping))
        in
        Bytes.set b 3 (Char.chr tag);
        ("binary verb tag " ^ string_of_int tag, Bytes.to_string b)
      in
      List.iter
        (fun (what, frame) ->
          match reply frame with
          | Error (P.Bad_request, _) -> ()
          | _ -> Alcotest.failf "%s: expected bad_request" what)
        ([
           ( "json hello",
             {|{"v":1,"id":1,"verb":"hello","params":{"codec":"binary"}}|} );
           tagged 8 (J.Obj []);
         ]
        @ List.map
            (fun (verb, params) ->
              ( "json " ^ verb,
                J.to_string
                  (J.Obj
                     [
                       ("v", J.Int 1); ("id", J.Int 1); ("verb", J.Str verb);
                       ("params", params);
                     ]) ))
            native
        @ List.map2 tagged [ 3; 4; 6 ] (List.map snd native));
      (match reply (J.to_string (P.request_json (P.request ~id:3 P.Ping))) with
      | Ok (J.Str "pong") -> ()
      | _ -> Alcotest.fail "ping after the refusals");
      Unix.close fd)

(* frames self-describe their codec, so one connection can mix them freely;
   each reply echoes its request's codec, and the fast-path binary pong is
   byte-identical to the generic encoder's output *)
let test_codec_mixed_frames () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let send codec rq = Svc.Frame.write fd (P.Codec.encode_request codec rq) in
      (* a fast-path binary ping, a generic binary ping (the deadline flag
         disqualifies the fast path), and a JSON ping, pipelined *)
      send P.Codec.Binary (P.request ~id:5 P.Ping);
      send P.Codec.Binary (P.request ~deadline_ms:60_000 ~id:6 P.Ping);
      send P.Codec.Json (P.request ~id:7 P.Ping);
      let replies = Hashtbl.create 4 in
      for _ = 1 to 3 do
        match Svc.Frame.read fd with
        | Ok payload -> (
          match P.Codec.decode_response payload with
          | Ok rs -> Hashtbl.replace replies rs.P.rs_id (payload, rs.P.rs_result)
          | Error e -> Alcotest.failf "decode: %s" e)
        | Error e -> Alcotest.failf "read: %s" (Svc.Frame.error_string e)
      done;
      Unix.close fd;
      let reply id =
        match Hashtbl.find_opt replies id with
        | Some r -> r
        | None -> Alcotest.failf "no reply for id %d" id
      in
      List.iter
        (fun (id, codec) ->
          let payload, result = reply id in
          (match result with
          | Ok (J.Str "pong") -> ()
          | _ -> Alcotest.failf "id %d: expected pong" id);
          check_bool "reply codec echoes request codec" true
            (P.Codec.detect payload = codec))
        [ (5, P.Codec.Binary); (6, P.Codec.Binary); (7, P.Codec.Json) ];
      (* the in-place fast path and the generic encoder must be
         indistinguishable on the wire *)
      let fast, _ = reply 5 in
      check_bool "fast-path pong equals generic encoding" true
        (fast = P.Codec.encode_response P.Codec.Binary (P.ok ~id:5 (J.Str "pong"))))

(* --------------------------------------------------- cost per request *)

(* Minor words per JSON ping round trip, connect and close included.
   Client, accept thread and shards run on this domain and allocate into
   its minor heap, so the counter sees the whole path. The shard answers
   a ping itself: [accepted] counts pool jobs and stays 0. *)
let json_ping_words ?sink () =
  let path = socket_path () in
  with_server ?sink (default_cfg path) (fun t ->
      let pings n =
        let c = Svc.Client.connect path in
        for _ = 1 to n do
          match Svc.Client.call c P.Ping with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "ping: %s" (Svc.Client.error_string e)
        done;
        Svc.Client.close c
      in
      pings 50;
      let n = 400 in
      let w0 = Gc.minor_words () in
      pings n;
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      check_int "no ping took a pool job" 0
        (int_member "accepted" (Svc.Server.stats_json t));
      words)

(* Minor words per canonical binary ping, which the shard answers in
   place: its id is blitted into a pong made once. Windows of 256 share
   each poll wakeup's bookkeeping, as a pipelining client's do. *)
let binary_ping_words () =
  let path = socket_path () in
  with_server ~sink:(Obs.Sink.null ()) (default_cfg path) (fun _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let window = 256 in
      let ping =
        Svc.Frame.encode
          (P.Codec.encode_request P.Codec.Binary (P.request ~id:1 P.Ping))
      in
      let pong =
        Svc.Frame.encode
          (P.Codec.encode_response P.Codec.Binary (P.ok ~id:1 (J.Str "pong")))
      in
      let batch = String.concat "" (List.init window (fun _ -> ping)) in
      let replies = Bytes.create (window * String.length pong) in
      let round () =
        ignore (Unix.write_substring fd batch 0 (String.length batch));
        let got = ref 0 in
        while !got < Bytes.length replies do
          match Unix.read fd replies !got (Bytes.length replies - !got) with
          | 0 -> Alcotest.fail "server closed mid-window"
          | n -> got := !got + n
        done
      in
      for _ = 1 to 20 do
        round ()
      done;
      let rounds = 100 in
      let w0 = Gc.minor_words () in
      for _ = 1 to rounds do
        round ()
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int (rounds * window) in
      Unix.close fd;
      words)

(* Bounds on a ping's allocation: a JSON ping at 1.5x the 1,055 words it
   took when this test was written; a null sink under 16 words over no
   sink (it adds under 1, and an event built per ping adds 41); the binary
   fast path under 16 words (0.22, and 94 without the fast path). *)
let test_ping_words () =
  let bare = json_ping_words () in
  let null = json_ping_words ~sink:(Obs.Sink.null ()) () in
  let binary = binary_ping_words () in
  if bare > 1.5 *. 1055. then
    Alcotest.failf "a JSON ping allocates %.1f words, want at most %.1f" bare
      (1.5 *. 1055.);
  if null -. bare >= 16. then
    Alcotest.failf "a null sink adds %.1f words per ping, want under 16"
      (null -. bare);
  if binary >= 16. then
    Alcotest.failf "a binary ping allocates %.2f words, want under 16" binary

(* The first number on the line of a /proc file that starts with
   [prefix]: the soft limit in /proc/self/limits, the count in
   /proc/self/status. *)
let proc_int file prefix =
  let number line =
    String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line)
    |> List.find_map int_of_string_opt
  in
  In_channel.with_open_text file (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix line -> (
          match number line with
          | Some n -> n
          | None -> Alcotest.failf "%s: no number in %S" file line)
        | Some _ -> go ()
        | None -> Alcotest.failf "%s has no %S line" file prefix
      in
      go ())

(* As many connections as the soft fd limit allows, up to 10,000 (both
   ends live in this process, so each costs two descriptors): every one's
   ping is answered, and the server holds them all on the threads it
   started with. *)
let test_server_many_connections () =
  let limit = proc_int "/proc/self/limits" "Max open files" in
  let target = min 10_000 ((limit - 64) / 2) in
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      (* a worker domain starts the runtime's helper thread as it begins,
         which may be after [start] returns: a job has run once it has *)
      let c = Svc.Client.connect path in
      (match
         Svc.Client.call
           ~params:(as_scenario "solve" (J.Obj [ ("n", J.Int 2) ]))
           c P.Scenario
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "solve: %s" (Svc.Client.error_string e));
      Svc.Client.close c;
      let threads () = proc_int "/proc/self/status" "Threads:" in
      let before = threads () in
      let fds =
        Array.init target (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            (* a full backlog refuses while the accept thread catches up *)
            let rec connect tries =
              match Unix.connect fd (Unix.ADDR_UNIX path) with
              | () -> ()
              | exception
                  Unix.Unix_error
                    ((Unix.EAGAIN | Unix.ECONNREFUSED | Unix.EINTR), _, _)
                when tries < 200 ->
                Unix.sleepf 0.005;
                connect (tries + 1)
            in
            connect 0;
            fd)
      in
      Array.iteri
        (fun i fd ->
          Svc.Frame.write fd
            (J.to_string (P.request_json (P.request ~id:i P.Ping))))
        fds;
      let answered =
        Array.fold_left
          (fun n fd ->
            match Svc.Frame.read fd with Ok _ -> n + 1 | Error _ -> n)
          0 fds
      in
      let during = threads () in
      Array.iter Unix.close fds;
      check_int "every connection's ping answered" target answered;
      check_int "threads while they are open" before during)

let test_client_connect_retry () =
  let path = socket_path () in
  (* nothing listening, no retries: immediate refusal *)
  (match Svc.Client.connect path with
  | exception Unix.Unix_error _ -> ()
  | c ->
    Svc.Client.close c;
    Alcotest.fail "connected to nothing");
  (* bad address text is Invalid_argument, not a retry loop *)
  (match Svc.Client.connect "tcp:1.2.3.4" with
  | exception Invalid_argument _ -> ()
  | c ->
    Svc.Client.close c;
    Alcotest.fail "bad address accepted");
  (* server comes up late; a patient connect lands *)
  let t = ref None in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.15;
        t := Some (Svc.Server.start (default_cfg path)))
      ()
  in
  let c = Svc.Client.connect ~retries:20 ~backoff_ms:20 path in
  (match Svc.Client.call c P.Ping with
  | Ok (J.Str "pong") -> ()
  | _ -> Alcotest.fail "ping after retry");
  Svc.Client.close c;
  Thread.join starter;
  match !t with
  | Some srv ->
    Svc.Server.shutdown srv;
    Svc.Server.wait srv
  | None -> Alcotest.fail "server never started"

(* ------------------------------------------------- scenario / campaign *)

(* An invalid caller-supplied scenario is a structured bad_request naming
   the failing JSON path — and the connection survives to serve the next
   (valid) scenario on the same socket. *)
let test_server_scenario_validation () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let c = Svc.Client.connect path in
      let bad =
        J.Obj
          [
            ("v", J.Int 1); ("name", J.Str "bad");
            ("verb", J.Str "modelcheck");
            ("params", J.Obj [ ("scenario", J.Str "typo") ]);
            ("expect", J.Obj [ ("outcome", J.Str "safe") ]);
          ]
      in
      (match Svc.Client.call ~params:bad c P.Scenario with
      | Error (Svc.Client.Server (P.Bad_request, msg)) ->
        check_bool "names the path" true
          (String.length msg > 0
          && Option.is_some
               (String.index_opt msg '$')
          && Option.is_some (String.index_opt msg '|'))
      | r ->
        Alcotest.failf "expected bad_request, got %s"
          (match r with
          | Ok j -> J.to_string j
          | Error e -> Svc.Client.error_string e));
      let good =
        J.Obj
          [
            ("v", J.Int 1); ("name", J.Str "good");
            ("verb", J.Str "modelcheck");
            ( "params",
              J.Obj [ ("scenario", J.Str "safe-agreement"); ("depth", J.Int 6) ]
            );
            ("expect", J.Obj [ ("outcome", J.Str "safe") ]);
          ]
      in
      (match Svc.Client.call ~params:good c P.Scenario with
      | Ok j -> (
        check_bool "scenario echoed" true
          (J.member "scenario" j = Some (J.Str "good"));
        match Option.bind (J.member "result" j) (J.member "verdict") with
        | Some (J.Str "ok") -> ()
        | _ -> Alcotest.fail "no ok verdict in result")
      | Error e ->
        Alcotest.failf "good scenario: %s" (Svc.Client.error_string e));
      Svc.Client.close c)

(* A reduced search over more pids than a sleep mask has bits is a
   bad_request from every verb that can ask for one — never a verdict. *)
let test_jobs_refuse_wide_sleep_masks () =
  let n_s = Sys.int_size in
  let mc =
    [
      ("scenario", J.Str "race-false");
      ("n_s", J.Int n_s);
      ("depth", J.Int 6);
      ("reduce", J.Bool true);
    ]
  in
  let job =
    J.Obj
      [
        ("id", J.Int 0);
        ("prefix", J.List [ J.Str "p1" ]);
        ("sleep", J.List []);
        ("factor", J.Int 1);
        ("used", J.List [ J.Int 0 ]);
      ]
  in
  let names_sleep msg =
    let rec go i =
      i + 5 <= String.length msg && (String.sub msg i 5 = "sleep" || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun (label, result) ->
      match result with
      | Error (P.Bad_request, msg) when names_sleep msg -> ()
      | Error (code, msg) ->
        Alcotest.failf "%s: %s %s" label (P.err_code_string code) msg
      | Ok j -> Alcotest.failf "%s: answered %s" label (J.to_string j))
    [
      ( "run_work",
        Svc.Jobs.run_work
          (Scenario.Spec.Modelcheck
             {
               Scenario.Spec.mc_scenario = "race-false"; mc_n_s = n_s;
               mc_depth = 6; mc_reduce = true;
             }) );
      ( "scenario",
        Svc.Jobs.run P.Scenario (as_scenario "modelcheck" (J.Obj mc)) );
      ("subtree", Svc.Jobs.run P.Subtree (J.Obj (("job", job) :: mc)));
    ]

let expect_refused ~label ~names = function
  | Error (P.Bad_request, msg) ->
    if not (contains msg names) then
      Alcotest.failf "%s: %S does not name %S" label msg names
  | Error (code, msg) ->
    Alcotest.failf "%s: %s %s" label (P.err_code_string code) msg
  | Ok j -> Alcotest.failf "%s: answered %s" label (J.to_string j)

let expect_bad_request ~label ~names verb params =
  expect_refused ~label ~names (Svc.Jobs.run verb params)

(* Work params arrive as a scenario's [params] or with a subtree job; both
   go through one reader, so unknown fields and out-of-range values are a
   bad_request naming the field, never a silent default. *)
let test_params_strict () =
  let job =
    J.Obj
      [
        ("id", J.Int 0);
        ("prefix", J.List [ J.Str "p1" ]);
        ("sleep", J.List []);
        ("factor", J.Int 1);
        ("used", J.List []);
      ]
  in
  List.iter
    (fun (label, names, verb, params) ->
      expect_bad_request ~label ~names P.Scenario
        (as_scenario verb (J.Obj params)))
    [
      ("typo", "depht", "modelcheck", [ ("depht", J.Int 4) ]);
      ("depth bound", "params.depth", "modelcheck", [ ("depth", J.Int 65) ]);
      ("n_s bound", "params.n_s", "modelcheck", [ ("n_s", J.Int 65) ]);
      ("n bound", "params.n", "solve", [ ("n", J.Int 2000) ]);
      ("domains bound", "params.domains", "fuzz", [ ("domains", J.Int 257) ]);
    ];
  expect_bad_request ~label:"subtree typo" ~names:"depht" P.Subtree
    (J.Obj [ ("job", job); ("run", J.Str "r"); ("depht", J.Int 4) ]);
  (* the same job with only its own params runs *)
  match
    Svc.Jobs.run P.Subtree (J.Obj [ ("job", job); ("depth", J.Int 4) ])
  with
  | Ok j ->
    check_bool "subtree ok" true (J.member "verdict" j = Some (J.Str "ok"))
  | Error (code, msg) ->
    Alcotest.failf "subtree: %s %s" (P.err_code_string code) msg

(* A pooled model check has no checkpoint params: a client that can
   reach a worker cannot make it create directories or write journals. *)
let test_modelcheck_refuses_checkpoint_dir () =
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "wfa-jobs-%d" (Unix.getpid ()))
  in
  Unix.mkdir tmp 0o700;
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir tmp with Unix.Unix_error _ -> ())
    (fun () ->
      expect_bad_request ~label:"checkpoint_dir" ~names:"checkpoint_dir"
        P.Scenario
        (as_scenario "modelcheck"
           (J.Obj
              [
                ("checkpoint_dir", J.Str (Filename.concat tmp "x/y"));
                ("depth", J.Int 4);
              ]));
      check_bool "no directory created" false
        (Sys.file_exists (Filename.concat tmp "x")))

(* Arguments a constructor refuses before the first step are the caller's
   fault: bad_request through a scenario and through [Svc.Jobs.run_work]
   (the CLI's executor), with the constructor's own message. *)
let test_constructor_refusals_are_bad_requests () =
  List.iter
    (fun (verb, params) ->
      let params = J.Obj params in
      let label = verb ^ " " ^ J.to_string params in
      expect_bad_request ~label:("scenario " ^ label) ~names:".make: "
        P.Scenario (as_scenario verb params);
      match Scenario.Spec.work_of_params ~verb params with
      | Ok work ->
        expect_refused ~label:("run_work " ^ label) ~names:".make: "
          (Svc.Jobs.run_work work)
      | Error msg -> Alcotest.failf "%s: the reader refused: %s" label msg)
    [
      ( "solve",
        [ ("task", J.Str "renaming"); ("j", J.Int 10); ("n", J.Int 3) ] );
      ( "solve",
        [
          ("task", J.Str "renaming"); ("j", J.Int 3); ("n", J.Int 3);
          ("l", J.Int 2);
        ] );
      ("solve", [ ("task", J.Str "wsb"); ("j", J.Int 10); ("n", J.Int 3) ]);
      ("solve", [ ("task", J.Str "wsb"); ("j", J.Int 1); ("n", J.Int 3) ]);
      ( "fuzz",
        [ ("kind", J.Str "strong-renaming"); ("n", J.Int 3); ("j", J.Int 10) ]
      );
      ("fuzz", [ ("kind", J.Str "consensus-reduction"); ("n", J.Int 1) ]);
    ]

(* Consensus is 1-set agreement: a solve asking for it with any other k is
   a bad_request naming params.k, whatever the detector, instead of an
   internal error (vector) or a silent 1-set agreement run (omega). k = 1
   still solves. *)
let test_consensus_refuses_k () =
  List.iter
    (fun params ->
      let label = "solve " ^ J.to_string (J.Obj params) in
      expect_bad_request ~label ~names:"params.k" P.Scenario
        (as_scenario "solve" (J.Obj params)))
    [
      [ ("k", J.Int 5) ];
      [ ("task", J.Str "consensus"); ("k", J.Int 2); ("fd", J.Str "vector") ];
      [ ("task", J.Str "consensus"); ("k", J.Int 2); ("fd", J.Str "omega") ];
    ];
  match
    Svc.Jobs.run P.Scenario
      (as_scenario "solve"
         (J.Obj
            [
              ("task", J.Str "consensus"); ("k", J.Int 1);
              ("fd", J.Str "omega");
            ]))
  with
  | Ok j ->
    check_bool "k = 1 solves" true
      (J.member "ok" (result j) = Some (J.Bool true))
  | Error (code, msg) ->
    Alcotest.failf "k = 1: %s %s" (P.err_code_string code) msg

(* A model check that finds a violation answers with its schedule, through
   [Svc.Jobs.run_work] and a scenario: race-false's [cex] is the engine's
   lex-least counterexample, and replaying it violates the property. *)
let test_modelcheck_carries_cex () =
  let depth = 6 and n_s = 2 in
  let sc = Result.get_ok (Mcheck.Scenario.find "race-false" ~n_s) in
  let build = sc.Mcheck.Scenario.sc_build
  and prop = sc.Mcheck.Scenario.sc_prop in
  let expected =
    match
      Simkit.Exhaustive.run ~build ~pids:sc.Mcheck.Scenario.sc_pids ~depth
        ~prop ()
    with
    | Simkit.Exhaustive.Counterexample cex, _ -> cex
    | Simkit.Exhaustive.Ok _, _ -> Alcotest.fail "race-false holds"
  in
  let cex_of label result =
    match J.member "cex" result with
    | None -> Alcotest.failf "%s: no cex in %s" label (J.to_string result)
    | Some j -> (
      match Simkit.Exhaustive.schedule_of_json j with
      | Ok s -> s
      | Error msg -> Alcotest.failf "%s: %s" label msg)
  in
  let ok label = function
    | Ok j -> j
    | Error (code, msg) ->
      Alcotest.failf "%s: %s %s" label (P.err_code_string code) msg
  in
  let check ?(scenario = "race-false") depth =
    {
      Scenario.Spec.mc_scenario = scenario; mc_n_s = n_s; mc_depth = depth;
      mc_reduce = false;
    }
  in
  let via_run_work =
    ok "run_work" (Svc.Jobs.run_work (Scenario.Spec.Modelcheck (check depth)))
  in
  let via_scenario =
    result
      (ok "scenario"
         (Svc.Jobs.run P.Scenario
            (as_scenario "modelcheck"
               (J.Obj
                  [
                    ("scenario", J.Str "race-false"); ("n_s", J.Int n_s);
                    ("depth", J.Int depth);
                  ]))))
  in
  List.iter
    (fun (label, result) ->
      let cex = cex_of label result in
      check_bool (label ^ ": engine's counterexample") true (cex = expected);
      check_bool (label ^ ": replay rejects it") false
        (Simkit.Exhaustive.replay_ok ~build ~prop cex))
    [ ("run_work", via_run_work); ("scenario", via_scenario) ];
  let safe =
    ok "safe"
      (Svc.Jobs.run_work
         (Scenario.Spec.Modelcheck (check ~scenario:"safe-agreement" 4)))
  in
  check_bool "a safe check has no cex" true (J.member "cex" safe = None)

(* A campaign running over the wire honors per-scenario deadlines: the slow
   row comes back as a timeout (not a fail, not a dead connection), and the
   rows after it still run. *)
let test_campaign_client_deadlines () =
  let path = socket_path () in
  with_server (default_cfg path) (fun _ ->
      let mc ?deadline_ms ?(expect = Scenario.Spec.Safe) name depth =
        {
          Scenario.Spec.sp_name = name;
          sp_work =
            Scenario.Spec.Modelcheck
              {
                Scenario.Spec.mc_scenario = "safe-agreement"; mc_n_s = 1;
                mc_depth = depth; mc_reduce = false;
              };
          sp_deadline_ms = deadline_ms;
          sp_expect = expect;
        }
      in
      let specs =
        [
          mc "a:fast" 6;
          mc ~deadline_ms:1 "a:slow" 14;
          mc ~deadline_ms:1 ~expect:(Scenario.Spec.Err "deadline_exceeded")
            "a:slow-declared" 14;
          mc "a:after" 6;
        ]
      in
      let c = Svc.Client.connect path in
      let s =
        Svc.Campaign.run_client ~window:2 ~name:"deadlines" ~client:c specs
      in
      Svc.Client.close c;
      let outcome name =
        (List.find
           (fun r -> r.Svc.Campaign.row_spec.Scenario.Spec.sp_name = name)
           s.Svc.Campaign.s_rows)
          .Svc.Campaign.row_outcome
      in
      check_bool "fast passes" true (outcome "a:fast" = Scenario.Spec.Pass);
      check_bool "slow is timeout, not fail" true
        (outcome "a:slow" = Scenario.Spec.Timeout);
      check_bool "declared timeout passes" true
        (outcome "a:slow-declared" = Scenario.Spec.Pass);
      check_bool "row after timeout still runs" true
        (outcome "a:after" = Scenario.Spec.Pass);
      check_int "timeouts" 1 s.Svc.Campaign.s_timeout;
      check_int "fails" 0 s.Svc.Campaign.s_fail)

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "oversized frame keeps stream sync" `Quick
      test_frame_oversized_keeps_sync;
    Alcotest.test_case "desynced frame is unrecoverable" `Quick
      test_frame_desynced;
    Alcotest.test_case "truncated frame" `Quick test_frame_truncated;
    Alcotest.test_case "decoder: incremental feed" `Quick
      test_decoder_incremental;
    Alcotest.test_case "decoder: oversized skip keeps sync" `Quick
      test_decoder_oversized_skip;
    Alcotest.test_case "decoder: desynced is sticky" `Quick
      test_decoder_desynced_sticky;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol rejects malformed" `Quick test_protocol_rejects;
    Alcotest.test_case "jobq bound, order, drain" `Quick
      test_jobq_bound_and_order;
    Alcotest.test_case "jobq fair dequeue (greedy vs polite)" `Quick
      test_jobq_fair_dequeue;
    Alcotest.test_case "jobq blocking pop" `Quick test_jobq_blocking_pop;
    Alcotest.test_case "connect backoff clamped to deadline" `Quick
      test_connect_deadline_clamp;
    Alcotest.test_case "server: ping, solve, stats, bad request" `Quick
      test_server_ping_solve_stats;
    Alcotest.test_case "server: backpressure rejects with overloaded" `Quick
      test_server_backpressure;
    Alcotest.test_case "server: deadline exceeded" `Quick test_server_deadline;
    Alcotest.test_case "server: client EOF with job in flight" `Quick
      test_server_client_eof_with_inflight_job;
    Alcotest.test_case "server: drain loses no accepted job" `Quick
      test_server_drain_loses_nothing;
    Alcotest.test_case "server: desynced frame closes connection" `Quick
      test_server_desynced_frame_closes_conn;
    Alcotest.test_case "server: oversized frame, events, metrics" `Quick
      test_server_oversized_and_events;
    Alcotest.test_case "server: shutdown verb refuses new work" `Quick
      test_server_shutdown_verb_refuses_new;
    Alcotest.test_case "server: deadline_ms bomb is a bad request" `Quick
      test_server_deadline_bomb;
    Alcotest.test_case "pool: expired deadline cancels on first poll" `Quick
      test_deadline_cancel_first_poll;
    Alcotest.test_case "server: pipelined requests complete out of order"
      `Quick test_server_pipelining_out_of_order;
    Alcotest.test_case "server: cancel stops a run's queued and running jobs"
      `Quick test_server_cancel;
    Alcotest.test_case "server: overlong reply degrades to oversized" `Quick
      test_server_reply_cap;
    Alcotest.test_case "server: run twice, signal handlers restored" `Quick
      test_server_run_twice_restores_signals;
    Alcotest.test_case "addr: parse and round-trip" `Quick test_addr_parse;
    Alcotest.test_case "server: TCP transport end-to-end" `Quick
      test_server_tcp;
    Alcotest.test_case "server: metrics verb snapshots the registry" `Quick
      test_server_metrics_verb;
    Alcotest.test_case "codec: a binary client sends binary at once" `Quick
      test_binary_client;
    Alcotest.test_case "codec: retired verbs are bad requests" `Quick
      test_retired_verbs;
    Alcotest.test_case "server: a ping's allocation" `Quick test_ping_words;
    Alcotest.test_case "server: 10k connections on fixed threads" `Quick
      test_server_many_connections;
    Alcotest.test_case "codec: mixed frames on one connection" `Quick
      test_codec_mixed_frames;
    Alcotest.test_case "client: connect retries until the server is up"
      `Quick test_client_connect_retry;
    Alcotest.test_case "server: scenario verb validates caller input" `Quick
      test_server_scenario_validation;
    Alcotest.test_case "verbs refuse sleep masks wider than an int" `Quick
      test_jobs_refuse_wide_sleep_masks;
    Alcotest.test_case "scenario and subtree params are strict" `Quick
      test_params_strict;
    Alcotest.test_case "modelcheck refuses checkpoint params" `Quick
      test_modelcheck_refuses_checkpoint_dir;
    Alcotest.test_case "constructor refusals are bad requests" `Quick
      test_constructor_refusals_are_bad_requests;
    Alcotest.test_case "solve: consensus refuses k other than 1" `Quick
      test_consensus_refuses_k;
    Alcotest.test_case "modelcheck results carry their counterexample"
      `Quick test_modelcheck_carries_cex;
    Alcotest.test_case "campaign: per-scenario deadlines over the wire"
      `Quick test_campaign_client_deadlines;
  ]
