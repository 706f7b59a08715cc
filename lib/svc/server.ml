module J = Obs.Json
module P = Protocol

type config = {
  listen : Addr.t;
  workers : int;
  shards : int;
  queue_bound : int;
  default_deadline_ms : int option;
  max_frame : int;
  max_reply : int;
}

let default_config ~listen =
  {
    listen;
    workers = 2;
    shards = 2;
    queue_bound = 64;
    default_deadline_ms = None;
    max_frame = Frame.default_max_len;
    max_reply = Frame.max_wire_len;
  }

(* ----------------------------------------------------------- write buffer *)

(* The write side of a connection: one reusable byte buffer holding the
   unwritten tail of every queued frame. Frames are appended in place —
   4-byte header written directly, payload blitted once — so the steady
   state allocates nothing: no Frame.encode copy, no queue cells. The
   buffer grows by doubling under burst, compacts in place when the
   consumed prefix frees enough room, and snaps back to the initial size
   once drained after an outsized reply. *)
type wbuf = {
  mutable w_buf : Bytes.t;
  mutable w_start : int;  (* first unwritten byte *)
  mutable w_stop : int;  (* end of buffered data *)
}

let wbuf_initial = 4096
let wbuf_shrink = 1024 * 1024

let wbuf_create () =
  { w_buf = Bytes.create wbuf_initial; w_start = 0; w_stop = 0 }

let wbuf_len w = w.w_stop - w.w_start
let wbuf_is_empty w = w.w_stop = w.w_start

let wbuf_clear w =
  w.w_start <- 0;
  w.w_stop <- 0

let wbuf_reserve w extra =
  if w.w_stop + extra > Bytes.length w.w_buf then begin
    let len = wbuf_len w in
    if len + extra <= Bytes.length w.w_buf then begin
      Bytes.blit w.w_buf w.w_start w.w_buf 0 len;
      w.w_start <- 0;
      w.w_stop <- len
    end
    else begin
      let cap = ref (max wbuf_initial (2 * Bytes.length w.w_buf)) in
      while len + extra > !cap do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit w.w_buf w.w_start b 0 len;
      w.w_buf <- b;
      w.w_start <- 0;
      w.w_stop <- len
    end
  end

let wbuf_put_header w n =
  Bytes.set_uint8 w.w_buf w.w_stop ((n lsr 24) land 0xff);
  Bytes.set_uint8 w.w_buf (w.w_stop + 1) ((n lsr 16) land 0xff);
  Bytes.set_uint8 w.w_buf (w.w_stop + 2) ((n lsr 8) land 0xff);
  Bytes.set_uint8 w.w_buf (w.w_stop + 3) (n land 0xff);
  w.w_stop <- w.w_stop + 4

let wbuf_add_frame w payload =
  let n = String.length payload in
  wbuf_reserve w (4 + n);
  wbuf_put_header w n;
  Bytes.blit_string payload 0 w.w_buf w.w_stop n;
  w.w_stop <- w.w_stop + n

let wbuf_add_frame_bytes w src off n =
  wbuf_reserve w (4 + n);
  wbuf_put_header w n;
  Bytes.blit src off w.w_buf w.w_stop n;
  w.w_stop <- w.w_stop + n

let wbuf_consume w n =
  w.w_start <- w.w_start + n;
  if w.w_start = w.w_stop then begin
    w.w_start <- 0;
    w.w_stop <- 0;
    if Bytes.length w.w_buf > wbuf_shrink then
      w.w_buf <- Bytes.create wbuf_initial
  end

(* ------------------------------------------------------------ conn state *)

(* A connection is owned by exactly one shard: every field below is
   touched only by that shard's thread. The read side is an incremental
   decoder fed from a shared scratch buffer; the write side is the
   reusable [wbuf] drained by non-blocking writes. Many requests may be
   in flight at once ([c_inflight]); responses are appended in completion
   order, which the protocol allows because they carry the request id. *)
type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_dec : Frame.decoder;
  c_wb : wbuf;
  mutable c_inflight : int;
  mutable c_eof : bool;  (* read side done (EOF / half-close) *)
  mutable c_closing : bool;  (* stop reading; close once flushed *)
  mutable c_dead : bool;  (* transport error: discard and close *)
  mutable c_requests : int;
}

(* [cp_payload] is the serialized response envelope, headerless: the
   owning shard writes the frame header straight into the connection's
   write buffer when it applies the completion. *)
type completion = { cp_conn : int; cp_payload : string }

(* The shard's cross-thread surface is [s_mutex] + the wake pipe: the
   accept thread posts adopted fds, pool workers post encoded response
   frames, and [wait] posts the stop flag. Everything else — the poll
   set, the connection table — is private to the shard thread. *)
type shard = {
  s_id : int;
  s_wake_r : Unix.file_descr;
  s_wake_w : Unix.file_descr;
  s_mutex : Mutex.t;
  mutable s_inbox_conns : (int * Unix.file_descr) list;  (* newest first *)
  mutable s_inbox_done : completion list;  (* newest first *)
  mutable s_stop : bool;
  s_poll : Poll.t;
  s_conns : (int, conn) Hashtbl.t;
  mutable s_adopted : int;
  mutable s_thread : Thread.t option;
}

(* The registry handles the request path touches, each looked up at its
   first use and kept: a lookup builds its registry key, and the metric
   appears in the registry at the same point as when it was looked up per
   request. Guarded by [obs_mutex], like the registry. *)
type metrics = {
  mutable m_accepted : Obs.Metrics.counter option;
  mutable m_timeout : Obs.Metrics.counter option;
  mutable m_depth : Obs.Metrics.gauge option;
  mutable m_inflight : Obs.Metrics.gauge option;
  m_latency : (P.verb, Obs.Metrics.histogram) Hashtbl.t;
  m_rejected : (P.err_code, Obs.Metrics.counter) Hashtbl.t;
}

type t = {
  cfg : config;
  reply_cap : int;
  bound : Addr.t;  (* the address actually bound (kernel-chosen port) *)
  listen_fd : Unix.file_descr;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  dead : bool Atomic.t;  (* wait finished; wake pipes are closed *)
  pool : Pool.t;
  shards : shard array;
  mutable accept_thread : Thread.t option;
  next_conn : int Atomic.t;
  (* plain atomics back the stats verb; the registry mirrors them for
     export but is not thread-safe, so every registry touch holds obs_mutex
     (sinks share it — the stock ones are not thread-safe either) *)
  accepted : int Atomic.t;
  rejected : int Atomic.t;
  served : int Atomic.t;
  timed_out : int Atomic.t;
  inflight : int Atomic.t;
  sink : Obs.Sink.t option;
  registry : Obs.Metrics.registry;
  metrics : metrics;
  obs_mutex : Mutex.t;
  mutable waited : bool;
  wait_mutex : Mutex.t;
}

(* ------------------------------------------------------- instrumentation *)

let with_obs t f =
  Mutex.lock t.obs_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.obs_mutex) f

(* Guarded by the match on t.sink at every call site: when the server runs
   without a sink, no event (or field list) is ever allocated. *)
let emit t sink name fields =
  with_obs t (fun () -> Obs.Sink.emit sink (Obs.Event.make name fields))

let depth_gauge t =
  match t.metrics.m_depth with
  | Some g -> g
  | None ->
    let g = Obs.Metrics.gauge t.registry "svc.queue.depth" in
    t.metrics.m_depth <- Some g;
    g

let inflight_gauge t =
  match t.metrics.m_inflight with
  | Some g -> g
  | None ->
    let g = Obs.Metrics.gauge t.registry "svc.inflight" in
    t.metrics.m_inflight <- Some g;
    g

let accepted_counter t =
  match t.metrics.m_accepted with
  | Some c -> c
  | None ->
    let c = Obs.Metrics.counter t.registry "svc.requests.accepted" in
    t.metrics.m_accepted <- Some c;
    c

let timeout_counter t =
  match t.metrics.m_timeout with
  | Some c -> c
  | None ->
    let c = Obs.Metrics.counter t.registry "svc.requests.timeout" in
    t.metrics.m_timeout <- Some c;
    c

let rejected_counter t code =
  match Hashtbl.find t.metrics.m_rejected code with
  | c -> c
  | exception Not_found ->
    let c =
      Obs.Metrics.counter t.registry
        ~labels:[ ("code", P.err_code_string code) ]
        "svc.requests.rejected"
    in
    Hashtbl.add t.metrics.m_rejected code c;
    c

let latency_histogram t verb =
  match Hashtbl.find t.metrics.m_latency verb with
  | h -> h
  | exception Not_found ->
    let h =
      Obs.Metrics.histogram t.registry
        ~labels:[ ("verb", P.verb_string verb) ]
        "svc.latency_s"
    in
    Hashtbl.add t.metrics.m_latency verb h;
    h

let gauges t =
  with_obs t (fun () ->
      Obs.Metrics.set (depth_gauge t) (float_of_int (Pool.queue_length t.pool));
      Obs.Metrics.set (inflight_gauge t) (float_of_int (Atomic.get t.inflight)))

let count_reject t code =
  Atomic.incr t.rejected;
  with_obs t (fun () -> Obs.Metrics.incr (rejected_counter t code))

let count_accept t =
  Atomic.incr t.accepted;
  Atomic.incr t.inflight;
  with_obs t (fun () -> Obs.Metrics.incr (accepted_counter t));
  gauges t

let count_done t verb latency_s ~timeout =
  Atomic.decr t.inflight;
  Atomic.incr t.served;
  if timeout then Atomic.incr t.timed_out;
  with_obs t (fun () ->
      Obs.Metrics.observe (latency_histogram t verb) latency_s;
      if timeout then Obs.Metrics.incr (timeout_counter t));
  gauges t

let listen_addr t = t.bound

let stats_json t =
  J.Obj
    [
      ("accepted", J.Int (Atomic.get t.accepted));
      ("rejected", J.Int (Atomic.get t.rejected));
      ("served", J.Int (Atomic.get t.served));
      ("timed_out", J.Int (Atomic.get t.timed_out));
      ("inflight", J.Int (Atomic.get t.inflight));
      ("queue_depth", J.Int (Pool.queue_length t.pool));
      ("workers", J.Int t.cfg.workers);
      ("shards", J.Int (Array.length t.shards));
    ]

(* --------------------------------------------------------------- wakeup *)

let bang = Bytes.make 1 '!'

let shard_wake shard =
  (* the pipe is non-blocking: a full pipe means wakeups are already
     pending, and any error means the shard is past caring *)
  try ignore (Unix.write shard.s_wake_w bang 0 1) with Unix.Unix_error _ -> ()

let shard_post shard cp =
  Mutex.lock shard.s_mutex;
  shard.s_inbox_done <- cp :: shard.s_inbox_done;
  Mutex.unlock shard.s_mutex;
  shard_wake shard

let shard_adopt shard id fd =
  Mutex.lock shard.s_mutex;
  shard.s_inbox_conns <- (id, fd) :: shard.s_inbox_conns;
  Mutex.unlock shard.s_mutex;
  shard_wake shard

let wake t =
  if not (Atomic.get t.dead) then
    try ignore (Unix.write t.wake_w bang 0 1) with _ -> ()

let shutdown t = if not (Atomic.exchange t.stop true) then wake t

(* ------------------------------------------------------------- replies *)

(* Serialize (in the calling thread — a pool worker for job responses, so
   serialization parallelizes) in the codec the request arrived in, and
   cap: a response that exceeds the configured reply limit degrades to a
   bounded [oversized] error instead of killing the connection. Returns
   the headerless payload; framing happens at the write buffer. *)
let encode_response t codec rs =
  let payload = P.Codec.encode_response codec rs in
  if String.length payload <= t.reply_cap then payload
  else
    P.Codec.encode_response codec
      (P.error ~id:rs.P.rs_id P.Oversized
         (Printf.sprintf "response of %d bytes exceeds reply limit %d"
            (String.length payload) t.reply_cap))

(* Shard-thread only: append an encoded frame to the connection. *)
let enqueue_response t codec conn rs =
  if not conn.c_dead then wbuf_add_frame conn.c_wb (encode_response t codec rs)

let reject t conn ~codec ~id code msg =
  count_reject t code;
  (match t.sink with
  | None -> ()
  | Some s ->
    emit t s Obs.Event.Name.svc_reject
      [
        ("conn", J.Int conn.c_id);
        ("id", J.Int id);
        ("code", J.Str (P.err_code_string code));
      ]);
  enqueue_response t codec conn (P.error ~id code msg)

(* ------------------------------------------------------------ dispatch *)

let deadline_of t rq =
  match
    match rq.P.rq_deadline_ms with
    | Some _ as d -> d
    | None -> t.cfg.default_deadline_ms
  with
  | None -> None
  | Some ms ->
    (* the wire value is parse-bounded to max_deadline_ms; clamp the
       configured default identically, then saturate the addition — an
       extreme deadline must mean "far future", never an overflow that
       wraps negative and trips [deadline_exceeded] instantly *)
    let ms = min ms P.max_deadline_ms in
    let now = Obs.Clock.now_ns () in
    let abs = Int64.add now (Int64.mul (Int64.of_int ms) 1_000_000L) in
    Some (if Int64.compare abs now < 0 then Int64.max_int else abs)

(* Runs on a pool worker once the job finishes. The worker never touches
   the socket: it serializes the response and posts the encoded frame to
   the owning shard — the connection's only writer — through the wake
   pipe. (This is what deleted the old refcounted-replier machinery.) *)
let job_reply t shard conn_id codec rq rs latency_s =
  let verb = rq.P.rq_verb in
  let timeout =
    match rs.P.rs_result with
    | Error (P.Deadline_exceeded, _) -> true
    | _ -> false
  in
  count_done t verb latency_s ~timeout;
  (match t.sink with
  | None -> ()
  | Some s ->
    let ms = J.Float (latency_s *. 1e3) in
    let base =
      [
        ("conn", J.Int conn_id);
        ("id", J.Int rq.P.rq_id);
        ("verb", J.Str (P.verb_string verb));
      ]
    in
    if timeout then emit t s Obs.Event.Name.svc_timeout (base @ [ ("ms", ms) ])
    else
      let status =
        match rs.P.rs_result with
        | Ok _ -> "ok"
        | Error (code, _) -> P.err_code_string code
      in
      emit t s Obs.Event.Name.svc_done
        (base @ [ ("status", J.Str status); ("ms", ms) ]));
  shard_post shard { cp_conn = conn_id; cp_payload = encode_response t codec rs }

(* Submit jobs decoded during one poll wakeup as a single batch — one
   queue-lock acquisition at the shard→pool boundary — then settle the
   per-request bookkeeping from the verdicts. *)
let submit_jobs t shard batch =
  let jobs =
    List.map
      (fun (conn, rq, codec) ->
        {
          Pool.jb_req = rq;
          jb_conn = conn.c_id;
          jb_enq_ns = Obs.Clock.now_ns ();
          jb_deadline_ns = deadline_of t rq;
          jb_run =
            (match rq.P.rq_verb with
            | P.Subtree -> P.run_of_params rq.P.rq_params
            | _ -> None);
          jb_reply = (fun rs lat -> job_reply t shard conn.c_id codec rq rs lat);
        })
      batch
  in
  List.iter2
    (fun (conn, rq, codec) verdict ->
      match verdict with
      | `Ok ->
        conn.c_inflight <- conn.c_inflight + 1;
        count_accept t;
        (match t.sink with
        | None -> ()
        | Some s ->
          emit t s Obs.Event.Name.svc_request
            [
              ("conn", J.Int conn.c_id);
              ("id", J.Int rq.P.rq_id);
              ("verb", J.Str (P.verb_string rq.P.rq_verb));
            ])
      | `Full ->
        reject t conn ~codec ~id:rq.P.rq_id P.Overloaded
          (Printf.sprintf "queue full (bound %d)" t.cfg.queue_bound)
      | `Closed ->
        reject t conn ~codec ~id:rq.P.rq_id P.Shutting_down
          "server is draining")
    batch
    (Pool.submit_many t.pool jobs)

(* [cancel] stops the jobs of the run it names that are queued or running
   ({!Pool.cancel}); each answers [cancelled] as it stops. *)
let cancel t conn codec rq =
  let id = rq.P.rq_id in
  match P.run_of_params rq.P.rq_params with
  | None ->
    reject t conn ~codec ~id P.Bad_request
      "cancel: param \"run\" is missing or not a string"
  | Some run ->
    let stopped = Pool.cancel t.pool run in
    (match t.sink with
    | None -> ()
    | Some s ->
      emit t s Obs.Event.Name.svc_cancel
        [
          ("conn", J.Int conn.c_id);
          ("run", J.Str run);
          ("stopped", J.Int stopped);
        ]);
    enqueue_response t codec conn
      (P.ok ~id (J.Obj [ ("cancelled", J.Int stopped) ]))

(* The wakeup's requests in arrival order: a cancel reaches the jobs that
   arrived before it, so the jobs between two cancels go to the pool
   before the later cancel is applied. *)
let submit_batch t shard batch =
  let flush jobs = if jobs <> [] then submit_jobs t shard (List.rev jobs) in
  let rec go jobs = function
    | [] -> flush jobs
    | ((conn, rq, codec) as job) :: rest -> (
      match rq.P.rq_verb with
      | P.Cancel ->
        flush jobs;
        cancel t conn codec rq;
        go [] rest
      | _ -> go (job :: jobs) rest)
  in
  go [] batch

let handle_frame t conn codec payload pending =
  match P.Codec.decode_request payload with
  | Error msg -> reject t conn ~codec ~id:(-1) P.Bad_request msg
  | Ok rq -> (
    match rq.P.rq_verb with
    | P.Ping -> enqueue_response t codec conn (P.ok ~id:rq.P.rq_id (J.Str "pong"))
    | P.Stats -> enqueue_response t codec conn (P.ok ~id:rq.P.rq_id (stats_json t))
    | P.Metrics ->
      (* a registry snapshot costs no job slot: answered inline by the
         shard, under the same mutex every other registry touch takes *)
      let snapshot = with_obs t (fun () -> Obs.Metrics.to_json t.registry) in
      enqueue_response t codec conn (P.ok ~id:rq.P.rq_id snapshot)
    | P.Shutdown ->
      enqueue_response t codec conn (P.ok ~id:rq.P.rq_id (J.Str "draining"));
      shutdown t
    | P.Cancel ->
      (* applied with the wakeup's batch, after the jobs read before it *)
      pending := (conn, rq, codec) :: !pending
    | P.Subtree | P.Scenario ->
      if Atomic.get t.stop then
        reject t conn ~codec ~id:rq.P.rq_id P.Shutting_down
          "server is draining"
      else pending := (conn, rq, codec) :: !pending)

(* The binary ping fast path: the canonical binary ping envelope (no
   deadline, empty params — exactly what Codec.encode_request emits) is 18
   bytes whose only variable part is the id. Recognize it in place on the
   decoder's buffer, patch the request's id bytes into the shard's
   preserialized pong response, and append it to the write buffer: zero
   allocations end to end. Anything else — a deadline flag, non-empty
   params, JSON — falls through to the generic decoder. *)
let binary_ping_len = 18

let is_binary_ping buf off len =
  len = binary_ping_len
  && Bytes.get buf off = P.Codec.magic
  && Bytes.get buf (off + 1) = '\x01' (* version *)
  && Bytes.get buf (off + 2) = '\x00' (* kind: request *)
  && Bytes.get buf (off + 3) = '\x00' (* verb: ping *)
  && Bytes.get buf (off + 4) = '\x00' (* flags: no deadline *)
  && Bytes.get buf (off + 13) = '\x07' (* params: object... *)
  && Bytes.get buf (off + 14) = '\x00' (* ...of zero fields *)
  && Bytes.get buf (off + 15) = '\x00'
  && Bytes.get buf (off + 16) = '\x00'
  && Bytes.get buf (off + 17) = '\x00'

(* [pong] is the shard-owned template from [make_pong]; id at bytes 4..11
   mirrors the request's id at bytes 5..12. *)
let handle_frame_view t conn pong pending =
  conn.c_requests <- conn.c_requests + 1;
  let buf = Frame.frame_buf conn.c_dec in
  let off = Frame.frame_off conn.c_dec in
  let len = Frame.frame_len conn.c_dec in
  if is_binary_ping buf off len then begin
    Bytes.blit buf (off + 5) pong 4 8;
    wbuf_add_frame_bytes conn.c_wb pong 0 (Bytes.length pong)
  end
  else begin
    let codec =
      if len > 0 && Bytes.get buf off = P.Codec.magic then P.Codec.Binary
      else P.Codec.Json
    in
    handle_frame t conn codec (Bytes.sub_string buf off len) pending
  end

let make_pong () =
  Bytes.of_string
    (P.Codec.encode_response P.Codec.Binary (P.ok ~id:0 (J.Str "pong")))

(* --------------------------------------------------------- shard thread *)

let conn_pending_write conn = not (wbuf_is_empty conn.c_wb)

(* Non-blocking drain of the write buffer; a transport error discards the
   buffer and marks the connection dead (the read side would only see the
   same error). *)
let rec flush_conn conn =
  let w = conn.c_wb in
  let len = wbuf_len w in
  if len > 0 then
    match Unix.write conn.c_fd w.w_buf w.w_start len with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_conn conn
    | exception Unix.Unix_error (_, _, _) ->
      conn.c_dead <- true;
      wbuf_clear conn.c_wb
    | n ->
      wbuf_consume w n;
      if n = len then () else if n > 0 then flush_conn conn

let close_conn t conn =
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  match t.sink with
  | None -> ()
  | Some s ->
    emit t s Obs.Event.Name.svc_conn_close
      [ ("conn", J.Int conn.c_id); ("requests", J.Int conn.c_requests) ]

(* A connection can be reaped once nothing more can reach it: its reads
   are finished (EOF, fatal frame, or transport error), every in-flight
   job has posted its completion, and the write queue is flushed. Holding
   the entry until [c_inflight] drops to zero is what lets a completion's
   conn-id lookup never dangle — and since the shard is the only writer
   and closes the fd itself, a late reply can never land on a
   kernel-reused descriptor (the hazard the old refcount guarded). *)
let conn_reapable conn =
  (conn.c_dead || ((conn.c_eof || conn.c_closing) && wbuf_is_empty conn.c_wb))
  && conn.c_inflight = 0

let drain_wake_pipe fd buf =
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | n -> if n = Bytes.length buf then go ()
  in
  go ()

let shard_read t conn scratch pong pending =
  match Unix.read conn.c_fd scratch 0 (Bytes.length scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) ->
    conn.c_dead <- true;
    wbuf_clear conn.c_wb
  | 0 -> conn.c_eof <- true
  | n ->
    Frame.feed conn.c_dec scratch 0 n;
    let rec pump () =
      if not (conn.c_closing || conn.c_dead) then
        match Frame.next_view conn.c_dec with
        | Frame.V_await -> ()
        | Frame.V_frame ->
          handle_frame_view t conn pong pending;
          pump ()
        | Frame.V_oversized n ->
          (* a pre-parse reject cannot know the frame's codec: JSON *)
          reject t conn ~codec:P.Codec.Json ~id:(-1) P.Oversized
            (Printf.sprintf "frame of %d bytes exceeds limit %d" n
               t.cfg.max_frame);
          pump ()
        | Frame.V_desynced n ->
          (* the announced payload cannot be skipped, so the byte stream
             is unrecoverable: answer once, flush, then close *)
          reject t conn ~codec:P.Codec.Json ~id:(-1) P.Oversized
            (Printf.sprintf "unframeable length %d exceeds wire limit %d" n
               Frame.max_wire_len);
          conn.c_closing <- true
    in
    pump ()

(* After the pool has drained, flush what the peers will still accept —
   bounded, so a stalled client cannot wedge shutdown — then close. *)
let shard_flush_all t shard =
  let deadline = Int64.add (Obs.Clock.now_ns ()) 5_000_000_000L in
  let rec go () =
    let pending =
      Hashtbl.fold
        (fun _ c acc -> if conn_pending_write c then c :: acc else acc)
        shard.s_conns []
    in
    if pending <> [] && Int64.compare (Obs.Clock.now_ns ()) deadline < 0
    then begin
      Poll.clear shard.s_poll;
      List.iter
        (fun c -> ignore (Poll.add shard.s_poll c.c_fd Poll.pollout))
        pending;
      ignore (Poll.wait shard.s_poll ~timeout_ms:100);
      List.iter flush_conn pending;
      go ()
    end
  in
  go ();
  Hashtbl.iter (fun _ c -> close_conn t c) shard.s_conns;
  Hashtbl.reset shard.s_conns

let shard_iteration t shard scratch pong wake_buf slots pending =
  (* 1. poll: the wake pipe plus every connection with an interest *)
  Poll.clear shard.s_poll;
  let wake_slot = Poll.add shard.s_poll shard.s_wake_r Poll.pollin in
  slots := [];
  Hashtbl.iter
    (fun _ c ->
      let interest =
        (if c.c_eof || c.c_closing || c.c_dead then 0 else Poll.pollin)
        lor (if conn_pending_write c && not c.c_dead then Poll.pollout else 0)
      in
      if interest <> 0 then
        slots := (Poll.add shard.s_poll c.c_fd interest, c) :: !slots)
    shard.s_conns;
  ignore (Poll.wait shard.s_poll ~timeout_ms:(-1));
  if Poll.revents shard.s_poll wake_slot land Poll.pollin <> 0 then
    drain_wake_pipe shard.s_wake_r wake_buf;
  (* 2. inbox: adopted connections, completions, stop — one lock. Posts
     happen-before the stop flag is set (same mutex), so observing stop
     here means every completion has been grabbed too. *)
  Mutex.lock shard.s_mutex;
  let newconns = shard.s_inbox_conns in
  let dones = shard.s_inbox_done in
  let stopping = shard.s_stop in
  shard.s_inbox_conns <- [];
  shard.s_inbox_done <- [];
  Mutex.unlock shard.s_mutex;
  if stopping then
    (* no new reads: the pool is drained, replies are all queued — adopt
       nothing (close the fds), apply completions, flush, exit *)
    List.iter
      (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ())
      (List.rev newconns)
  else
    List.iter
      (fun (id, fd) ->
        Unix.set_nonblock fd;
        let conn =
          {
            c_id = id;
            c_fd = fd;
            c_dec = Frame.decoder ~max_len:t.cfg.max_frame ();
            c_wb = wbuf_create ();
            c_inflight = 0;
            c_eof = false;
            c_closing = false;
            c_dead = false;
            c_requests = 0;
          }
        in
        Hashtbl.replace shard.s_conns id conn;
        shard.s_adopted <- shard.s_adopted + 1;
        match t.sink with
        | None -> ()
        | Some s ->
          emit t s Obs.Event.Name.svc_conn_open
            [ ("conn", J.Int id); ("shard", J.Int shard.s_id) ])
      (List.rev newconns);
  (* 3. completions: queue each response frame on its connection (a gone
     peer just drops the bytes; the job itself was already counted) *)
  List.iter
    (fun cp ->
      match Hashtbl.find_opt shard.s_conns cp.cp_conn with
      | None -> ()
      | Some conn ->
        conn.c_inflight <- conn.c_inflight - 1;
        if not conn.c_dead then wbuf_add_frame conn.c_wb cp.cp_payload)
    (List.rev dones);
  (* 4. reads: level-triggered, one scratch-sized chunk per connection
     per iteration keeps the shard fair under pipelining *)
  if not stopping then
    List.iter
      (fun (slot, conn) ->
        let re = Poll.revents shard.s_poll slot in
        if re land Poll.pollerr <> 0 then begin
          conn.c_dead <- true;
          wbuf_clear conn.c_wb
        end
        else begin
          if
            re land Poll.pollin <> 0
            && not (conn.c_eof || conn.c_closing || conn.c_dead)
          then shard_read t conn scratch pong pending;
          if
            re land Poll.pollhup <> 0
            && re land Poll.pollin = 0
            && not conn.c_dead
          then conn.c_eof <- true
        end)
      !slots;
  (* 5. hand this wakeup's accepted work to the pool as one batch *)
  if !pending <> [] then begin
    submit_batch t shard (List.rev !pending);
    pending := []
  end;
  (* 6. opportunistic flush of everything with output, ready or not:
     saves a poll round-trip on the common small-response path *)
  Hashtbl.iter
    (fun _ c -> if conn_pending_write c then flush_conn c)
    shard.s_conns;
  (* 7. reap *)
  let dead =
    Hashtbl.fold
      (fun _ c acc -> if conn_reapable c then c :: acc else acc)
      shard.s_conns []
  in
  List.iter
    (fun c ->
      Hashtbl.remove shard.s_conns c.c_id;
      close_conn t c)
    dead;
  stopping

let shard_loop t shard () =
  (match t.sink with
  | None -> ()
  | Some s ->
    emit t s Obs.Event.Name.svc_shard_start [ ("shard", J.Int shard.s_id) ]);
  let scratch = Bytes.create 65536 in
  let pong = make_pong () in
  let wake_buf = Bytes.create 4096 in
  let slots = ref [] in
  let pending = ref [] in
  let rec loop () =
    match shard_iteration t shard scratch pong wake_buf slots pending with
    | true -> ()
    | false -> loop ()
    | exception e ->
      (* a shard must outlive any per-connection surprise; report, back
         off briefly (never hot-loop on a persistent failure), go on *)
      (match t.sink with
      | None -> ()
      | Some s ->
        emit t s Obs.Event.Name.svc_shard_error
          [ ("shard", J.Int shard.s_id);
            ("error", J.Str (Printexc.to_string e)) ]);
      pending := [];
      (try Unix.sleepf 0.01 with Unix.Unix_error _ -> ());
      loop ()
  in
  loop ();
  shard_flush_all t shard;
  match t.sink with
  | None -> ()
  | Some s ->
    emit t s Obs.Event.Name.svc_shard_stop
      [ ("shard", J.Int shard.s_id); ("conns", J.Int shard.s_adopted) ]

(* --------------------------------------------------------- accept thread *)

let accept_loop t () =
  let n_shards = Array.length t.shards in
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | ready, _, _ ->
        if Atomic.get t.stop then ()
        else if List.mem t.listen_fd ready then begin
          (match Unix.accept t.listen_fd with
          | exception Unix.Unix_error (e, _, _) ->
            (* a persistent failure (EMFILE...) keeps the listener readable,
               so back off instead of hot-spinning select/accept *)
            (match t.sink with
            | None -> ()
            | Some s ->
              emit t s Obs.Event.Name.svc_accept_error
                [ ("error", J.Str (Unix.error_message e)) ]);
            (try Unix.sleepf 0.05 with Unix.Unix_error _ -> ())
          | fd, _ ->
            (* small pipelined frames: Nagle would batch them against us *)
            (match t.cfg.listen with
            | Addr.Tcp _ -> (
              try Unix.setsockopt fd Unix.TCP_NODELAY true
              with Unix.Unix_error _ -> ())
            | Addr.Unix_path _ -> ());
            let id = Atomic.fetch_and_add t.next_conn 1 in
            shard_adopt t.shards.(id mod n_shards) id fd);
          loop ()
        end
        else loop ()
  in
  loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.cfg.listen with
  | Addr.Unix_path path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Addr.Tcp _ -> ()

(* ------------------------------------------------------------ lifecycle *)

let start ?sink ?registry cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if cfg.shards < 1 then invalid_arg "Server.start: shards must be >= 1";
  if cfg.queue_bound < 1 then
    invalid_arg "Server.start: queue_bound must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket (Addr.domain cfg.listen) Unix.SOCK_STREAM 0 in
  (match cfg.listen with
  | Addr.Unix_path path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Addr.Tcp _ ->
    (* restarts must not trip over TIME_WAIT remnants of themselves *)
    Unix.setsockopt listen_fd Unix.SO_REUSEADDR true);
  let bound =
    try
      Unix.bind listen_fd (Addr.sockaddr ~listen:true cfg.listen);
      Unix.listen listen_fd 512;
      (* with TCP port 0 the kernel picks: report what it picked *)
      Addr.of_sockaddr (Unix.getsockname listen_fd)
    with e ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      raise e
  in
  let wake_r, wake_w = Unix.pipe () in
  let shards =
    Array.init cfg.shards (fun i ->
        let s_wake_r, s_wake_w = Unix.pipe () in
        Unix.set_nonblock s_wake_r;
        Unix.set_nonblock s_wake_w;
        {
          s_id = i;
          s_wake_r;
          s_wake_w;
          s_mutex = Mutex.create ();
          s_inbox_conns = [];
          s_inbox_done = [];
          s_stop = false;
          s_poll = Poll.create ();
          s_conns = Hashtbl.create 64;
          s_adopted = 0;
          s_thread = None;
        })
  in
  let t =
    {
      cfg;
      (* the cap must leave room for the bounded oversized-error reply
         that replaces an overlong response *)
      reply_cap = max 256 (min cfg.max_reply Frame.max_wire_len);
      bound;
      listen_fd;
      wake_r;
      wake_w;
      stop = Atomic.make false;
      dead = Atomic.make false;
      pool = Pool.create ~workers:cfg.workers ~queue_bound:cfg.queue_bound;
      shards;
      accept_thread = None;
      next_conn = Atomic.make 0;
      accepted = Atomic.make 0;
      rejected = Atomic.make 0;
      served = Atomic.make 0;
      timed_out = Atomic.make 0;
      inflight = Atomic.make 0;
      sink;
      registry = (match registry with Some r -> r | None -> Obs.Metrics.registry ());
      metrics =
        {
          m_accepted = None;
          m_timeout = None;
          m_depth = None;
          m_inflight = None;
          m_latency = Hashtbl.create 16;
          m_rejected = Hashtbl.create 8;
        };
      obs_mutex = Mutex.create ();
      waited = false;
      wait_mutex = Mutex.create ();
    }
  in
  (match t.sink with
  | None -> ()
  | Some s ->
    emit t s Obs.Event.Name.svc_start
      [
        ("listen", J.Str (Addr.to_string t.bound));
        ("workers", J.Int cfg.workers);
        ("shards", J.Int cfg.shards);
        ("queue_bound", J.Int cfg.queue_bound);
      ]);
  Array.iter
    (fun shard -> shard.s_thread <- Some (Thread.create (shard_loop t shard) ()))
    t.shards;
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

let wait t =
  Mutex.lock t.wait_mutex;
  let first = not t.waited in
  t.waited <- true;
  Mutex.unlock t.wait_mutex;
  if first then begin
    Option.iter Thread.join t.accept_thread;
    (match t.sink with
    | None -> ()
    | Some s ->
      emit t s Obs.Event.Name.svc_drain
        [ ("pending", J.Int (Atomic.get t.inflight)) ]);
    (* every job already in the queue runs to a reply before the workers
       exit; the completions are posted to the shards' inboxes by then *)
    Pool.drain t.pool;
    (* now stop the shards: each applies its remaining completions,
       flushes what the peers will accept, closes its connections *)
    Array.iter
      (fun shard ->
        Mutex.lock shard.s_mutex;
        shard.s_stop <- true;
        Mutex.unlock shard.s_mutex;
        shard_wake shard)
      t.shards;
    Array.iter (fun shard -> Option.iter Thread.join shard.s_thread) t.shards;
    (* guard before close: a stray signal handler calling [shutdown] on
       this dead server must not write into a closed — possibly
       kernel-reused — descriptor *)
    Atomic.set t.dead true;
    Array.iter
      (fun shard ->
        (try Unix.close shard.s_wake_r with Unix.Unix_error _ -> ());
        try Unix.close shard.s_wake_w with Unix.Unix_error _ -> ())
      t.shards;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    gauges t;
    match t.sink with
    | None -> ()
    | Some s ->
      emit t s Obs.Event.Name.svc_stop
        [
          ("served", J.Int (Atomic.get t.served));
          ("drained", J.Bool true);
        ]
  end

let run ?sink ?registry ?on_listen cfg =
  let t = start ?sink ?registry cfg in
  Option.iter (fun f -> f t.bound) on_listen;
  let stop _ = shutdown t in
  (* install and SAVE the previous handlers: leaving ours behind would let
     a later signal in the same process call shutdown on this dead server
     (and, unguarded, write to its closed wake descriptor) *)
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle stop) in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () ->
      (* OCaml signal handlers only run when a thread of the main domain
         reaches a safepoint, and every other thread here may be parked in
         a blocking syscall (select, poll, cond_wait) — parking this thread
         in Thread.join too would postpone the handler indefinitely. Poll. *)
      while not (Atomic.get t.stop) do
        try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      wait t)
