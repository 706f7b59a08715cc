open Simkit
module J = Obs.Json
module P = Svc.Protocol
module L = Ckpt.Ledger

type worker_report = { wk_addr : string; wk_jobs : int; wk_dead : bool }

type report = {
  r_verdict : Exhaustive.verdict;
  r_stats : Exhaustive.stats;
  r_split_depth : int;
  r_jobs : int;
  r_frontier_pruned : int;
  r_redispatched : int;
  r_workers : worker_report list;
}

(* requests in flight per worker connection *)
let window = 4

(* the journal saves under the lock every worker thread needs: space its
   generations at least this far apart *)
let min_interval_s = 0.05
let default_split_depth = L.default_split_depth

(* the jobs a sized split deals each worker at least, where a split no
   deeper than [default_split_depth] has that many *)
let jobs_per_worker = 4

(* The ledger at the given split depth, at a resumed record's, or else at
   the shallowest depth up to [default_split_depth] whose frontier gives
   every worker [jobs_per_worker] jobs: fewer, larger jobs cost fewer
   round trips, replayed prefixes and memo tables, and each worker still
   has a window's worth to pipeline. Shallower splits are cheap next to
   the deepest one, so trying each in turn costs little. *)
let sized_ledger ?split_depth ~reduce ?resume ~scenario ~depth ~workers () =
  let start split_depth =
    L.start ~split_depth ~reduce ?resume ~scenario ~depth ~workers ()
  in
  match (split_depth, resume) with
  | Some d, _ -> start d
  | None, Some r -> start r.Ckpt.Record.ck_config.Ckpt.Record.cf_split_depth
  | None, None ->
    let deepest = default_split_depth ~depth in
    let rec go d =
      Result.bind (start d) (fun l ->
          let jobs = List.length (L.frontier l).Exhaustive.fr_jobs in
          if d >= deepest || jobs >= jobs_per_worker * workers then Ok l
          else go (d + 1))
    in
    go 1

(* A worker's connection and the cancel the run's end sent on it. *)
type link = {
  lk_mutex : Mutex.t;
  mutable lk_client : Svc.Client.t option;  (* while open *)
  mutable lk_cancel : int;  (* the cancel's request id; -1 before *)
}

let run_params sc ~depth ~reduce =
  [
    ("scenario", J.Str sc.Mcheck.Scenario.sc_name);
    ("n_s", J.Int sc.Mcheck.Scenario.sc_n_s);
    ("depth", J.Int depth);
    ("reduce", J.Bool reduce);
  ]

(* how a worker's reply to job [id] settles it in the ledger *)
let reply ~wname id = function
  | Ok json -> (
    match Ckpt.Record.done_of_json json with
    | Ok d -> Ok { d with Ckpt.Record.dj_id = id }
    | Error msg -> Error (L.Failed ("bad result: " ^ msg)))
  | Error (Svc.Client.Server (P.Bad_request, msg)) ->
    Error (L.Refused (Printf.sprintf "refused by worker %s: %s" wname msg))
  | Error
      (Svc.Client.Server ((P.Overloaded | P.Shutting_down | P.Cancelled), _)
       as e) ->
    Error (L.Busy (Svc.Client.error_string e))
  | Error e -> Error (L.Failed (Svc.Client.error_string e))

let ( let* ) = Result.bind

let run ?sink ?split_depth ?(reduce = false) ?(retries = 5) ?checkpoint
    ?resume ~scenario:sc ~depth ~workers () =
  let* () = if workers = [] then Error "no workers given" else Ok () in
  (* workers read the run's params with the modelcheck reader: refuse up
     front what they would refuse for every job *)
  let* _ =
    Scenario.Spec.work_of_params ~verb:"modelcheck"
      (J.Obj (run_params sc ~depth ~reduce))
    |> Result.map_error (fun msg -> "workers would refuse this run: " ^ msg)
  in
  let* () =
    match
      List.find_map
        (fun a ->
          match Svc.Addr.of_string a with
          | Ok _ -> None
          | Error msg -> Some (Printf.sprintf "worker %S: %s" a msg))
        workers
    with
    | Some msg -> Error msg
    | None -> Ok ()
  in
  let n = List.length workers in
  let* l =
    sized_ledger ?split_depth ~reduce ?resume ~scenario:sc ~depth ~workers:n ()
  in
  (* a write to a worker that died must fail with EPIPE, which retires
     that worker's connection, and not end the process with SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* the sink is not thread-safe: past this event, it is only used under
     the lock that guards the ledger, the journal and [accepted] *)
  let emit name fields =
    Option.iter (fun s -> Obs.Sink.emit s (Obs.Event.make name fields)) sink
  in
  let fr = L.frontier l in
  let jobs = List.length fr.Exhaustive.fr_jobs in
  emit Obs.Event.Name.dist_split
    [
      ("jobs", J.Int jobs);
      ("split_depth", J.Int (L.config l).Ckpt.Record.cf_split_depth);
      ("pruned", J.Int fr.Exhaustive.fr_pruned);
    ];
  let* journal =
    L.journal
      (Option.map (fun (s, i) -> (s, Float.max min_interval_s i)) checkpoint)
      l
  in
  let mutex = Mutex.create () and cond = Condition.create () in
  let accepted = Array.make n 0 in
  (* worker threads still running *)
  let live = ref n in
  (* the run's end waits on [ended] alone, woken once the ledger stops or
     the last worker thread ends, not by every transition *)
  let ended = Condition.create () in
  (* every transition may let a waiting worker take a job, or stop *)
  let locked f =
    Mutex.protect mutex (fun () ->
        let x = f () in
        Condition.broadcast cond;
        if L.stopped l || !live = 0 then Condition.signal ended;
        x)
  in
  (* Tags every subtree request of one run, so that each worker keeps one
     memo table for the run ({!Svc.Jobs}). Two runs that drew the same id
     would share tables only where scenario, n_s, depth and reduce agree
     too, which is sound: the id scopes the cache, not the verdict. *)
  let run_id = Printf.sprintf "%d.%Ld" (Unix.getpid ()) (Obs.Clock.now_ns ()) in
  let params sj =
    J.Obj
      ((("run", J.Str run_id) :: run_params sc ~depth ~reduce)
      @ [ ("job", Exhaustive.subtree_json sj) ])
  in
  (* Each worker's connection, shared by its thread and by the run's end:
     every send and the close happen under [lk_mutex], so a cancel never
     writes to a closed (perhaps reused) descriptor nor between the bytes
     of another request. *)
  let links =
    Array.init n (fun _ ->
        { lk_mutex = Mutex.create (); lk_client = None; lk_cancel = -1 })
  in
  let on_link w f = Mutex.protect links.(w).lk_mutex (fun () -> f links.(w)) in
  (* A link closes once its thread has read every reply it needed, or on
     a failure: with a reset, since nothing left unsent or unread on it
     matters (a cancel unsent then had nothing to stop), and a coordinator
     running many short checks must not fill the host with TIME_WAIT
     entries. *)
  let close_link w =
    on_link w (fun lk ->
        Option.iter Svc.Client.discard lk.lk_client;
        lk.lk_client <- None)
  in
  (* One worker thread: connect, then loop pipelined batches until the run
     stops or the connection dies. A dead connection hands back whatever
     it still owed and retires the thread — the jobs live on elsewhere. *)
  let worker w addr =
    let wname = Printf.sprintf "%d:%s" w addr in
    let outstanding = Hashtbl.create 8 (* request id -> job id *) in
    let redispatch reason id =
      emit Obs.Event.Name.dist_redispatch
        [ ("job", J.Int id); ("reason", J.Str reason) ]
    in
    let die ids why =
      close_link w;
      let ids = ids @ List.of_seq (Hashtbl.to_seq_values outstanding) in
      locked (fun () ->
          emit Obs.Event.Name.dist_worker_dead
            [
              ("worker", J.Str wname);
              ("error", J.Str why);
              ("requeued", J.Int (List.length ids));
            ];
          List.iter (redispatch "worker_dead") (L.lost l ~worker:w ids))
    in
    let settle id result =
      locked (fun () ->
          match result with
          | Error (L.Busy why | L.Failed why | L.Refused why as f) ->
            if L.fail l ~worker:w id f then redispatch why id
          | Ok d ->
            if L.answer l d then begin
              accepted.(w) <- accepted.(w) + 1;
              emit Obs.Event.Name.dist_result
                [
                  ("job", J.Int id);
                  ("worker", J.Str wname);
                  List.hd (Exhaustive.verdict_fields d.Ckpt.Record.dj_verdict);
                ];
              (* journaled under the lock: each generation is a consistent
                 snapshot *)
              journal ~force:false
            end)
    in
    (* called with the lock held; [] once the run stops *)
    let rec batch () =
      let dispatch sjs =
        List.iter
          (fun sj ->
            emit Obs.Event.Name.dist_dispatch
              [ ("job", J.Int sj.Exhaustive.sj_id); ("worker", J.Str wname) ])
          sjs;
        sjs
      in
      match L.take l ~worker:w ~max:window with
      | L.Stop -> []
      | L.Wait ->
        Condition.wait cond mutex;
        batch ()
      | L.Steal sj ->
        redispatch "steal" sj.Exhaustive.sj_id;
        dispatch [ sj ]
      | L.Jobs sjs -> dispatch sjs
    in
    (* [Ok false]: the run's end cancelled this connection's requests, and
       the jobs not yet sent stay unsent; nothing needs them *)
    let send_job client sj =
      on_link w (fun lk ->
          if lk.lk_cancel >= 0 then Ok false
          else
            Result.map
              (fun rid ->
                Hashtbl.replace outstanding rid sj.Exhaustive.sj_id;
                true)
              (Svc.Client.send ~params:(params sj) client P.Subtree))
    in
    let is_cancel rid = on_link w (fun lk -> rid = lk.lk_cancel) in
    (* workers get the binary codec from the first frame: subtree
       results are bulky *)
    match Svc.Client.connect ~retries ~codec:P.Codec.Binary addr with
    | exception e ->
      die []
        (match e with
        | Unix.Unix_error (err, _, _) -> Unix.error_message err
        | e -> Printexc.to_string e)
    | client -> (
      on_link w (fun lk -> lk.lk_client <- Some client);
      let rec send = function
        | [] -> drain ()
        | sj :: rest as unsent -> (
          match send_job client sj with
          | Ok true -> send rest
          | Ok false -> drain ()
          | Error _ ->
            (* neither this job nor the rest of the batch reached the wire *)
            die (List.map (fun sj -> sj.Exhaustive.sj_id) unsent) "send failed")
      and drain () =
        if Hashtbl.length outstanding = 0 then
          match locked batch with
          | [] -> close_link w
          | sjs -> send sjs
        else
          match Svc.Client.recv client with
          | Error e -> die [] (Svc.Client.error_string e)
          | Ok (rid, payload) -> (
            match Hashtbl.find_opt outstanding rid with
            | None when is_cancel rid -> drain ()
            | None ->
              die [] (Printf.sprintf "response for unknown request id %d" rid)
            | Some id ->
              Hashtbl.remove outstanding rid;
              settle id (reply ~wname id payload);
              drain ())
      in
      try drain () with e -> die [] (Printexc.to_string e))
  in
  let threads =
    List.mapi
      (fun w addr ->
        Thread.create
          (fun () ->
            Fun.protect
              ~finally:(fun () -> locked (fun () -> decr live))
              (fun () -> worker w addr))
          ())
      workers
  in
  (* Once the ledger stops, whatever a worker still runs or queues for this
     run is a copy nobody needs (a steal that lost, a job past the least
     counterexample): [cancel] answers each with [cancelled] at the
     worker's next engine poll, so the run ends without waiting for them
     to finish. *)
  let stopped =
    Mutex.protect mutex (fun () ->
        while not (L.stopped l || !live = 0) do
          Condition.wait ended mutex
        done;
        L.stopped l)
  in
  let cancels = ref 0 in
  if stopped then
    Array.iter
      (fun lk ->
        Mutex.protect lk.lk_mutex (fun () ->
            match lk.lk_client with
            | Some client -> (
              match
                Svc.Client.send ~params:(P.cancel_params run_id) client
                  P.Cancel
              with
              | Ok rid ->
                lk.lk_cancel <- rid;
                incr cancels
              | Error _ -> (* its thread sees the broken connection *) ())
            | None -> ()))
      links;
  List.iter Thread.join threads;
  journal ~force:true;
  let* verdict, stats = L.result l in
  let workers_r =
    List.mapi
      (fun w addr ->
        { wk_addr = addr; wk_jobs = accepted.(w); wk_dead = L.dead l w })
      workers
  in
  emit Obs.Event.Name.dist_done
    [
      ("jobs", J.Int jobs);
      ("redispatched", J.Int (L.redispatched l));
      ("cancels", J.Int !cancels);
      ("workers", J.Int n);
      ( "dead",
        J.Int (List.length (List.filter (fun r -> r.wk_dead) workers_r)) );
    ];
  Ok
    {
      r_verdict = verdict;
      r_stats = stats;
      r_split_depth = (L.config l).Ckpt.Record.cf_split_depth;
      r_jobs = jobs;
      r_frontier_pruned = fr.Exhaustive.fr_pruned;
      r_redispatched = L.redispatched l;
      r_workers = workers_r;
    }
