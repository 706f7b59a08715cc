open Simkit
module J = Obs.Json
module P = Svc.Protocol
module L = Ckpt.Ledger

type worker_report = { wk_addr : string; wk_jobs : int; wk_dead : bool }

type report = {
  r_verdict : Exhaustive.verdict;
  r_stats : Exhaustive.stats;
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
  | Error (Svc.Client.Server ((P.Overloaded | P.Shutting_down), _) as e) ->
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
    L.start ?split_depth ~reduce ?resume ~scenario:sc ~depth ~workers:n ()
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
  (* every transition may let a waiting worker take a job, or stop *)
  let locked f =
    Mutex.protect mutex (fun () ->
        let x = f () in
        Condition.broadcast cond;
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
    let die client ids why =
      Option.iter Svc.Client.close client;
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
    (* workers get the binary codec when they speak it — subtree results
       are bulky and the hello downgrades transparently against an older
       fleet *)
    match Svc.Client.connect ~retries ~codec:P.Codec.Binary addr with
    | exception e ->
      die None []
        (match e with
        | Unix.Unix_error (err, _, _) -> Unix.error_message err
        | e -> Printexc.to_string e)
    | client -> (
      let rec send = function
        | [] -> drain ()
        | sj :: rest as unsent -> (
          match Svc.Client.send ~params:(params sj) client P.Subtree with
          | Ok rid ->
            Hashtbl.replace outstanding rid sj.Exhaustive.sj_id;
            send rest
          | Error _ ->
            (* neither this job nor the rest of the batch reached the wire *)
            die (Some client)
              (List.map (fun sj -> sj.Exhaustive.sj_id) unsent)
              "send failed")
      and drain () =
        if Hashtbl.length outstanding = 0 then
          match locked batch with
          | [] -> Svc.Client.close client
          | sjs -> send sjs
        else
          match Svc.Client.recv client with
          | Error e -> die (Some client) [] (Svc.Client.error_string e)
          | Ok (rid, payload) -> (
            match Hashtbl.find_opt outstanding rid with
            | None ->
              die (Some client) []
                (Printf.sprintf "response for unknown request id %d" rid)
            | Some id ->
              Hashtbl.remove outstanding rid;
              settle id (reply ~wname id payload);
              drain ())
      in
      try drain () with e -> die (Some client) [] (Printexc.to_string e))
  in
  List.mapi (fun w addr -> Thread.create (worker w) addr) workers
  |> List.iter Thread.join;
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
      ("workers", J.Int n);
      ( "dead",
        J.Int (List.length (List.filter (fun r -> r.wk_dead) workers_r)) );
    ];
  Ok
    {
      r_verdict = verdict;
      r_stats = stats;
      r_jobs = jobs;
      r_frontier_pruned = fr.Exhaustive.fr_pruned;
      r_redispatched = L.redispatched l;
      r_workers = workers_r;
    }
