open Simkit

let default_split_depth ~depth = max 1 (min 3 (depth - 1))
let max_failures = 3

type t = {
  config : Record.config;
  pids : Pid.t list;
  fr : Exhaustive.split_result;
  jobs : Exhaustive.subtree array;  (* by id *)
  answers : Record.done_job option array;
  inflight : int array;  (* dispatches running per job *)
  failures : int array;  (* counted failures per job *)
  tried : (int * int, bool) Hashtbl.t;
      (* (worker, job) once dispatched there; [true] once it failed there *)
  dead : bool array;
  mutable least_cex : int;
      (* least job id answered with a counterexample; the job total while
         none *)
  mutable cursor : int;  (* least unanswered job id; only moves on *)
  mutable redispatched : int;
  mutable error : string option;
}

let config l = l.config
let frontier l = l.fr
let redispatched l = l.redispatched
let dead l w = l.dead.(w)
let needed l id = id <= l.least_cex && l.answers.(id) = None
let last_needed l = min l.least_cex (Array.length l.jobs - 1)

let credit l d =
  let id = d.Record.dj_id in
  l.answers.(id) <- Some d;
  (match d.Record.dj_verdict with
  | Exhaustive.Counterexample _ -> l.least_cex <- min l.least_cex id
  | Exhaustive.Ok _ -> ());
  while l.cursor < Array.length l.jobs && l.answers.(l.cursor) <> None do
    l.cursor <- l.cursor + 1
  done

let ( let* ) = Result.bind

let start ?split_depth ?(reduce = false) ?resume ~scenario:sc ~depth ~workers
    () =
  let split_depth =
    Option.value split_depth ~default:(default_split_depth ~depth)
  in
  let config =
    {
      Record.cf_scenario = sc.Mcheck.Scenario.sc_name;
      cf_n_s = sc.Mcheck.Scenario.sc_n_s;
      cf_depth = depth;
      cf_reduce = reduce;
      cf_split_depth = split_depth;
    }
  in
  let* fr =
    match
      Exhaustive.split
        ?reduce:(Mcheck.Scenario.reduction sc ~reduce)
        ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
        ~depth ~split_depth ~prop:sc.Mcheck.Scenario.sc_prop ()
    with
    | fr -> Ok fr
    | exception Invalid_argument msg -> Error msg
  in
  let jobs = Array.of_list fr.Exhaustive.fr_jobs in
  let n = Array.length jobs in
  match resume with
  | Some r when r.Record.ck_config <> config ->
    Error
      "checkpoint config (scenario/n_s/depth/reduce/split_depth) does not \
       match this run"
  | Some r when r.Record.ck_total <> n ->
    Error
      (Printf.sprintf
         "checkpoint records %d jobs but the frontier splits into %d (record \
          from a different engine?)"
         r.Record.ck_total n)
  | _ ->
    let l =
      {
        config;
        pids = sc.Mcheck.Scenario.sc_pids;
        fr;
        jobs;
        answers = Array.make n None;
        inflight = Array.make n 0;
        failures = Array.make n 0;
        tried = Hashtbl.create 64;
        dead = Array.make workers false;
        least_cex = n;
        cursor = 0;
        redispatched = 0;
        error = None;
      }
    in
    Option.iter (fun r -> List.iter (credit l) r.Record.ck_done) resume;
    Ok l

(* -- transitions ----------------------------------------------------------- *)

type take =
  | Jobs of Exhaustive.subtree list
  | Steal of Exhaustive.subtree
  | Wait
  | Stop

let failed l w id = Hashtbl.find_opt l.tried (w, id) = Some true

(* a live worker that has not failed the job *)
let untried l id =
  Array.to_seqi l.dead
  |> Seq.exists (fun (w, dead) -> not (dead || failed l w id))

let dispatch l w id =
  l.inflight.(id) <- l.inflight.(id) + 1;
  if not (Hashtbl.mem l.tried (w, id)) then Hashtbl.add l.tried (w, id) false;
  l.jobs.(id)

let take l ~worker ~max =
  let last = last_needed l in
  if l.error <> None || l.cursor > last then Stop
  else
    let takes id =
      needed l id && l.inflight.(id) = 0
      && ((not (failed l worker id)) || not (untried l id))
    in
    let rec pending id k =
      if id > last || k = max then []
      else if takes id then id :: pending (id + 1) (k + 1)
      else pending (id + 1) k
    in
    match pending l.cursor 0 with
    | _ :: _ as ids -> Jobs (List.map (dispatch l worker) ids)
    | [] -> (
      let steal = ref None in
      for id = last downto l.cursor do
        if
          needed l id && l.inflight.(id) > 0
          && not (Hashtbl.mem l.tried (worker, id))
        then
          match !steal with
          | Some s when l.inflight.(s) < l.inflight.(id) -> ()
          | _ -> steal := Some id
      done;
      match !steal with
      | Some id ->
        l.redispatched <- l.redispatched + 1;
        Steal (dispatch l worker id)
      | None -> Wait)

let settle l id =
  if l.inflight.(id) > 0 then l.inflight.(id) <- l.inflight.(id) - 1

let answer l d =
  let id = d.Record.dj_id in
  settle l id;
  let fresh = needed l id in
  if fresh then credit l d;
  fresh

(* the job is pending again: report it as a redispatch *)
let requeue l id =
  let again = needed l id && l.inflight.(id) = 0 in
  if again then l.redispatched <- l.redispatched + 1;
  again

let end_run l msg = if l.error = None then l.error <- Some msg

type failure = Busy of string | Failed of string | Refused of string

let fail l ~worker id f =
  settle l id;
  match f with
  | Refused msg ->
    end_run l msg;
    false
  | Busy _ -> requeue l id
  | Failed _ when not (needed l id) -> false
  | Failed msg ->
    Hashtbl.replace l.tried (worker, id) true;
    l.failures.(id) <- l.failures.(id) + 1;
    if l.failures.(id) > max_failures && not (untried l id) then begin
      end_run l
        (Printf.sprintf "job %d failed %d times, last error: %s" id
           l.failures.(id) msg);
      false
    end
    else requeue l id

let lost l ~worker ids =
  l.dead.(worker) <- true;
  List.filter (fun id -> fail l ~worker id (Busy "worker_dead")) ids

(* -- what the run holds ---------------------------------------------------- *)

let record l =
  Record.make ~config:l.config ~total:(Array.length l.jobs)
    ~done_:(List.filter_map Fun.id (Array.to_list l.answers))

let result l =
  let unresolved =
    List.filter (needed l) (List.init (last_needed l + 1) Fun.id)
  in
  match (l.error, unresolved) with
  | Some msg, _ -> Error msg
  | None, [] ->
    Ok
      (Exhaustive.merge_frontier ~pids:l.pids l.fr
         (List.filter_map
            (Option.map (fun d -> (d.Record.dj_verdict, d.Record.dj_stats)))
            (Array.to_list l.answers)))
  | None, ids ->
    Error
      (Printf.sprintf "%d of %d subtree jobs unresolved: every worker failed"
         (List.length ids) (Array.length l.jobs))

let journal checkpoint l =
  match checkpoint with
  | None -> Ok (fun ~force:_ -> ())
  | Some (store, interval_s) ->
    let save () =
      (* a generation that holds no answered job loses nothing to a power
         failure, so it skips the fsyncs *)
      let r = record l in
      Store.save ~sync:(r.Record.ck_done <> []) store (Record.json r)
    in
    let last = ref (Obs.Clock.now_ns ()) in
    save ()
    |> Result.map (fun _ ~force ->
           if force || Obs.Clock.elapsed_s ~since:!last >= interval_s then begin
             (* a failed save was reported by the store, and the previous
                generation still stands *)
             ignore (save ());
             last := Obs.Clock.now_ns ()
           end)
