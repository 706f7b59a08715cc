open Simkit

let default_interval_s = 30.

(* same default the distributed coordinator uses — deep enough to give the
   journal useful granularity, shallow enough that the split is negligible *)
let default_split_depth ~depth = max 1 (min 3 (depth - 1))

let load_record store =
  match Store.load store with
  | None -> Error "no valid checkpoint generation found"
  | Some (gen, value) -> (
    match Record.of_json value with
    | Ok r -> Ok (gen, r)
    | Error msg ->
      Error (Printf.sprintf "generation %d: invalid record: %s" gen msg))

let ( let* ) = Result.bind

(* The shared engine under [run] and [resume]: split, skip what [pre]
   already answered, run the rest in DFS order up to the least
   counterexample, journal on the clock. *)
let continue ~interval_s ~cancel ~store ~sc ~config ~pre () =
  let depth = config.Record.cf_depth in
  let split_depth = config.Record.cf_split_depth in
  let red = Mcheck.Scenario.reduction sc ~reduce:config.Record.cf_reduce in
  let build = sc.Mcheck.Scenario.sc_build in
  let pids = sc.Mcheck.Scenario.sc_pids in
  let prop = sc.Mcheck.Scenario.sc_prop in
  if depth < 2 then Error "checkpointed runs need depth >= 2"
  else if not (split_depth >= 1 && split_depth < depth) then
    Error
      (Printf.sprintf "split depth %d not in [1, %d)" split_depth depth)
  else
    let* fr =
      match
        Exhaustive.split ?reduce:red ~build ~pids ~depth ~split_depth ~prop ()
      with
      | fr -> Ok fr
      | exception Invalid_argument msg -> Error msg
    in
    let total = List.length fr.Exhaustive.fr_jobs in
    let* () =
      match pre with
      | Some r when r.Record.ck_total <> total ->
        Error
          (Printf.sprintf
             "checkpoint records %d jobs but the frontier splits into %d \
              (record from a different engine?)"
             r.Record.ck_total total)
      | _ -> Ok ()
    in
    let done_ =
      ref (match pre with None -> [] | Some r -> List.rev r.Record.ck_done)
    in
    let answered = Hashtbl.create (max 16 total) in
    (* jobs are numbered in lex order, so none past the least counterexample
       can change the verdict *)
    let least_cex = ref max_int in
    let note d =
      Hashtbl.replace answered d.Record.dj_id ();
      match d.Record.dj_verdict with
      | Exhaustive.Counterexample _ ->
        least_cex := min !least_cex d.Record.dj_id
      | Exhaustive.Ok _ -> ()
    in
    List.iter note (match pre with None -> [] | Some r -> r.Record.ck_done);
    let save () =
      let record = Record.make ~config ~total ~done_:!done_ in
      match Store.save store (Record.json record) with
      | Ok _ -> Ok ()
      | Error _ as e -> e
    in
    (* a generation exists from the first instant: a kill before the first
       interval still leaves a resumable store *)
    let* () = save () in
    let last_save = ref (Obs.Clock.now_ns ()) in
    let maybe_save () =
      if Obs.Clock.elapsed_s ~since:!last_save >= interval_s then begin
        let r = save () in
        last_save := Obs.Clock.now_ns ();
        r
      end
      else Ok ()
    in
    let rec jobs_loop = function
      | [] -> Ok ()
      | sj :: _ when sj.Exhaustive.sj_id > !least_cex -> Ok ()
      | sj :: rest ->
        if Hashtbl.mem answered sj.Exhaustive.sj_id then jobs_loop rest
        else begin
          let verdict, stats =
            try
              Exhaustive.run_subtree ?reduce:red ?cancel ~build ~pids ~depth
                ~prop sj
            with Exhaustive.Cancelled ->
              (* persist what completed, then let the deadline surface *)
              ignore (save ());
              raise Exhaustive.Cancelled
          in
          let d =
            {
              Record.dj_id = sj.Exhaustive.sj_id;
              dj_verdict = verdict;
              dj_stats = stats;
            }
          in
          done_ := d :: !done_;
          note d;
          let* () = maybe_save () in
          jobs_loop rest
        end
    in
    let* () = jobs_loop fr.Exhaustive.fr_jobs in
    let* () = save () in
    let sorted =
      List.stable_sort
        (fun a b -> compare a.Record.dj_id b.Record.dj_id)
        !done_
    in
    Ok
      (Exhaustive.merge_frontier ~pids fr
         (List.map (fun d -> (d.Record.dj_verdict, d.Record.dj_stats)) sorted))

let run ?(interval_s = default_interval_s) ?split_depth ?(reduce = false)
    ?cancel ~store ~scenario:sc ~depth () =
  let split_depth =
    match split_depth with
    | Some d -> d
    | None -> default_split_depth ~depth
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
  continue ~interval_s ~cancel ~store ~sc ~config ~pre:None ()

let resume ?(interval_s = default_interval_s) ~store () =
  let* gen, r = load_record store in
  let config = r.Record.ck_config in
  let* sc =
    Mcheck.Scenario.find config.Record.cf_scenario
      ~n_s:config.Record.cf_n_s
  in
  Store.note_resume store ~gen ~total:r.Record.ck_total
    ~done_:(List.length r.Record.ck_done);
  let* verdict, stats =
    continue ~interval_s ~cancel:None ~store ~sc ~config ~pre:(Some r) ()
  in
  Ok (config, verdict, stats)
