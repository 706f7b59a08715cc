open Simkit

let default_interval_s = 30.

let load_record store =
  match Store.load store with
  | None -> Error "no valid checkpoint generation found"
  | Some (gen, value) -> (
    match Record.of_json value with
    | Ok r -> Ok (gen, r)
    | Error msg ->
      Error (Printf.sprintf "generation %d: invalid record: %s" gen msg))

let ( let* ) = Result.bind

let run ?(interval_s = default_interval_s) ?split_depth ?(reduce = false)
    ?cancel ?resume ~store ~scenario:sc ~depth () =
  let* l =
    Ledger.start ?split_depth ~reduce ?resume ~scenario:sc ~depth ~workers:1 ()
  in
  let* save = Ledger.journal (Some (store, interval_s)) l in
  let run_job =
    Exhaustive.run_subtree
      ?reduce:(Mcheck.Scenario.reduction sc ~reduce)
      ?cancel ~build:sc.Mcheck.Scenario.sc_build
      ~pids:sc.Mcheck.Scenario.sc_pids ~depth ~prop:sc.Mcheck.Scenario.sc_prop
  in
  (* one worker with nothing in flight is handed a job or told to stop *)
  let rec loop () =
    match Ledger.take l ~worker:0 ~max:1 with
    | Ledger.Jobs [ sj ] ->
      let dj_verdict, dj_stats =
        try run_job sj
        with Exhaustive.Cancelled ->
          (* persist what completed, then let the deadline surface *)
          save ~force:true;
          raise Exhaustive.Cancelled
      in
      ignore
        (Ledger.answer l
           { Record.dj_id = sj.Exhaustive.sj_id; dj_verdict; dj_stats });
      save ~force:false;
      loop ()
    | _ -> ()
  in
  loop ();
  save ~force:true;
  Ledger.result l
