(* The ledger on its own. It is pure, so random event scripts run fast: 1-6
   simulated workers, some of them failing every job, take jobs, answer
   them, fail them (counted, or busy and uncounted), steal and die in any
   interleaving, driven the way the coordinator drives the ledger (a
   worker takes only once it owes nothing). Every job's answer is computed
   once, so a script costs no search. Checked:
   - a finished run's verdict and stats are merge_frontier over the
     credited answers in job order, and the verdict is the whole search's;
   - no job is credited twice;
   - each record holds every entry of the one before;
   - no job at or below the least counterexample is dropped: a run with a
     live healthy worker finishes, never deadlocks, and credits them all,
     however many workers fail (up to 6 workers, so that more of them can
     fail a job than the bound allows);
   - no job past a credited counterexample is handed out;
   - a worker retakes a job it failed only once every live worker has
     failed it, and never steals a job it has run;
   - every script ends, finished or failed, within jobs x workers x
     (bound + 1) settled dispatches (busy replies aside). *)

open Simkit
module L = Ckpt.Ledger

let depth = 6

type fixture = {
  label : string;
  sc : Mcheck.Scenario.t;
  split_depth : int;
  answers : Ckpt.Record.done_job array;  (* every job's, by id *)
  expected : Exhaustive.verdict;  (* the whole search's *)
}

let fixture name split_depth =
  let sc =
    match Mcheck.Scenario.find name ~n_s:2 with
    | Ok sc -> sc
    | Error e -> failwith e
  in
  let build = sc.Mcheck.Scenario.sc_build
  and pids = sc.Mcheck.Scenario.sc_pids
  and prop = sc.Mcheck.Scenario.sc_prop in
  let fr = Exhaustive.split ~build ~pids ~depth ~split_depth ~prop () in
  let results =
    List.map
      (Exhaustive.run_subtree ~build ~pids ~depth ~prop)
      fr.Exhaustive.fr_jobs
  in
  {
    label = Printf.sprintf "%s sd=%d" name split_depth;
    sc;
    split_depth;
    answers =
      Array.of_list
        (List.mapi
           (fun id (dj_verdict, dj_stats) ->
             { Ckpt.Record.dj_id = id; dj_verdict; dj_stats })
           results);
    expected = fst (Exhaustive.merge_frontier ~pids fr results);
  }

let fixtures =
  lazy
    (List.concat_map
       (fun name -> [ fixture name 2; fixture name 3 ])
       [ "safe-agreement"; "race-false" ])

let start fx ~workers =
  match
    L.start ~split_depth:fx.split_depth ~scenario:fx.sc ~depth ~workers ()
  with
  | Ok l -> l
  | Error e -> failwith e

let subset a b =
  List.for_all (fun d -> List.mem d b.Ckpt.Record.ck_done) a.Ckpt.Record.ck_done

type worker = { bad : bool; mutable alive : bool; mutable owed : int list }

(* Runs one script; [Error] names the first property it breaks. *)
let script fx ~bad ~seed =
  let rng = Random.State.make [| seed |] in
  let n = Array.length bad in
  let l = start fx ~workers:n in
  let ws = Array.map (fun bad -> { bad; alive = true; owed = [] }) bad in
  let stopped = Array.make n false and waiting = Array.make n false in
  let credited = Hashtbl.create 64 and least_cex = ref max_int in
  let ran = Hashtbl.create 64 and failed = Hashtbl.create 64 in
  let settled = ref 0 and steps = ref 0 in
  let jobs = Array.length fx.answers in
  let bound = jobs * n * (L.max_failures + 1) in
  let prev = ref (L.record l) in
  let fail fmt = Printf.ksprintf (fun m -> Error (fx.label ^ ": " ^ m)) fmt in
  let remove_one x l =
    let rec go = function
      | [] -> []
      | y :: ys -> if y = x then ys else y :: go ys
    in
    go l
  in
  let rec loop () =
    let active =
      List.filter
        (fun w -> ws.(w).alive && not stopped.(w))
        (List.init n Fun.id)
    in
    if active = [] then Ok ()
    else if List.for_all (fun w -> waiting.(w)) active then
      fail "every live worker waits with nothing in flight"
    else if !settled > bound then fail "%d settled dispatches" !settled
    else if !steps > 100 * bound then fail "no end after %d steps" !steps
    else begin
      incr steps;
      let w = List.nth active (Random.State.int rng (List.length active)) in
      let wk = ws.(w) in
      let progress () = Array.fill waiting 0 n false in
      let roll = Random.State.int rng 100 in
      let broken =
        if roll < 2 then begin
          wk.alive <- false;
          ignore (L.lost l ~worker:w wk.owed);
          wk.owed <- [];
          progress ();
          None
        end
        else
          match wk.owed with
          | _ :: _ ->
            let pick = Random.State.int rng (List.length wk.owed) in
            let id = List.nth wk.owed pick in
            wk.owed <- remove_one id wk.owed;
            progress ();
            if roll < 12 then begin
              ignore (L.fail l ~worker:w id (L.Busy "overloaded"));
              None
            end
            else begin
              incr settled;
              if wk.bad then begin
                Hashtbl.replace failed (w, id) ();
                ignore (L.fail l ~worker:w id (L.Failed "oversized"));
                None
              end
              else if L.answer l fx.answers.(id) then
                if Hashtbl.mem credited id then Some "a job credited twice"
                else begin
                  Hashtbl.add credited id ();
                  (match fx.answers.(id).Ckpt.Record.dj_verdict with
                  | Exhaustive.Counterexample _ ->
                    least_cex := min !least_cex id
                  | Exhaustive.Ok _ -> ());
                  None
                end
              else None
            end
          | [] -> (
            let dispatched ids =
              wk.owed <- ids;
              List.iter (fun id -> Hashtbl.replace ran (w, id) ()) ids;
              if List.exists (fun id -> id > !least_cex) ids then
                Some "a job past the least counterexample handed out"
              else None
            in
            let retried_here id =
              let fresh w' =
                ws.(w').alive && not (Hashtbl.mem failed (w', id))
              in
              Hashtbl.mem failed (w, id)
              && List.exists fresh (List.init n Fun.id)
            in
            match L.take l ~worker:w ~max:(1 + Random.State.int rng 4) with
            | L.Jobs sjs ->
              let ids = List.map (fun sj -> sj.Exhaustive.sj_id) sjs in
              if List.exists retried_here ids then
                Some "a job retaken where it failed, not elsewhere"
              else dispatched ids
            | L.Steal sj ->
              let id = sj.Exhaustive.sj_id in
              if Hashtbl.mem ran (w, id) then
                Some "a job stolen where it already ran"
              else dispatched [ id ]
            | L.Wait ->
              waiting.(w) <- true;
              None
            | L.Stop ->
              stopped.(w) <- true;
              None)
      in
      let r = L.record l in
      match broken with
      | Some m -> fail "%s" m
      | None when not (subset !prev r) -> fail "a record lost an entry"
      | None ->
        prev := r;
        loop ()
    end
  in
  let ( let* ) = Result.bind in
  let* () = loop () in
  let record = L.record l in
  let* () =
    if
      List.for_all
        (fun d -> d = fx.answers.(d.Ckpt.Record.dj_id))
        record.Ckpt.Record.ck_done
    then Ok ()
    else fail "a record entry is not that job's answer"
  in
  let healthy = Array.exists (fun wk -> wk.alive && not wk.bad) ws in
  match L.result l with
  | Error e when healthy -> fail "failed with a healthy worker alive: %s" e
  | Error _ -> Ok ()
  | Ok (v, stats) ->
    let ids =
      List.map (fun d -> d.Ckpt.Record.dj_id) record.Ckpt.Record.ck_done
    in
    let least_cex =
      Array.fold_right
        (fun d acc ->
          match d.Ckpt.Record.dj_verdict with
          | Exhaustive.Counterexample _ -> d.Ckpt.Record.dj_id
          | Exhaustive.Ok _ -> acc)
        fx.answers (jobs - 1)
    in
    let pids = fx.sc.Mcheck.Scenario.sc_pids in
    let _, expected_stats =
      Exhaustive.merge_frontier ~pids (L.frontier l)
        (List.map
           (fun id ->
             (fx.answers.(id).Ckpt.Record.dj_verdict, fx.answers.(id).dj_stats))
           ids)
    in
    if Test_exhaustive.verdict_str v <> Test_exhaustive.verdict_str fx.expected
    then fail "verdict %s" (Test_exhaustive.verdict_str v)
    else if stats <> expected_stats then fail "stats differ from the merge"
    else if
      not
        (List.for_all
           (fun id -> List.mem id ids)
           (List.init (least_cex + 1) Fun.id))
    then fail "a job at or below the least counterexample was dropped"
    else Ok ()

let prop_scripts =
  QCheck.Test.make ~name:"random event scripts keep the books" ~count:300
    QCheck.(
      triple (int_bound 3)
        (list_of_size Gen.(int_range 1 6) bool)
        (int_bound 1_000_000))
    (fun (f, bad, seed) ->
      let fx = List.nth (Lazy.force fixtures) f in
      match script fx ~bad:(Array.of_list bad) ~seed with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_report m)

(* the saver an executor gets survives a store that stops taking generations:
   the failure is an event, and the first generation is still on disk *)
let test_journal_failed_save () =
  let fx = List.hd (Lazy.force fixtures) in
  let errors = ref 0 in
  let sink =
    Obs.Sink.of_fn (fun ev ->
        if ev.Obs.Event.name = Obs.Event.Name.ckpt_save_error then incr errors)
  in
  let dir = Test_ckpt.tmp_dir () in
  Fun.protect
    ~finally:(fun () -> Test_ckpt.rm_rf dir)
    (fun () ->
      match Ckpt.Store.create ~sink dir with
      | Error e -> Alcotest.fail e
      | Ok store -> (
        let l = start fx ~workers:1 in
        match L.journal (Some (store, 0.)) l with
        | Error e -> Alcotest.fail e
        | Ok save ->
          Alcotest.(check (list int))
            "the first generation" [ 0 ]
            (Ckpt.Store.generations store);
          let away = dir ^ ".away" in
          Unix.rename dir away;
          Fun.protect
            ~finally:(fun () -> Unix.rename away dir)
            (fun () ->
              save ~force:false;
              save ~force:true);
          Alcotest.(check int) "each failed save is an event" 2 !errors;
          Alcotest.(check (list int))
            "the first generation stands" [ 0 ]
            (Ckpt.Store.generations store)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_scripts;
    Alcotest.test_case "journal: a failed save is an event" `Quick
      test_journal_failed_save;
  ]
