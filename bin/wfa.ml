(* wfa — command-line front end for the Wait-Freedom-with-Advice library.

   $ wfa solve --task consensus --n 4 --fd omega --crashes 1:50
   $ wfa solve --task ksa --k 2 --n 5 --fd vector
   $ wfa solve --task renaming --j 3 --l 4 --policy kconc:2
   $ wfa classify --n 4
   $ wfa fuzz --kind strong-renaming --j 3 --explain
   $ wfa extract --n 3 --k 1 --crashes 2:300                              *)

open Cmdliner
open Simkit
open Tasklib
open Efd

(* ---------------------------------------------------------------- args *)

let n_arg =
  Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Number of C-processes (= S-processes).")

let k_arg =
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Agreement parameter k.")

let j_arg =
  Arg.(value & opt int 3 & info [ "j" ] ~docv:"J" ~doc:"Renaming participants j.")

let l_arg =
  Arg.(value & opt (some int) None & info [ "l" ] ~docv:"L" ~doc:"Renaming name-space size (default j+k-1).")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let seeds_arg =
  Arg.(value & opt int 25 & info [ "seeds" ] ~docv:"COUNT" ~doc:"Number of seeded runs.")

let budget_arg =
  Arg.(value & opt int 400_000 & info [ "budget" ] ~docv:"STEPS" ~doc:"Step budget per run.")

(* --crashes and --policy parse through Arg.conv: a malformed value is a
   cmdliner parse error (usage + clean nonzero exit), not an escaping
   exception with a backtrace. *)

let crashes_conv : (int * int) list Arg.conv =
  let parse s =
    if s = "" then Ok []
    else
      let item it =
        let err () =
          Error
            (`Msg
               (Fmt.str "invalid crash %S, expected I:T (0-based index, time)"
                  it))
        in
        match String.split_on_char ':' it with
        | [ i; t ] -> (
          match (int_of_string_opt i, int_of_string_opt t) with
          | Some i, Some t when i >= 0 && t >= 0 -> Ok (i, t)
          | _ -> err ())
        | _ -> err ()
      in
      List.fold_left
        (fun acc it ->
          match (acc, item it) with
          | Error e, _ -> Error e
          | _, Error e -> Error e
          | Ok l, Ok c -> Ok (l @ [ c ]))
        (Ok [])
        (String.split_on_char ',' s)
  in
  let print ppf l =
    Fmt.pf ppf "%a"
      Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") int int))
      l
  in
  Arg.conv (parse, print)

let crashes_arg =
  Arg.(
    value
    & opt crashes_conv []
    & info [ "crashes" ] ~docv:"I:T,I:T"
        ~doc:"Crash S-process qI+1 at time T (comma-separated, 0-based indices).")

(* the CLI enums are Scenario.Build's name tables — the same lists the
   server and the scenario-file loader validate against, so a name the CLI
   accepts cannot be one the data format rejects *)
let task_arg =
  Arg.(
    value
    & opt (enum Scenario.Build.task_assoc) `Consensus
    & info [ "task" ] ~docv:"TASK"
        ~doc:
          (Fmt.str "Task: %s."
             (String.concat " | " Scenario.Build.task_names)))

let fd_arg =
  Arg.(
    value
    & opt (enum Scenario.Build.fd_assoc) `Vector
    & info [ "fd" ] ~docv:"FD"
        ~doc:(Fmt.str "Failure detector: %s."
                (String.concat " | " Scenario.Build.fd_names)))

let policy_conv : Scenario.Build.policy Arg.conv =
  let parse s =
    match Scenario.Build.policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p = Fmt.string ppf (Scenario.Build.policy_to_string p) in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value
    & opt policy_conv Scenario.Build.Fair
    & info [ "policy" ] ~docv:"POLICY" ~doc:"Schedule: fair | kconc:K | uniform:K.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write the result as JSON to $(docv).")

(* ------------------------------------------------------------- helpers *)

(* Range-checking a crash index needs [n_s], known only at run time: report
   cleanly on stderr and exit nonzero without a backtrace. *)
let with_pattern ~n_s crashes f =
  match List.find_opt (fun (i, _) -> i >= n_s) crashes with
  | Some (i, _) ->
    Fmt.epr "wfa: --crashes index %d out of range (S-processes: 0..%d)@." i
      (n_s - 1);
    2
  | None ->
    f
      (if crashes = [] then Failure.failure_free n_s
       else Failure.pattern ~n_s crashes)

(* An unwritable --json path must be a one-line diagnostic and a nonzero
   exit, not an uncaught Sys_error with a backtrace. *)
let write_json path json =
  match
    let oc = open_out path in
    output_string oc (Obs.Json.to_string_pretty json);
    close_out oc
  with
  | () -> Fmt.pr "wrote %s@." path
  | exception Sys_error msg ->
    Fmt.epr "wfa: cannot write --json output: %s@." msg;
    exit 2

(* Run one scenario file in process through the campaign runner
   (Svc.Campaign.run_local, which executes the file's typed work with
   Svc.Jobs.run_work, the executor the server's workers use), and reflect
   the scenario's expectation in the exit code: pass 0, fail/timeout 1,
   load or unexpected errors 2. The other flags of the host command are
   ignored — the file is the whole configuration. *)
let run_scenario_file ~cmd path =
  match Scenario.Spec.load path with
  | Error msg ->
    Fmt.epr "wfa %s: %s@." cmd msg;
    2
  | Ok sp ->
    let verb = Scenario.Spec.verb sp in
    if verb <> cmd then begin
      Fmt.epr
        "wfa %s: %s describes a %s scenario — run it with wfa %s or wfa \
         campaign@."
        cmd path verb verb;
      2
    end
    else begin
      let s =
        Svc.Campaign.run_local ~name:sp.Scenario.Spec.sp_name [ sp ]
      in
      let row = List.hd s.Svc.Campaign.s_rows in
      Fmt.pr "scenario %s@.verb     %s@.expect   %s@.outcome  %s (%s)@."
        sp.Scenario.Spec.sp_name verb
        (Scenario.Spec.expect_string sp.Scenario.Spec.sp_expect)
        (Scenario.Spec.outcome_string row.Svc.Campaign.row_outcome)
        row.Svc.Campaign.row_detail;
      match row.Svc.Campaign.row_outcome with
      | Scenario.Spec.Pass -> 0
      | Scenario.Spec.Fail | Scenario.Spec.Timeout -> 1
      | Scenario.Spec.Error -> 2
    end

let scenario_file_arg cmd =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario-file" ] ~docv:"FILE"
        ~doc:
          (Fmt.str
             "Run the %s scenario described in $(docv) (ignoring the other \
              flags) and exit 0 iff its declared expectation holds."
             cmd))

(* The flag modes of solve, fuzz and modelcheck read their values with the
   reader scenario files and the server use, then run them with the
   executor the server's workers use (Svc.Jobs): a value either refuses is
   one line on stderr and exit 2, with the reader's or the constructor's
   message, as the server answers it with a bad_request. *)
let refuse ~cmd msg =
  Fmt.epr "wfa %s: %s@." cmd msg;
  2

let checked ~cmd work k =
  match Scenario.Spec.check work with
  | Ok () -> k ()
  | Error msg -> refuse ~cmd msg

let executed ~cmd result k =
  match result with
  | Ok v -> k v
  | Error (Svc.Protocol.Bad_request, msg) -> refuse ~cmd msg
  | Error (code, msg) ->
    refuse ~cmd (Svc.Protocol.err_code_string code ^ ": " ^ msg)

(* ------------------------------------------------------------ commands *)

let solve scenario_file sv_task sv_fd sv_policy sv_n sv_k sv_j sv_l sv_seed
    sv_budget sv_crashes json =
  match scenario_file with
  | Some path -> run_scenario_file ~cmd:"solve" path
  | None ->
  let s =
    {
      Scenario.Spec.sv_task; sv_fd; sv_policy; sv_n; sv_k; sv_j; sv_l;
      sv_crashes; sv_seed; sv_budget;
    }
  in
  checked ~cmd:"solve" (Scenario.Spec.Solve s) @@ fun () ->
  executed ~cmd:"solve" (Svc.Jobs.solve s)
  @@ fun ({ Svc.Jobs.so_task; so_algo; so_fd; so_pattern; so_report = r; _ }
          as so) ->
  Fmt.pr "task     %s@.algo     %s@.fd       %s@.pattern  %a@.%a@.verdict  %s@."
    so_task.Task.task_name so_algo.Algorithm.algo_name (Fdlib.Fd.name so_fd)
    Failure.pp_pattern so_pattern Run.pp_report r
    (if Run.ok r then "OK" else "FAILED");
  Option.iter (fun path -> write_json path (Svc.Jobs.report_json so)) json;
  if Run.ok r then 0 else 1

let classify n seeds =
  let table = Classifier.table ~seeds_per_level:seeds ~n () in
  Fmt.pr "%a@." Classifier.pp_table table;
  if List.for_all Classifier.consistent table then 0 else 1

let fuzz scenario_file fz_kind fz_n fz_j fz_seed fz_budget fz_domains do_shrink
    explain json =
  match scenario_file with
  | Some path -> run_scenario_file ~cmd:"fuzz" path
  | None ->
  let f =
    { Scenario.Spec.fz_kind; fz_n; fz_j; fz_seed; fz_budget; fz_domains }
  in
  checked ~cmd:"fuzz" (Scenario.Spec.Fuzz f) @@ fun () ->
  executed ~cmd:"fuzz" (Svc.Jobs.fuzz f) @@ fun (target, res) ->
  Fmt.pr "target   %s@.trials   %d/%d (%d domain%s, %.3fs, %.0f seeds/s)@."
    target.Adversary.t_name res.Adversary.f_trials res.Adversary.f_budget
    res.Adversary.f_domains
    (if res.Adversary.f_domains = 1 then "" else "s")
    res.Adversary.f_wall_s
    (float_of_int res.Adversary.f_trials /. Float.max 1e-9 res.Adversary.f_wall_s);
  match res.Adversary.f_witness with
  | None ->
    Fmt.pr "no witness found in %d trials@." res.Adversary.f_trials;
    Option.iter
      (fun path ->
        write_json path
          (Obs.Json.Obj [ ("fuzz", Adversary.fuzz_result_json res) ]))
      json;
    1
  | Some w ->
    Fmt.pr "trial    %d@.%a@." (Option.get res.Adversary.f_trial)
      Adversary.pp_witness w;
    let shrunk =
      if not do_shrink then None
      else begin
        let w', sh = Adversary.shrink_target target w in
        Fmt.pr "shrink   %a@.%a@." Adversary.pp_shrink_report sh
          Adversary.pp_witness w';
        Some (w', sh)
      end
    in
    if explain then begin
      let w = match shrunk with Some (w', _) -> w' | None -> w in
      Adversary.explain_target target w Fmt.stdout;
      Fmt.pr "@."
    end;
    Option.iter
      (fun path ->
        write_json path
          (Obs.Json.Obj
             (("fuzz", Adversary.fuzz_result_json res)
             ::
             (match shrunk with
             | None -> []
             | Some (w', sh) ->
               [
                 ("shrunk", Adversary.witness_json w');
                 ("shrink", Adversary.shrink_report_json sh);
               ]))))
      json;
    0

let extract n k seed crashes =
  with_pattern ~n_s:n crashes @@ fun pattern ->
  let task = Set_agreement.make ~n ~k () in
  let algo = Ksa.make ~max_rounds:128 ~k () in
  let fd = Fdlib.Leader_fds.vector_omega_k_silent ~max_stab:25 ~k () in
  let rng = Random.State.make [| seed |] in
  let inputs = Task.sample_input task rng in
  let result =
    Extraction.run ~outer_budget:15_000 ~sample_period:400 ~explore_budget:2_500
      ~max_samples:200 ~k ~fd ~algo ~inputs ~n_c:n ~pattern ~seed ()
  in
  let ok =
    Fdlib.Props.anti_omega_k_ok pattern result.Extraction.x_outputs ~k
      ~suffix:4_000
  in
  let witnesses =
    Fdlib.Props.anti_omega_k_witnesses pattern result.Extraction.x_outputs
      ~suffix:4_000
  in
  Fmt.pr "pattern            %a@." Failure.pp_pattern pattern;
  Fmt.pr "samples            %d@." result.Extraction.x_samples;
  Fmt.pr "explorations       %d@." result.Extraction.x_explorations;
  Fmt.pr "anti-Omega-%d holds %b@." k ok;
  Fmt.pr "spared correct     %a@."
    Fmt.(list ~sep:(any ", ") (fun ppf q -> pf ppf "q%d" (q + 1)))
    witnesses;
  if ok then 0 else 1

let emulate n seed crashes budget =
  with_pattern ~n_s:n crashes @@ fun pattern ->
  let result =
    Emulation.run ~budget
      ~fd:(Fdlib.Classic.eventually_strong ~max_stab:60 ())
      ~pattern ~seed Emulation.omega_from_eventually_strong
  in
  let ok =
    Fdlib.Props.omega_ok pattern result.Emulation.em_outputs
      ~suffix:(budget / 8)
  in
  Fmt.pr "reduction          Omega <= <>S (suspicion counting)@.";
  Fmt.pr "pattern            %a@." Failure.pp_pattern pattern;
  Fmt.pr "steps              %d@." result.Emulation.em_steps;
  Fmt.pr "omega property     %b@." ok;
  if ok then 0 else 1

(* Shared by modelcheck and resume so the two commands' --json output
   diffs field-for-field: a resumed run must be indistinguishable from an
   uninterrupted one on every deterministic field. *)
let finish_check ~scenario ~depth ~n_s ~reduce ~json ~engine ~dist_fields
    verdict stats =
  Fmt.pr "engine: %s@." engine;
  Fmt.pr "stats:  %a@." Exhaustive.pp_stats stats;
  Option.iter
    (fun path ->
      write_json path
        (Obs.Json.Obj
           ([
              ("scenario", Obs.Json.Str scenario);
              ("depth", Obs.Json.Int depth);
              ("n_s", Obs.Json.Int n_s);
              ("reduce", Obs.Json.Bool reduce);
            ]
           @ Exhaustive.verdict_fields verdict
           @ [
               (* mirrored at top level so local and distributed runs
                  diff field-for-field without digging into stats *)
               ("sleep_pruned", Obs.Json.Int stats.Exhaustive.sleep_pruned);
               ( "orbits_collapsed",
                 Obs.Json.Int stats.Exhaustive.orbits_collapsed );
               ("stats", Exhaustive.stats_json stats);
             ]
           @ dist_fields)))
    json;
  match verdict with
  | Exhaustive.Ok n ->
    Fmt.pr "%s: %d schedules of depth <= %d, property holds@." scenario n
      depth;
    0
  | Exhaustive.Counterexample cex ->
    Fmt.pr "VIOLATION under schedule %a@."
      Fmt.(list ~sep:(any " ") Pid.pp)
      cex;
    1

let dist_report ~workers r =
  let dead =
    List.filter
      (fun w -> w.Dist.Coordinator.wk_dead)
      r.Dist.Coordinator.r_workers
  in
  Fmt.pr
    "dist:   %d workers (%d failed), %d subtree jobs at split depth %d, %d \
     re-dispatched@."
    (List.length workers) (List.length dead) r.Dist.Coordinator.r_jobs
    r.Dist.Coordinator.r_split_depth r.Dist.Coordinator.r_redispatched;
  [
    ( "dist",
      Obs.Json.Obj
        [
          ("workers", Obs.Json.Int (List.length workers));
          ("workers_dead", Obs.Json.Int (List.length dead));
          ("split_depth", Obs.Json.Int r.Dist.Coordinator.r_split_depth);
          ("jobs", Obs.Json.Int r.Dist.Coordinator.r_jobs);
          ("redispatched", Obs.Json.Int r.Dist.Coordinator.r_redispatched);
          ( "frontier_pruned",
            Obs.Json.Int r.Dist.Coordinator.r_frontier_pruned );
        ] );
  ]

let ckpt_field ~dir ~resumed =
  ( "checkpoint",
    Obs.Json.Obj
      [ ("dir", Obs.Json.Str dir); ("resumed", Obs.Json.Bool resumed) ] )

(* Exhaustively check a named scenario over every schedule (default:
   2-process safe agreement); the S-processes are idle and symmetric, so
   --reduce declares them one symmetry class on top of sleep-set pruning.
   With --workers the frontier is split and fanned out to a fleet of wfa
   serve instances (lib/dist); the merge algebra makes the verdict and
   credited count identical to the local run. *)
let modelcheck scenario_file mc_depth mc_n_s mc_reduce mc_scenario workers
    split_depth checkpoint checkpoint_interval_s json =
  match scenario_file with
  | Some path -> run_scenario_file ~cmd:"modelcheck" path
  | None -> (
    let m = { Scenario.Spec.mc_scenario; mc_n_s; mc_depth; mc_reduce } in
    checked ~cmd:"modelcheck" (Scenario.Spec.Modelcheck m) @@ fun () ->
    let finish =
      finish_check ~scenario:mc_scenario ~depth:mc_depth ~n_s:mc_n_s
        ~reduce:mc_reduce ~json
    in
    (* the reader has resolved the name and bounded n_s *)
    let scenario () =
      Result.get_ok (Mcheck.Scenario.find mc_scenario ~n_s:mc_n_s)
    in
    let store =
      match checkpoint with
      | None -> Ok None
      | Some dir -> Result.map (fun s -> Some (dir, s)) (Ckpt.Store.create dir)
    in
    match (workers, store) with
    | _, Error msg -> refuse ~cmd:"modelcheck" msg
    | [], Ok None ->
      executed ~cmd:"modelcheck" (Svc.Jobs.check m) @@ fun (verdict, stats) ->
      finish
        ~engine:
          (if mc_reduce then "incremental+memo+sleep+symmetry"
           else "incremental+memo")
        ~dist_fields:[] verdict stats
    | [], Ok (Some (dir, store)) -> (
      match
        Ckpt.Local.run ~interval_s:checkpoint_interval_s ?split_depth
          ~reduce:mc_reduce ~store ~scenario:(scenario ()) ~depth:mc_depth ()
      with
      | Error msg -> refuse ~cmd:"modelcheck" msg
      | Ok (verdict, stats) ->
        finish ~engine:"checkpointed"
          ~dist_fields:[ ckpt_field ~dir ~resumed:false ]
          verdict stats)
    | workers, Ok store -> (
      let checkpoint =
        Option.map (fun (_, s) -> (s, checkpoint_interval_s)) store
      in
      match
        Dist.Coordinator.run ?split_depth ?checkpoint ~reduce:mc_reduce
          ~scenario:(scenario ()) ~depth:mc_depth ~workers ()
      with
      | Error msg -> refuse ~cmd:"modelcheck" msg
      | Ok r ->
        let dist_fields =
          dist_report ~workers r
          @
          match store with
          | None -> []
          | Some (dir, _) -> [ ckpt_field ~dir ~resumed:false ]
        in
        finish ~engine:"distributed" ~dist_fields r.Dist.Coordinator.r_verdict
          r.Dist.Coordinator.r_stats))

let resume dir workers checkpoint_interval_s json =
  (* pick the run back up from its journal: the record's config decides
     scenario/depth/reduce/split-depth, the caller only decides the fleet *)
  let ( let* ) = Result.bind in
  let loaded =
    let* store = Ckpt.Store.create dir in
    let* gen, r = Ckpt.Local.load_record store in
    let cfg = r.Ckpt.Record.ck_config in
    let* sc =
      Mcheck.Scenario.find cfg.Ckpt.Record.cf_scenario
        ~n_s:cfg.Ckpt.Record.cf_n_s
    in
    Ok (store, gen, r, sc)
  in
  match loaded with
  | Error msg ->
    Fmt.epr "wfa resume: %s@." msg;
    2
  | Ok (store, gen, r, sc) -> (
    let cfg = r.Ckpt.Record.ck_config in
    let total = r.Ckpt.Record.ck_total in
    let done_n = List.length r.Ckpt.Record.ck_done in
    Fmt.pr "resume: generation %d, %d/%d subtree jobs already done@." gen
      done_n total;
    Ckpt.Store.note_resume store ~gen ~total ~done_:done_n;
    let split_depth = cfg.Ckpt.Record.cf_split_depth
    and reduce = cfg.Ckpt.Record.cf_reduce
    and depth = cfg.Ckpt.Record.cf_depth in
    let finish =
      finish_check ~scenario:cfg.Ckpt.Record.cf_scenario ~depth
        ~n_s:cfg.Ckpt.Record.cf_n_s ~reduce ~json
    in
    let resumed = ckpt_field ~dir ~resumed:true in
    match workers with
    | [] -> (
      match
        Ckpt.Local.run ~interval_s:checkpoint_interval_s ~split_depth ~reduce
          ~resume:r ~store ~scenario:sc ~depth ()
      with
      | Error msg ->
        Fmt.epr "wfa resume: %s@." msg;
        2
      | Ok (verdict, stats) ->
        finish ~engine:"checkpointed" ~dist_fields:[ resumed ] verdict stats)
    | workers -> (
      match
        Dist.Coordinator.run ~split_depth ~reduce
          ~checkpoint:(store, checkpoint_interval_s) ~resume:r ~scenario:sc
          ~depth ~workers ()
      with
      | Error msg ->
        Fmt.epr "wfa resume: %s@." msg;
        2
      | Ok rep ->
        finish ~engine:"distributed"
          ~dist_fields:(dist_report ~workers rep @ [ resumed ])
          rep.Dist.Coordinator.r_verdict rep.Dist.Coordinator.r_stats))

(* ------------------------------------------------------- serve / call *)

(* The server's major-heap overhead, in percent of live data (OCaml's
   default is 120). A request allocates little, all of it short-lived, so
   the pool domain's minor heap fills to its end between collections; 80
   keeps the major heap smaller by about what those pages add (DESIGN §5).
   Set here, once, not in [Svc.Server]: tests run servers in their own
   process. *)
let serve_space_overhead = 80

let serve socket listen workers shards queue deadline_ms max_frame events =
  Gc.set { (Gc.get ()) with Gc.space_overhead = serve_space_overhead };
  (* --listen supersedes --socket; --socket PATH keeps meaning what it
     always meant (a bare path parses as a Unix socket address) *)
  match Svc.Addr.of_string (Option.value listen ~default:socket) with
  | Error msg ->
    Fmt.epr "wfa serve: %s@." msg;
    2
  | Ok addr ->
    let cfg =
      {
        Svc.Server.listen = addr;
        workers;
        shards;
        queue_bound = queue;
        default_deadline_ms = deadline_ms;
        max_frame;
        max_reply = Svc.Frame.max_wire_len;
      }
    in
    let sink = if events then Some (Obs.Sink.stdout ()) else None in
    Svc.Server.run ?sink
      ~on_listen:(fun bound ->
        (* the bound address, not the configured one: tcp::0 resolves to
           the kernel-chosen port here, and scripts parse this line *)
        Fmt.pr "wfa serve: listening on %s (workers %d, shards %d, queue %d)@."
          (Svc.Addr.to_string bound) workers shards queue)
      cfg;
    Fmt.pr "wfa serve: drained and stopped@.";
    0

(* --pipeline N: write all N copies of the request before reading any
   response, then collect N responses matched by id (completion order, not
   send order — the point of pipelining). N = 1 is the plain round-trip. *)
let call socket verb params deadline_ms pipeline retry codec =
  match Obs.Json.of_string params with
  | Error msg ->
    Fmt.epr "wfa call: invalid --params JSON: %s@." msg;
    2
  | Ok params when pipeline < 1 ->
    ignore params;
    Fmt.epr "wfa call: --pipeline must be >= 1@.";
    2
  | Ok params -> (
    match Svc.Client.connect ~retries:retry ~codec socket with
    | exception Unix.Unix_error (e, _, _) ->
      Fmt.epr "wfa call: cannot connect to %s: %s@." socket
        (Unix.error_message e);
      2
    | exception Invalid_argument msg ->
      Fmt.epr "wfa call: %s@." msg;
      2
    | client when pipeline = 1 ->
      let r = Svc.Client.call ?deadline_ms ~params client verb in
      Svc.Client.close client;
      (match r with
      | Ok result ->
        Fmt.pr "%s@?" (Obs.Json.to_string_pretty result);
        0
      | Error (Svc.Client.Server (code, msg)) ->
        Fmt.epr "wfa call: %s: %s@." (Svc.Protocol.err_code_string code) msg;
        1
      | Error (Svc.Client.Transport _ as e) ->
        Fmt.epr "wfa call: %s@." (Svc.Client.error_string e);
        2)
    | client -> (
      let sent = ref [] in
      let send_error = ref None in
      (try
         for _ = 1 to pipeline do
           match Svc.Client.send ?deadline_ms ~params client verb with
           | Ok id -> sent := id :: !sent
           | Error e ->
             send_error := Some e;
             raise Exit
         done
       with Exit -> ());
      match !send_error with
      | Some e ->
        Svc.Client.close client;
        Fmt.epr "wfa call: %s@." (Svc.Client.error_string e);
        2
      | None ->
        let ok = ref 0 and failed = ref 0 and transport = ref None in
        (try
           for _ = 1 to pipeline do
             match Svc.Client.recv client with
             | Ok (id, Ok _) ->
               incr ok;
               ignore id
             | Ok (id, Error e) ->
               incr failed;
               Fmt.epr "wfa call: id %d: %s@." id (Svc.Client.error_string e)
             | Error e ->
               transport := Some e;
               raise Exit
           done
         with Exit -> ());
        Svc.Client.close client;
        (match !transport with
        | Some e ->
          Fmt.epr "wfa call: %s@." (Svc.Client.error_string e);
          2
        | None ->
          Fmt.pr "pipeline %d: ok %d, failed %d@." pipeline !ok !failed;
          if !failed = 0 then 0 else 1)))

(* ------------------------------------------------------------ campaign *)

(* Expand a campaign file into its scenario matrix and run every cell,
   either against a live server (the scenarios travel as scenario-verb
   requests on one pipelined connection) or in-process. The summary table
   always prints; --json additionally writes the wfa.bench record the
   baseline gate consumes. Exit 0 iff every scenario passed. *)
let campaign file socket local window deadline_ms json list_only =
  match Scenario.Campaign.load file with
  | Error msg ->
    Fmt.epr "wfa campaign: %s@." msg;
    2
  | Ok c -> (
    match Scenario.Campaign.expand c with
    | Error msg ->
      Fmt.epr "wfa campaign: %s@." msg;
      2
    | Ok specs ->
      if list_only then begin
        List.iter
          (fun sp ->
            Fmt.pr "%-60s %s  %s@." sp.Scenario.Spec.sp_name
              (Scenario.Spec.verb sp)
              (Scenario.Spec.expect_string sp.Scenario.Spec.sp_expect))
          specs;
        Fmt.pr "%d scenarios@." (List.length specs);
        0
      end
      else begin
        let name = c.Scenario.Campaign.c_name in
        let summary =
          if local then
            Ok
              (Svc.Campaign.run_local ?default_deadline_ms:deadline_ms ~name
                 specs)
          else
            match Svc.Client.connect ~retries:3 socket with
            | exception Unix.Unix_error (e, _, _) ->
              Error
                (Fmt.str "cannot connect to %s: %s" socket
                   (Unix.error_message e))
            | exception Invalid_argument msg -> Error msg
            | client ->
              let s =
                Svc.Campaign.run_client ~window
                  ?default_deadline_ms:deadline_ms ~name ~client specs
              in
              Svc.Client.close client;
              Ok s
        in
        match summary with
        | Error msg ->
          Fmt.epr "wfa campaign: %s@." msg;
          2
        | Ok s ->
          Fmt.pr "%a" Svc.Campaign.pp_summary s;
          Option.iter
            (fun path ->
              write_json path
                (Obs.Bench_record.to_json (Svc.Campaign.record s)))
            json;
          if Svc.Campaign.ok s then 0 else 1
      end)

(* ---------------------------------------------------------------- main *)

let solve_cmd =
  let doc = "Run one EFD task-solving run and report the verdict." in
  Cmd.v
    (Cmd.info "solve" ~doc)
    Term.(
      const solve $ scenario_file_arg "solve" $ task_arg $ fd_arg
      $ policy_arg $ n_arg $ k_arg $ j_arg $ l_arg $ seed_arg $ budget_arg
      $ crashes_arg $ json_arg)

let classify_cmd =
  let doc = "Measure the task hierarchy (Theorem 10)." in
  Cmd.v
    (Cmd.info "classify" ~doc)
    Term.(const classify $ n_arg $ seeds_arg)

let fuzz_cmd =
  let doc =
    "Domain-parallel randomized fuzzing for an impossibility witness, with \
     optional delta-debugging shrinking."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ scenario_file_arg "fuzz"
      $ Arg.(
          value
          & opt (enum (List.map (fun k -> (k, k)) Scenario.Build.fuzz_kinds))
              "strong-renaming"
          & info [ "kind" ] ~docv:"KIND"
              ~doc:
                (Fmt.str "%s." (String.concat " | " Scenario.Build.fuzz_kinds)))
      $ n_arg $ j_arg $ seed_arg
      $ Arg.(value & opt int 2_000
             & info [ "budget" ] ~docv:"TRIALS" ~doc:"Fuzz trials to run.")
      $ Arg.(value & opt int 1
             & info [ "domains" ] ~docv:"D"
                 ~doc:"Worker domains (the witness is identical for any D).")
      $ Arg.(value & flag
             & info [ "shrink" ]
                 ~doc:"Minimize the witness (crashes, schedule, inputs) by \
                       delta debugging.")
      $ Arg.(value & flag
             & info [ "explain" ]
                 ~doc:"Replay the (shrunk) witness with tracing and print \
                       the violating interleaving.")
      $ json_arg)

let extract_cmd =
  let doc = "Extract anti-Omega-k from a detector solving k-set agreement (Theorem 8)." in
  Cmd.v
    (Cmd.info "extract" ~doc)
    Term.(const extract $ n_arg $ k_arg $ seed_arg $ crashes_arg)

let emulate_cmd =
  let doc = "Emulate Omega from an eventually-strong detector (distributed reduction)." in
  Cmd.v
    (Cmd.info "emulate" ~doc)
    Term.(const emulate $ n_arg $ seed_arg $ crashes_arg
          $ Arg.(value & opt int 30_000 & info [ "budget" ] ~docv:"STEPS" ~doc:"Run length."))

let checkpoint_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "Journal progress to $(docv) (created if missing): a crash or \
           SIGKILL at any point leaves a consistent generation that wfa \
           resume continues from, with verdict and credited count \
           identical to an uninterrupted run.")

let checkpoint_interval_arg =
  Arg.(
    value
    & opt float Ckpt.Local.default_interval_s
    & info [ "checkpoint-interval-s" ] ~docv:"S"
        ~doc:"Seconds between journal generations (a generation is also \
              written before the first job and at completion).")

let modelcheck_cmd =
  let doc =
    "Exhaustively model-check a scenario over all schedules, locally or \
     fanned out over a worker fleet."
  in
  Cmd.v
    (Cmd.info "modelcheck" ~doc)
    Term.(const modelcheck $ scenario_file_arg "modelcheck"
          $ Arg.(value & opt int 10 & info [ "depth" ] ~docv:"DEPTH" ~doc:"Schedule depth.")
          $ Arg.(value & opt int 1 & info [ "n-s" ] ~docv:"N" ~doc:"Number of (idle) S-processes in the schedule.")
          $ Arg.(value & flag & info [ "reduce" ] ~doc:"Enable sleep-set partial-order reduction and S-process symmetry collapsing.")
          $ Arg.(value & opt string "safe-agreement"
                 & info [ "scenario" ] ~docv:"NAME"
                     ~doc:"Scenario to check: safe-agreement | race-false \
                           (a seeded violation, for testing the \
                           counterexample path) | read-collision (a \
                           violation only an exact memo key finds).")
          $ Arg.(value & opt (list string) []
                 & info [ "workers" ] ~docv:"ADDR,..."
                     ~doc:"Distribute over these wfa serve workers \
                           (tcp:HOST:PORT or unix:PATH, comma-separated). \
                           Empty = run locally.")
          $ Arg.(value & opt (some int) None
                 & info [ "split-depth" ] ~docv:"D"
                     ~doc:"Frontier depth for distribution (default: \
                           min 3 (depth-1)).")
          $ checkpoint_dir_arg
          $ checkpoint_interval_arg
          $ json_arg)

let resume_cmd =
  let doc =
    "Resume a checkpointed model-check from its journal directory, in \
     process or over a fleet, whichever of the two wrote it; the record's \
     config (scenario, depth, reduction, split depth) wins, only the fleet \
     is the caller's choice."
  in
  Cmd.v
    (Cmd.info "resume" ~doc)
    Term.(
      const resume
      $ Arg.(required & pos 0 (some string) None
             & info [] ~docv:"DIR"
                 ~doc:"Checkpoint directory written by modelcheck \
                       --checkpoint.")
      $ Arg.(value & opt (list string) []
             & info [ "workers" ] ~docv:"ADDR,..."
                 ~doc:"Redispatch unfinished subtrees over these wfa serve \
                       workers (same fleet or a different one — workers \
                       are stateless). Empty = finish in-process.")
      $ checkpoint_interval_arg
      $ json_arg)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/wfa.sock"
    & info [ "socket" ] ~docv:"ADDR"
        ~doc:"Server address: a Unix-domain socket path, unix:PATH, or \
              tcp:HOST:PORT.")

let serve_cmd =
  let doc =
    "Run the concurrent job server: scenario (solve/modelcheck/fuzz) and \
     subtree requests over a Unix-domain or TCP socket with worker pools, \
     backpressure and deadlines."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg
      $ Arg.(value & opt (some string) None
             & info [ "listen" ] ~docv:"ADDR"
                 ~doc:"Listen address: unix:PATH or tcp:HOST:PORT \
                       (tcp::0 = all interfaces, kernel-chosen port, \
                       printed on startup). Overrides --socket.")
      $ Arg.(value & opt int 2
             & info [ "workers" ] ~docv:"N" ~doc:"Worker domains.")
      $ Arg.(value & opt int 2
             & info [ "shards" ] ~docv:"N"
                 ~doc:"I/O shard event loops; each owns a slice of the \
                       connections (poll-based, so thousands per shard).")
      $ Arg.(value & opt int 64
             & info [ "queue" ] ~docv:"N"
                 ~doc:"Queue bound; requests beyond it are rejected with \
                       overloaded.")
      $ Arg.(value & opt (some int) None
             & info [ "deadline-ms" ] ~docv:"MS"
                 ~doc:"Default per-request deadline (requests may carry \
                       their own).")
      $ Arg.(value & opt int Svc.Frame.default_max_len
             & info [ "max-frame" ] ~docv:"BYTES"
                 ~doc:"Largest accepted request frame.")
      $ Arg.(value & flag
             & info [ "events" ]
                 ~doc:"Emit svc.* events as JSON lines on stdout."))

let verb_conv : Svc.Protocol.verb Arg.conv =
  let parse s =
    match Svc.Protocol.verb_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Fmt.str "unknown verb %S" s))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (Svc.Protocol.verb_string v))

let call_cmd =
  let doc = "Send one request to a running wfa serve and print the result." in
  Cmd.v
    (Cmd.info "call" ~doc)
    Term.(
      const call $ socket_arg
      $ Arg.(value & pos 0 verb_conv Svc.Protocol.Ping
             & info [] ~docv:"VERB"
                 ~doc:"ping | stats | metrics | subtree | scenario | \
                       shutdown | cancel. The scenario verb takes a full \
                       scenario-file object as --params and is validated \
                       server-side; it is how a solve, model check or fuzz \
                       is sent.")
      $ Arg.(value & opt string "{}"
             & info [ "params" ] ~docv:"JSON" ~doc:"Request parameters.")
      $ Arg.(value & opt (some int) None
             & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Request deadline.")
      $ Arg.(value & opt int 1
             & info [ "pipeline" ] ~docv:"N"
                 ~doc:"Send $(docv) copies of the request before reading \
                       any response (responses are matched by id and may \
                       complete out of order); prints an ok/failed summary.")
      $ Arg.(value & opt int 0
             & info [ "retry" ] ~docv:"N"
                 ~doc:"Retry a refused connection up to $(docv) times with \
                       exponential backoff.")
      $ Arg.(value
             & opt (enum
                      [ ("json", Svc.Protocol.Codec.Json);
                        ("binary", Svc.Protocol.Codec.Binary) ])
                 Svc.Protocol.Codec.Json
             & info [ "codec" ] ~docv:"CODEC"
                 ~doc:"Wire codec to send: json (default, the debug path) \
                       or binary. The server answers in the codec it was \
                       sent, and the printed result is identical either \
                       way."))

let campaign_cmd =
  let doc =
    "Expand a campaign file into its scenario matrix and run every \
     scenario, comparing each result against its declared expectation."
  in
  Cmd.v
    (Cmd.info "campaign" ~doc)
    Term.(
      const campaign
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"FILE" ~doc:"Campaign file (see bench/campaigns/).")
      $ socket_arg
      $ Arg.(
          value & flag
          & info [ "local" ]
              ~doc:
                "Run in-process instead of against a server (same engine \
                 code path, sequential).")
      $ Arg.(
          value & opt int 16
          & info [ "window" ] ~docv:"N"
              ~doc:"Pipelined requests in flight per connection.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "deadline-ms" ] ~docv:"MS"
              ~doc:
                "Default per-scenario deadline (scenarios may carry their \
                 own).")
      $ json_arg
      $ Arg.(
          value & flag
          & info [ "list" ]
              ~doc:"Print the expanded scenario names and exit."))

let () =
  let doc = "Wait-Freedom with Advice (PODC 2012) — executable model" in
  let info = Cmd.info "wfa" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ solve_cmd; classify_cmd; fuzz_cmd; extract_cmd; emulate_cmd;
            modelcheck_cmd; resume_cmd; serve_cmd; call_cmd; campaign_cmd ]))
