open Simkit
open Tasklib
open Efd
module J = Obs.Json
module P = Protocol
module Spec = Scenario.Spec

type error = P.err_code * string

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* Constructors refuse some arguments that [Spec]'s bounds let through
   (renaming with j >= n, wsb with j = 1, ...) by raising
   [Invalid_argument], as do the exhaustive engines for trees and jobs they
   cannot count or reduce. That is the caller's fault. [solve] and [fuzz]
   wrap only their set-up, so one raised mid-run stays [Internal];
   [check] and [subtree] wrap the whole engine call. *)
let refusing f = try f () with Invalid_argument msg -> raise (Bad msg)

let never_cancel () = false

let guarded f =
  try Ok (f ()) with
  | Bad msg -> Error (P.Bad_request, msg)
  | Exhaustive.Cancelled | Adversary.Cancelled | Run.Cancelled ->
    Error (P.Deadline_exceeded, "deadline exceeded during execution")
  | exn -> Error (P.Internal, Printexc.to_string exn)

(* ---------------------------------------------------------------- work *)

type solved = {
  so_task : Task.t;
  so_algo : Algorithm.t;
  so_fd : Fdlib.Fd.t;
  so_pattern : Failure.pattern;
  so_seed : int;
  so_report : Run.report;
}

let solve ?(cancel = never_cancel) (s : Spec.solve) =
  guarded @@ fun () ->
  let policy = Scenario.Build.policy_factory s.sv_policy in
  let task, algo, fd, pattern, input =
    refusing (fun () ->
        let task =
          Scenario.Build.task s.sv_task ~n:s.sv_n ~k:s.sv_k ~j:s.sv_j ~l:s.sv_l
        in
        let algo = Scenario.Build.algo s.sv_task task ~k:s.sv_k in
        let fd = Scenario.Build.fd s.sv_fd ~k:s.sv_k in
        let pattern =
          if s.sv_crashes = [] then Failure.failure_free s.sv_n
          else Failure.pattern ~n_s:s.sv_n s.sv_crashes
        in
        let input =
          Task.sample_input task (Random.State.make [| s.sv_seed |])
        in
        (task, algo, fd, pattern, input))
  in
  let so_report =
    Run.execute ~budget:s.sv_budget ~policy ~cancel ~task ~algo ~fd ~pattern
      ~input ~seed:s.sv_seed ()
  in
  {
    so_task = task; so_algo = algo; so_fd = fd; so_pattern = pattern;
    so_seed = s.sv_seed; so_report;
  }

let report_json so =
  Run.report_json
    ~labels:
      (Run.labels ~task:so.so_task ~algo:so.so_algo ~fd:so.so_fd
         ~seed:so.so_seed)
    so.so_report

(* Scenario records are immutable setup — the closures inside ([sc_build],
   [sc_prop]) generate fresh mutable state per call — so one compiled
   record per (name, n_s) can be shared across every pool worker for the
   lifetime of the process. Registry lookup and scenario construction drop
   off the per-request path; only the first request per key pays. *)
let scenario_cache : (string * int, Mcheck.Scenario.t) Hashtbl.t =
  Hashtbl.create 8

let scenario_cache_mutex = Mutex.create ()

let scenario_of (m : Spec.modelcheck) =
  let key = (m.mc_scenario, m.mc_n_s) in
  let locked f = Mutex.protect scenario_cache_mutex f in
  match locked (fun () -> Hashtbl.find_opt scenario_cache key) with
  | Some sc -> sc
  | None -> (
    (* build outside the lock: a miss must not serialize other workers *)
    match Mcheck.Scenario.find m.mc_scenario ~n_s:m.mc_n_s with
    | Ok sc ->
      locked (fun () -> Hashtbl.replace scenario_cache key sc);
      sc
    | Error msg -> raise (Bad msg))

let check ?(cancel = never_cancel) (m : Spec.modelcheck) =
  guarded @@ fun () ->
  let sc = scenario_of m in
  refusing (fun () ->
      Exhaustive.run
        ?reduce:(Mcheck.Scenario.reduction sc ~reduce:m.mc_reduce)
        ~cancel ~build:sc.Mcheck.Scenario.sc_build
        ~pids:sc.Mcheck.Scenario.sc_pids ~depth:m.mc_depth
        ~prop:sc.Mcheck.Scenario.sc_prop ())

(* The memo table of the distributed run this pool domain served last,
   under its key (run, scenario, n_s, depth, reduce). Consecutive jobs of
   one run share it, so states that converge across frontier prefixes are
   explored once per worker rather than once per job; a job of any other
   key clears the table ({!Exhaustive.clear_table}) and binds it to its own
   key, so a worker grows one table once rather than one per run. A soft
   cache: a restarted worker loses speed, never correctness, and it holds
   at most one run's table per domain. *)
let run_table = Domain.DLS.new_key (fun () -> None)

let table_for key =
  match Domain.DLS.get run_table with
  | Some (k, t) when k = key -> t
  | held ->
    let t =
      match held with
      | Some (_, t) ->
        Exhaustive.clear_table t;
        t
      | None -> Exhaustive.create_table ()
    in
    Domain.DLS.set run_table (Some (key, t));
    t

(* One frontier subtree of a distributed exhaustive search: modelcheck
   params plus the [job] ({!Exhaustive.subtree}) and the [run] id the
   coordinator tags every job of one run with; a request without one gets
   a private memo. The verdict travels back with the job id so
   first-result-wins re-dispatch can drop duplicates. *)
let subtree ~cancel params =
  let modelcheck_params =
    match params with
    | J.Obj kvs ->
      J.Obj (List.filter (fun (k, _) -> k <> "job" && k <> "run") kvs)
    | j -> j
  in
  let m =
    match Spec.work_of_params ~verb:"modelcheck" modelcheck_params with
    | Ok (Spec.Modelcheck m) -> m
    | Ok (Spec.Solve _ | Spec.Fuzz _) -> assert false
    | Error msg -> raise (Bad msg)
  in
  let sc = scenario_of m in
  let sj =
    match J.member "job" params with
    | None -> bad "missing param \"job\""
    | Some j -> (
      match Exhaustive.subtree_of_json j with
      | Ok sj -> sj
      | Error msg -> raise (Bad msg))
  in
  let table =
    match J.member "run" params with
    | None -> None
    | Some (J.Str run) ->
      Some
        (table_for
           ( run,
             sc.Mcheck.Scenario.sc_name,
             sc.Mcheck.Scenario.sc_n_s,
             m.mc_depth,
             m.mc_reduce ))
    | Some _ -> bad "param \"run\" is not a string"
  in
  let verdict, stats =
    refusing (fun () ->
        Exhaustive.run_subtree ?table
          ?reduce:(Mcheck.Scenario.reduction sc ~reduce:m.mc_reduce) ~cancel
          ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
          ~depth:m.mc_depth ~prop:sc.Mcheck.Scenario.sc_prop sj)
  in
  J.Obj
    ((("id", J.Int sj.Exhaustive.sj_id) :: Exhaustive.verdict_fields verdict)
    @ [ ("stats", Exhaustive.stats_json stats) ])

let fuzz ?(cancel = never_cancel) (f : Spec.fuzz) =
  guarded @@ fun () ->
  let target =
    refusing (fun () ->
        match Scenario.Build.fuzz_target f.fz_kind ~n:f.fz_n ~j:f.fz_j with
        | Ok t -> t
        | Error msg -> raise (Bad msg))
  in
  ( target,
    Adversary.fuzz_target ~domains:f.fz_domains ~cancel ~seed:f.fz_seed
      ~budget:f.fz_budget target () )

(* -------------------------------------------------------------- verbs *)

let run_work ?cancel = function
  | Spec.Solve s ->
    Result.map
      (fun so ->
        J.Obj
          [
            ("ok", J.Bool (Run.ok so.so_report)); ("report", report_json so);
          ])
      (solve ?cancel s)
  | Spec.Modelcheck m ->
    Result.map
      (fun (verdict, stats) ->
        J.Obj
          ([
             ("scenario", J.Str m.mc_scenario);
             ("depth", J.Int m.mc_depth);
             ("n_s", J.Int m.mc_n_s);
             ("reduce", J.Bool m.mc_reduce);
           ]
          @ Exhaustive.verdict_fields verdict
          @ [ ("stats", Exhaustive.stats_json stats) ]))
      (check ?cancel m)
  | Spec.Fuzz f ->
    Result.map
      (fun (_, res) ->
        J.Obj
          ([
             ("found", J.Bool (res.Adversary.f_witness <> None));
             ("fuzz", Adversary.fuzz_result_json res);
           ]
          @
          match res.Adversary.f_witness with
          | None -> []
          | Some w -> [ ("witness", Adversary.witness_json w) ]))
      (fuzz ?cancel f)

(* A caller-supplied scenario file as params: validated by [Spec.of_json]
   (path-carrying errors; an unknown name or a malformed field is a
   [Bad_request], never a crashed worker), then its typed work runs. The
   scenario's own [deadline_ms] rides in the request envelope, so [cancel]
   already enforces it here. *)
let scenario ~cancel params =
  match Spec.of_json params with
  | Error msg -> Error (P.Bad_request, "invalid scenario: " ^ msg)
  | Ok sp ->
    Result.map
      (fun result ->
        J.Obj
          [
            ("scenario", J.Str sp.Spec.sp_name);
            ("verb", J.Str (Spec.verb sp));
            ("result", result);
          ])
      (run_work ~cancel sp.Spec.sp_work)

let run ?(cancel = never_cancel) verb params =
  match verb with
  | P.Ping | P.Stats | P.Metrics | P.Shutdown | P.Cancel ->
    Error
      ( P.Internal,
        Printf.sprintf "verb %S is not a pool job" (P.verb_string verb) )
  | P.Subtree -> guarded (fun () -> subtree ~cancel params)
  | P.Scenario -> scenario ~cancel params
