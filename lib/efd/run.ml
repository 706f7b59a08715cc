module Memory = Simkit.Memory
module Runtime = Simkit.Runtime
module Schedule = Simkit.Schedule
module Checker = Simkit.Checker
module Failure = Simkit.Failure
module Pid = Simkit.Pid
module Task = Tasklib.Task
module Vectors = Tasklib.Vectors

type policy_factory =
  participants:Pid.t list ->
  n_c:int ->
  n_s:int ->
  rng:Random.State.t ->
  Schedule.t

let fair_policy ~participants ~n_c ~n_s ~rng =
  Schedule.shuffled_rounds ~only:(participants @ Pid.all_s n_s) ~n_c ~n_s rng

let shuffled_arrival participants rng =
  let a = Array.of_list (List.map Pid.index participants) in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let k_concurrent_policy k ~participants ~n_c:_ ~n_s ~rng =
  Schedule.k_concurrent ~k ~arrival:(shuffled_arrival participants rng) ~n_s rng

let k_concurrent_uniform_policy k ~participants ~n_c:_ ~n_s ~rng =
  Schedule.k_concurrent ~mode:`Uniform ~k
    ~arrival:(shuffled_arrival participants rng)
    ~n_s rng

type report = {
  r_outcome : Schedule.outcome;
  r_input : Vectors.t;
  r_output : Vectors.t;
  r_task_ok : bool;
  r_wait_free : bool;
  r_max_conc : int;
  r_min_s_scheds : int;
  r_steps : int;
  r_trace : Simkit.Trace.t option;
}

let ok r =
  r.r_task_ok && r.r_wait_free && r.r_outcome.Schedule.all_decided

type violation = Task_violation | Undecided | Not_wait_free

let violation_of_report r =
  if not r.r_task_ok then Some Task_violation
  else if not r.r_outcome.Schedule.all_decided then Some Undecided
  else if not r.r_wait_free then Some Not_wait_free
  else None

let violation_desc = function
  | Task_violation -> "task relation violated"
  | Undecided -> "some participant never decided"
  | Not_wait_free -> "wait-freedom violated"

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>input    %a@,output   %a@,steps    %d (decided: %b)@,task ok  %b@,\
     wait-free %b@,max-conc %d@]"
    Vectors.pp r.r_input Vectors.pp r.r_output r.r_steps
    r.r_outcome.Schedule.all_decided r.r_task_ok r.r_wait_free r.r_max_conc

exception Cancelled

let execute ?(budget = 400_000) ?(min_scheds = 2_000) ?(record_trace = false)
    ?(policy = fair_policy) ?cancel ~task ~algo ~fd ~pattern ~input ~seed () =
  let n_c = task.Task.arity in
  let n_s = pattern.Failure.n_s in
  if Array.length input <> n_c then invalid_arg "Run.execute: input arity";
  let mem = Memory.create () in
  let input_regs = Memory.alloc mem n_c in
  let ctx = { Algorithm.mem; n_c; n_s; input_regs } in
  let inst = algo.Algorithm.make ctx in
  let c_code i () =
    match input.(i) with
    | None -> () (* never scheduled under a correct policy; idles if so *)
    | Some v ->
      Runtime.Op.write input_regs.(i) v;
      inst.Algorithm.c_run i v
  in
  let s_code i () = inst.Algorithm.s_run i in
  let history = Fdlib.Fd.draw fd pattern ~seed in
  let rt =
    Runtime.create
      { Runtime.n_c; n_s; memory = mem; pattern; history; record_trace }
      ~c_code ~s_code
  in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let participants = List.map Pid.c (Vectors.participants input) in
  let pol = policy ~participants ~n_c ~n_s ~rng in
  (* A C-process with no input returns without deciding: only
     participants decide, so all of them have once the count reaches
     their number *)
  let n_participants = List.length participants in
  let all_participants_decided rt =
    Runtime.decided_count rt = n_participants
  in
  (* cancellation piggybacks on stop_when, so it is polled once per
     scheduling step; raising Cancelled instead of stopping means a
     cancelled run can never leak a (partial) report *)
  let stop_when rt =
    (match cancel with Some c when c () -> raise Cancelled | _ -> ());
    all_participants_decided rt
  in
  let outcome =
    try Schedule.run ~stop_when rt pol ~budget
    with e ->
      Runtime.destroy rt;
      raise e
  in
  let outcome =
    { outcome with Schedule.all_decided = all_participants_decided rt }
  in
  let actual_input =
    Array.mapi
      (fun i v -> if Runtime.participating rt i then v else None)
      input
  in
  let output = Runtime.decisions rt in
  let report =
    {
      r_outcome = outcome;
      r_input = actual_input;
      r_output = output;
      r_task_ok = Task.satisfies task ~input:actual_input ~output;
      r_wait_free = Checker.wait_free_ok rt ~min_scheds;
      r_max_conc = Checker.max_concurrency rt;
      r_min_s_scheds = Checker.min_correct_s_scheds rt;
      r_steps = Runtime.time rt;
      r_trace = (if record_trace then Some (Runtime.trace rt) else None);
    }
  in
  Runtime.destroy rt;
  report

(* ----------------------------------------------- structured reporting *)

let labels ~task ~algo ~fd ~seed =
  [
    ("task", task.Task.task_name);
    ("algo", algo.Algorithm.algo_name);
    ("fd", Fdlib.Fd.name fd);
    ("seed", string_of_int seed);
  ]

let report_json ?(labels = []) r =
  Obs.Json.Obj
    [
      ("labels", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Str v)) labels));
      ("input", Obs.Json.Str (Fmt.str "%a" Vectors.pp r.r_input));
      ("output", Obs.Json.Str (Fmt.str "%a" Vectors.pp r.r_output));
      ("steps", Obs.Json.Int r.r_steps);
      ("all_decided", Obs.Json.Bool r.r_outcome.Schedule.all_decided);
      ("task_ok", Obs.Json.Bool r.r_task_ok);
      ("wait_free", Obs.Json.Bool r.r_wait_free);
      ("max_concurrency", Obs.Json.Int r.r_max_conc);
      ("min_s_scheds", Obs.Json.Int r.r_min_s_scheds);
      ("ok", Obs.Json.Bool (ok r));
    ]

type sweep = { total : int; passed : int; failures : string list }

let pp_sweep ppf s =
  Fmt.pf ppf "%d/%d ok%a" s.passed s.total
    Fmt.(
      if s.failures = [] then nop
      else fun ppf () ->
        pf ppf "@, failures:@,%a" (list ~sep:(any "@,") string)
          (List.filteri (fun i _ -> i < 5) s.failures))
    ()

let sweep ?budget ?(policy = fair_policy) ?(min_participants = 1) ~task ~algo
    ~fd ~env ~seeds () =
  let results =
    List.map
      (fun seed ->
        let rng = Random.State.make [| seed; 0xfa11 |] in
        let pattern = env.Failure.sample rng ~horizon:2_000 in
        let input = Task.sample_prefix task rng ~min_participants in
        let r =
          execute ?budget ~policy ~task ~algo ~fd ~pattern ~input ~seed ()
        in
        (seed, pattern, r))
      seeds
  in
  let failures =
    List.filter_map
      (fun (seed, pattern, r) ->
        if ok r then None
        else
          Some
            (Fmt.str "seed %d pattern %a: %a" seed Failure.pp_pattern pattern
               pp_report r))
      results
  in
  {
    total = List.length results;
    passed = List.length results - List.length failures;
    failures;
  }
