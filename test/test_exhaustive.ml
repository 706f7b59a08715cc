(* Model-checking the agreement primitives: every schedule up to a depth,
   not just sampled ones. *)

open Simkit
open Bglib

let check_bool = Alcotest.(check bool)

let mk ~n_c mem c_code =
  Runtime.create
    {
      Runtime.n_c;
      n_s = 1;
      memory = mem;
      pattern = Failure.failure_free 1;
      history = History.trivial;
      record_trace = false;
    }
    ~c_code
    ~s_code:(fun _ () -> ())

(* --- safe agreement: agreement + validity over ALL schedules --- *)

let test_safe_agreement_exhaustive () =
  let build () =
    let mem = Memory.create () in
    let sa = Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    mk ~n_c:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b ->
      Value.equal a b && (Value.to_int a = 100 || Value.to_int a = 101)
    | Some a, None | None, Some a ->
      let x = Value.to_int a in
      x = 100 || x = 101
    | None, None -> true
  in
  match
    Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1 ] ~depth:11 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 1000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "safe agreement violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- commit-adopt: if anyone commits, everyone's value matches --- *)

(* Each process decides its outcome, commit flag and value, so that the
   property reads the runtime's state only, as the engine requires. *)
let test_commit_adopt_exhaustive () =
  let build () =
    let mem = Memory.create () in
    let ca = Commit_adopt.create mem ~n:2 in
    let c_code i () =
      let o = Commit_adopt.run ca ~me:i (Value.int i) in
      let commit = Value.bool (Commit_adopt.is_commit o) in
      Runtime.Op.decide (Value.pair commit (Commit_adopt.outcome_value o))
    in
    mk ~n_c:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b ->
      let outcomes = List.map Value.to_pair [ a; b ] in
      List.for_all
        (fun (commit, c) ->
          (not (Value.to_bool commit))
          || List.for_all (fun (_, v) -> Value.equal c v) outcomes)
        outcomes
    | _ -> true
  in
  match
    Exhaustive.check_final ~build ~pids:[ Pid.c 0; Pid.c 1 ] ~depth:12 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 1000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "commit-adopt violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- adoption set agreement: 2 deciders, 2-SA trivially; with 3 procs at
       full concurrency k=3 values allowed, but never a non-input --- *)

let test_adoption_validity_exhaustive () =
  let build () =
    let mem = Memory.create () in
    let input_regs = Memory.alloc mem 3 in
    let ctx = { Efd.Algorithm.mem; n_c = 3; n_s = 1; input_regs } in
    let inst = (Efd.Kconc_tasks.adoption ()).Efd.Algorithm.make ctx in
    let c_code i () =
      Runtime.Op.write input_regs.(i) (Value.int i);
      inst.Efd.Algorithm.c_run i (Value.int i)
    in
    mk ~n_c:3 mem c_code
  in
  let prop rt =
    List.for_all
      (fun i ->
        match Runtime.decision rt i with
        | None -> true
        | Some v ->
          let x = Value.to_int v in
          x >= 0 && x < 3)
      [ 0; 1; 2 ]
  in
  match
    Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1; Pid.c 2 ] ~depth:8 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 5000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "adoption validity violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- the checker finds real bugs: a deliberately broken mutex-ish
       algorithm (decide your register's final value; races lose) --- *)

let test_exhaustive_finds_violations () =
  let build () =
    let mem = Memory.create () in
    let r = Memory.alloc1 mem () in
    let c_code i () =
      Runtime.Op.write r (Value.int i);
      (* unsafe read-back: both processes can decide they "own" r *)
      let v = Runtime.Op.read r in
      Runtime.Op.decide v
    in
    mk ~n_c:2 mem c_code
  in
  (* claim (falsely) that the two decisions always differ *)
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> not (Value.equal a b)
    | _ -> true
  in
  match Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1 ] ~depth:6 ~prop with
  | Exhaustive.Ok _ -> Alcotest.fail "expected a counterexample"
  | Exhaustive.Counterexample cex ->
    check_bool "counterexample found" true (List.length cex <= 6)

(* --- splitter: at most one Stop, over all schedules of 3 entrants --- *)

(* Each entrant decides its direction, so that the property reads the
   runtime's state only. A Stop then takes five steps (four operations
   and the decision), so depth 10 is the least at which two can show. *)
let test_splitter_exhaustive () =
  let direction d = Value.str (Fmt.str "%a" Efd.Splitter.pp_direction d) in
  let build () =
    let mem = Memory.create () in
    let sp = Efd.Splitter.create mem in
    let c_code i () =
      Runtime.Op.decide (direction (Efd.Splitter.enter sp ~me:i))
    in
    mk ~n_c:3 mem c_code
  in
  let stop = Some (direction Efd.Splitter.Stop) in
  let prop rt =
    let stops =
      List.filter
        (fun i -> Option.equal Value.equal (Runtime.decision rt i) stop)
        [ 0; 1; 2 ]
    in
    List.length stops <= 1
  in
  match
    Exhaustive.check ~build ~pids:[ Pid.c 0; Pid.c 1; Pid.c 2 ] ~depth:10 ~prop
  with
  | Exhaustive.Ok n -> check_bool "schedules checked" true (n > 10_000)
  | Exhaustive.Counterexample cex ->
    Alcotest.failf "splitter violated by %a"
      Fmt.(list ~sep:(any " ") Simkit.Pid.pp)
      cex

(* --- differential: incremental engine (+/- memo) must agree
       with the replay-from-scratch baseline, verdict and count alike --- *)

let mk_ns ~n_c ~n_s mem c_code =
  Runtime.create
    {
      Runtime.n_c;
      n_s;
      memory = mem;
      pattern = Failure.failure_free (max 1 n_s);
      history = History.trivial;
      record_trace = false;
    }
    ~c_code
    ~s_code:(fun _ () -> ())

let race_build ~n_c ~n_s () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let c_code i () =
    Runtime.Op.write r (Value.int i);
    let v = Runtime.Op.read r in
    Runtime.Op.decide v
  in
  mk_ns ~n_c ~n_s mem c_code

let race_prop_valid ~n_c rt =
  List.for_all
    (fun i ->
      match Runtime.decision rt i with
      | None -> true
      | Some v -> Value.to_int v >= 0 && Value.to_int v < n_c)
    (List.init n_c Fun.id)

(* the deliberately false claim: the two decisions always differ *)
let race_prop_false rt =
  match (Runtime.decision rt 0, Runtime.decision rt 1) with
  | Some a, Some b -> not (Value.equal a b)
  | _ -> true

let verdict_str = function
  | Exhaustive.Ok n -> Fmt.str "Ok %d" n
  | Exhaustive.Counterexample cex ->
    Fmt.str "Counterexample [%a]" Fmt.(list ~sep:(any " ") Pid.pp) cex

let test_engines_agree () =
  List.iter
    (fun (n_c, n_s, depth) ->
      List.iter
        (fun mode ->
          let build = race_build ~n_c ~n_s in
          let prop = race_prop_valid ~n_c in
          let pids = Pid.all ~n_c ~n_s in
          let label =
            Fmt.str "n_c=%d n_s=%d depth=%d %s" n_c n_s depth
              (match mode with Exhaustive.Every -> "every" | Final -> "final")
          in
          let oracle, _ = Exhaustive.run_replay ~mode ~build ~pids ~depth ~prop () in
          List.iter
            (fun (variant, memo) ->
              let v, _ = Exhaustive.run ~memo ~mode ~build ~pids ~depth ~prop () in
              Alcotest.(check string)
                (label ^ " " ^ variant)
                (verdict_str oracle) (verdict_str v))
            [ ("incremental", false); ("incremental+memo", true) ])
        [ Exhaustive.Every; Exhaustive.Final ])
    [ (2, 1, 6); (3, 1, 5); (2, 2, 4); (3, 2, 4) ]

let test_engines_agree_on_violation () =
  let build = race_build ~n_c:2 ~n_s:1 in
  let pids = Pid.all_c 2 in
  let oracle, _ =
    Exhaustive.run_replay ~build ~pids ~depth:6 ~prop:race_prop_false ()
  in
  List.iter
    (fun memo ->
      let v, _ =
        Exhaustive.run ~memo ~build ~pids ~depth:6 ~prop:race_prop_false ()
      in
      Alcotest.(check string) "same counterexample" (verdict_str oracle)
        (verdict_str v))
    [ false; true ]

(* --- determinism: a reported counterexample replays to the same violation,
       and re-running the checker reports the same schedule --- *)

let test_counterexample_replays () =
  let build = race_build ~n_c:2 ~n_s:1 in
  let pids = Pid.all_c 2 in
  match Exhaustive.run ~build ~pids ~depth:6 ~prop:race_prop_false () with
  | Exhaustive.Ok _, _ -> Alcotest.fail "expected a counterexample"
  | Exhaustive.Counterexample cex, _ ->
    check_bool "replaying the counterexample violates the property" false
      (Exhaustive.replay_ok ~build ~prop:race_prop_false cex);
    (match Exhaustive.run ~build ~pids ~depth:6 ~prop:race_prop_false () with
    | Exhaustive.Counterexample cex', _ ->
      Alcotest.(check string) "second run reports the same schedule"
        (verdict_str (Exhaustive.Counterexample cex))
        (verdict_str (Exhaustive.Counterexample cex'))
    | Exhaustive.Ok _, _ -> Alcotest.fail "second run found no counterexample")

(* --- the acceptance bar: on the fixed seed config (n_c=2, n_s=2, depth 8,
       every mode) the incremental engine executes >= 3x fewer steps than the
       replay baseline, at identical verdict and schedule count --- *)

let test_incremental_speedup () =
  let build () =
    let mem = Memory.create () in
    let sa = Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    mk_ns ~n_c:2 ~n_s:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  let pids = Pid.all ~n_c:2 ~n_s:2 in
  let base_v, base_st = Exhaustive.run_replay ~build ~pids ~depth:8 ~prop () in
  let inc_v, inc_st = Exhaustive.run ~build ~pids ~depth:8 ~prop () in
  Alcotest.(check string) "identical verdict and count" (verdict_str base_v)
    (verdict_str inc_v);
  check_bool
    (Fmt.str "steps %d >= 3x steps %d" base_st.Exhaustive.steps_executed
       inc_st.Exhaustive.steps_executed)
    true
    (base_st.Exhaustive.steps_executed
    >= 3 * inc_st.Exhaustive.steps_executed);
  check_bool "memo observed hits" true (inc_st.Exhaustive.memo_hits > 0);
  (* exact effort, memo on and off: these move if the plain search peeks,
     takes footprints or reorders children. One runtime serves each search,
     and [replays] counts its restores, whose re-run operations count as
     steps. *)
  let exact = Alcotest.(check int) in
  exact "memo nodes" 1944 inc_st.Exhaustive.nodes;
  exact "memo steps" 2243 inc_st.Exhaustive.steps_executed;
  exact "memo replays" 257 inc_st.Exhaustive.replays;
  exact "memo hits" 607 inc_st.Exhaustive.memo_hits;
  exact "memo builds" 1 inc_st.Exhaustive.runtimes_built;
  let _, off_st = Exhaustive.run ~memo:false ~build ~pids ~depth:8 ~prop () in
  exact "memo-off nodes" 87380 off_st.Exhaustive.nodes;
  exact "memo-off steps" 133316 off_st.Exhaustive.steps_executed;
  exact "memo-off replays" 16383 off_st.Exhaustive.replays;
  exact "memo-off builds" 1 off_st.Exhaustive.runtimes_built

(* --- and the same bar for the reduction layers: on the same config at
       depth 10, sleep sets + symmetry must visit >= 3x fewer nodes than
       the memoized engine they sit on, at identical verdict and count.
       Nodes, not steps: a step count also holds what it costs to rewind
       the runtime, which the two searches pay differently --- *)

let test_reduction_speedup () =
  let build () =
    let mem = Memory.create () in
    let sa = Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    mk_ns ~n_c:2 ~n_s:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  let pids = Pid.all ~n_c:2 ~n_s:2 in
  let reduce = { Exhaustive.sleep = true; symmetry = [ Pid.all_s 2 ] } in
  let memo_v, memo_st = Exhaustive.run ~build ~pids ~depth:10 ~prop () in
  let red_v, red_st = Exhaustive.run ~reduce ~build ~pids ~depth:10 ~prop () in
  Alcotest.(check string) "identical verdict and count" (verdict_str memo_v)
    (verdict_str red_v);
  check_bool
    (Fmt.str "nodes %d >= 3x nodes %d" memo_st.Exhaustive.nodes
       red_st.Exhaustive.nodes)
    true
    (memo_st.Exhaustive.nodes >= 3 * red_st.Exhaustive.nodes);
  let red_v, red_st = Exhaustive.run ~reduce ~build ~pids ~depth:8 ~prop () in
  Alcotest.(check string) "depth 8: verdict and count" "Ok 65536"
    (verdict_str red_v);
  check_bool "sleep pruning observed" true
    (red_st.Exhaustive.sleep_pruned > 0);
  check_bool "orbit collapsing observed" true
    (red_st.Exhaustive.orbits_collapsed > 0);
  let exact = Alcotest.(check int) in
  exact "reduced nodes" 672 red_st.Exhaustive.nodes;
  exact "reduced steps" 956 red_st.Exhaustive.steps_executed;
  exact "reduced replays" 191 red_st.Exhaustive.replays;
  exact "reduced memo hits" 45 red_st.Exhaustive.memo_hits;
  exact "reduced sleep-pruned" 576 red_st.Exhaustive.sleep_pruned;
  exact "reduced orbits" 112 red_st.Exhaustive.orbits_collapsed

(* --- the benchmark's grid: every verdict pinned --- *)

(* The 24 model checks a check-local round runs, built as it builds them:
   safe agreement and the seeded race x depth 10 and 12 x n_s 1-3 x
   reduction off and on, in [Every] mode with the memo on. A safe cell
   credits all (n_s + 2)^depth schedules; a race cell returns the
   lex-least counterexample. Effort is not pinned here: it may move with
   the engine, where a verdict must not. *)
let test_grid_verdicts () =
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let p1 = Pid.c 0 and p2 = Pid.c 1 in
  let want name ~n_s ~depth =
    match (name, depth) with
    | "safe-agreement", _ -> Exhaustive.Ok (pow (n_s + 2) depth)
    | _, 10 ->
      Exhaustive.Counterexample [ p1; p2; p1; p1; p1; p1; p1; p1; p2; p2 ]
    | _ ->
      Exhaustive.Counterexample
        [ p1; p2; p1; p1; p1; p1; p1; p1; p1; p1; p2; p2 ]
  in
  let cell name depth n_s reduce =
    let sc =
      match Mcheck.Scenario.find name ~n_s with
      | Ok sc -> sc
      | Error msg -> Alcotest.fail msg
    in
    let v, _ =
      Exhaustive.run
        ?reduce:(Mcheck.Scenario.reduction sc ~reduce)
        ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
        ~depth ~prop:sc.Mcheck.Scenario.sc_prop ()
    in
    Alcotest.(check string)
      (Printf.sprintf "%s, depth %d, n_s %d, reduce %b" name depth n_s reduce)
      (verdict_str (want name ~n_s ~depth))
      (verdict_str v)
  in
  List.iter
    (fun name ->
      List.iter
        (fun depth ->
          List.iter
            (fun n_s -> List.iter (cell name depth n_s) [ false; true ])
            [ 1; 2; 3 ])
        [ 10; 12 ])
    [ "safe-agreement"; "race-false" ]

let suite =
  [
    Alcotest.test_case "safe agreement (all schedules)" `Slow
      test_safe_agreement_exhaustive;
    Alcotest.test_case "commit-adopt (all schedules)" `Slow
      test_commit_adopt_exhaustive;
    Alcotest.test_case "adoption validity (all schedules)" `Slow
      test_adoption_validity_exhaustive;
    Alcotest.test_case "checker finds violations" `Quick
      test_exhaustive_finds_violations;
    Alcotest.test_case "splitter (all schedules)" `Slow test_splitter_exhaustive;
    Alcotest.test_case "engines agree (differential grid)" `Quick
      test_engines_agree;
    Alcotest.test_case "engines agree on violations" `Quick
      test_engines_agree_on_violation;
    Alcotest.test_case "counterexamples replay deterministically" `Quick
      test_counterexample_replays;
    Alcotest.test_case "incremental engine >= 3x fewer steps" `Quick
      test_incremental_speedup;
    Alcotest.test_case "reduction >= 3x fewer nodes than memo" `Quick
      test_reduction_speedup;
    Alcotest.test_case "the check-local grid's verdicts" `Quick
      test_grid_verdicts;
  ]
