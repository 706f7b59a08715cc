open Simkit
open Tasklib
open Efd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let seeds n = List.init n (fun i -> i + 1)

(* --- E1: Proposition 1 — every task is 1-concurrently solvable --- *)

let test_one_concurrent_registry () =
  let entries = Registry.standard ~n:4 in
  List.iter
    (fun e ->
      let task = e.Registry.entry_task in
      let algo = One_concurrent.make task in
      let s =
        Run.sweep ~policy:(Run.k_concurrent_policy 1) ~task ~algo
          ~fd:Fdlib.Fd.trivial
          ~env:(Failure.wait_free_env 4)
          ~seeds:(seeds 8) ()
      in
      if s.Run.passed <> s.Run.total then
        Alcotest.failf "task %s: %a" task.Task.task_name Run.pp_sweep s)
    entries

let test_one_concurrent_run_is_one_concurrent () =
  let task = Set_agreement.make ~n:5 ~k:1 () in
  let algo = One_concurrent.make task in
  let rng = Random.State.make [| 3 |] in
  let input = Task.sample_input task rng in
  let r =
    Run.execute ~policy:(Run.k_concurrent_policy 1) ~task ~algo
      ~fd:Fdlib.Fd.trivial
      ~pattern:(Failure.failure_free 5)
      ~input ~seed:9 ()
  in
  check_bool "ok" true (Run.ok r);
  check_int "max concurrency 1" 1 r.Run.r_max_conc

let test_one_concurrent_breaks_under_concurrency () =
  (* Proposition 1's solver is only 1-concurrent: under full concurrency,
     consensus must fail on some seed (two processes extend the empty
     output with their own different inputs). *)
  let task = Set_agreement.make ~n:4 ~k:1 () in
  let algo = One_concurrent.make task in
  let violated = ref false in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let input = Task.sample_input task rng in
      let r =
        Run.execute ~task ~algo ~fd:Fdlib.Fd.trivial
          ~pattern:(Failure.failure_free 4)
          ~input ~seed ()
      in
      if not r.Run.r_task_ok then violated := true)
    (seeds 20);
  check_bool "some concurrent run violates the task" true !violated

(* --- E3: §2.2 — (Pi, n)-set agreement with the trivial FD --- *)

let test_trivial_nsa () =
  let n = 4 and n_s = 3 in
  let task = Set_agreement.make ~n ~k:n_s () in
  let algo = Trivial_nsa.make () in
  let s =
    Run.sweep ~task ~algo ~fd:Fdlib.Fd.trivial
      ~env:(Failure.wait_free_env n_s)
      ~seeds:(seeds 25) ()
  in
  if s.Run.passed <> s.Run.total then Alcotest.failf "%a" Run.pp_sweep s

let test_trivial_nsa_under_crashes () =
  (* every environment: crash all but one S-process immediately *)
  let n = 3 and n_s = 3 in
  let task = Set_agreement.make ~n ~k:n_s () in
  let algo = Trivial_nsa.make () in
  let pattern = Failure.pattern ~n_s [ (0, 0); (2, 0) ] in
  let rng = Random.State.make [| 1 |] in
  List.iter
    (fun seed ->
      let input = Task.sample_input task rng in
      let r =
        Run.execute ~task ~algo ~fd:Fdlib.Fd.trivial ~pattern ~input ~seed ()
      in
      check_bool "ok despite 2/3 S crashed" true (Run.ok r))
    (seeds 10)

(* --- E5 / Prop 6: k-set agreement with vector-Omega-k --- *)

let ksa_sweep ~n ~n_s ~k ~t ~seed_count =
  let task = Set_agreement.make ~n ~k () in
  let algo = Ksa.make ~k () in
  let fd = Fdlib.Leader_fds.vector_omega_k ~max_stab:60 ~k () in
  Run.sweep ~task ~algo ~fd ~env:(Failure.e_t ~n_s ~t) ~seeds:(seeds seed_count) ()

let test_ksa_basic () =
  List.iter
    (fun k ->
      let s = ksa_sweep ~n:4 ~n_s:4 ~k ~t:3 ~seed_count:12 in
      if s.Run.passed <> s.Run.total then
        Alcotest.failf "k=%d: %a" k Run.pp_sweep s)
    [ 1; 2; 3 ]

let test_consensus_with_omega () =
  let n = 5 in
  let task = Set_agreement.make ~n ~k:1 () in
  let algo = Ksa.consensus () in
  let fd = Fdlib.Leader_fds.omega ~max_stab:60 () in
  let s =
    Run.sweep ~task ~algo ~fd ~env:(Failure.e_t ~n_s:5 ~t:4) ~seeds:(seeds 15) ()
  in
  if s.Run.passed <> s.Run.total then Alcotest.failf "%a" Run.pp_sweep s

let test_consensus_agreement_is_strict () =
  (* inspect outputs directly: exactly one decided value *)
  let n = 4 in
  let task = Set_agreement.make ~n ~k:1 () in
  let algo = Ksa.consensus () in
  let fd = Fdlib.Leader_fds.omega ~max_stab:40 () in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let input = Task.sample_input task rng in
      let r =
        Run.execute ~task ~algo ~fd
          ~pattern:(Failure.pattern ~n_s:4 [ (1, 30) ])
          ~input ~seed ()
      in
      check_bool "run ok" true (Run.ok r);
      let distinct =
        Array.to_list r.Run.r_output
        |> List.filter_map Fun.id
        |> List.sort_uniq Value.compare
      in
      check_int "single decided value" 1 (List.length distinct))
    (seeds 10)

let test_ksa_subset_u () =
  (* (U,k)-agreement: only U participates; same algorithm *)
  let n = 5 in
  let task = Set_agreement.make ~u:[ 0; 2; 4 ] ~n ~k:2 () in
  let algo = Ksa.make ~k:2 () in
  let fd = Fdlib.Leader_fds.vector_omega_k ~max_stab:60 ~k:2 () in
  let s =
    Run.sweep ~task ~algo ~fd ~env:(Failure.e_t ~n_s:5 ~t:4) ~seeds:(seeds 12) ()
  in
  if s.Run.passed <> s.Run.total then Alcotest.failf "%a" Run.pp_sweep s

let test_ksa_with_derived_vector_from_omega () =
  (* vector-Omega-k derived from Omega by local conversion also works *)
  let n = 4 and k = 2 in
  let task = Set_agreement.make ~n ~k () in
  let algo = Ksa.make ~k () in
  let fd =
    Fdlib.Convert.vector_of_omega ~k ~n_s:4 (Fdlib.Leader_fds.omega ~max_stab:50 ())
  in
  let s =
    Run.sweep ~task ~algo ~fd ~env:(Failure.e_t ~n_s:4 ~t:3) ~seeds:(seeds 10) ()
  in
  if s.Run.passed <> s.Run.total then Alcotest.failf "%a" Run.pp_sweep s

let test_ksa_partial_participation () =
  let n = 5 and k = 2 in
  let task = Set_agreement.make ~n ~k () in
  let algo = Ksa.make ~k () in
  let fd = Fdlib.Leader_fds.vector_omega_k ~max_stab:60 ~k () in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let input = Task.sample_prefix task rng ~min_participants:2 in
      let r =
        Run.execute ~task ~algo ~fd
          ~pattern:(Failure.failure_free 5)
          ~input ~seed ()
      in
      check_bool "partial participation ok" true (Run.ok r))
    (seeds 8)

(* --- E4 / Prop 3: classical solvability does not imply EFD solvability --- *)

let test_prop3_positive_side () =
  (* In personified runs, p_i is only obliged to decide while q_i lives.
     We mirror that: participants = members of U whose partner is correct.
     The q1-else-q2 detector then always names a live leader for them. *)
  let n = 3 in
  let task u = Set_agreement.make ~u ~n ~k:1 () in
  let algo = Ksa.consensus () in
  let fd = Fdlib.Classic.q1_else_q2 () in
  let cases =
    [
      (Failure.failure_free 3, [ 0; 1 ]);
      (Failure.pattern ~n_s:3 [ (0, 0) ], [ 1 ]);
      (Failure.pattern ~n_s:3 [ (1, 0) ], [ 0 ]);
    ]
  in
  List.iter
    (fun (pattern, u) ->
      let t = task u in
      let rng = Random.State.make [| 7 |] in
      let input = Task.sample_input t rng in
      let r = Run.execute ~task:t ~algo ~fd ~pattern ~input ~seed:5 () in
      check_bool "personified case decides" true (Run.ok r))
    cases

let test_prop3_negative_side () =
  (* EFD: q1 and q2 crashed, q3 correct. The detector forever outputs the
     dead q2; p1 and p2 (C-processes!) must still decide — they cannot. *)
  let n = 3 in
  let task = Set_agreement.make ~u:[ 0; 1 ] ~n ~k:1 () in
  let algo = Ksa.consensus () in
  let fd = Fdlib.Classic.q1_else_q2 () in
  let pattern = Failure.pattern ~n_s:3 [ (0, 0); (1, 0) ] in
  let rng = Random.State.make [| 7 |] in
  let input = Task.sample_input task rng in
  let r =
    Run.execute ~budget:120_000 ~task ~algo ~fd ~pattern ~input ~seed:5 ()
  in
  check_bool "run does not decide" false r.Run.r_outcome.Schedule.all_decided;
  check_bool "wait-freedom violated" false r.Run.r_wait_free

(* Leader consensus reserves its rounds: after the same allocation prefix,
   each round's answer register and commit–adopt registers are the ones an
   eager [alloc] of every block, in order, hands out, and so is the next
   register taken after it. *)
let test_leader_consensus_layout () =
  List.iter
    (fun (prefix, n_c, max_rounds) ->
      let mem = Memory.create () and eager = Memory.create () in
      ignore (Memory.alloc mem prefix);
      ignore (Memory.alloc eager prefix);
      let lc = Leader_consensus.create mem ~n_c ~max_rounds in
      let _queries = Memory.alloc eager n_c in
      let answers = Memory.alloc eager max_rounds in
      let _decision = Memory.alloc1 eager () in
      let rounds =
        Array.init max_rounds (fun _ ->
            let phase1 = Memory.alloc eager n_c in
            let phase2 = Memory.alloc eager n_c in
            (phase1, phase2))
      in
      check_int "size" (Memory.size eager) (Memory.size mem);
      for r = 1 to max_rounds do
        check_int "answer" answers.(r - 1) (Leader_consensus.answer_reg lc r);
        Alcotest.(check (pair (array int) (array int)))
          "commit-adopt" rounds.(r - 1)
          (Bglib.Commit_adopt.registers (Leader_consensus.round lc r))
      done;
      let next = Memory.alloc1 mem () in
      check_int "next register" (Memory.alloc1 eager ()) next)
    [ (0, 1, 1); (3, 2, 5); (7, 3, 64) ]

(* Set-up costs the same at any round budget: [make] allocates the same
   heap words at 64 rounds as at 4096. Words are minor plus major minus
   promoted, the minor ones read by [Gc.minor_words]: on OCaml 5.1 the
   minor count of [Gc.counters] leaves out the current minor heap's fill. *)
let test_ksa_setup_words () =
  let words max_rounds =
    let algo = Ksa.consensus ~max_rounds () in
    let mem = Memory.create () in
    let input_regs = Memory.alloc mem 3 in
    let ctx = { Algorithm.mem; n_c = 3; n_s = 3; input_regs } in
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let inst = algo.Algorithm.make ctx in
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    ignore (Sys.opaque_identity inst);
    minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  let w64 = words 64 and w4096 = words 4096 in
  if Float.abs (w4096 -. w64) > 4. then
    Alcotest.failf "make: %.0f words at 64 rounds, %.0f at 4096" w64 w4096

let suite =
  [
    Alcotest.test_case "E1: 1-concurrent solver on registry" `Quick
      test_one_concurrent_registry;
    Alcotest.test_case "E1: run is 1-concurrent" `Quick
      test_one_concurrent_run_is_one_concurrent;
    Alcotest.test_case "E1: generic solver breaks when concurrent" `Quick
      test_one_concurrent_breaks_under_concurrency;
    Alcotest.test_case "E3: trivial-FD n-set agreement" `Quick test_trivial_nsa;
    Alcotest.test_case "E3: survives n-1 crashes" `Quick test_trivial_nsa_under_crashes;
    Alcotest.test_case "E5: k-SA with vector-Omega-k" `Quick test_ksa_basic;
    Alcotest.test_case "E5: consensus with Omega" `Quick test_consensus_with_omega;
    Alcotest.test_case "E5: strict agreement" `Quick test_consensus_agreement_is_strict;
    Alcotest.test_case "E5: (U,k)-agreement" `Quick test_ksa_subset_u;
    Alcotest.test_case "E5: derived vector-Omega from Omega" `Quick
      test_ksa_with_derived_vector_from_omega;
    Alcotest.test_case "E5: partial participation" `Quick test_ksa_partial_participation;
    Alcotest.test_case "E4: Prop 3 positive (personified)" `Quick test_prop3_positive_side;
    Alcotest.test_case "E4: Prop 3 negative (EFD)" `Quick test_prop3_negative_side;
    Alcotest.test_case "leader consensus: eager register layout" `Quick
      test_leader_consensus_layout;
    Alcotest.test_case "ksa: set-up words do not grow with rounds" `Quick
      test_ksa_setup_words;
  ]
