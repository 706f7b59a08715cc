open Tasklib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let vi = Vectors.of_ints

(* --- Vectors --- *)

let test_vectors_basics () =
  let v = vi [ Some 1; None; Some 3 ] in
  Alcotest.(check (list int)) "participants" [ 0; 2 ] (Vectors.participants v);
  check_int "count" 2 (Vectors.count v);
  check_bool "not bottom" false (Vectors.is_bottom v);
  check_bool "bottom" true (Vectors.is_bottom (Vectors.bottom 3));
  check_bool "equal self" true (Vectors.equal v v);
  check_bool "set" true
    (Vectors.equal (Vectors.set v 1 (Value.int 2)) (vi [ Some 1; Some 2; Some 3 ]))

let test_vectors_prefix () =
  let full = vi [ Some 1; Some 2; Some 3 ] in
  check_bool "restriction is prefix" true
    (Vectors.is_prefix (Vectors.restrict full [ 0; 2 ]) full);
  check_bool "full is prefix of itself" true (Vectors.is_prefix full full);
  check_bool "empty is not a prefix" false
    (Vectors.is_prefix (Vectors.bottom 3) full);
  check_bool "disagreeing is not a prefix" false
    (Vectors.is_prefix (vi [ Some 9; None; None ]) full);
  check_int "proper prefixes of 3 participants" 6
    (List.length (Vectors.proper_prefixes full))

(* --- Set agreement --- *)

let sa3_1 = Set_agreement.consensus ~n:3 ()
let sa4_2 = Set_agreement.make ~n:4 ~k:2 ()

let test_sa_inputs () =
  (* consensus n=3 values {0,1}: 2^3 = 8 maximal vectors *)
  check_int "consensus inputs" 8 (List.length (sa3_1.Task.max_inputs ()));
  (* k=2, n=4, values {0,1,2}: 3^4 = 81 *)
  check_int "2-SA inputs" 81 (List.length (sa4_2.Task.max_inputs ()));
  List.iter
    (fun v -> check_int "maximal vectors are full" 4 (Vectors.count v))
    (sa4_2.Task.max_inputs ())

let test_sa_check () =
  let input = vi [ Some 0; Some 1; Some 1 ] in
  check_bool "agree on 0" true
    (Task.satisfies sa3_1 ~input ~output:(vi [ Some 0; Some 0; Some 0 ]));
  check_bool "partial ok" true
    (Task.satisfies sa3_1 ~input ~output:(vi [ None; Some 1; None ]));
  check_bool "two values violates consensus" false
    (Task.satisfies sa3_1 ~input ~output:(vi [ Some 0; Some 1; Some 0 ]));
  check_bool "non-proposed value" false
    (Task.satisfies sa3_1 ~input ~output:(vi [ Some 7; None; None ]));
  check_bool "decision by non-participant" false
    (Task.satisfies sa3_1
       ~input:(vi [ Some 0; None; Some 1 ])
       ~output:(vi [ Some 0; Some 0; Some 0 ]))

let test_sa_k2_check () =
  let input = vi [ Some 0; Some 1; Some 2; Some 2 ] in
  check_bool "two distinct ok" true
    (Task.satisfies sa4_2 ~input ~output:(vi [ Some 0; Some 1; Some 1; Some 0 ]));
  check_bool "three distinct violates" false
    (Task.satisfies sa4_2 ~input ~output:(vi [ Some 0; Some 1; Some 2; Some 0 ]))

let test_sa_choose () =
  let input = vi [ Some 0; Some 1; Some 1 ] in
  let out = Task.choice_closure sa3_1 ~input in
  check_bool "closure valid" true (Task.satisfies sa3_1 ~input ~output:out);
  check_int "all decided" 3 (Vectors.count out)

let test_sa_subset_u () =
  let t = Set_agreement.make ~u:[ 0; 2 ] ~n:4 ~k:1 () in
  List.iter
    (fun v ->
      Alcotest.(check (list int)) "participants are U" [ 0; 2 ]
        (Vectors.participants v))
    (t.Task.max_inputs ());
  check_bool "2-process consensus is level 1" true
    (t.Task.known_concurrency = Some 1);
  let easy = Set_agreement.make ~u:[ 0; 2 ] ~n:4 ~k:2 () in
  check_bool "|U| <= k is wait-free class" true
    (easy.Task.known_concurrency = Some 4)

let test_sa_metadata () =
  check_bool "colorless" true sa4_2.Task.colorless;
  check_bool "level k" true (sa4_2.Task.known_concurrency = Some 2)

(* --- Renaming --- *)

let rn = Renaming.make ~n:5 ~j:3 ~l:4

let test_renaming_inputs () =
  (* C(5,3) = 10 maximal vectors, 3 participants each *)
  check_int "input count" 10 (List.length (rn.Task.max_inputs ()));
  List.iter
    (fun v -> check_int "3 participants" 3 (Vectors.count v))
    (rn.Task.max_inputs ());
  (* original names injective *)
  let names = List.init 5 (fun i -> Renaming.original_name ~n:5 i) in
  check_int "distinct originals" 5 (List.length (List.sort_uniq Int.compare names))

let test_renaming_check () =
  let input =
    Vectors.restrict
      (List.hd (rn.Task.max_inputs ()))
      (Vectors.participants (List.hd (rn.Task.max_inputs ())))
  in
  let ps = Vectors.participants input in
  (match ps with
  | [ a; b; c ] ->
    let out = Vectors.bottom 5 in
    let out = Vectors.set out a (Value.int 1) in
    let out = Vectors.set out b (Value.int 4) in
    check_bool "distinct in range ok" true (Task.satisfies rn ~input ~output:out);
    let dup = Vectors.set out c (Value.int 4) in
    check_bool "duplicate name rejected" false (Task.satisfies rn ~input ~output:dup);
    let oor = Vectors.set out c (Value.int 5) in
    check_bool "name out of range rejected" false (Task.satisfies rn ~input ~output:oor)
  | _ -> Alcotest.fail "expected 3 participants")

let test_renaming_choose () =
  List.iter
    (fun input ->
      let out = Task.choice_closure rn ~input in
      check_bool "closure valid" true (Task.satisfies rn ~input ~output:out);
      check_int "all decided" 3 (Vectors.count out))
    (rn.Task.max_inputs ())

let test_renaming_metadata () =
  check_bool "strong renaming level 1" true
    ((Renaming.strong ~n:5 ~j:3).Task.known_concurrency = Some 1);
  check_bool "l >= 2j-1 wait-free" true
    ((Renaming.make ~n:5 ~j:3 ~l:5).Task.known_concurrency = Some 5);
  check_bool "intermediate open" true (rn.Task.known_concurrency = None);
  check_bool "renaming is colored" false rn.Task.colorless

let test_renaming_validation () =
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Renaming.make ~n:3 ~j:3 ~l:3);
  expect_invalid (fun () -> Renaming.make ~n:5 ~j:3 ~l:2)

(* --- WSB --- *)

let wsb = Wsb.make ~n:5 ~j:3

let test_wsb_check () =
  let input = List.hd (wsb.Task.max_inputs ()) in
  let ps = Vectors.participants input in
  match ps with
  | [ a; b; c ] ->
    let out0 = Vectors.bottom 5 in
    let out1 = Vectors.set out0 a (Value.int 0) in
    check_bool "partial ok" true (Task.satisfies wsb ~input ~output:out1);
    let same = Vectors.set (Vectors.set out1 b (Value.int 0)) c (Value.int 0) in
    check_bool "all-equal rejected" false (Task.satisfies wsb ~input ~output:same);
    let mixed = Vectors.set (Vectors.set out1 b (Value.int 0)) c (Value.int 1) in
    check_bool "mixed ok" true (Task.satisfies wsb ~input ~output:mixed);
    let bad = Vectors.set out1 b (Value.int 2) in
    check_bool "non-bit rejected" false (Task.satisfies wsb ~input ~output:bad)
  | _ -> Alcotest.fail "expected 3 participants"

let test_wsb_choose () =
  List.iter
    (fun input ->
      let out = Task.choice_closure wsb ~input in
      check_bool "closure valid" true (Task.satisfies wsb ~input ~output:out))
    (wsb.Task.max_inputs ())

(* --- Trivial tasks --- *)

let test_identity () =
  let t = Trivial_tasks.identity ~n:3 () in
  let input = vi [ Some 0; Some 1; Some 0 ] in
  check_bool "echo ok" true (Task.satisfies t ~input ~output:input);
  check_bool "wrong echo rejected" false
    (Task.satisfies t ~input ~output:(vi [ Some 1; Some 1; Some 0 ]));
  let out = Task.choice_closure t ~input in
  check_bool "closure is echo" true (Vectors.equal out input)

let test_constant () =
  let t = Trivial_tasks.constant ~n:3 ~out:7 () in
  let input = vi [ Some 0; Some 1; None ] in
  let out = Task.choice_closure t ~input in
  check_bool "closure valid" true (Task.satisfies t ~input ~output:out);
  check_bool "constant 7" true
    (List.for_all
       (fun i -> Option.equal Value.equal out.(i) (Some (Value.int 7)))
       (Vectors.participants input))

(* --- Task generic machinery --- *)

let test_input_ok () =
  check_bool "prefix of maximal accepted" true
    (Task.input_ok sa3_1 (vi [ Some 0; None; None ]));
  check_bool "junk value rejected" false
    (Task.input_ok sa3_1 (vi [ Some 9; None; None ]))

let test_sampling () =
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 50 do
    let v = Task.sample_input sa4_2 rng in
    check_bool "sampled maximal is valid input" true (Task.input_ok sa4_2 v);
    let p = Task.sample_prefix sa4_2 rng ~min_participants:2 in
    check_bool "sampled prefix is valid input" true (Task.input_ok sa4_2 p);
    check_bool "min participants respected" true (Vectors.count p >= 2)
  done

(* [nth_input] unranks [max_inputs], which stays the reference: on every
   registry task at small n, index i is the list's i-th vector, and a seed
   draws the input it drew from the whole list. *)
let test_unranking () =
  let registry n =
    List.map (fun e -> e.Registry.entry_task) (Registry.standard ~n)
  in
  let tasks =
    registry 4 @ registry 5
    @ [ Set_agreement.make ~u:[ 1; 3 ] ~values:[ 4; 7; 9 ] ~n:4 ~k:1 () ]
  in
  List.iter
    (fun t ->
      let name = t.Task.task_name in
      let all = t.Task.max_inputs () in
      check_int (name ^ " count") (List.length all) t.Task.input_count;
      List.iteri
        (fun i v ->
          let label = Printf.sprintf "%s input %d" name i in
          check_bool label true (Vectors.equal v (t.Task.nth_input i)))
        all;
      for seed = 1 to 20 do
        let rng () = Random.State.make [| seed |] in
        let from_list =
          List.nth all (Random.State.int (rng ()) (List.length all))
        in
        let sampled = Task.sample_input t (rng ()) in
        let label = Printf.sprintf "%s seed %d" name seed in
        check_bool label true (Vectors.equal from_list sampled)
      done)
    tasks

(* Counts saturate, and only a saturated count is refused, without building
   an input: 2^61 consensus inputs are drawn from, 2^62 are not. *)
let test_input_counts () =
  check_int "C(1024, 512) saturates" max_int (Combinat.binomial 1024 512);
  check_int "C(1024, 3)" 178_433_024 (Combinat.binomial 1024 3);
  check_int "C(62, 31)" 465_428_353_255_261_088 (Combinat.binomial 62 31);
  check_int "2^1024 saturates" max_int
    (Combinat.count_assignments ~slots:1024 ~values:2);
  check_int "4^12" 16_777_216 (Combinat.count_assignments ~slots:12 ~values:4);
  let consensus61 = Set_agreement.consensus ~n:61 () in
  check_int "2^61 inputs" (1 lsl 61) consensus61.Task.input_count;
  let rng = Random.State.make [| 1 |] in
  let v = Task.sample_input consensus61 rng in
  check_int "2^61 inputs: one drawn" 61 (Vectors.count v);
  List.iter
    (fun t ->
      match Task.sample_input t rng with
      | _ -> Alcotest.failf "%s: drew an input" t.Task.task_name
      | exception Invalid_argument _ -> ())
    [
      Set_agreement.consensus ~n:62 ();
      Set_agreement.make ~n:1024 ~k:1023 ();
      Renaming.make ~n:1024 ~j:512 ~l:600;
      Wsb.make ~n:1024 ~j:512;
      Trivial_tasks.identity ~n:1024 ();
    ]

(* qcheck: choice closure always yields valid outputs on sampled prefixes *)
let prop_choice_closure task name =
  QCheck.Test.make ~name ~count:100 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let input = Task.sample_prefix task rng ~min_participants:1 in
      let out = Task.choice_closure task ~input in
      Task.satisfies task ~input ~output:out
      && Vectors.count out = Vectors.count input)

(* qcheck: prefixes of valid outputs remain valid (paper axiom 2) *)
let prop_output_prefix_closed task name =
  QCheck.Test.make ~name ~count:60 QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let input = Task.sample_input task rng in
      let out = Task.choice_closure task ~input in
      List.for_all
        (fun out' -> Task.satisfies task ~input ~output:out')
        (Vectors.proper_prefixes out))

(* --- Registry --- *)

let test_registry () =
  let entries = Registry.standard ~n:4 in
  check_bool "non-empty" true (List.length entries >= 10);
  (match Registry.find entries "1-set-agreement(n=4)" with
  | Some e ->
    check_bool "consensus exact 1" true (e.Registry.expected = Registry.Exact 1);
    Alcotest.(check string) "consensus fd" "Omega" e.Registry.weakest_fd
  | None -> Alcotest.fail "consensus missing");
  (match Registry.find entries "identity(n=4)" with
  | Some e -> Alcotest.(check string) "identity fd" "trivial" e.Registry.weakest_fd
  | None -> Alcotest.fail "identity missing");
  List.iter
    (fun e ->
      check_bool "expected lower bound sane" true
        (Registry.expected_lower e.Registry.expected >= 1))
    entries

let test_weakest_fd_names () =
  Alcotest.(check string) "level n" "trivial" (Registry.weakest_fd_of_level ~n:4 4);
  Alcotest.(check string) "level 1" "Omega" (Registry.weakest_fd_of_level ~n:4 1);
  Alcotest.(check string) "level 2" "anti-Omega-2" (Registry.weakest_fd_of_level ~n:4 2)

let suite =
  [
    Alcotest.test_case "vectors basics" `Quick test_vectors_basics;
    Alcotest.test_case "vectors prefix" `Quick test_vectors_prefix;
    Alcotest.test_case "set-agreement inputs" `Quick test_sa_inputs;
    Alcotest.test_case "consensus check" `Quick test_sa_check;
    Alcotest.test_case "2-set-agreement check" `Quick test_sa_k2_check;
    Alcotest.test_case "set-agreement choose" `Quick test_sa_choose;
    Alcotest.test_case "(U,k)-agreement subset" `Quick test_sa_subset_u;
    Alcotest.test_case "set-agreement metadata" `Quick test_sa_metadata;
    Alcotest.test_case "renaming inputs" `Quick test_renaming_inputs;
    Alcotest.test_case "renaming check" `Quick test_renaming_check;
    Alcotest.test_case "renaming choose" `Quick test_renaming_choose;
    Alcotest.test_case "renaming metadata" `Quick test_renaming_metadata;
    Alcotest.test_case "renaming validation" `Quick test_renaming_validation;
    Alcotest.test_case "wsb check" `Quick test_wsb_check;
    Alcotest.test_case "wsb choose" `Quick test_wsb_choose;
    Alcotest.test_case "identity task" `Quick test_identity;
    Alcotest.test_case "constant task" `Quick test_constant;
    Alcotest.test_case "input_ok" `Quick test_input_ok;
    Alcotest.test_case "sampling" `Quick test_sampling;
    Alcotest.test_case "nth_input unranks max_inputs" `Quick test_unranking;
    Alcotest.test_case "input counts and refusals" `Quick test_input_counts;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "weakest fd names" `Quick test_weakest_fd_names;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_choice_closure sa3_1 "choice closure: consensus";
        prop_choice_closure sa4_2 "choice closure: 2-set-agreement";
        prop_choice_closure rn "choice closure: renaming";
        prop_choice_closure wsb "choice closure: wsb";
        prop_output_prefix_closed sa4_2 "output prefix-closed: 2-set-agreement";
        prop_output_prefix_closed rn "output prefix-closed: renaming";
      ]
