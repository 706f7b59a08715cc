(* The unkeyed solve path: [Efd.Run.execute] driving [Simkit.Schedule.run]
   over [Simkit.Runtime.step]. A golden file pins the reports of the
   conformance campaign's solve cells; a reference implementation pins the
   pid sequence [Schedule.shuffled_rounds] draws; a unit test pins what a
   taken-back decide leaves behind; and an allocation count bounds what one
   step of a run that never decides costs. *)

open Simkit
module J = Obs.Json
module Spec = Scenario.Spec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let conformance = "../bench/campaigns/conformance.json"
let golden = "golden/solve_reports.json"

(* ------------------------------------------------------ golden reports *)

let solve_cells () =
  let campaign =
    match Scenario.Campaign.load conformance with
    | Ok c -> c
    | Error msg -> Alcotest.failf "%s" msg
  in
  match Scenario.Campaign.expand campaign with
  | Error msg -> Alcotest.failf "%s" msg
  | Ok specs ->
    List.filter_map
      (fun sp ->
        match sp.Spec.sp_work with
        | Spec.Solve s -> Some (sp.Spec.sp_name, s)
        | Spec.Modelcheck _ | Spec.Fuzz _ -> None)
      specs

let seeds = [ 1; 2; 3 ]

(* One entry per solve cell and seed, in campaign order: the result the
   service's executor returns for the cell with its seed set. *)
let reports () =
  List.concat_map
    (fun (cell, s) ->
      List.map
        (fun seed ->
          let result =
            match
              Svc.Jobs.run_work (Spec.Solve { s with Spec.sv_seed = seed })
            with
            | Ok j -> j
            | Error (_, msg) -> J.Obj [ ("error", J.Str msg) ]
          in
          J.Obj
            [ ("cell", J.Str cell); ("seed", J.Int seed); ("result", result) ])
        seeds)
    (solve_cells ())

(* The golden file's layout: a JSON list, one entry per line. *)
let golden_text entries =
  "[\n" ^ String.concat ",\n" (List.map J.to_string entries) ^ "\n]\n"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* On a mismatch the reports as they now read are written beside the test
   binary, in the golden file's layout, for a change meant to alter them
   to copy over the golden file. *)
let test_golden_reports () =
  let want =
    match J.of_string (read_file golden) with
    | Ok (J.List entries) -> entries
    | Ok _ -> Alcotest.fail "golden: not a list"
    | Error msg -> Alcotest.failf "golden: %s" msg
  in
  let got = reports () in
  check_int "71 cells at 3 seeds" (71 * 3) (List.length got);
  let actual = "solve_reports.actual.json" in
  let keep () =
    Out_channel.with_open_bin actual (fun oc ->
        output_string oc (golden_text got))
  in
  if List.length want <> List.length got then begin
    keep ();
    Alcotest.failf "%d golden entries, %d reports (all reports in %s)"
      (List.length want) (List.length got) actual
  end;
  List.iter2
    (fun w g ->
      if not (J.equal w g) then begin
        keep ();
        Alcotest.failf "report differs (all reports in %s):\nwant %s\ngot  %s"
          actual (J.to_string w) (J.to_string g)
      end)
    want got

(* ---------------------------------------------------- shuffled rounds *)

(* The list-based policy [Schedule.shuffled_rounds] replaced: each round
   shuffles a fresh copy of the base order and is served as a list. *)
let reference_rounds ?only ~n_c ~n_s rng =
  let base =
    match only with
    | Some pids -> Array.of_list pids
    | None -> Array.of_list (Pid.all ~n_c ~n_s)
  in
  let shuffle a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    a
  in
  let queue = ref [] in
  fun () ->
    (match !queue with [] -> queue := Array.to_list (shuffle base) | _ -> ());
    match !queue with
    | p :: rest ->
      queue := rest;
      p
    | [] -> assert false

(* A failure-free runtime with the trivial history and idle S-processes. *)
let runtime ?(memory = Memory.create ()) ~n_c ~n_s c_code =
  Runtime.create
    {
      Runtime.n_c;
      n_s;
      memory;
      pattern = Failure.failure_free n_s;
      history = History.trivial;
      record_trace = false;
    }
    ~c_code
    ~s_code:(fun _ () -> ())

let prop_shuffled_rounds =
  let gen =
    QCheck.Gen.(
      int_range 1 4 >>= fun n_c ->
      int_range 1 4 >>= fun n_s ->
      let pid =
        map2
          (fun c i -> if c then Pid.c (i mod n_c) else Pid.s (i mod n_s))
          bool small_nat
      in
      opt (list_size (int_range 1 9) pid) >>= fun only ->
      int_range 1 60 >>= fun steps ->
      map (fun seed -> (n_c, n_s, only, steps, seed)) int)
  in
  let print (n_c, n_s, only, steps, seed) =
    Printf.sprintf "n_c=%d n_s=%d only=%s steps=%d seed=%d" n_c n_s
      (match only with
      | None -> "-"
      | Some pids -> String.concat "," (List.map Pid.to_string pids))
      steps seed
  in
  QCheck.Test.make ~name:"shuffled rounds draw the list-based sequence"
    ~count:300 (QCheck.make ~print gen)
    (fun (n_c, n_s, only, steps, seed) ->
      let rt = runtime ~n_c ~n_s (fun _ () -> ()) in
      let policy =
        Schedule.shuffled_rounds ?only ~n_c ~n_s (Random.State.make [| seed |])
      in
      let reference =
        reference_rounds ?only ~n_c ~n_s (Random.State.make [| seed |])
      in
      List.for_all
        (fun _ -> policy.Schedule.next rt = Some (reference ()))
        (List.init steps Fun.id))

(* ---------------------------------------------- a taken-back decide *)

(* The decided count, read both ways: as the runtime keeps it and by
   counting decisions. *)
let decisions rt =
  let n =
    Array.fold_left
      (fun n d -> if Option.is_some d then n + 1 else n)
      0 (Runtime.decisions rt)
  in
  check_int "decided_count counts the decisions" n (Runtime.decided_count rt);
  n

(* p1 writes, then decides; p2 decides at once. A decide taken back by
   [with_step] leaves [all_c_done] and the decided count as they were,
   whether the process had started (and is spent) or not (and is
   restarted). *)
let test_with_step_decide () =
  let memory = Memory.create () in
  let r = Memory.alloc1 memory () in
  let rt =
    runtime ~memory ~n_c:2 ~n_s:1 (fun i () ->
        if i = 0 then Runtime.Op.write r (Value.int 1);
        Runtime.Op.decide (Value.int i))
  in
  let counts () = (Runtime.all_c_done rt, decisions rt) in
  let check what (done_, n) (done', n') =
    check_bool (what ^ ": all_c_done") done_ done';
    check_int (what ^ ": decided") n n'
  in
  Runtime.step rt (Pid.c 1);
  check "p2 decided" (false, 1) (counts ());
  Runtime.step rt (Pid.c 0);
  (match Runtime.with_step rt (Pid.c 0) counts with
  | Some inside -> check "inside p1's decide" (true, 2) inside
  | None -> Alcotest.fail "with_step refused p1's decide");
  check "after p1's decide" (false, 1) (counts ());
  let rt2 =
    runtime ~n_c:1 ~n_s:1 (fun _ () -> Runtime.Op.decide (Value.int 5))
  in
  let counts2 () = (Runtime.all_c_done rt2, decisions rt2) in
  (match Runtime.with_step rt2 (Pid.c 0) counts2 with
  | Some inside -> check "inside a fresh decide" (true, 1) inside
  | None -> Alcotest.fail "with_step refused a fresh decide");
  check "after a fresh decide" (false, 0) (counts2 ());
  Runtime.step rt2 (Pid.c 0);
  check "decided for real" (true, 1) (counts2 ());
  Runtime.destroy rt;
  Runtime.destroy rt2

(* ------------------------------------------------ allocation per step *)

(* Consensus with the trivial detector never decides (Proposition 2), so
   the run goes to its budget: every step is a client's read or a
   server's query that changes nothing. Such a step allocates what its
   effect costs and nothing per step besides. *)
let trivial_steps () =
  let n = 3 and budget = 100_000 in
  let task = Tasklib.Set_agreement.consensus ~n () in
  let input = Tasklib.Task.sample_input task (Random.State.make [| 1 |]) in
  let r =
    Efd.Run.execute ~budget ~task ~algo:(Efd.Ksa.consensus ())
      ~fd:Fdlib.Fd.trivial ~pattern:(Failure.failure_free n) ~input ~seed:1 ()
  in
  check_int "ran to the budget" budget r.Efd.Run.r_steps;
  r.Efd.Run.r_steps

(* The fuzzer's loop, on this domain: each trial samples a pattern and an
   input and runs one execution. *)
let fuzz_trials target () =
  let r =
    Efd.Adversary.fuzz_target ~exhaust:true ~seed:7 ~budget:5_000 target ()
  in
  r.Efd.Adversary.f_trials

(* Minor words per unit of work, against a bound: a trivial-detector step
   at most 20 (39.4 before the decided count, 14.5 after); a fuzz trial of
   the two targets the fuzzer's throughput was timed on at most 1.5x the
   words it took when the bound was set, which reads the same every run.
   Every input is measured before any is reported. *)
let test_loop_words () =
  let over (what, bound, run) =
    let w0 = Gc.minor_words () in
    let units = run () in
    let words = (Gc.minor_words () -. w0) /. float_of_int units in
    if words > bound then
      Some
        (Printf.sprintf "%s: %.1f minor words, want at most %.1f" what words
           bound)
    else None
  in
  match
    List.filter_map over
      [
        ("a trivial-detector step", 20., trivial_steps);
        ( "a strong-renaming fuzz trial",
          1.5 *. 4224.9,
          fuzz_trials (Efd.Adversary.strong_renaming_target ~n:5 ~j:3) );
        ( "a consensus-reduction fuzz trial",
          1.5 *. 3225.3,
          fuzz_trials (Efd.Adversary.consensus_reduction_target ~n:4) );
      ]
  with
  | [] -> ()
  | over -> Alcotest.fail (String.concat "; " over)

let suite =
  [
    Alcotest.test_case "campaign solve reports match the golden file" `Quick
      test_golden_reports;
    QCheck_alcotest.to_alcotest prop_shuffled_rounds;
    Alcotest.test_case "a taken-back decide leaves the decided count" `Quick
      test_with_step_decide;
    Alcotest.test_case
      "a trivial-detector step allocates at most 20 words, a fuzz trial \
       1.5x its own"
      `Quick test_loop_words;
  ]
