(* The experiment harness: regenerates every table/claim of the paper
   (experiments E1..E12 of DESIGN.md), the ablations, the checker table and
   the fleet and journal benches.

   Usage:
     dune exec bench/main.exe            -- every section
     dune exec bench/main.exe -- e5 e12  -- selected sections only        *)

open Simkit
open Tasklib
open Efd

let seeds n = List.init n (fun i -> i + 1)
let line () = Fmt.pr "  %s@." (String.make 72 '-')

(* ------------------------------------------------- machine-readable mode *)

(* With --record, every experiment additionally serializes its table through
   Obs.Bench_record into BENCH_<id>.json (schema "wfa.bench", versioned; see
   EXPERIMENTS.md). The recorder is threaded through [header] and the driver
   loop so each experiment body only has to call [Rec.row]. *)

let recording = ref false

module Rec = struct
  let current : Obs.Bench_record.t option ref = ref None

  let start id ~title =
    if !recording then current := Some (Obs.Bench_record.create ~id ~title ())

  let meta k v =
    match !current with None -> () | Some r -> Obs.Bench_record.meta r k v

  let row ?labels metrics =
    match !current with
    | None -> ()
    | Some r -> Obs.Bench_record.row r ?labels metrics

  let finish () =
    match !current with
    | None -> ()
    | Some r ->
      let path = Obs.Bench_record.write r in
      Fmt.pr "  [recorded %d rows -> %s]@." (Obs.Bench_record.rows r) path;
      current := None
end

let jint i = Obs.Json.Int i
let jfloat f = Obs.Json.Float f
let jbool b = Obs.Json.Bool b

let batch_metrics (pass, failed, total, mean) =
  [
    ("pass", jint pass);
    ("failed", jint failed);
    ("total", jint total);
    ("mean_steps", jfloat mean);
  ]

let header id title =
  Fmt.pr "@.=== %s: %s ===@.@." (String.uppercase_ascii id) title;
  Rec.start id ~title

(* mean steps (float, over the passing runs) of a sweep-like loop; the failed
   count rides along so tables can surface it instead of silently averaging
   over a subset *)
let float_mean steps = function
  | [] -> 0.
  | passed ->
    float_of_int (List.fold_left (fun acc r -> acc + steps r) 0 passed)
    /. float_of_int (List.length passed)

let run_batch ?budget ?policy ~task ~algo ~fd ~env ~n_seeds () =
  let results =
    List.map
      (fun seed ->
        let rng = Random.State.make [| seed; 0xbe |] in
        let pattern = env.Failure.sample rng ~horizon:2_000 in
        let input = Task.sample_input task rng in
        Run.execute ?budget ?policy ~task ~algo ~fd ~pattern ~input ~seed ())
      (seeds n_seeds)
  in
  let passed = List.filter Run.ok results in
  let failed = List.length results - List.length passed in
  (List.length passed, failed, List.length results,
   float_mean (fun r -> r.Run.r_steps) passed)

(* "12/12   314.2" or "10/12   298.5 (2 failed)" *)
let pp_batch ppf (pass, failed, total, mean) =
  Fmt.pf ppf "%4d/%-3d %12.1f%s" pass total mean
    (if failed = 0 then "" else Fmt.str " (%d failed)" failed)

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  header "e1" "Proposition 1 - every task is 1-concurrently solvable";
  Fmt.pr "  %-36s %8s %12s@." "task" "pass" "mean-steps";
  line ();
  List.iter
    (fun e ->
      let task = e.Registry.entry_task in
      let batch =
        run_batch
          ~policy:(Run.k_concurrent_policy 1)
          ~task
          ~algo:(One_concurrent.make task)
          ~fd:Fdlib.Fd.trivial
          ~env:(Failure.wait_free_env 4)
          ~n_seeds:12 ()
      in
      Rec.row ~labels:[ ("task", task.Task.task_name) ] (batch_metrics batch);
      Fmt.pr "  %-36s %a@." task.Task.task_name pp_batch batch)
    (Registry.standard ~n:4)

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  header "e2"
    "Proposition 2 - trivial-FD solvability = wait-free solvability (n >= m)";
  let rows =
    [
      ("identity(n=4)", Trivial_tasks.identity ~n:4 (), Kconc_tasks.echo (), true);
      ( "(3,5)-renaming(n=4)",
        Renaming.make ~n:4 ~j:3 ~l:5,
        Renaming_algos.fig4 (),
        true );
      ( "1-set-agreement(n=4)",
        Set_agreement.make ~n:4 ~k:1 (),
        Kconc_tasks.adoption (),
        false );
      ( "2-set-agreement(n=4)",
        Set_agreement.make ~n:4 ~k:2 (),
        Kconc_tasks.adoption (),
        false );
    ]
  in
  Fmt.pr "  %-24s %18s %10s@." "task" "trivial-FD solves" "expected";
  line ();
  List.iter
    (fun (name, task, algo, expected) ->
      let pass, _, total, _ =
        run_batch ~task ~algo ~fd:Fdlib.Fd.trivial
          ~env:(Failure.wait_free_env 4) ~n_seeds:25 ()
      in
      let crafted =
        (* adversarial lockstep on the most concurrent input *)
        Adversary.search
          ~policy:(Run.k_concurrent_uniform_policy task.Task.arity)
          ~task ~algo ~fd:Fdlib.Fd.trivial
          ~env:(Failure.crash_free 1)
          ~seeds:(seeds 40) ()
      in
      let solves = pass = total && crafted = None in
      Rec.row ~labels:[ ("task", name) ]
        [
          ("solves", jbool solves);
          ("expected", jbool expected);
          ("consistent", jbool (solves = expected));
        ];
      Fmt.pr "  %-24s %18b %10b%s@." name solves expected
        (if solves = expected then "" else "   <-- MISMATCH"))
    rows

(* ------------------------------------------------------------------ E3 *)

let e3 () =
  header "e3" "Section 2.2 - (Pi,n)-set agreement with the trivial detector";
  Fmt.pr "  %-14s %-10s %8s %12s@." "environment" "n_s" "pass" "mean-steps";
  line ();
  List.iter
    (fun (n_s, t) ->
      let task = Set_agreement.make ~n:4 ~k:n_s () in
      let batch =
        run_batch ~task
          ~algo:(Trivial_nsa.make ())
          ~fd:Fdlib.Fd.trivial
          ~env:(Failure.e_t ~n_s ~t)
          ~n_seeds:20 ()
      in
      Rec.row
        ~labels:[ ("env", Fmt.str "E_%d" t); ("n_s", string_of_int n_s) ]
        (batch_metrics batch);
      Fmt.pr "  E_%-12d %-10d %a@." t n_s pp_batch batch)
    [ (2, 1); (3, 2); (4, 3); (5, 4) ]

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  header "e4"
    "Proposition 3 - classically solvable but not EFD-solvable (q1-else-q2)";
  let algo = Ksa.consensus () in
  let fd = Fdlib.Classic.q1_else_q2 () in
  let cases =
    [
      ("no crashes", Some (Failure.failure_free 3), [ 0; 1 ]);
      ("q1 crashed", Some (Failure.pattern ~n_s:3 [ (0, 0) ]), [ 1 ]);
      ("q2 crashed", Some (Failure.pattern ~n_s:3 [ (1, 0) ]), [ 0 ]);
      ("q1,q2 crashed (personified: vacuous)", None, []);
    ]
  in
  Fmt.pr "  %-40s %12s@." "personified case (participants = live U)" "decides";
  line ();
  List.iter
    (fun (name, pattern, u) ->
      match pattern with
      | None ->
        Rec.row ~labels:[ ("case", name) ] [ ("decides", Obs.Json.Null) ];
        Fmt.pr "  %-40s %12s@." name "vacuous"
      | Some pattern ->
        let task = Set_agreement.make ~u ~n:3 ~k:1 () in
        let rng = Random.State.make [| 5 |] in
        let input = Task.sample_input task rng in
        let r = Run.execute ~task ~algo ~fd ~pattern ~input ~seed:5 () in
        Rec.row ~labels:[ ("case", name) ] [ ("decides", jbool (Run.ok r)) ];
        Fmt.pr "  %-40s %12b@." name (Run.ok r))
    cases;
  Fmt.pr "@.  EFD run, q1 and q2 crashed, p1 and p2 must still decide:@.";
  let task = Set_agreement.make ~u:[ 0; 1 ] ~n:3 ~k:1 () in
  let pattern = Failure.pattern ~n_s:3 [ (0, 0); (1, 0) ] in
  let rng = Random.State.make [| 5 |] in
  let input = Task.sample_input task rng in
  let r = Run.execute ~budget:150_000 ~task ~algo ~fd ~pattern ~input ~seed:5 () in
  Rec.row
    ~labels:[ ("case", "efd q1,q2 crashed") ]
    [
      ("decided", jbool r.Run.r_outcome.Schedule.all_decided);
      ("wait_free", jbool r.Run.r_wait_free);
    ];
  Fmt.pr "  decided: %b, wait-free: %b  (the task is NOT EFD-solvable with D)@."
    r.Run.r_outcome.Schedule.all_decided r.Run.r_wait_free

(* ------------------------------------------------------------------ E5 *)

let e5 () =
  header "e5" "Proposition 6 - k-set agreement with vector-Omega-k (three solvers)";
  Fmt.pr "  %-6s %-4s %-22s %8s %12s@." "n" "k" "solver" "pass" "mean-steps";
  line ();
  List.iter
    (fun (n, k) ->
      List.iter
        (fun (solver_name, algo, budget) ->
          let task = Set_agreement.make ~n ~k () in
          let fd = Fdlib.Leader_fds.vector_omega_k ~max_stab:60 ~k () in
          let batch =
            run_batch ~budget ~task ~algo ~fd
              ~env:(Failure.e_t ~n_s:n ~t:(n - 1))
              ~n_seeds:8 ()
          in
          Rec.row
            ~labels:
              [
                ("n", string_of_int n);
                ("k", string_of_int k);
                ("solver", solver_name);
              ]
            (batch_metrics batch);
          Fmt.pr "  %-6d %-4d %-22s %a@." n k solver_name pp_batch batch)
        (("leader-consensus", Ksa.make ~k (), 400_000)
         :: ("machine-consensus", Machine_ksa.make ~k (), 2_000_000)
         ::
         (if k = 1 then [ ("paxos-alpha", Paxos_consensus.make (), 400_000) ]
          else [])))
    [ (3, 1); (3, 2); (4, 1); (4, 2); (4, 3); (5, 2); (6, 3) ]

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  header "e6" "Theorem 7 - (U,k)-agreement on k+1 processes => (Pi,k)-agreement";
  Fmt.pr "  %-6s %-4s %-26s %8s %12s@." "n" "k" "participants" "pass" "mean-steps";
  line ();
  List.iter
    (fun (n, k, label, min_participants) ->
      let task = Set_agreement.make ~n ~k () in
      let algo = Puzzle.make ~k () in
      let fd = Puzzle.demo_fd ~k () in
      let results =
        List.map
          (fun seed ->
            let rng = Random.State.make [| seed; 0xe6 |] in
            let pattern =
              (Failure.e_t ~n_s:n ~t:(n - 1)).Failure.sample rng ~horizon:2_000
            in
            let input = Task.sample_prefix task rng ~min_participants in
            Run.execute ~budget:4_000_000 ~task ~algo ~fd ~pattern ~input ~seed ())
          (seeds 5)
      in
      let passed = List.filter Run.ok results in
      let failed = List.length results - List.length passed in
      let batch =
        (List.length passed, failed, List.length results,
         float_mean (fun r -> r.Run.r_steps) passed)
      in
      Rec.row
        ~labels:
          [
            ("n", string_of_int n);
            ("k", string_of_int k);
            ("participants", label);
          ]
        (batch_metrics batch);
      Fmt.pr "  %-6d %-4d %-26s %a@." n k label pp_batch batch)
    [
      (3, 1, "random", 1);
      (4, 2, "random", 1);
      (5, 2, "random", 1);
      (4, 2, "all (incl. U)", 4);
    ]

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  header "e7" "Theorem 8 / Figure 1 - extracting anti-Omega-k";
  Fmt.pr "  %-8s %-28s %10s %14s@." "k" "pattern" "property" "witnesses";
  line ();
  List.iter
    (fun (n, k, pattern) ->
      let task = Set_agreement.make ~n ~k () in
      let algo = Ksa.make ~max_rounds:128 ~k () in
      let fd = Fdlib.Leader_fds.vector_omega_k_silent ~max_stab:25 ~k () in
      let rng = Random.State.make [| 17 |] in
      let inputs = Task.sample_input task rng in
      let result =
        Extraction.run ~outer_budget:15_000 ~sample_period:400
          ~explore_budget:2_500 ~max_samples:200 ~k ~fd ~algo ~inputs ~n_c:n
          ~pattern ~seed:17 ()
      in
      let ok =
        Fdlib.Props.anti_omega_k_ok pattern result.Extraction.x_outputs ~k
          ~suffix:4_000
      in
      let witnesses =
        Fdlib.Props.anti_omega_k_witnesses pattern result.Extraction.x_outputs
          ~suffix:4_000
      in
      Rec.row
        ~labels:
          [
            ("k", string_of_int k);
            ("pattern", Fmt.str "%a" Failure.pp_pattern pattern);
          ]
        [
          ("property", jbool ok);
          ("witnesses", jint (List.length witnesses));
        ];
      Fmt.pr "  %-8d %-28s %10b %14s@." k
        (Fmt.str "%a" Failure.pp_pattern pattern)
        ok
        (Fmt.str "%a"
           Fmt.(list ~sep:(any ",") (fun ppf q -> pf ppf "q%d" (q + 1)))
           witnesses))
    [
      (3, 1, Failure.failure_free 3);
      (3, 1, Failure.pattern ~n_s:3 [ (2, 300) ]);
      (4, 2, Failure.failure_free 4);
      (4, 2, Failure.pattern ~n_s:4 [ (3, 300) ]);
    ]

(* ------------------------------------------------------------------ E8 *)

let e8 () =
  header "e8"
    "Theorem 9 - the double simulation solves k-concurrent tasks with anti-Omega-k";
  Fmt.pr "  %-28s %-4s %8s %12s@." "task" "k" "pass" "mean-steps";
  line ();
  List.iter
    (fun (task, k, fi) ->
      let algo = Kconcurrent.make ~k ~fi () in
      let fd = Fdlib.Leader_fds.vector_omega_k ~max_stab:50 ~k () in
      let batch =
        run_batch ~budget:3_000_000 ~task ~algo ~fd
          ~env:(Failure.e_t ~n_s:task.Task.arity ~t:(task.Task.arity - 1))
          ~n_seeds:4 ()
      in
      Rec.row
        ~labels:[ ("task", task.Task.task_name); ("k", string_of_int k) ]
        (batch_metrics batch);
      Fmt.pr "  %-28s %-4d %a@." task.Task.task_name k pp_batch batch)
    [
      (Set_agreement.make ~n:3 ~k:1 (), 1, Bglib.Fi_algos.adoption);
      (Set_agreement.make ~n:3 ~k:2 (), 2, Bglib.Fi_algos.adoption);
      (Set_agreement.make ~n:4 ~k:2 (), 2, Bglib.Fi_algos.adoption);
      (Renaming.make ~n:4 ~j:3 ~l:4, 2, Bglib.Fi_algos.fig4_renaming);
      (Wsb.make ~n:4 ~j:3, 2, Bglib.Fi_algos.wsb ~j:3);
      (Trivial_tasks.identity ~n:3 (), 1, Bglib.Fi_algos.echo);
    ]

(* ------------------------------------------------------------------ E9 *)

let e9 () =
  header "e9" "Lemma 11 / Theorem 12 - strong renaming impossibility witnesses";
  let all = seeds 500 in
  List.iter
    (fun j ->
      let labels =
        [ ("kind", "strong-renaming"); ("j", string_of_int j) ]
      in
      match Adversary.strong_renaming_witness ~seeds:all ~n:5 ~j () with
      | Some w ->
        Rec.row ~labels
          [ ("found", jbool true); ("witness_seed", jint w.Adversary.w_seed) ];
        Fmt.pr "  strong %d-renaming, 2-concurrent: witness at seed %d (%s)@."
          j w.Adversary.w_seed w.Adversary.w_desc;
        Fmt.pr "    output %a@." Tasklib.Vectors.pp w.Adversary.w_report.Run.r_output
      | None ->
        Rec.row ~labels
          [ ("found", jbool false); ("witness_seed", Obs.Json.Null) ];
        Fmt.pr "  strong %d-renaming: NO witness found (unexpected)@." j)
    [ 2; 3 ];
  (match Adversary.consensus_reduction_witness ~seeds:all ~n:4 () with
  | Some w ->
    Rec.row
      ~labels:[ ("kind", "consensus-reduction") ]
      [ ("found", jbool true); ("witness_seed", jint w.Adversary.w_seed) ];
    Fmt.pr "  consensus-from-renaming reduction: witness at seed %d (%s)@."
      w.Adversary.w_seed w.Adversary.w_desc
  | None ->
    Rec.row
      ~labels:[ ("kind", "consensus-reduction") ]
      [ ("found", jbool false); ("witness_seed", Obs.Json.Null) ];
    Fmt.pr "  reduction: NO witness found (unexpected)@.");
  let s =
    Run.sweep
      ~policy:(Run.k_concurrent_policy 1)
      ~task:(Renaming.strong ~n:5 ~j:3)
      ~algo:(Renaming_algos.fig4 ())
      ~fd:Fdlib.Fd.trivial
      ~env:(Failure.crash_free 1)
      ~seeds:(seeds 20) ()
  in
  Rec.row
    ~labels:[ ("kind", "control-1-concurrent") ]
    [ ("pass", jint s.Run.passed); ("total", jint s.Run.total) ];
  Fmt.pr "  control: strong 3-renaming 1-concurrently: %d/%d ok@." s.Run.passed
    s.Run.total

(* ----------------------------------------------------------------- E10 *)

let e10 () =
  header "e10" "Theorem 15 - Figure 4 solves (j, j+k-1)-renaming k-concurrently";
  let n = 7 in
  let max_name ~j ~k =
    List.fold_left
      (fun acc seed ->
        let task = Renaming.make ~n ~j ~l:(j + k - 1) in
        let rng = Random.State.make [| seed |] in
        let input = Task.sample_input task rng in
        let r =
          Run.execute
            ~policy:(Run.k_concurrent_uniform_policy k)
            ~task
            ~algo:(Renaming_algos.fig4 ())
            ~fd:Fdlib.Fd.trivial
            ~pattern:(Failure.failure_free 1)
            ~input ~seed ()
        in
        if not (Run.ok r) then max_int
        else
          Array.fold_left
            (fun acc v ->
              match v with Some x -> max acc (Value.to_int x) | None -> acc)
            acc r.Run.r_output)
      0 (seeds 40)
  in
  Fmt.pr "  largest name over 40 runs (bound j+k-1); '!' = violation@.@.";
  Fmt.pr "   j\\k |    1    2    3    4@.  -----+---------------------@.";
  List.iter
    (fun j ->
      Fmt.pr "  %4d |" j;
      List.iter
        (fun k ->
          let labels = [ ("j", string_of_int j); ("k", string_of_int k) ] in
          if k > j then begin
            Rec.row ~labels
              [ ("max_name", Obs.Json.Null); ("violation", jbool false) ];
            Fmt.pr "    -"
          end
          else
            let m = max_name ~j ~k in
            Rec.row ~labels
              [
                ("max_name", if m = max_int then Obs.Json.Null else jint m);
                ("violation", jbool (m = max_int));
                ("bound", jint (j + k - 1));
              ];
            if m = max_int then Fmt.pr "    !" else Fmt.pr " %4d" m)
        [ 1; 2; 3; 4 ];
      Fmt.pr "@.")
    [ 2; 3; 4; 5 ]

(* ----------------------------------------------------------------- E11 *)

let e11 () =
  header "e11"
    "Figure 3 - 1-resilient (j, j+1)-renaming from the 2-concurrent algorithm";
  let n = 6 in
  Fmt.pr "  %-6s %-22s %8s@." "j" "mode" "pass";
  line ();
  List.iter
    (fun j ->
      List.iter
        (fun (mode, starve_one, after) ->
          let task = Renaming.make ~n ~j ~l:(j + 1) in
          let pass = ref 0 and total = ref 0 in
          List.iter
            (fun seed ->
              let rng0 = Random.State.make [| seed; j |] in
              let input = Task.sample_input task rng0 in
              let victim = List.hd (Tasklib.Vectors.participants input) in
              let policy ~participants ~n_c ~n_s ~rng =
                let base =
                  Schedule.shuffled_rounds
                    ~only:(participants @ Pid.all_s n_s)
                    ~n_c ~n_s rng
                in
                if not starve_one then base
                else
                  Schedule.seq base ~steps:after
                    (Schedule.starve [ Pid.c victim ] ~until:max_int base)
              in
              let r =
                Run.execute ~budget:200_000 ~policy ~task
                  ~algo:(Renaming_algos.fig3 ~j)
                  ~fd:Fdlib.Fd.trivial
                  ~pattern:(Failure.failure_free 1)
                  ~input ~seed ()
              in
              incr total;
              let live_ok =
                if not starve_one then Run.ok r
                else
                  r.Run.r_task_ok
                  && List.for_all
                       (fun i -> i = victim || r.Run.r_output.(i) <> None)
                       (Tasklib.Vectors.participants input)
              in
              if live_ok then incr pass)
            (seeds 10);
          Rec.row
            ~labels:[ ("j", string_of_int j); ("mode", mode) ]
            [ ("pass", jint !pass); ("total", jint !total) ];
          Fmt.pr "  %-6d %-22s %4d/%-3d@." j mode !pass !total)
        [ ("all live", false, 0); ("one starved @40", true, 40) ])
    [ 3; 4 ]

(* ----------------------------------------------------------------- E12 *)

let e12 () =
  header "e12" "Theorem 10 - the task hierarchy";
  let table = Classifier.table ~seeds_per_level:15 ~n:4 () in
  List.iter
    (fun m ->
      Rec.row
        ~labels:[ ("task", m.Classifier.m_task_name) ]
        [
          ( "expected",
            Obs.Json.Str
              (Fmt.str "%a" Registry.pp_expectation m.Classifier.m_expected) );
          ("weakest_fd", Obs.Json.Str m.Classifier.m_weakest_fd);
          ("passes_up_to", jint m.Classifier.m_passes_up_to);
          ( "breaks_at",
            match m.Classifier.m_breaks_at with
            | Some k -> jint k
            | None -> Obs.Json.Null );
          ("consistent", jbool (Classifier.consistent m));
        ])
    table;
  Fmt.pr "%a@.@." Classifier.pp_table table;
  Fmt.pr "  all rows consistent with the paper: %b@."
    (List.for_all Classifier.consistent table)

(* --------------------------------------------------- exhaustive checker *)

(* Replay-from-scratch baseline vs the incremental engine (with and without
   the state-fingerprint memo, and with domain sharding), side by side on
   E-series-style small configurations. The acceptance bar for the
   incremental engine is steps_executed >= 3x lower than the baseline at
   identical verdict and schedule count. *)
let checker () =
  header "checker" "exhaustive engines: replay baseline vs incremental";
  let mk_rt ~n_c ~n_s mem c_code =
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
  in
  (* the acceptance config: safe agreement, n_c=2, n_s=2, depth 8, every *)
  let sa_build () =
    let mem = Memory.create () in
    let sa = Bglib.Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Bglib.Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Bglib.Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    mk_rt ~n_c:2 ~n_s:2 mem c_code
  in
  let sa_prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b ->
      Value.equal a b && (Value.to_int a = 100 || Value.to_int a = 101)
    | Some a, None | None, Some a ->
      let x = Value.to_int a in
      x = 100 || x = 101
    | None, None -> true
  in
  (* a register-race config with three C-processes *)
  let race_build () =
    let mem = Memory.create () in
    let r = Memory.alloc1 mem () in
    let c_code i () =
      Runtime.Op.write r (Value.int i);
      let v = Runtime.Op.read r in
      Runtime.Op.decide v
    in
    mk_rt ~n_c:3 ~n_s:1 mem c_code
  in
  let race_prop rt =
    List.for_all
      (fun i ->
        match Runtime.decision rt i with
        | None -> true
        | Some v -> Value.to_int v >= 0 && Value.to_int v < 3)
      [ 0; 1; 2 ]
  in
  let configs =
    [
      (* symmetry class: the two idle S-processes are interchangeable *)
      ( "safe-agreement n_c=2 n_s=2 d=8",
        sa_build, sa_prop,
        Pid.all ~n_c:2 ~n_s:2, 8, Exhaustive.Every, [ Pid.all_s 2 ] );
      (* the three C-processes write distinct values: no symmetry *)
      ( "register-race n_c=3 d=7",
        race_build, race_prop,
        Pid.all_c 3, 7, Exhaustive.Every, [] );
    ]
  in
  List.iter
    (fun (name, build, prop, pids, depth, mode, symmetry) ->
      Fmt.pr "  %s@." name;
      Fmt.pr "    %-26s %10s %9s %9s %7s %9s %7s %7s %8s@." "engine"
        "schedules" "nodes" "steps" "replays" "memo" "sleep" "orbits" "wall";
      line ();
      let show label (verdict, st) =
        let scheds =
          match verdict with
          | Exhaustive.Ok n -> string_of_int n
          | Exhaustive.Counterexample _ -> "CEX!"
        in
        Rec.row
          ~labels:[ ("config", name); ("engine", label) ]
          [
            ( "schedules",
              match verdict with
              | Exhaustive.Ok n -> jint n
              | Exhaustive.Counterexample _ -> Obs.Json.Null );
            ("counterexample",
             jbool (match verdict with Exhaustive.Counterexample _ -> true | _ -> false));
            ("nodes", jint st.Exhaustive.nodes);
            ("steps_executed", jint st.Exhaustive.steps_executed);
            ("replays", jint st.Exhaustive.replays);
            ("memo_hits", jint st.Exhaustive.memo_hits);
            ("sleep_pruned", jint st.Exhaustive.sleep_pruned);
            ("orbits_collapsed", jint st.Exhaustive.orbits_collapsed);
            ("wall_s", jfloat st.Exhaustive.wall_s);
          ];
        Fmt.pr "    %-26s %10s %9d %9d %7d %9d %7d %7d %7.3fs@." label scheds
          st.Exhaustive.nodes st.Exhaustive.steps_executed
          st.Exhaustive.replays st.Exhaustive.memo_hits
          st.Exhaustive.sleep_pruned st.Exhaustive.orbits_collapsed
          st.Exhaustive.wall_s;
        st
      in
      let base =
        show "replay baseline" (Exhaustive.run_replay ~mode ~build ~pids ~depth ~prop ())
      in
      let _ =
        show "incremental"
          (Exhaustive.run ~memo:false ~mode ~build ~pids ~depth ~prop ())
      in
      let inc =
        show "incremental+memo"
          (Exhaustive.run ~memo:true ~mode ~build ~pids ~depth ~prop ())
      in
      let reduce = { Exhaustive.sleep = true; symmetry } in
      let red =
        show "reduced (sleep+symmetry)"
          (Exhaustive.run ~reduce ~mode ~build ~pids ~depth ~prop ())
      in
      let ratio a b =
        float_of_int a.Exhaustive.steps_executed
        /. float_of_int (max 1 b.Exhaustive.steps_executed)
      in
      let vs_baseline = ratio base inc and vs_memo = ratio inc red in
      Rec.row
        ~labels:[ ("config", name); ("engine", "reduction") ]
        [
          ("step_reduction_vs_baseline", jfloat vs_baseline);
          ("step_reduction_vs_memo", jfloat vs_memo);
        ];
      Fmt.pr "    step reduction: incremental+memo x%.1f vs baseline, \
              reduced x%.1f vs memo@.@."
        vs_baseline vs_memo)
    configs

(* ----------------------------------------------------------- ablations *)

let ablations () =
  header "ablations" "design-choice ablations (DESIGN.md)";

  (* A1: extraction detector member — silent vs churny vector-Omega-k.
     The steered exploration is provably adequate for the silent member;
     for the churny one, pre-stabilization answer races could in principle
     decide every steered branch. Measured: at these parameters the stall
     branches stay undecided for the churny member too. *)
  Fmt.pr "  A1: extraction vs detector member (k=1, n=3, 4 seeds each)@.";
  List.iter
    (fun (label, fd) ->
      let okc = ref 0 in
      List.iter
        (fun seed ->
          let n = 3 and k = 1 in
          let pattern = Failure.failure_free 3 in
          let task = Set_agreement.make ~n ~k () in
          let algo = Ksa.make ~max_rounds:128 ~k () in
          let rng = Random.State.make [| seed |] in
          let inputs = Task.sample_input task rng in
          let result =
            Extraction.run ~outer_budget:12_000 ~sample_period:400
              ~explore_budget:2_500 ~max_samples:200 ~k ~fd ~algo ~inputs
              ~n_c:n ~pattern ~seed ()
          in
          if
            Fdlib.Props.anti_omega_k_ok pattern result.Extraction.x_outputs ~k
              ~suffix:3_000
          then incr okc)
        (seeds 4);
      Fmt.pr "      %-28s property holds in %d/4 runs@." label !okc)
    [
      ("silent vector-Omega-1", Fdlib.Leader_fds.vector_omega_k_silent ~max_stab:25 ~k:1 ());
      ("churny vector-Omega-1", Fdlib.Leader_fds.vector_omega_k ~max_stab:25 ~k:1 ());
    ];

  (* A2: witness search vs schedule mode. For j = 2 the violating conflict
     occurs even in lockstep; for j = 3 the violation needs a donor stalled
     mid-protocol — near-lockstep rounds cannot produce it at all. *)
  Fmt.pr "@.  A2: strong j-renaming witness rate vs schedule mode (200 seeds)@.";
  List.iter
    (fun j ->
      List.iter
        (fun (label, policy) ->
          let found = ref 0 in
          List.iter
            (fun seed ->
              match
                Adversary.search ~policy
                  ~task:(Renaming.strong ~n:5 ~j)
                  ~algo:(Renaming_algos.fig4 ())
                  ~fd:Fdlib.Fd.trivial
                  ~env:(Failure.crash_free 1)
                  ~seeds:[ seed ] ()
              with
              | Some _ -> incr found
              | None -> ())
            (seeds 200);
          Fmt.pr "      j=%d %-28s %d/200 seeds yield a witness@." j label !found)
        [
          ("rounds (near-lockstep)", Run.k_concurrent_policy 2);
          ("uniform (can stall)", Run.k_concurrent_uniform_policy 2);
        ])
    [ 2; 3 ];

  (* A3: snapshot primitive vs the honest Afek-style construction —
     steps for one update+scan by each of n processes, fair schedule. *)
  Fmt.pr "@.  A3: snapshot primitive vs honest construction (steps to finish)@.";
  List.iter
    (fun n ->
      let run_with honest =
        let mem = Memory.create () in
        let h = Snapshot.create mem ~n in
        let plain = Memory.alloc mem n in
        let c_code i () =
          if honest then begin
            Snapshot.update h i (Value.int i);
            ignore (Snapshot.scan h)
          end
          else begin
            Runtime.Op.write plain.(i) (Value.int i);
            ignore (Runtime.Op.snapshot plain)
          end;
          Runtime.Op.decide Value.unit
        in
        let rt =
          Runtime.create
            {
              Runtime.n_c = n;
              n_s = 1;
              memory = mem;
              pattern = Failure.failure_free 1;
              history = History.trivial;
              record_trace = false;
            }
            ~c_code
            ~s_code:(fun _ () -> ())
        in
        let rng = Random.State.make [| 5 |] in
        let o =
          Schedule.run rt (Schedule.shuffled_rounds ~n_c:n ~n_s:1 rng)
            ~budget:500_000
        in
        Runtime.destroy rt;
        o.Schedule.total_steps
      in
      Fmt.pr "      n=%-3d primitive %6d steps, honest %6d steps (x%.1f)@." n
        (run_with false) (run_with true)
        (float_of_int (run_with true) /. float_of_int (max 1 (run_with false))))
    [ 2; 4; 8 ];

  (* A5: resilience vs advice — Chandra-Toueg over message passing with
     <>S needs a majority of correct S-processes; the Omega solvers
     survive n-1 crashes. *)
  Fmt.pr "@.  A5: consensus resilience vs advice (n=5, 8 seeds)@.";
  List.iter
    (fun (label, algo, fd, t) ->
      let task = Set_agreement.make ~n:5 ~k:1 () in
      let batch =
        run_batch ~budget:600_000 ~task ~algo ~fd
          ~env:(Failure.e_t ~n_s:5 ~t)
          ~n_seeds:8 ()
      in
      Fmt.pr "      %-34s %a steps@." label pp_batch batch)
    [
      ( "CT <>S (majority, t=2)",
        Ct_consensus.make (),
        Fdlib.Classic.eventually_strong ~max_stab:50 (),
        2 );
      ( "Ksa Omega (wait-free, t=4)",
        Ksa.consensus (),
        Fdlib.Leader_fds.omega ~max_stab:50 (),
        4 );
      ( "Paxos Omega (wait-free, t=4)",
        Paxos_consensus.make (),
        Fdlib.Leader_fds.omega ~max_stab:50 (),
        4 );
    ];

  (* A4: the distributed Omega <= <>S emulation (the §2.2 reduction
     machinery exercised end to end) *)
  Fmt.pr "@.  A4: distributed reduction Omega <= <>S (property on suffix)@.";
  List.iter
    (fun (label, pattern) ->
      let result =
        Emulation.run ~budget:30_000
          ~fd:(Fdlib.Classic.eventually_strong ~max_stab:60 ())
          ~pattern ~seed:3 Emulation.omega_from_eventually_strong
      in
      Fmt.pr "      %-28s omega-property %b@." label
        (Fdlib.Props.omega_ok pattern result.Emulation.em_outputs ~suffix:4_000))
    [
      ("failure-free (n=4)", Failure.failure_free 4);
      ("q1 crashed at 0", Failure.pattern ~n_s:4 [ (0, 0) ]);
      ("two staggered crashes", Failure.pattern ~n_s:4 [ (1, 100); (3, 30) ]);
    ]

(* Distributed model checking (lib/dist, DESIGN.md §6): the deep-check
   config (safe-agreement, depth 10, n_s 2, --reduce) fanned out over
   in-process TCP worker fleets of 1/2/4 servers. Every fleet size must
   reproduce the single-process verdict and credited count exactly; the
   4v1 row carries the scaling claim. *)

let dist_bench () =
  header "dist" "distributed model check: subtree jobs/s vs fleet size";
  let cores = Domain.recommended_domain_count () in
  Rec.meta "cores" (jint cores);
  let depth = 10 and n_s = 2 in
  let expected = 1_048_576 (* 4^10: credited count is reduction-invariant *) in
  let sc =
    match Mcheck.Scenario.find "safe-agreement" ~n_s with
    | Stdlib.Ok sc -> sc
    | Stdlib.Error e -> failwith e
  in
  Fmt.pr "  safe-agreement, depth %d, n_s %d, reduce (split depth %d):@."
    depth n_s
    (Dist.Coordinator.default_split_depth ~depth);
  Fmt.pr "  %-10s %8s %8s %8s %10s %12s@." "workers" "used" "jobs" "redisp"
    "wall" "subtrees/s";
  line ();
  let fleet_run requested =
    (* server pools beyond the hardware measure domain thrash, not
       distribution *)
    let used = max 1 (min requested cores) in
    let fleet =
      List.init used (fun _ ->
          Svc.Server.start
            {
              (Svc.Server.default_config
                 ~listen:(Svc.Addr.Tcp ("127.0.0.1", 0)))
              with
              Svc.Server.workers = 1;
              shards = 1;
            })
    in
    let workers =
      List.map (fun t -> Svc.Addr.to_string (Svc.Server.listen_addr t)) fleet
    in
    (* best-of-3: one coordinator run is ~64 pipelined RPCs, so a single
       descheduling blip distorts the rate *)
    let best = ref infinity and jobs = ref 0 and redisp = ref 0 in
    for _ = 1 to 3 do
      let sp = Obs.Span.start () in
      let rep =
        match
          Dist.Coordinator.run ~reduce:true ~scenario:sc ~depth ~workers ()
        with
        | Stdlib.Ok r -> r
        | Stdlib.Error e -> failwith e
      in
      let wall = Obs.Span.elapsed_s sp in
      (match rep.Dist.Coordinator.r_verdict with
      | Exhaustive.Ok n -> assert (n = expected)
      | Exhaustive.Counterexample _ -> assert false);
      jobs := rep.Dist.Coordinator.r_jobs;
      redisp := rep.Dist.Coordinator.r_redispatched;
      if wall < !best then best := wall
    done;
    List.iter Svc.Server.shutdown fleet;
    List.iter Svc.Server.wait fleet;
    let rate = float_of_int !jobs /. Float.max 1e-9 !best in
    Rec.row
      ~labels:[ ("scenario", "safe-agreement"); ("workers", string_of_int requested) ]
      [
        ("workers_used", jint used);
        ("depth", jint depth);
        ("jobs", jint !jobs);
        ("schedules", jint expected);
        ("redispatched", jint !redisp);
        ("wall_s", jfloat !best);
        ("subtrees_per_s", jfloat rate);
      ];
    Fmt.pr "  %-10d %8d %8d %8d %9.3fs %12.0f@." requested used !jobs !redisp
      !best rate;
    rate
  in
  let r1 = fleet_run 1 in
  let _r2 = fleet_run 2 in
  let r4 = fleet_run 4 in
  let speedup = r4 /. Float.max 1e-9 r1 in
  Rec.row
    ~labels:[ ("scenario", "safe-agreement"); ("workers", "4v1") ]
    [ ("speedup_vs_1_worker", jfloat speedup) ];
  Fmt.pr "  %-10s %8s %8s %8s %10s %11.2fx@." "4v1" "" "" "" "" speedup;
  (* the scaling gate holds only where 4 worker pools get 4 cores; on
     smaller hosts the clamped fleets share hardware and the row is
     informational *)
  if cores >= 4 then assert (speedup >= 2.5)

(* Checkpoint overhead and resume (lib/ckpt, DESIGN.md §8) on the depth-8
   CI anchor: the journaling engine vs the plain one — the <10% overhead
   claim as an assertion — plus a kill-at-half-way resume row showing the
   second half is all that gets re-run. *)

let ckpt_bench () =
  header "ckpt" "checkpoint: journaling overhead and resume, depth-8 anchor";
  let depth = 8 and n_s = 3 in
  let expected = 390_625 (* 5^8: credited count is reduction-invariant *) in
  let sc =
    match Mcheck.Scenario.find "safe-agreement" ~n_s with
    | Stdlib.Ok sc -> sc
    | Stdlib.Error e -> failwith e
  in
  let split_depth = Ckpt.Ledger.default_split_depth ~depth in
  let build = sc.Mcheck.Scenario.sc_build in
  let pids = sc.Mcheck.Scenario.sc_pids in
  let prop = sc.Mcheck.Scenario.sc_prop in
  let credited = function
    | Exhaustive.Ok n -> assert (n = expected)
    | Exhaustive.Counterexample _ -> assert false
  in
  let time f =
    let sp = Obs.Span.start () in
    f ();
    Obs.Span.elapsed_s sp
  in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let w = time f in
      if w < !best then best := w
    done;
    !best
  in
  let tmp_store () =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wfa-bench-ckpt-%d-%d" (Unix.getpid ())
           (int_of_float (Unix.gettimeofday () *. 1e6) land 0xffffff))
    in
    match Ckpt.Store.create dir with
    | Stdlib.Ok s -> s
    | Stdlib.Error e -> failwith e
  in
  let rm_store store =
    let dir = Ckpt.Store.dir store in
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fmt.pr "  safe-agreement, depth %d, n_s %d, split depth %d:@." depth n_s
    split_depth;
  Fmt.pr "  %-28s %10s@." "engine" "wall";
  line ();
  (* context row: the monolithic DFS with its cross-tree memo — faster
     than any partitioned engine, but it cannot checkpoint (or fan out) *)
  let monolithic =
    best_of (fun () ->
        let verdict, _ = Exhaustive.run ~build ~pids ~depth ~prop () in
        credited verdict)
  in
  Fmt.pr "  %-28s %9.3fs@." "monolithic DFS (context)" monolithic;
  (* the no-checkpoint baseline: the SAME split engine Ckpt.Local runs
     (jobs in DFS order, a private memo each), minus the journal — so the
     overhead row below isolates what the checkpoint subsystem itself
     costs *)
  let run_split_plain () =
    let fr = Exhaustive.split ~build ~pids ~depth ~split_depth ~prop () in
    let verdict, _ =
      Exhaustive.merge_frontier ~pids fr
        (List.map
           (Exhaustive.run_subtree ~build ~pids ~depth ~prop)
           fr.Exhaustive.fr_jobs)
    in
    credited verdict
  in
  (* default interval: a sub-second depth-8 run journals the initial and
     final generations only — the steady-state cost of running under
     --checkpoint, not a fsync-per-second stress test. Store setup and
     teardown stay outside the timers (the row measures what journaling
     adds to a run), and reusing one store across reps also exercises
     steady-state generation pruning. The two engines are timed in
     interleaved pairs, and the overhead is the median of the pairs'
     ratios: load drift on the host lands on both runs of a pair, and a
     pair that a burst of it hit lands in the median's tail. *)
  let store = tmp_store () in
  let run_checkpointed () =
    match Ckpt.Local.run ~store ~scenario:sc ~depth () with
    | Stdlib.Ok (verdict, _) -> credited verdict
    | Stdlib.Error e -> failwith e
  in
  let pairs =
    List.init 15 (fun _ ->
        let plain = time run_split_plain in
        (plain, time run_checkpointed))
  in
  rm_store store;
  let median xs =
    let xs = Array.of_list xs in
    Array.sort compare xs;
    xs.(Array.length xs / 2)
  in
  let split_plain = median (List.map fst pairs)
  and checkpointed = median (List.map snd pairs) in
  Fmt.pr "  %-28s %9.3fs  (median of %d)@." "split engine, no journal"
    split_plain (List.length pairs);
  let overhead =
    median (List.map (fun (p, c) -> c /. Float.max 1e-9 p) pairs) -. 1.
  in
  Fmt.pr "  %-28s %9.3fs  (%+.1f%% vs no-journal, median pair)@."
    "checkpointed" checkpointed (100. *. overhead);
  Rec.row
    ~labels:[ ("scenario", "safe-agreement"); ("engine", "monolithic") ]
    [ ("depth", jint depth); ("schedules", jint expected);
      ("wall_s", jfloat monolithic) ];
  Rec.row
    ~labels:[ ("scenario", "safe-agreement"); ("engine", "split-no-journal") ]
    [ ("depth", jint depth); ("schedules", jint expected);
      ("split_depth", jint split_depth); ("wall_s", jfloat split_plain);
      ("schedules_per_s", jfloat (float_of_int expected /. split_plain)) ];
  Rec.row
    ~labels:[ ("scenario", "safe-agreement"); ("engine", "checkpointed") ]
    [ ("depth", jint depth); ("schedules", jint expected);
      ("split_depth", jint split_depth); ("wall_s", jfloat checkpointed);
      ("schedules_per_s", jfloat (float_of_int expected /. checkpointed));
      ("overhead_vs_plain", jfloat overhead) ];
  (* kill at half the no-journal wall-clock, resume, and the two legs must
     reproduce the uninterrupted verdict and credited count *)
  let store = tmp_store () in
  let started = Obs.Clock.now_ns () in
  let cancel () = Obs.Clock.elapsed_s ~since:started > split_plain /. 2. in
  let first_leg = Obs.Span.start () in
  let killed =
    match Ckpt.Local.run ~cancel ~store ~scenario:sc ~depth () with
    | exception Exhaustive.Cancelled -> true
    | Stdlib.Ok (verdict, _) ->
      (* too fast to interrupt on this host: still a valid (degenerate)
         resume row — everything is already done *)
      credited verdict;
      false
    | Stdlib.Error e -> failwith e
  in
  let first_leg = Obs.Span.elapsed_s first_leg in
  let resume_leg = Obs.Span.start () in
  (match
     Result.bind (Ckpt.Local.load_record store) (fun (_, resume) ->
         Ckpt.Local.run ~resume ~store ~scenario:sc ~depth ())
   with
  | Stdlib.Ok (verdict, _) -> credited verdict
  | Stdlib.Error e -> failwith e);
  let resume_leg = Obs.Span.elapsed_s resume_leg in
  rm_store store;
  Fmt.pr "  %-28s %9.3fs  (first leg %.3fs, killed: %b)@."
    "resume-half-way" resume_leg first_leg killed;
  Rec.row
    ~labels:[ ("scenario", "safe-agreement"); ("engine", "resume-half-way") ]
    [ ("depth", jint depth); ("schedules", jint expected);
      ("first_leg_wall_s", jfloat first_leg);
      ("resume_wall_s", jfloat resume_leg);
      ("killed_mid_run", Obs.Json.Bool killed) ];
  (* the tentpole's overhead gate: journaling a deep run costs < 10% *)
  assert (overhead < 0.10)

(* -------------------------------------------------------------- driver *)

let all : (string * (unit -> unit)) list =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("ablations", ablations); ("checker", checker);
    ("dist", dist_bench); ("ckpt", ckpt_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    List.filter
      (fun a ->
        if a = "--record" then begin
          recording := true;
          false
        end
        else true)
      args
  in
  let requested = match args with [] -> List.map fst all | ids -> ids in
  (* a misspelt name fails before anything runs, so a scripted list of
     experiments cannot silently skip one *)
  List.iter
    (fun id ->
      if not (List.mem_assoc id all) then begin
        Fmt.epr "unknown experiment %S (known: %s)@." id
          (String.concat " " (List.map fst all));
        exit 2
      end)
    requested;
  Fmt.pr "Wait-Freedom with Advice - experiment harness@.";
  List.iter
    (fun id ->
      (List.assoc id all) ();
      Rec.finish ())
    requested
