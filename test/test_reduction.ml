(* The reduction layers of the exhaustive checker, proven differentially:
   sleep-set partial-order reduction and symmetry reduction must change how
   much work the checker does, and nothing else — same verdict, same exact
   schedule count, same counterexample as the unreduced search. Plus direct
   soundness checks on the two ingredients: the independence relation
   (commuting adjacent independent steps preserves final digests) and the
   orbit accounting (canonical representatives weighted by orbit size
   partition the full schedule space). *)

open Simkit

let check_bool = Alcotest.(check bool)
let verdict_str = Test_exhaustive.verdict_str
let mk_ns = Test_exhaustive.mk_ns

let s_class n_s = [ Pid.all_s n_s ]

(* --- the differential battery --- *)

let assert_engines_agree ~label ~build ~pids ~depth ~mode ~prop ~reduce =
  let oracle, _ = Exhaustive.run_replay ~mode ~build ~pids ~depth ~prop () in
  List.iter
    (fun (variant, run) ->
      let v, _ = run () in
      Alcotest.(check string) (label ^ " " ^ variant) (verdict_str oracle)
        (verdict_str v))
    [
      ( "memo",
        fun () -> Exhaustive.run ~mode ~build ~pids ~depth ~prop () );
      ( "reduced",
        fun () -> Exhaustive.run ~reduce ~mode ~build ~pids ~depth ~prop () );
    ]

let test_differential_safe_agreement () =
  let build () =
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
    mk_ns ~n_c:2 ~n_s:2 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  assert_engines_agree ~label:"safe-agreement" ~build
    ~pids:(Pid.all ~n_c:2 ~n_s:2) ~depth:6 ~mode:Exhaustive.Every ~prop
    ~reduce:{ Exhaustive.sleep = true; symmetry = s_class 2 }

let test_differential_commit_adopt () =
  (* outcome encoded into the decision value (2v + commit-bit) so the
     property is a pure state function, as the memo requires. *)
  let build () =
    let mem = Memory.create () in
    let ca = Bglib.Commit_adopt.create mem ~n:2 in
    let c_code i () =
      let o = Bglib.Commit_adopt.run ca ~me:i (Value.int i) in
      let v = Value.to_int (Bglib.Commit_adopt.outcome_value o) in
      let bit = match o with Bglib.Commit_adopt.Commit _ -> 1 | _ -> 0 in
      Runtime.Op.decide (Value.int ((2 * v) + bit))
    in
    mk_ns ~n_c:2 ~n_s:1 mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b ->
      let a = Value.to_int a and b = Value.to_int b in
      if a land 1 = 1 || b land 1 = 1 then a asr 1 = b asr 1 else true
    | _ -> true
  in
  assert_engines_agree ~label:"commit-adopt" ~build ~pids:(Pid.all_c 2)
    ~depth:7 ~mode:Exhaustive.Final ~prop
    ~reduce:{ Exhaustive.sleep = true; symmetry = [] }

let trivial_nsa_build ?obs ~pattern () =
  let mem = Memory.create () in
  let input_regs = Memory.alloc mem 2 in
  let ctx = { Efd.Algorithm.mem; n_c = 2; n_s = 2; input_regs } in
  let inst = (Efd.Trivial_nsa.make ()).Efd.Algorithm.make ctx in
  let c_code i () =
    Runtime.Op.write input_regs.(i) (Value.int (1 + i));
    inst.Efd.Algorithm.c_run i (Value.int (1 + i))
  in
  let s_code i () = inst.Efd.Algorithm.s_run i in
  Runtime.create ?obs
    {
      Runtime.n_c = 2;
      n_s = 2;
      memory = mem;
      pattern;
      history = History.trivial;
      record_trace = false;
    }
    ~c_code ~s_code

let trivial_nsa_prop rt =
  List.for_all
    (fun i ->
      match Runtime.decision rt i with
      | None -> true
      | Some v -> Value.to_int v = 1 || Value.to_int v = 2)
    [ 0; 1 ]

let test_differential_trivial_nsa () =
  assert_engines_agree ~label:"trivial-nsa"
    ~build:(trivial_nsa_build ~pattern:(Failure.failure_free 2))
    ~pids:(Pid.all ~n_c:2 ~n_s:2) ~depth:6 ~mode:Exhaustive.Every
    ~prop:trivial_nsa_prop
    ~reduce:{ Exhaustive.sleep = true; symmetry = s_class 2 }

let ct_consensus_build ?obs ~pattern () =
  let history =
    Fdlib.Fd.draw (Fdlib.Classic.eventually_strong ~max_stab:4 ()) pattern
      ~seed:1
  in
  fun () ->
    let mem = Memory.create () in
    let input_regs = Memory.alloc mem 2 in
    let ctx = { Efd.Algorithm.mem; n_c = 2; n_s = 2; input_regs } in
    let inst = (Efd.Ct_consensus.make ()).Efd.Algorithm.make ctx in
    let c_code i () =
      Runtime.Op.write input_regs.(i) (Value.int (10 + i));
      inst.Efd.Algorithm.c_run i (Value.int (10 + i))
    in
    let s_code i () = inst.Efd.Algorithm.s_run i in
    Runtime.create ?obs
      {
        Runtime.n_c = 2;
        n_s = 2;
        memory = mem;
        pattern;
        history;
        record_trace = false;
      }
      ~c_code ~s_code

let agreement_prop rt =
  match (Runtime.decision rt 0, Runtime.decision rt 1) with
  | Some a, Some b -> Value.equal a b
  | _ -> true

let test_differential_ct_consensus () =
  (* FD queries and S-code that distinguishes indices: no symmetry class
     applies and queries are never commuted ([F_timedep]) — the battery
     checks sleep pruning stays sound in the presence of advice. *)
  assert_engines_agree ~label:"ct-consensus"
    ~build:(ct_consensus_build ~pattern:(Failure.failure_free 2) ())
    ~pids:(Pid.all ~n_c:2 ~n_s:2) ~depth:5 ~mode:Exhaustive.Every
    ~prop:agreement_prop
    ~reduce:{ Exhaustive.sleep = true; symmetry = [] }

(* q2 crashes at time 2, inside the depth: from there on each of its moves
   is null, taken on the node's runtime and taken back by the engines, with
   its operation parked when it had started and refused while it is Fresh.
   The crash breaks the S-processes' symmetry, so only sleep sets reduce.

   A runtime built with an obs hook refuses every null move, so the same
   search on hooked runtimes is the search without probes. Probing may move
   steps, replays and builds only: verdicts, nodes, memo hits, sleep-pruned
   and orbits must match it exactly, which a probe that left the live
   runtime changed would break. *)
let test_differential_crash () =
  let pattern = Failure.pattern ~n_s:2 [ (1, 2) ] in
  let pids = Pid.all ~n_c:2 ~n_s:2 in
  let reduce = { Exhaustive.sleep = true; symmetry = [] } in
  let hook =
    {
      Runtime.on_sched = (fun _ ~time:_ -> ());
      on_event = (fun _ ~time:_ _ -> ());
    }
  in
  let effort (v, st) =
    Fmt.str "%s nodes %d hits %d sleep %d orbits %d" (verdict_str v)
      st.Exhaustive.nodes st.Exhaustive.memo_hits st.Exhaustive.sleep_pruned
      st.Exhaustive.orbits_collapsed
  in
  List.iter
    (fun (label, build, depth, prop) ->
      List.iter
        (fun mode ->
          assert_engines_agree ~label ~build:(build None) ~pids ~depth ~mode
            ~prop ~reduce;
          List.iter
            (fun (variant, reduce) ->
              let run obs =
                Exhaustive.run ?reduce ~mode ~build:(build obs) ~pids ~depth
                  ~prop ()
              in
              let probed = run None and unprobed = run (Some hook) in
              Alcotest.(check string)
                (label ^ " " ^ variant ^ ": same search without probes")
                (effort unprobed) (effort probed);
              check_bool
                (label ^ " " ^ variant ^ ": probes save replays")
                true
                ((snd probed).Exhaustive.replays
                < (snd unprobed).Exhaustive.replays))
            [ ("memo", None); ("reduced", Some reduce) ])
        [ Exhaustive.Every; Exhaustive.Final ])
    [
      ( "trivial-nsa, q2 crashes",
        (fun obs -> trivial_nsa_build ?obs ~pattern),
        6,
        trivial_nsa_prop );
      ( "ct-consensus, q2 crashes",
        (fun obs -> ct_consensus_build ?obs ~pattern ()),
        5,
        agreement_prop );
    ]

let test_differential_violation () =
  (* Seeded violation: the race config under the deliberately false claim.
     All three engines must report the identical (lex-least) schedule. *)
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:1 in
  let prop = Test_exhaustive.race_prop_false in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let reduce = { Exhaustive.sleep = true; symmetry = [] } in
  let oracle, _ = Exhaustive.run_replay ~build ~pids ~depth:6 ~prop () in
  (match oracle with
  | Exhaustive.Counterexample _ -> ()
  | Exhaustive.Ok _ -> Alcotest.fail "expected a counterexample");
  List.iter
    (fun (variant, run) ->
      let v, _ = run () in
      Alcotest.(check string) ("violation " ^ variant) (verdict_str oracle)
        (verdict_str v))
    [
      ("memo", fun () -> Exhaustive.run ~build ~pids ~depth:6 ~prop ());
      ( "reduced",
        fun () -> Exhaustive.run ~reduce ~build ~pids ~depth:6 ~prop () );
    ]

(* --- independence soundness: commuting adjacent independent steps
       preserves the final digest --- *)

let indep_build ~n_c ~n_s () =
  let mem = Memory.create () in
  let regs = Memory.alloc mem n_c in
  let c_code i () =
    Runtime.Op.write regs.(i) (Value.int i);
    let v = Runtime.Op.read regs.((i + 1) mod n_c) in
    Runtime.Op.decide v
  in
  mk_ns ~n_c ~n_s mem c_code

(* Keys compare within one context: the runtimes a test compares share
   [keys]. *)
let run_digest keys build sched =
  let rt = build () in
  Runtime.attach rt keys;
  List.iter (Runtime.step rt) sched;
  let d = Runtime.digest rt in
  Runtime.destroy rt;
  d

let swap_at k l =
  let rec go k = function
    | a :: b :: rest when k = 0 -> b :: a :: rest
    | a :: rest -> a :: go (k - 1) rest
    | [] -> []
  in
  go k l

let prop_independent_swap =
  QCheck.Test.make
    ~name:"swapping adjacent independent steps preserves the final digest"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 10) (int_range 0 3))
        (int_range 0 1000))
    (fun (idxs, at) ->
      let pids = Array.of_list (Pid.all ~n_c:3 ~n_s:1) in
      let build = indep_build ~n_c:3 ~n_s:1 in
      let sched = List.map (fun i -> pids.(i)) idxs in
      let at = at mod (List.length sched - 1) in
      let p = List.nth sched at and q = List.nth sched (at + 1) in
      let prefix = List.filteri (fun i _ -> i < at) sched in
      (* independence judged at the state where the pair is about to run *)
      let rt = build () in
      List.iter (Runtime.step rt) prefix;
      let indep = Runtime.independent rt p q in
      Runtime.destroy rt;
      if not indep then QCheck.assume_fail ()
      else
        let keys = Keys.create () in
        run_digest keys build sched = run_digest keys build (swap_at at sched))

let test_dependent_swap_differs () =
  (* Negative control: two writes to the same register are dependent, and
     swapping them is visible in the final state. *)
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:1 in
  let rt = build () in
  check_bool "write/write same register is dependent" false
    (Runtime.independent rt (Pid.c 0) (Pid.c 1));
  check_bool "a pid is never independent of itself" false
    (Runtime.independent rt (Pid.c 0) (Pid.c 0));
  Runtime.destroy rt;
  let keys = Keys.create () in
  check_bool "dependent swap reaches a different state" false
    (run_digest keys build [ Pid.c 0; Pid.c 1 ]
    = run_digest keys build [ Pid.c 1; Pid.c 0 ])

(* --- orbit accounting: canonical representatives weighted by orbit size
       partition the full schedule space --- *)

let test_orbit_partition () =
  let pids = [ Pid.c 0; Pid.s 0; Pid.s 1; Pid.s 2 ] in
  let classes = [ Pid.all_s 3 ] in
  let depth = 4 in
  let rec schedules d =
    if d = 0 then [ [] ]
    else
      List.concat_map (fun s -> List.map (fun p -> p :: s) pids)
        (schedules (d - 1))
  in
  let all = schedules depth in
  Alcotest.(check int) "full space" (4 * 4 * 4 * 4) (List.length all);
  let canonical =
    List.filter (fun s -> Schedule.canonicalize ~classes s = s) all
  in
  (* canonicalize lands on a canonical representative and is idempotent *)
  List.iter
    (fun s ->
      let c = Schedule.canonicalize ~classes s in
      check_bool "canonicalize is canonical" true
        (Schedule.canonicalize ~classes c = c))
    all;
  (* weighted representatives cover the space exactly once *)
  let covered =
    List.fold_left
      (fun n s -> n + Schedule.orbit_size ~classes s)
      0 canonical
  in
  Alcotest.(check int) "sum of orbit sizes over canonical reps"
    (List.length all) covered;
  (* orbit size is constant on an orbit *)
  List.iter
    (fun s ->
      Alcotest.(check int) "orbit size invariant under canonicalization"
        (Schedule.orbit_size ~classes (Schedule.canonicalize ~classes s))
        (Schedule.orbit_size ~classes s))
    all

(* --- reduction layers report their work and reject bad classes --- *)

let test_reduction_stats_and_validation () =
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:2 in
  let prop = Test_exhaustive.race_prop_valid ~n_c:2 in
  let pids = Pid.all ~n_c:2 ~n_s:2 in
  let v, st =
    Exhaustive.run
      ~reduce:{ Exhaustive.sleep = true; symmetry = s_class 2 }
      ~build ~pids ~depth:5 ~prop ()
  in
  (match v with
  | Exhaustive.Ok n -> Alcotest.(check int) "count stays exact" 1024 n
  | Exhaustive.Counterexample _ -> Alcotest.fail "unexpected counterexample");
  check_bool "sleep sets fired" true (st.Exhaustive.sleep_pruned > 0);
  check_bool "orbits collapsed" true (st.Exhaustive.orbits_collapsed > 0);
  (* ~reduce:no_reduction is the unreduced engine *)
  let v', st' =
    Exhaustive.run ~reduce:Exhaustive.no_reduction ~build ~pids ~depth:5
      ~prop ()
  in
  Alcotest.(check string) "no_reduction = plain engine" (verdict_str v)
    (verdict_str v');
  Alcotest.(check int) "no_reduction prunes nothing" 0
    (st'.Exhaustive.sleep_pruned + st'.Exhaustive.orbits_collapsed);
  (* ... and never peeks: a process nobody has scheduled is still Fresh *)
  let unpeeked rt =
    List.for_all
      (fun p ->
        Runtime.sched_count rt p > 0 || Runtime.status rt p = Runtime.Fresh)
      pids
  in
  Alcotest.(check string) "no_reduction never peeks" "Ok 1024"
    (verdict_str
       (fst
          (Exhaustive.run ~reduce:Exhaustive.no_reduction ~build ~pids
             ~depth:5 ~prop:unpeeked ())));
  let rejects r =
    match Exhaustive.run ~reduce:r ~build ~pids ~depth:2 ~prop () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "foreign pid rejected" true
    (rejects { Exhaustive.sleep = false; symmetry = [ [ Pid.s 7 ] ] });
  check_bool "overlapping classes rejected" true
    (rejects
       {
         Exhaustive.sleep = false;
         symmetry = [ [ Pid.s 0; Pid.s 1 ]; [ Pid.s 1 ] ];
       })

(* Sleep masks are one int, a bit per pid: a reduced search over more pids
   than an int has bits is refused before any step, and the widest one
   accepted still finds the seeded violation the 4-pid search finds. *)
let test_sleep_mask_width () =
  let reduced n_s =
    match Mcheck.Scenario.find "race-false" ~n_s with
    | Error e -> Alcotest.fail e
    | Ok sc ->
      fst
        (Exhaustive.run
           ?reduce:(Mcheck.Scenario.reduction sc ~reduce:true)
           ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
           ~depth:6 ~prop:sc.Mcheck.Scenario.sc_prop ())
  in
  Alcotest.(check string)
    (Printf.sprintf "%d pids: the 4-pid counterexample" Sys.int_size)
    (verdict_str (reduced 2))
    (verdict_str (reduced (Sys.int_size - 2)));
  List.iter
    (fun n_s ->
      check_bool
        (Printf.sprintf "%d pids refused" (n_s + 2))
        true
        (match reduced n_s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ Sys.int_size - 1; Sys.int_size ]

(* --- random programs: the memo under sleep sets --- *)

(* A random small program: 2-3 C-processes and 1-2 S-processes, each
   running 1-3 reads or writes over 2 registers with constants from
   {21395, 35553, 1} (the first two collide under a 30-bit hash). A
   C-process then decides the last value it read (unit if none); the
   property forbids one C-process one decision. Different processes touch
   the registers in different orders, so under sleep sets one state is
   reached with different masks and the memo hits across them, which the
   fixed scenarios never do. *)
type rop = Rd of int | Wr of int * int

type program = {
  n_c : int;
  n_s : int;
  code : rop list array;  (* C-processes, then S-processes *)
  depth : int;
  forbid : int * Value.t;  (* p_i must not decide v *)
}

let consts = [| 21395; 35553; 1 |]

let gen_program =
  let open QCheck.Gen in
  let* n_c = int_range 2 3 in
  let* n_s = int_range 1 2 in
  let rop =
    let* r = int_bound 1 in
    let* w = bool in
    if w then map (fun c -> Wr (r, consts.(c))) (int_bound 2) else return (Rd r)
  in
  let* code = array_repeat (n_c + n_s) (list_size (int_range 1 3) rop) in
  let* depth = int_range 4 7 in
  let* i = int_bound (n_c - 1) in
  let* v = oneofl (Value.unit :: Array.to_list (Array.map Value.int consts)) in
  return { n_c; n_s; code; depth; forbid = (i, v) }

let print_program p =
  let rop = function
    | Rd r -> Printf.sprintf "read r%d" r
    | Wr (r, c) -> Printf.sprintf "write r%d %d" r c
  in
  Printf.sprintf "%s; depth %d; p%d must not decide %s"
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun j ops ->
               Printf.sprintf "%s: %s"
                 (Pid.to_string
                    (if j < p.n_c then Pid.c j else Pid.s (j - p.n_c)))
                 (String.concat ", " (List.map rop ops)))
             p.code)))
    p.depth (fst p.forbid + 1)
    (Value.to_string (snd p.forbid))

let program_build p () =
  let mem = Memory.create () in
  let regs = Memory.alloc mem 2 in
  let run ops =
    List.fold_left
      (fun last op ->
        match op with
        | Rd r -> Runtime.Op.read regs.(r)
        | Wr (r, c) ->
          Runtime.Op.write regs.(r) (Value.int c);
          last)
      Value.unit ops
  in
  Runtime.create
    {
      Runtime.n_c = p.n_c;
      n_s = p.n_s;
      memory = mem;
      pattern = Failure.failure_free p.n_s;
      history = History.trivial;
      record_trace = false;
    }
    ~c_code:(fun i () -> Runtime.Op.decide (run p.code.(i)))
    ~s_code:(fun i () -> ignore (run p.code.(p.n_c + i)))

let program_prop p rt =
  let i, v = p.forbid in
  match Runtime.decision rt i with
  | Some d -> not (Value.equal d v)
  | None -> true

(* Deeper programs of five processes take run_replay seconds: the depth
   drawn is lowered until the tree holds at most 5^6 schedules. *)
let program_depth p =
  let pids = p.n_c + p.n_s in
  let rec schedules d = if d = 0 then 1 else pids * schedules (d - 1) in
  let rec fit d = if d > 4 && schedules d > 15625 then fit (d - 1) else d in
  fit p.depth

let sleep_only = { Exhaustive.sleep = true; symmetry = [] }

(* split at depth 2, every job on one shared table, in DFS order *)
let split_shared ?reduce ~build ~pids ~depth ~prop () =
  Test_dist.shared_run ?reduce ~order:Fun.id ~tables:1 ~build ~pids ~depth
    ~split_depth:2 ~prop ()

let prop_programs_agree =
  QCheck.Test.make
    ~name:"random programs: every engine matches run_replay" ~count:200
    (QCheck.make ~print:print_program gen_program)
    (fun p ->
      let build = program_build p and prop = program_prop p in
      let pids = Pid.all ~n_c:p.n_c ~n_s:p.n_s and depth = program_depth p in
      let want =
        verdict_str
          (fst (Exhaustive.run_replay ~build ~pids ~depth ~prop ()))
      in
      List.for_all
        (fun (what, (v, _)) ->
          verdict_str v = want
          || QCheck.Test.fail_reportf "%s: %s, run_replay: %s" what
               (verdict_str v) want)
        [
          ("memo", Exhaustive.run ~build ~pids ~depth ~prop ());
          ( "reduced",
            Exhaustive.run ~reduce:sleep_only ~build ~pids ~depth ~prop () );
          ("split + shared table", split_shared ~build ~pids ~depth ~prop ());
          ( "reduced split + shared table",
            split_shared ~reduce:sleep_only ~build ~pids ~depth ~prop () );
        ])

(* The battery above is what covers the sleep x memo rule (a hit only when
   the stored mask is a subset of the current one): its reduced searches
   hit the memo, where those of the fixed scenarios record no hit at all. *)
let test_programs_hit_memo_under_sleep () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 17 |]) ~n:200 gen_program
  in
  let hits =
    List.length
      (List.filter
         (fun p ->
           let _, st =
             Exhaustive.run ~reduce:sleep_only ~build:(program_build p)
               ~pids:(Pid.all ~n_c:p.n_c ~n_s:p.n_s) ~depth:(program_depth p)
               ~prop:(program_prop p) ()
           in
           st.Exhaustive.memo_hits > 0)
         programs)
  in
  check_bool
    (Printf.sprintf "%d of 200 reduced searches hit the memo" hits)
    true (hits >= 30)

let suite =
  [
    Alcotest.test_case "differential: safe agreement" `Quick
      test_differential_safe_agreement;
    Alcotest.test_case "differential: commit-adopt" `Quick
      test_differential_commit_adopt;
    Alcotest.test_case "differential: trivial n-set-agreement" `Quick
      test_differential_trivial_nsa;
    Alcotest.test_case "differential: CT consensus (FD advice)" `Quick
      test_differential_ct_consensus;
    Alcotest.test_case "differential: a crash inside the depth" `Quick
      test_differential_crash;
    Alcotest.test_case "differential: seeded violation, same cex" `Quick
      test_differential_violation;
    QCheck_alcotest.to_alcotest prop_independent_swap;
    Alcotest.test_case "dependent swap is visible (negative control)" `Quick
      test_dependent_swap_differs;
    Alcotest.test_case "symmetry orbits partition the schedule space" `Quick
      test_orbit_partition;
    Alcotest.test_case "reduction stats and class validation" `Quick
      test_reduction_stats_and_validation;
    Alcotest.test_case "sleep masks refuse more pids than int bits" `Quick
      test_sleep_mask_width;
    QCheck_alcotest.to_alcotest prop_programs_agree;
    Alcotest.test_case "random programs hit the memo under sleep sets" `Quick
      test_programs_hit_memo_under_sleep;
  ]
