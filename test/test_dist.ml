(* The distribution layer, proven the same way the reduction layers were:
   differentially. Splitting the search at a frontier, running every subtree
   job through the re-entrant engine and folding the merge monoids must
   change where the work happens and nothing else — same verdict, same exact
   credited schedule count, same lex-least counterexample as the
   single-process engine, for any split depth, any merge order, with and
   without reduction. Plus qcheck laws for the merge monoids themselves and
   an end-to-end pass through the coordinator over real TCP workers. *)

open Simkit

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let verdict_str = Test_exhaustive.verdict_str
let mk_ns = Test_exhaustive.mk_ns

let sa_build ~n_s () =
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
  mk_ns ~n_c:2 ~n_s mem c_code

let sa_prop rt =
  match (Runtime.decision rt 0, Runtime.decision rt 1) with
  | Some a, Some b -> Value.equal a b
  | _ -> true

let sa_reduce ~n_s = { Exhaustive.sleep = true; symmetry = [ Pid.all_s n_s ] }

let find_sc name ~n_s =
  match Mcheck.Scenario.find name ~n_s with
  | Ok sc -> sc
  | Error e -> Alcotest.fail e

(* --- the reference distributed pipeline, in-process --- *)

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  l
  |> List.map (fun x -> (Random.State.bits st, x))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let dist_run ?(memo = true) ?reduce ?(mode = Exhaustive.Every)
    ?(order = Fun.id) ~build ~pids ~depth ~split_depth ~prop () =
  let fr = Exhaustive.split ~mode ?reduce ~build ~pids ~depth ~split_depth ~prop () in
  let results =
    List.map
      (fun sj ->
        Exhaustive.run_subtree ~memo ~mode ?reduce ~build ~pids ~depth ~prop
          sj)
      fr.Exhaustive.fr_jobs
  in
  let verdict, stats = Exhaustive.merge_frontier ~pids fr (order results) in
  (verdict, stats, List.length fr.Exhaustive.fr_jobs)

(* The same pipeline with the jobs run against shared memo tables, in the
   order a fleet might see them: [order] permutes the jobs, and job k of
   that order runs on table (k / 4) mod [tables] — dealt in batches of 4,
   as pipelined workers take them. *)
let shared_run ?reduce ?(mode = Exhaustive.Every) ~order ~tables ~build ~pids
    ~depth ~split_depth ~prop () =
  let fr =
    Exhaustive.split ~mode ?reduce ~build ~pids ~depth ~split_depth ~prop ()
  in
  let ts = Array.init tables (fun _ -> Exhaustive.create_table ()) in
  let results =
    List.mapi
      (fun k sj ->
        Exhaustive.run_subtree ~table:ts.(k / 4 mod tables) ~mode ?reduce
          ~build ~pids ~depth ~prop sj)
      (order fr.Exhaustive.fr_jobs)
  in
  Exhaustive.merge_frontier ~pids fr results

let dealings =
  [
    ("one table, dfs", 1, Fun.id);
    ("one table, rev", 1, List.rev);
    ("one table, shuffle", 1, shuffle 42);
    ("two tables, batches of 4", 2, Fun.id);
  ]

(* --- partition invariance: any frontier, any merge order --- *)

let partition_configs =
  [
    ("plain", 1, 5, None);
    ("plain-ns2", 2, 4, None);
    ("reduced", 2, 5, Some (sa_reduce ~n_s:2));
    ("sleep-only", 1, 5, Some { Exhaustive.sleep = true; symmetry = [] });
  ]

let test_partition_matches_run () =
  List.iter
    (fun (label, n_s, depth, reduce) ->
      let build = sa_build ~n_s in
      let pids = Pid.all ~n_c:2 ~n_s in
      let expected, _ = Exhaustive.run ?reduce ~build ~pids ~depth ~prop:sa_prop () in
      List.iter
        (fun split_depth ->
          List.iter
            (fun (olabel, order) ->
              let v, _, jobs =
                dist_run ?reduce ~order ~build ~pids ~depth ~split_depth
                  ~prop:sa_prop ()
              in
              check_bool
                (Fmt.str "%s sd=%d: frontier nonempty" label split_depth)
                true (jobs > 0);
              check_string
                (Fmt.str "%s sd=%d order=%s" label split_depth olabel)
                (verdict_str expected) (verdict_str v))
            [ ("dfs", Fun.id); ("rev", List.rev); ("shuffle", shuffle 42) ])
        [ 1; 2; 3 ])
    partition_configs

(* Sharing a memo table across the jobs of one split changes only effort:
   verdict, exact count and lex-least counterexample stay the single-process
   engine's in every job order and dealing, safe and violating configs. *)
let test_shared_table_matches_run () =
  let configs =
    List.map
      (fun (label, n_s, depth, reduce) ->
        ( label,
          sa_build ~n_s,
          Pid.all ~n_c:2 ~n_s,
          depth,
          reduce,
          sa_prop,
          [ 1; 2; 3 ] ))
      partition_configs
    @ List.map
        (fun (label, reduce) ->
          ( label,
            Test_exhaustive.race_build ~n_c:2 ~n_s:1,
            Pid.all ~n_c:2 ~n_s:1,
            6,
            reduce,
            Test_exhaustive.race_prop_false,
            [ 1; 2; 3; 4 ] ))
        [ ("race", None); ("race-reduced", Some (sa_reduce ~n_s:1)) ]
  in
  List.iter
    (fun (label, build, pids, depth, reduce, prop, split_depths) ->
      let expected, _ = Exhaustive.run ?reduce ~build ~pids ~depth ~prop () in
      List.iter
        (fun split_depth ->
          List.iter
            (fun (dlabel, tables, order) ->
              let v, _ =
                shared_run ?reduce ~order ~tables ~build ~pids ~depth
                  ~split_depth ~prop ()
              in
              check_string
                (Fmt.str "%s sd=%d %s" label split_depth dlabel)
                (verdict_str expected) (verdict_str v))
            dealings)
        split_depths)
    configs

(* A table is bound to the configuration of its first job: a job of another
   depth, reduction or mode is refused before any step. *)
let test_table_bound_to_config () =
  let build = sa_build ~n_s:1 in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let job ~depth =
    List.hd
      (Exhaustive.split ~build ~pids ~depth ~split_depth:2 ~prop:sa_prop ())
        .Exhaustive.fr_jobs
  in
  let filled () =
    let table = Exhaustive.create_table () in
    ignore
      (Exhaustive.run_subtree ~table ~build ~pids ~depth:5 ~prop:sa_prop
         (job ~depth:5));
    table
  in
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "same config accepted" false
    (raises (fun () ->
         Exhaustive.run_subtree ~table:(filled ()) ~build ~pids ~depth:5
           ~prop:sa_prop (job ~depth:5)));
  check_bool "other depth refused" true
    (raises (fun () ->
         Exhaustive.run_subtree ~table:(filled ()) ~build ~pids ~depth:6
           ~prop:sa_prop (job ~depth:6)));
  check_bool "other reduction refused" true
    (raises (fun () ->
         Exhaustive.run_subtree ~table:(filled ())
           ~reduce:{ Exhaustive.sleep = true; symmetry = [] }
           ~build ~pids ~depth:5 ~prop:sa_prop (job ~depth:5)));
  check_bool "other mode refused" true
    (raises (fun () ->
         Exhaustive.run_subtree ~table:(filled ()) ~mode:Exhaustive.Final
           ~build ~pids ~depth:5 ~prop:sa_prop (job ~depth:5)))

(* The effort a shared table saves, pinned on the depth-8 anchor: jobs run
   in DFS order on one table visit about the monolithic run's nodes, where
   private memos visit more than eight times as many. *)
let test_shared_table_effort () =
  let n_s = 2 and depth = 8 and split_depth = 3 in
  let build = sa_build ~n_s in
  let pids = Pid.all ~n_c:2 ~n_s in
  let prop = sa_prop in
  let _, mono = Exhaustive.run ~build ~pids ~depth ~prop () in
  let v, shared =
    shared_run ~order:Fun.id ~tables:1 ~build ~pids ~depth ~split_depth ~prop
      ()
  in
  let _, private_, _ = dist_run ~build ~pids ~depth ~split_depth ~prop () in
  check_string "verdict" "Ok 65536" (verdict_str v);
  Alcotest.(check int) "monolithic nodes" 1944 mono.Exhaustive.nodes;
  Alcotest.(check int) "monolithic steps" 2836 mono.Exhaustive.steps_executed;
  Alcotest.(check int) "shared-table nodes" 1968 shared.Exhaustive.nodes;
  Alcotest.(check int)
    "shared-table steps" 3119 shared.Exhaustive.steps_executed;
  Alcotest.(check int) "private-memo nodes" 16308 private_.Exhaustive.nodes;
  check_bool "shared within 1.05x of monolithic nodes" true
    (float_of_int shared.Exhaustive.nodes
    <= 1.05 *. float_of_int mono.Exhaustive.nodes)

(* With the memo off, effort is not path-dependent: the partitioned run is
   the same traversal cut at the frontier, so it visits exactly the nodes
   and prunes exactly what the single-process search does, layer by layer.
   Safe configs only: after a counterexample the jobs past it still run. *)
let test_partition_pruning_counters_exact () =
  let n_s = 2 in
  let build = sa_build ~n_s in
  let pids = Pid.all ~n_c:2 ~n_s in
  let depth = 6 in
  List.iter
    (fun (label, reduce) ->
      let expected_v, expected_s =
        Exhaustive.run ~memo:false ?reduce ~build ~pids ~depth ~prop:sa_prop
          ()
      in
      List.iter
        (fun split_depth ->
          let v, s, _ =
            dist_run ~memo:false ?reduce ~build ~pids ~depth ~split_depth
              ~prop:sa_prop ()
          in
          let check_count name field =
            Alcotest.(check int)
              (Fmt.str "%s %s sd=%d" label name split_depth)
              (field expected_s) (field s)
          in
          check_string
            (Fmt.str "%s verdict sd=%d" label split_depth)
            (verdict_str expected_v) (verdict_str v);
          check_count "nodes" (fun s -> s.Exhaustive.nodes);
          check_count "sleep_pruned" (fun s -> s.Exhaustive.sleep_pruned);
          check_count "orbits_collapsed" (fun s ->
              s.Exhaustive.orbits_collapsed))
        [ 1; 2; 3 ])
    [ ("plain", None); ("reduced", Some (sa_reduce ~n_s)) ]

(* --- lex-least counterexample selection is partition-order-invariant --- *)

(* In both modes: in [Final] the splitter credits the frontier children
   whose move is null without giving them a runtime, and reads nothing
   there. *)
let test_counterexample_partition_invariant () =
  let build = Test_exhaustive.race_build ~n_c:2 ~n_s:1 in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let depth = 6 in
  let prop = Test_exhaustive.race_prop_false in
  List.iter
    (fun (mlabel, mode) ->
      let expected, _ =
        Exhaustive.run_replay ~mode ~build ~pids ~depth ~prop ()
      in
      (match expected with
      | Exhaustive.Counterexample _ -> ()
      | Exhaustive.Ok _ -> Alcotest.fail "expected a counterexample");
      List.iter
        (fun (label, reduce) ->
          List.iter
            (fun split_depth ->
              List.iter
                (fun (olabel, order) ->
                  let v, _, _ =
                    dist_run ?reduce ~mode ~order ~build ~pids ~depth
                      ~split_depth ~prop ()
                  in
                  check_string
                    (Fmt.str "%s %s sd=%d order=%s" label mlabel split_depth
                       olabel)
                    (verdict_str expected) (verdict_str v))
                [ ("dfs", Fun.id); ("rev", List.rev); ("shuffle", shuffle 7) ])
            [ 1; 2; 3; 4 ])
        [ ("plain", None); ("reduced", Some (sa_reduce ~n_s:1)) ])
    [ ("every", Exhaustive.Every); ("final", Exhaustive.Final) ]

(* a violation shallower than the frontier stops the split itself *)
let test_prefix_violation_stops_split () =
  let build = sa_build ~n_s:1 in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let prop _ = false in
  let expected, _ = Exhaustive.run ~build ~pids ~depth:4 ~prop () in
  let fr = Exhaustive.split ~build ~pids ~depth:4 ~split_depth:2 ~prop () in
  check_bool "no jobs emitted" true (fr.Exhaustive.fr_jobs = []);
  match fr.Exhaustive.fr_cex with
  | None -> Alcotest.fail "split missed the prefix violation"
  | Some cex ->
    check_string "same counterexample" (verdict_str expected)
      (verdict_str (Exhaustive.Counterexample cex))

(* A job's prefix arrives unchecked (a [subtree] request need not come from
   [split]), so [run_subtree] reads its root's property: a job whose prefix
   is [run]'s depth-8 counterexample answers that prefix at depth 10, with
   a private memo, a shared table or none, instead of extending it. *)
let test_subtree_checks_its_root () =
  let sc = find_sc "race-false" ~n_s:1 in
  let build = sc.Mcheck.Scenario.sc_build
  and pids = sc.Mcheck.Scenario.sc_pids
  and prop = sc.Mcheck.Scenario.sc_prop in
  let cex = "Counterexample [p1 p2 p1 p1 p1 p1 p2 p2]" in
  let v8 = fst (Exhaustive.run ~build ~pids ~depth:8 ~prop ()) in
  check_string "run at depth 8" cex (verdict_str v8);
  let prefix =
    match v8 with Exhaustive.Counterexample c -> c | Exhaustive.Ok _ -> []
  in
  let job =
    {
      Exhaustive.sj_id = 0;
      sj_prefix = prefix;
      sj_sleep = [];
      sj_factor = 1;
      sj_used = [];
    }
  in
  List.iter
    (fun (what, memo, table) ->
      let v, _ =
        Exhaustive.run_subtree ~memo ?table ~build ~pids ~depth:10 ~prop job
      in
      check_string ("job at depth 10, " ^ what) cex (verdict_str v))
    [
      ("private memo", true, None);
      ("shared table", true, Some (Exhaustive.create_table ()));
      ("memo off", false, None);
    ]

(* credited counts are exact ints: a tree of more than max_int schedules is
   refused by every entry point before any step *)
let test_count_overflow_rejected () =
  let builds = ref 0 in
  let build () =
    incr builds;
    sa_build ~n_s:1 ()
  in
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  let fr =
    Exhaustive.split ~build ~pids ~depth:39 ~split_depth:1 ~prop:sa_prop ()
  in
  Alcotest.(check int)
    "3^39 fits: one job per pid" 3
    (List.length fr.Exhaustive.fr_jobs);
  builds := 0;
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "split over 3^40 raises" true
    (raises (fun () ->
         Exhaustive.split ~build ~pids ~depth:40 ~split_depth:1 ~prop:sa_prop
           ()));
  check_bool "run over 3^40 raises" true
    (raises (fun () -> Exhaustive.run ~build ~pids ~depth:40 ~prop:sa_prop ()));
  check_bool "run_subtree over 3^40 raises" true
    (raises (fun () ->
         Exhaustive.run_subtree ~build ~pids ~depth:40 ~prop:sa_prop
           (List.hd fr.Exhaustive.fr_jobs)));
  Alcotest.(check int) "no runtime built" 0 !builds;
  (* the partitioned executors answer Error, not an exception *)
  let sc =
    match Mcheck.Scenario.find "safe-agreement" ~n_s:1 with
    | Ok sc -> sc
    | Error e -> Alcotest.fail e
  in
  Test_ckpt.with_store (fun store ->
      check_bool "Ckpt.Local over 3^40 is an Error" true
        (Result.is_error (Ckpt.Local.run ~store ~scenario:sc ~depth:40 ())));
  check_bool "coordinator over 3^40 is an Error" true
    (Result.is_error
       (Dist.Coordinator.run ~retries:0 ~scenario:sc ~depth:40
          ~workers:[ Svc.Addr.to_string (Svc.Addr.Tcp ("127.0.0.1", 9)) ]
          ()))

(* --- the early stop: nothing past the least counterexample job --- *)

let journal_ids store =
  match Ckpt.Local.load_record store with
  | Error e -> Alcotest.fail e
  | Ok (_, r) -> List.map (fun d -> d.Ckpt.Record.dj_id) r.Ckpt.Record.ck_done

(* Ckpt.Local runs jobs in lex order and stops at the first that answers
   with a counterexample: the journal records no job past it, and a resume
   of that journal runs no job at all. *)
let test_local_stops_at_counterexample () =
  let sc =
    match Mcheck.Scenario.find "race-false" ~n_s:2 with
    | Ok sc -> sc
    | Error e -> Alcotest.fail e
  in
  let depth = 8 in
  let build = sc.Mcheck.Scenario.sc_build
  and pids = sc.Mcheck.Scenario.sc_pids
  and prop = sc.Mcheck.Scenario.sc_prop in
  let expected, _ = Exhaustive.run ~build ~pids ~depth ~prop () in
  let total =
    List.length
      (Exhaustive.split ~build ~pids ~depth
         ~split_depth:(Ckpt.Ledger.default_split_depth ~depth)
         ~prop ())
        .Exhaustive.fr_jobs
  in
  Test_ckpt.with_store (fun store ->
      match Ckpt.Local.run ~store ~scenario:sc ~depth () with
      | Error e -> Alcotest.fail e
      | Ok (v, st) -> (
        check_string "verdict" (verdict_str expected) (verdict_str v);
        let ids = journal_ids store in
        let cex_id = List.fold_left max (-1) ids in
        check_bool "the stop skipped jobs" true (cex_id + 1 < total);
        Alcotest.(check (list int))
          "journal holds exactly the jobs up to the counterexample's"
          (List.init (cex_id + 1) Fun.id)
          ids;
        match
          Result.bind (Ckpt.Local.load_record store) (fun (_, resume) ->
              Ckpt.Local.run ~resume ~store ~scenario:sc ~depth ())
        with
        | Error e -> Alcotest.fail e
        | Ok (v', st') ->
          check_string "resumed verdict" (verdict_str expected)
            (verdict_str v');
          Alcotest.(check int) "resume ran no job" st.Exhaustive.nodes
            st'.Exhaustive.nodes;
          Alcotest.(check (list int)) "journal unchanged by resume" ids
            (journal_ids store)))

(* --- subtree jobs survive the wire format --- *)

let test_subtree_json_roundtrip () =
  let n_s = 2 in
  let build = sa_build ~n_s in
  let pids = Pid.all ~n_c:2 ~n_s in
  let fr =
    Exhaustive.split ~reduce:(sa_reduce ~n_s) ~build ~pids ~depth:5
      ~split_depth:2 ~prop:sa_prop ()
  in
  check_bool "have jobs" true (fr.Exhaustive.fr_jobs <> []);
  List.iter
    (fun sj ->
      let s = Obs.Json.to_string (Exhaustive.subtree_json sj) in
      match Obs.Json.of_string s with
      | Error e -> Alcotest.failf "unparseable subtree json: %s" e
      | Ok j -> (
        match Exhaustive.subtree_of_json j with
        | Error e -> Alcotest.failf "subtree_of_json: %s" e
        | Ok sj' ->
          check_bool
            (Fmt.str "job %d roundtrips" sj.Exhaustive.sj_id)
            true (sj = sj')))
    fr.Exhaustive.fr_jobs;
  (* a job's answer travels as the verdict's fields *)
  List.iter
    (fun v ->
      let s = Obs.Json.to_string (Obs.Json.Obj (Exhaustive.verdict_fields v)) in
      match Result.bind (Obs.Json.of_string s) Exhaustive.verdict_of_json with
      | Error e -> Alcotest.failf "verdict_of_json: %s" e
      | Ok v' ->
        check_string ("verdict roundtrips: " ^ s) (verdict_str v)
          (verdict_str v'))
    [
      Exhaustive.Ok 65536;
      Exhaustive.Counterexample [ Pid.c 0; Pid.s 1; Pid.c 1 ];
    ]

(* --- qcheck laws for the merge monoids --- *)

let stats_eq a b =
  a.Exhaustive.nodes = b.Exhaustive.nodes
  && a.Exhaustive.steps_executed = b.Exhaustive.steps_executed
  && a.Exhaustive.replays = b.Exhaustive.replays
  && a.Exhaustive.runtimes_built = b.Exhaustive.runtimes_built
  && a.Exhaustive.memo_hits = b.Exhaustive.memo_hits
  && a.Exhaustive.sleep_pruned = b.Exhaustive.sleep_pruned
  && a.Exhaustive.orbits_collapsed = b.Exhaustive.orbits_collapsed
  && a.Exhaustive.wall_s = b.Exhaustive.wall_s

(* wall times as small dyadic rationals keep float addition exact, so the
   associativity law can be checked with plain equality *)
let stats_arb =
  QCheck.make
    QCheck.Gen.(
      map
        (fun l ->
          match l with
          | [ a; b; c; d; e; f; g; w ] ->
            {
              Exhaustive.nodes = a;
              steps_executed = b;
              replays = c;
              runtimes_built = d;
              memo_hits = e;
              sleep_pruned = f;
              orbits_collapsed = g;
              wall_s = float_of_int w /. 8.;
            }
          | _ -> assert false)
        (list_size (return 8) small_nat))

let prop_merge_stats_monoid =
  QCheck.Test.make ~name:"merge_stats is a commutative monoid" ~count:200
    (QCheck.triple stats_arb stats_arb stats_arb)
    (fun (a, b, c) ->
      let ( + ) = Exhaustive.merge_stats in
      stats_eq (a + (b + c)) (a + b + c)
      && stats_eq (a + b) (b + a)
      && stats_eq (Exhaustive.zero_stats + a) a
      && stats_eq (a + Exhaustive.zero_stats) a)

let verdict_arb =
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  QCheck.make
    QCheck.Gen.(
      frequency
        [
          (1, map (fun n -> Exhaustive.Ok n) small_nat);
          ( 2,
            map
              (fun is ->
                Exhaustive.Counterexample
                  (List.map (fun i -> List.nth pids (i mod 3)) is))
              (list_size (int_range 1 6) small_nat) );
        ])

let prop_merge_verdicts_monoid =
  let pids = Pid.all ~n_c:2 ~n_s:1 in
  QCheck.Test.make ~name:"merge_verdicts is a commutative monoid" ~count:500
    (QCheck.triple verdict_arb verdict_arb verdict_arb)
    (fun (a, b, c) ->
      let ( + ) = Exhaustive.merge_verdicts ~pids in
      verdict_str (a + (b + c)) = verdict_str (a + b + c)
      && verdict_str (a + b) = verdict_str (b + a)
      && verdict_str (Exhaustive.Ok 0 + a) = verdict_str a)

(* merged credited counts over a random partition of a frontier equal the
   single-process count: jobs are assigned to buckets arbitrarily, buckets
   are merged internally, then across — associativity in anger *)
let prop_partition_counts =
  let n_s = 1 in
  let build = sa_build ~n_s in
  let pids = Pid.all ~n_c:2 ~n_s in
  let depth = 5 in
  let expected, _ = Exhaustive.run ~build ~pids ~depth ~prop:sa_prop () in
  let fr = Exhaustive.split ~build ~pids ~depth ~split_depth:2 ~prop:sa_prop () in
  let results =
    List.map
      (fun sj ->
        fst (Exhaustive.run_subtree ~build ~pids ~depth ~prop:sa_prop sj))
      fr.Exhaustive.fr_jobs
  in
  QCheck.Test.make ~name:"random partitions merge to the exact count"
    ~count:50
    QCheck.(pair (int_range 1 5) (int_range 0 1000))
    (fun (buckets, seed) ->
      let st = Random.State.make [| seed |] in
      let parts = Array.make buckets (Exhaustive.Ok 0) in
      List.iter
        (fun v ->
          let b = Random.State.int st buckets in
          parts.(b) <- Exhaustive.merge_verdicts ~pids parts.(b) v)
        results;
      let merged =
        Array.fold_left
          (Exhaustive.merge_verdicts ~pids)
          (Exhaustive.Ok fr.Exhaustive.fr_pruned)
          parts
      in
      verdict_str merged = verdict_str expected)

(* --- end-to-end: the coordinator over real in-process TCP workers --- *)

let start_tcp_worker ?(max_reply = Svc.Frame.max_wire_len) () =
  let cfg =
    {
      (Svc.Server.default_config ~listen:(Svc.Addr.Tcp ("127.0.0.1", 0))) with
      Svc.Server.workers = 1;
      max_reply;
    }
  in
  let t = Svc.Server.start cfg in
  (t, Svc.Addr.to_string (Svc.Server.listen_addr t))

let with_tcp_workers ?max_reply n f =
  let servers = List.init n (fun _ -> start_tcp_worker ?max_reply ()) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (t, _) ->
          Svc.Server.shutdown t;
          Svc.Server.wait t)
        servers)
    (fun () -> f servers)

(* 1, 2 and 4 workers must all reproduce the local engine bit-for-bit:
   verdict, credited count, and (race-false) the lex-least counterexample *)
let test_coordinator_matches_local () =
  List.iter
    (fun (name, depth, reduce) ->
      let sc =
        match Mcheck.Scenario.find name ~n_s:2 with
        | Ok sc -> sc
        | Error e -> Alcotest.fail e
      in
      let red = Mcheck.Scenario.reduction sc ~reduce in
      let build = sc.Mcheck.Scenario.sc_build
      and pids = sc.Mcheck.Scenario.sc_pids
      and prop = sc.Mcheck.Scenario.sc_prop in
      let expected, _ =
        Exhaustive.run ?reduce:red ~build ~pids ~depth ~prop ()
      in
      let frontier =
        List.length
          (Exhaustive.split ?reduce:red ~build ~pids ~depth
             ~split_depth:(Dist.Coordinator.default_split_depth ~depth)
             ~prop ())
            .Exhaustive.fr_jobs
      in
      List.iter
        (fun n ->
          with_tcp_workers n (fun servers ->
              let workers = List.map snd servers in
              match
                Dist.Coordinator.run ~reduce ~scenario:sc ~depth ~workers ()
              with
              | Error e -> Alcotest.failf "%s x%d: %s" name n e
              | Ok r ->
                let label =
                  Printf.sprintf "%s depth %d reduce %b x%d workers" name
                    depth reduce n
                in
                check_string label (verdict_str expected)
                  (verdict_str r.Dist.Coordinator.r_verdict);
                (* the early stop skips jobs but does not shrink the run *)
                Alcotest.(check int) (label ^ ": r_jobs is the frontier")
                  frontier r.Dist.Coordinator.r_jobs))
        [ 1; 2; 4 ])
    [
      ("safe-agreement", 6, false);
      ("safe-agreement", 6, true);
      ("race-false", 6, false);
      ("race-false", 6, true);
    ]

(* one worker address refuses connections: its jobs requeue onto the live
   worker and the run still completes exactly *)
let test_coordinator_survives_dead_worker () =
  let sc =
    match Mcheck.Scenario.find "safe-agreement" ~n_s:1 with
    | Ok sc -> sc
    | Error e -> Alcotest.fail e
  in
  let expected, _ =
    Exhaustive.run ~build:sc.Mcheck.Scenario.sc_build
      ~pids:sc.Mcheck.Scenario.sc_pids ~depth:6
      ~prop:sc.Mcheck.Scenario.sc_prop ()
  in
  (* grab a port nothing will be listening on by the time the coordinator
     dials it *)
  let dead_addr =
    let t, addr = start_tcp_worker () in
    Svc.Server.shutdown t;
    Svc.Server.wait t;
    addr
  in
  with_tcp_workers 1 (fun servers ->
      let workers = dead_addr :: List.map snd servers in
      match
        Dist.Coordinator.run ~retries:0 ~scenario:sc ~depth:6 ~workers ()
      with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check_string "verdict with a dead worker" (verdict_str expected)
          (verdict_str r.Dist.Coordinator.r_verdict);
        let dead =
          List.filter
            (fun w -> w.Dist.Coordinator.wk_dead)
            r.Dist.Coordinator.r_workers
        in
        check_bool "the dead worker was noticed" true (List.length dead = 1));
  (* and a fleet that is entirely dead is an error, not a hang *)
  match
    Dist.Coordinator.run ~retries:0 ~scenario:sc ~depth:6
      ~workers:[ dead_addr ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "all-dead fleet reported success"

(* a run its workers would refuse ends in Error instead of requeueing the
   same job forever: up front when the coordinator's reading of the params
   already refuses them, on the first bad_request when only a worker does *)
let test_coordinator_refused_run () =
  let find ~n_s =
    match Mcheck.Scenario.find "safe-agreement" ~n_s with
    | Ok sc -> sc
    | Error e -> Alcotest.fail e
  in
  with_tcp_workers 1 (fun servers ->
      let refused label sc ~needle =
        match
          Dist.Coordinator.run ~scenario:sc ~depth:3
            ~workers:(List.map snd servers) ()
        with
        | Ok _ -> Alcotest.failf "%s: refused run reported success" label
        | Error e ->
          check_bool (label ^ ": " ^ e) true (Test_svc.contains e needle)
      in
      refused "n_s 65 is out of the workers' range" (find ~n_s:65)
        ~needle:"workers would refuse this run: params.n_s: 65 out of range";
      (* version skew: the worker builds the scenario at n_s 1, so the jobs
         whose prefix names s1 are refused *)
      refused "a worker's bad_request ends the run"
        { (find ~n_s:2) with Mcheck.Scenario.sc_n_s = 1 }
        ~needle:"job pid not in pids")

(* [f ()] on a thread, failing the test if it has not returned within
   [seconds]: a coordinator that keeps requeueing must fail the suite, not
   hang it (closing the workers afterwards ends the run) *)
let within ~seconds f =
  let result = Atomic.make None in
  let t = Thread.create (fun () -> Atomic.set result (Some (f ()))) () in
  let rec wait left =
    match Atomic.get result with
    | Some r ->
      Thread.join t;
      r
    | None when left <= 0. ->
      Alcotest.failf "still running after %.0f s" seconds
    | None ->
      Thread.delay 0.02;
      wait (left -. 0.02)
  in
  wait seconds

(* a worker whose every subtree reply exceeds its max_reply answers
   [oversized] to every job: alone, it ends the run once a job has failed
   past the bound *)
let test_coordinator_gives_up_on_failing_job () =
  let sc = find_sc "safe-agreement" ~n_s:2 in
  with_tcp_workers ~max_reply:256 1 (fun servers ->
      match
        within ~seconds:30. (fun () ->
            Dist.Coordinator.run ~scenario:sc ~depth:6
              ~workers:(List.map snd servers) ())
      with
      | Ok _ -> Alcotest.fail "a worker that only fails reported success"
      | Error e ->
        check_bool ("names the error: " ^ e) true
          (Test_svc.contains e "oversized");
        check_bool ("names the count: " ^ e) true
          (Test_svc.contains e
             (Printf.sprintf "failed %d times" (Ckpt.Ledger.max_failures + 1))))

(* next to a healthy worker, the failing one gets each job at most once:
   retried elsewhere, every job lands on the healthy worker *)
let test_coordinator_retries_elsewhere () =
  List.iter
    (fun name ->
      let sc = find_sc name ~n_s:2 in
      let expected, _ =
        Exhaustive.run ~build:sc.Mcheck.Scenario.sc_build
          ~pids:sc.Mcheck.Scenario.sc_pids ~depth:8
          ~prop:sc.Mcheck.Scenario.sc_prop ()
      in
      with_tcp_workers ~max_reply:256 1 (fun bad ->
          with_tcp_workers 1 (fun good ->
              match
                within ~seconds:60. (fun () ->
                    Dist.Coordinator.run ~scenario:sc ~depth:8
                      ~workers:(List.map snd (bad @ good))
                      ())
              with
              | Error e -> Alcotest.failf "%s: %s" name e
              | Ok r ->
                check_string (name ^ " verdict") (verdict_str expected)
                  (verdict_str r.Dist.Coordinator.r_verdict);
                let failing = List.hd r.Dist.Coordinator.r_workers in
                Alcotest.(check int)
                  (name ^ ": accepted from the failing worker")
                  0 failing.Dist.Coordinator.wk_jobs)))
    [ "safe-agreement"; "race-false" ]

(* a store that cannot take the first generation stops both executors before
   any job runs *)
let test_unwritable_store_refused () =
  let sc = find_sc "safe-agreement" ~n_s:2 in
  let depth = 6 in
  let builds = ref 0 in
  let counting =
    {
      sc with
      Mcheck.Scenario.sc_build =
        (fun () ->
          incr builds;
          sc.Mcheck.Scenario.sc_build ());
    }
  in
  ignore
    (Exhaustive.split ~build:counting.Mcheck.Scenario.sc_build
       ~pids:sc.Mcheck.Scenario.sc_pids ~depth
       ~split_depth:(Ckpt.Ledger.default_split_depth ~depth)
       ~prop:sc.Mcheck.Scenario.sc_prop ());
  let split_builds = !builds in
  Test_ckpt.with_store (fun store ->
      Test_ckpt.rm_rf (Ckpt.Store.dir store);
      builds := 0;
      check_bool "Ckpt.Local: Error" true
        (Result.is_error (Ckpt.Local.run ~store ~scenario:counting ~depth ()));
      Alcotest.(check int)
        "Ckpt.Local ran the split alone" split_builds !builds;
      let dispatched = ref 0 in
      let sink =
        Obs.Sink.of_fn (fun ev ->
            if ev.Obs.Event.name = Obs.Event.Name.dist_dispatch then
              incr dispatched)
      in
      with_tcp_workers 1 (fun servers ->
          check_bool "coordinator: Error" true
            (Result.is_error
               (Dist.Coordinator.run ~sink ~checkpoint:(store, 0.) ~scenario:sc
                  ~depth ~workers:(List.map snd servers) ())));
      Alcotest.(check int) "coordinator dispatched nothing" 0 !dispatched)

(* --- the memo's negative control: read-collision --- *)

(* p1 reads one register and decides whether it read [Int 35553]; p2
   writes [Int 21395], then [Int 35553]. A memo that names p1's local state
   by a hash of the values it read, under which these two ints collide,
   credits p2,p2,p1 from the already explored p2,p1,p2 and answers [Ok]. The
   exact key tells the two apart on every engine. *)
let collision_cex = "Counterexample [p2 p2 p1 p1]"

let test_read_collision_engines () =
  let sc = find_sc "read-collision" ~n_s:1 in
  let build = sc.Mcheck.Scenario.sc_build
  and pids = sc.Mcheck.Scenario.sc_pids
  and prop = sc.Mcheck.Scenario.sc_prop
  and reduce = Mcheck.Scenario.reduction sc ~reduce:true in
  List.iter
    (fun depth ->
      let check what v =
        check_string (Printf.sprintf "depth %d: %s" depth what) collision_cex
          (verdict_str v)
      in
      check "run_replay"
        (fst (Exhaustive.run_replay ~build ~pids ~depth ~prop ()));
      check "run" (fst (Exhaustive.run ~build ~pids ~depth ~prop ()));
      check "run ~reduce"
        (fst (Exhaustive.run ?reduce ~build ~pids ~depth ~prop ()));
      check "run ~memo:false"
        (fst (Exhaustive.run ~memo:false ~build ~pids ~depth ~prop ()));
      List.iter
        (fun split_depth ->
          List.iter
            (fun (what, reduce) ->
              check
                (Printf.sprintf "split %d%s + one shared table" split_depth
                   what)
                (fst
                   (shared_run ?reduce ~order:Fun.id ~tables:1 ~build ~pids
                      ~depth ~split_depth ~prop ())))
            [ ("", None); (" reduced", reduce) ])
        [ 1; 2; 3 ])
    [ 4; 5; 6; 7; 8 ]

let test_read_collision_fleet () =
  let sc = find_sc "read-collision" ~n_s:1 in
  with_tcp_workers 2 (fun servers ->
      let workers = List.map snd servers in
      List.iter
        (fun depth ->
          List.iter
            (fun reduce ->
              match
                Dist.Coordinator.run ~reduce ~scenario:sc ~depth ~workers ()
              with
              | Error e -> Alcotest.failf "depth %d: %s" depth e
              | Ok r ->
                check_string
                  (Printf.sprintf "depth %d reduce %b, 2 workers" depth reduce)
                  collision_cex
                  (verdict_str r.Dist.Coordinator.r_verdict))
            [ false; true ])
        [ 4; 5; 6; 7; 8 ])

let suite =
  [
    Alcotest.test_case "partition matches run (all frontiers, orders)" `Quick
      test_partition_matches_run;
    Alcotest.test_case "shared memo table matches run (orders, dealings)"
      `Quick test_shared_table_matches_run;
    Alcotest.test_case "memo table bound to its configuration" `Quick
      test_table_bound_to_config;
    Alcotest.test_case "shared memo table effort pinned" `Quick
      test_shared_table_effort;
    Alcotest.test_case "pruning counters exact without memo" `Quick
      test_partition_pruning_counters_exact;
    Alcotest.test_case "counterexample partition-order-invariant" `Quick
      test_counterexample_partition_invariant;
    Alcotest.test_case "prefix violation stops the split" `Quick
      test_prefix_violation_stops_split;
    Alcotest.test_case "a job's root is checked, not trusted" `Quick
      test_subtree_checks_its_root;
    Alcotest.test_case "credited count overflow rejected" `Quick
      test_count_overflow_rejected;
    Alcotest.test_case "subtree json roundtrip" `Quick
      test_subtree_json_roundtrip;
    Alcotest.test_case "Ckpt.Local stops at the least counterexample" `Quick
      test_local_stops_at_counterexample;
    Alcotest.test_case "coordinator matches local over TCP (1/2/4 workers)"
      `Quick test_coordinator_matches_local;
    Alcotest.test_case "coordinator survives a dead worker" `Quick
      test_coordinator_survives_dead_worker;
    Alcotest.test_case "coordinator ends a run its workers refuse" `Quick
      test_coordinator_refused_run;
    Alcotest.test_case "coordinator gives up on a job that always fails"
      `Quick test_coordinator_gives_up_on_failing_job;
    Alcotest.test_case "coordinator retries a failed job elsewhere" `Quick
      test_coordinator_retries_elsewhere;
    Alcotest.test_case "unwritable store refused by both executors" `Quick
      test_unwritable_store_refused;
    Alcotest.test_case "read-collision control on every engine" `Quick
      test_read_collision_engines;
    Alcotest.test_case "read-collision control over a 2-worker fleet" `Quick
      test_read_collision_fleet;
    QCheck_alcotest.to_alcotest prop_merge_stats_monoid;
    QCheck_alcotest.to_alcotest prop_merge_verdicts_monoid;
    QCheck_alcotest.to_alcotest prop_partition_counts;
  ]
