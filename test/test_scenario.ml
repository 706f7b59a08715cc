(* Scenario specs and campaigns as data: golden byte-identity against the
   committed files, exact strict-parse diagnostics, qcheck round-trip of
   the JSON form, campaign expansion, the campaign runner's outcome
   classes, and a differential check that a data-form scenario produces
   field-for-field the same modelcheck result as the compiled-in name. *)

module J = Obs.Json
module Spec = Scenario.Spec
module Campaign = Scenario.Campaign
module P = Svc.Protocol

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let golden f = Filename.concat "golden/scenarios" f

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* --------------------------------------------------------------- golden *)

let valid_goldens =
  [
    "mc_safe_agreement.json";
    "mc_race_false.json";
    "solve_consensus_omega.json";
    "solve_ksa_crashes.json";
    "solve_consensus_trivial_undecided.json";
    "fuzz_strong_renaming.json";
  ]

(* the committed files are canonical bytes: parse then re-print is the
   identity on the file itself, so any drift in the printer (or a
   hand-edit that is not canonical) fails here *)
let test_golden_byte_identity () =
  List.iter
    (fun f ->
      let bytes = read_file (golden f) in
      match Spec.of_string bytes with
      | Error msg -> Alcotest.failf "%s: %s" f msg
      | Ok sp -> check_string f bytes (Spec.to_string sp))
    valid_goldens

let test_golden_malformed () =
  let path = golden "malformed_unknown_scenario.json" in
  match Spec.load path with
  | Ok _ -> Alcotest.fail "malformed golden parsed"
  | Error msg ->
    check_string "error lists path and valid names"
      (path
     ^ ": $.params.scenario: unknown scenario \"typo\" \
        (safe-agreement|race-false|read-collision)")
      msg

let test_load_missing_file () =
  match Spec.load "golden/scenarios/no-such-file.json" with
  | Ok _ -> Alcotest.fail "missing file parsed"
  | Error msg ->
    check_bool "error names the file" true
      (String.length msg > 0
      && String.sub msg 0 String.(length "golden/scenarios/no-such-file")
         = "golden/scenarios/no-such-file")

(* ---------------------------------------------------------- strictness *)

let parse s = Spec.of_string s

let expect_error what needle s =
  match parse s with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
    let contains hay needle =
      let lh = String.length hay and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
      go 0
    in
    check_bool (what ^ ": " ^ msg) true (contains msg needle)

let test_strict_parse_errors () =
  expect_error "unknown top field" "$: unknown field \"extra\""
    {|{"v":1,"name":"a","verb":"solve","params":{},"extra":1,
       "expect":{"outcome":"solves"}}|};
  expect_error "unknown param" "$.params: unknown field \"depht\""
    {|{"v":1,"name":"a","verb":"modelcheck","params":{"depht":4},
       "expect":{"outcome":"safe"}}|};
  expect_error "unknown task lists names"
    "$.params.task: unknown task \"paxos\""
    {|{"v":1,"name":"a","verb":"solve","params":{"task":"paxos"},
       "expect":{"outcome":"solves"}}|};
  expect_error "depth bounded" "$.params.depth: 1000 out of range"
    {|{"v":1,"name":"a","verb":"modelcheck","params":{"depth":1000},
       "expect":{"outcome":"safe"}}|};
  expect_error "crash index ranged"
    "$.params.crashes[0]: crash index 9 out of range"
    {|{"v":1,"name":"a","verb":"solve","params":{"n":3,"crashes":[[9,0]]},
       "expect":{"outcome":"solves"}}|};
  expect_error "expect vocabulary is per verb"
    "outcome \"safe\" does not apply to solve"
    {|{"v":1,"name":"a","verb":"solve","params":{},
       "expect":{"outcome":"safe"}}|};
  expect_error "violation kinds only for solve"
    "$.expect.kind: violation kinds only apply to solve"
    {|{"v":1,"name":"a","verb":"modelcheck","params":{},
       "expect":{"outcome":"violation","kind":"undecided"}}|};
  expect_error "bad name charset" "$.name: invalid name"
    {|{"v":1,"name":"sp ace","verb":"solve","params":{},
       "expect":{"outcome":"solves"}}|};
  expect_error "unknown error code lists codes"
    "$.expect.code: unknown error code \"nope\""
    {|{"v":1,"name":"a","verb":"solve","params":{},
       "expect":{"outcome":"error","code":"nope"}}|}

(* Omitted [expect] is derived from the registry classification; the
   ambiguous cases must refuse rather than guess. *)
let test_derived_expect () =
  let derived what s expect =
    match parse s with
    | Error msg -> Alcotest.failf "%s: %s" what msg
    | Ok sp ->
      Alcotest.check Alcotest.string what
        (Spec.expect_string expect)
        (Spec.expect_string sp.Spec.sp_expect)
  in
  derived "modelcheck safe scenario"
    {|{"v":1,"name":"a","verb":"modelcheck","params":{}}|} Spec.Safe;
  derived "modelcheck seeded violation"
    {|{"v":1,"name":"a","verb":"modelcheck",
       "params":{"scenario":"race-false"}}|}
    (Spec.Violation None);
  derived "advice makes consensus live"
    {|{"v":1,"name":"a","verb":"solve","params":{"task":"consensus"}}|}
    Spec.Solves;
  derived "no advice, full concurrency: fails"
    {|{"v":1,"name":"a","verb":"solve",
       "params":{"task":"consensus","fd":"trivial"}}|}
    (Spec.Violation None);
  derived "1-concurrency solves strong renaming with any fd"
    {|{"v":1,"name":"a","verb":"solve",
       "params":{"task":"renaming","policy":"kconc:1","fd":"trivial",
                 "n":3,"j":2}}|}
    Spec.Solves;
  derived "identity is wait-free at level n"
    {|{"v":1,"name":"a","verb":"solve",
       "params":{"task":"identity","fd":"trivial"}}|}
    Spec.Solves;
  expect_error "fuzz refuses derivation" "declare \"expect\""
    {|{"v":1,"name":"a","verb":"fuzz","params":{}}|};
  expect_error "At_least classification above its level refuses"
    "cannot derive an expectation for concurrency"
    {|{"v":1,"name":"a","verb":"solve",
       "params":{"task":"wsb","fd":"trivial","n":4,"j":3}}|};
  (* explicit expect still overrides the derivation *)
  derived "explicit override wins"
    {|{"v":1,"name":"a","verb":"solve","params":{"task":"consensus"},
       "expect":{"outcome":"violation","kind":"undecided"}}|}
    (Spec.Violation (Some "undecided"))

(* ------------------------------------------------------ qcheck roundtrip *)

let name_gen =
  let chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ\
               0123456789._/=,:+-" in
  let char_gen =
    QCheck.Gen.map (String.get chars)
      (QCheck.Gen.int_range 0 (String.length chars - 1))
  in
  QCheck.Gen.(string_size ~gen:char_gen (int_range 1 40))

let expect_gen ~verb =
  let open QCheck.Gen in
  let err =
    map
      (fun c -> Spec.Err c)
      (oneofl
         [ "bad_request"; "overloaded"; "deadline_exceeded"; "internal" ])
  in
  if verb = "solve" then
    oneof
      [
        return Spec.Solves;
        map
          (fun k -> Spec.Violation k)
          (oneofl
             [
               None; Some "task_violation"; Some "undecided";
               Some "not_wait_free";
             ]);
        err;
      ]
  else oneof [ return Spec.Safe; return (Spec.Violation None); err ]

let solve_gen =
  let open QCheck.Gen in
  oneofl (List.map snd Scenario.Build.task_assoc) >>= fun sv_task ->
  oneofl (List.map snd Scenario.Build.fd_assoc) >>= fun sv_fd ->
  oneofl
    [ Scenario.Build.Fair; Scenario.Build.Kconc 2; Scenario.Build.Uniform 3 ]
  >>= fun sv_policy ->
  int_range 1 16 >>= fun sv_n ->
  (* consensus is 1-set agreement: Spec refuses any other k for it *)
  (if sv_task = `Consensus then return 1 else int_range 1 4) >>= fun sv_k ->
  int_range 1 8 >>= fun sv_j ->
  opt (int_range 1 32) >>= fun sv_l ->
  list_size (int_range 0 3)
    (pair (int_range 0 (sv_n - 1)) (int_range 0 1000))
  >>= fun sv_crashes ->
  int_range 0 1_000_000 >>= fun sv_seed ->
  int_range 1 1_000_000 >>= fun sv_budget ->
  return
    (Spec.Solve
       {
         Spec.sv_task; sv_fd; sv_policy; sv_n; sv_k; sv_j; sv_l; sv_crashes;
         sv_seed; sv_budget;
       })

let modelcheck_gen =
  let open QCheck.Gen in
  oneofl Mcheck.Scenario.names >>= fun mc_scenario ->
  int_range 1 8 >>= fun mc_n_s ->
  int_range 1 16 >>= fun mc_depth ->
  bool >>= fun mc_reduce ->
  return (Spec.Modelcheck { Spec.mc_scenario; mc_n_s; mc_depth; mc_reduce })

let fuzz_gen =
  let open QCheck.Gen in
  oneofl Scenario.Build.fuzz_kinds >>= fun fz_kind ->
  int_range 1 8 >>= fun fz_n ->
  int_range 1 8 >>= fun fz_j ->
  int_range 0 10_000 >>= fun fz_seed ->
  int_range 1 10_000 >>= fun fz_budget ->
  int_range 1 8 >>= fun fz_domains ->
  return
    (Spec.Fuzz { Spec.fz_kind; fz_n; fz_j; fz_seed; fz_budget; fz_domains })

let spec_gen =
  let open QCheck.Gen in
  name_gen >>= fun sp_name ->
  oneof [ solve_gen; modelcheck_gen; fuzz_gen ] >>= fun sp_work ->
  opt (int_range 1 100_000) >>= fun sp_deadline_ms ->
  expect_gen
    ~verb:
      (match sp_work with
      | Spec.Solve _ -> "solve"
      | Spec.Modelcheck _ -> "modelcheck"
      | Spec.Fuzz _ -> "fuzz")
  >>= fun sp_expect ->
  return { Spec.sp_name; sp_work; sp_deadline_ms; sp_expect }

let spec_arbitrary =
  QCheck.make ~print:Spec.to_string spec_gen

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"parse (print spec) = spec"
    spec_arbitrary (fun sp ->
      match Spec.of_string (Spec.to_string sp) with
      | Error msg -> QCheck.Test.fail_reportf "re-parse failed: %s" msg
      | Ok sp' -> Spec.equal sp sp')

let prop_print_fixpoint =
  QCheck.Test.make ~count:300 ~name:"print is a fixpoint of parse∘print"
    spec_arbitrary (fun sp ->
      let s = Spec.to_string sp in
      match Spec.of_string s with
      | Error msg -> QCheck.Test.fail_reportf "re-parse failed: %s" msg
      | Ok sp' -> String.equal s (Spec.to_string sp'))

(* ------------------------------------------------------------- campaign *)

let campaign_json =
  {|{ "v": 1, "name": "t",
      "groups": [
        { "name": "mc/safe",
          "template": { "verb": "modelcheck",
                        "params": { "scenario": "safe-agreement" },
                        "expect": { "outcome": "safe" } },
          "axes": [ { "field": "params.depth", "values": [4, 6] },
                    { "field": "params.reduce", "values": [false, true] } ] },
        { "name": "solo",
          "template": { "verb": "solve", "params": { "n": 3 },
                        "expect": { "outcome": "solves" } } } ] }|}

let test_campaign_expand () =
  match Campaign.of_string campaign_json with
  | Error msg -> Alcotest.failf "campaign: %s" msg
  | Ok c -> (
    match Campaign.expand c with
    | Error msg -> Alcotest.failf "expand: %s" msg
    | Ok specs ->
      check_int "cells" 5 (List.length specs);
      (* rightmost axis varies fastest; a no-axis group is one cell named
         after the group itself *)
      Alcotest.(check (list string))
        "generated names"
        [
          "mc/safe:depth=4,reduce=false"; "mc/safe:depth=4,reduce=true";
          "mc/safe:depth=6,reduce=false"; "mc/safe:depth=6,reduce=true";
          "solo";
        ]
        (List.map (fun sp -> sp.Spec.sp_name) specs);
      Alcotest.(check (list string))
        "groups" [ "mc/safe"; "solo" ]
        (List.sort_uniq compare (List.map Campaign.group_of specs));
      (* the axis really landed in the params *)
      let depths =
        List.filter_map
          (fun sp ->
            match sp.Spec.sp_work with
            | Spec.Modelcheck m -> Some m.Spec.mc_depth
            | _ -> None)
          specs
      in
      Alcotest.(check (list int)) "depths" [ 4; 4; 6; 6 ] depths)

let test_campaign_bad_cell () =
  let j =
    {|{ "v": 1, "name": "t",
        "groups": [
          { "name": "g",
            "template": { "verb": "modelcheck", "params": {},
                          "expect": { "outcome": "safe" } },
            "axes": [ { "field": "params.scenario",
                        "values": ["safe-agreement", "typo"] } ] } ] }|}
  in
  match Campaign.of_string j with
  | Error msg -> Alcotest.failf "campaign: %s" msg
  | Ok c -> (
    match Campaign.expand c with
    | Ok _ -> Alcotest.fail "bad cell expanded"
    | Error msg ->
      check_string "cell error carries generated name and path"
        "$.groups[0] (cell g:scenario=typo).params.scenario: unknown \
         scenario \"typo\" (safe-agreement|race-false|read-collision)"
        msg)

let test_campaign_duplicate_names () =
  let j =
    {|{ "v": 1, "name": "t",
        "groups": [
          { "name": "g", "template": { "verb": "modelcheck", "params": {},
                                       "expect": { "outcome": "safe" } } },
          { "name": "g", "template": { "verb": "modelcheck", "params": {},
                                       "expect": { "outcome": "safe" } } } ] }|}
  in
  match Campaign.of_string j with
  | Error msg -> Alcotest.failf "campaign: %s" msg
  | Ok c -> (
    match Campaign.expand c with
    | Ok _ -> Alcotest.fail "duplicate names expanded"
    | Error msg ->
      check_string "duplicate" "$: duplicate scenario name \"g\"" msg)

(* --------------------------------------------------------- local runner *)

let mc_spec ?deadline_ms ?(expect = Spec.Safe) ~name ~depth () =
  {
    Spec.sp_name = name;
    sp_work =
      Spec.Modelcheck
        {
          Spec.mc_scenario = "safe-agreement"; mc_n_s = 1; mc_depth = depth;
          mc_reduce = false;
        };
    sp_deadline_ms = deadline_ms;
    sp_expect = expect;
  }

let test_run_local_outcomes () =
  let specs =
    [
      (* passes *)
      mc_spec ~name:"ok" ~depth:6 ();
      (* wrong expectation: runs fine, contradicts -> fail *)
      mc_spec ~name:"wrong" ~depth:6 ~expect:(Spec.Violation None) ();
      (* a 1 ms deadline on a deep check: timeout, not fail *)
      mc_spec ~name:"slow" ~depth:14 ~deadline_ms:1 ();
      (* the same deadline, but declared: an expected timeout passes *)
      mc_spec ~name:"slow-expected" ~depth:14 ~deadline_ms:1
        ~expect:(Spec.Err "deadline_exceeded") ();
    ]
  in
  let s = Svc.Campaign.run_local ~name:"outcomes" specs in
  let outcome name =
    let row =
      List.find (fun r -> r.Svc.Campaign.row_spec.Spec.sp_name = name) s.Svc.Campaign.s_rows
    in
    row.Svc.Campaign.row_outcome
  in
  check_bool "ok passes" true (outcome "ok" = Spec.Pass);
  check_bool "wrong expectation fails" true (outcome "wrong" = Spec.Fail);
  check_bool "deadline reports timeout" true (outcome "slow" = Spec.Timeout);
  check_bool "declared timeout passes" true
    (outcome "slow-expected" = Spec.Pass);
  check_int "pass" 2 s.Svc.Campaign.s_pass;
  check_int "fail" 1 s.Svc.Campaign.s_fail;
  check_int "timeout" 1 s.Svc.Campaign.s_timeout;
  check_int "error" 0 s.Svc.Campaign.s_error;
  check_bool "summary not ok" false (Svc.Campaign.ok s)

let test_record_shape () =
  let s =
    Svc.Campaign.run_local ~name:"rec"
      [ mc_spec ~name:"g1:a" ~depth:4 (); mc_spec ~name:"g2:b" ~depth:4 () ]
  in
  let r = Svc.Campaign.record s in
  match Obs.Bench_record.to_json r with
  | J.Obj kvs -> (
    check_bool "schema" true
      (List.assoc_opt "schema" kvs = Some (J.Str "wfa.bench"));
    check_bool "id" true (List.assoc_opt "id" kvs = Some (J.Str "campaign"));
    match List.assoc_opt "rows" kvs with
    | Some (J.List rows) ->
      (* one row per group plus the total row *)
      check_int "rows" 3 (List.length rows)
    | _ -> Alcotest.fail "no rows")
  | _ -> Alcotest.fail "record not an object"

(* --------------------------------------------------------- differential *)

let with_server ~workers f =
  let cfg =
    {
      (Svc.Server.default_config ~listen:(Svc.Addr.Tcp ("127.0.0.1", 0))) with
      workers;
    }
  in
  let t = Svc.Server.start cfg in
  Fun.protect
    ~finally:(fun () ->
      Svc.Server.shutdown t;
      Svc.Server.wait t)
    (fun () ->
      let c =
        Svc.Client.connect (Svc.Addr.to_string (Svc.Server.listen_addr t))
      in
      Fun.protect ~finally:(fun () -> Svc.Client.close c) (fun () -> f c))

(* wall_s is the only nondeterministic field in a modelcheck, solve or
   fuzz result *)
let rec scrub = function
  | J.Obj kvs ->
    J.Obj
      (List.map
         (fun (k, v) -> if k = "wall_s" then (k, J.Null) else (k, scrub v))
         kvs)
  | J.List vs -> J.List (List.map scrub vs)
  | v -> v

(* The data form over the wire equals the work run in process: each spec
   goes as a [scenario] request to a TCP server, and its result must equal,
   field for field, what [Svc.Jobs.run_work] (the CLI's executor) returns
   for the spec's work. *)
let test_differential ~workers () =
  with_server ~workers (fun c ->
      List.iteri
        (fun i (verb, params, expect) ->
          let name = Printf.sprintf "diff/%s-%d" verb i in
          let label = Printf.sprintf "%s @ %d workers" name workers in
          let spec =
            J.Obj
              [
                ("v", J.Int 1); ("name", J.Str name); ("verb", J.Str verb);
                ("params", J.Obj params);
                ("expect", J.Obj [ ("outcome", J.Str expect) ]);
              ]
          in
          let direct =
            match Spec.of_json spec with
            | Error msg -> Alcotest.failf "%s: %s" label msg
            | Ok sp -> (
              match Svc.Jobs.run_work sp.Spec.sp_work with
              | Ok j -> j
              | Error (code, msg) ->
                Alcotest.failf "%s in process: %s %s" label
                  (P.err_code_string code) msg)
          in
          let wrapped =
            match Svc.Client.call ~params:spec c P.Scenario with
            | Ok j -> j
            | Error e ->
              Alcotest.failf "%s scenario: %s" label
                (Svc.Client.error_string e)
          in
          check_bool "echoes name" true
            (J.member "scenario" wrapped = Some (J.Str name));
          check_bool "echoes verb" true
            (J.member "verb" wrapped = Some (J.Str verb));
          match J.member "result" wrapped with
          | None -> Alcotest.fail "no result member"
          | Some inner ->
            (* field-for-field: same verdict, same counts, same stats — the
               wire runs the identical engine *)
            check_string label
              (J.to_string (scrub direct))
              (J.to_string (scrub inner)))
        [
          ( "modelcheck",
            [
              ("scenario", J.Str "safe-agreement"); ("n_s", J.Int 1);
              ("depth", J.Int 8); ("reduce", J.Bool false);
            ],
            "safe" );
          ( "modelcheck",
            [
              ("scenario", J.Str "race-false"); ("n_s", J.Int 1);
              ("depth", J.Int 8); ("reduce", J.Bool false);
            ],
            "violation" );
          ( "solve",
            [
              ("task", J.Str "consensus"); ("fd", J.Str "omega");
              ("n", J.Int 3); ("seed", J.Int 2);
            ],
            "solves" );
          ( "fuzz",
            [
              ("kind", J.Str "strong-renaming"); ("n", J.Int 4);
              ("j", J.Int 3); ("budget", J.Int 500);
            ],
            "violation" );
        ])

(* the distributed leg: the same data-form scenarios, resolved through the
   registry exactly as the server resolves them, fanned out over a 2-worker
   TCP fleet via the coordinator must reproduce the local engine's verdict
   (and, for race-false, its lex-least counterexample — verdict_str prints
   it) bit-for-bit *)
let test_differential_distributed () =
  List.iter
    (fun (scen, expect) ->
      let spec_json =
        Printf.sprintf
          {|{"v": 1, "name": "diff/%s", "verb": "modelcheck",
             "params": {"scenario": "%s", "n_s": 1, "depth": 8,
                        "reduce": false},
             "expect": {"outcome": "%s"}}|}
          scen scen expect
      in
      let sp =
        match Spec.of_string spec_json with
        | Ok sp -> sp
        | Error e -> Alcotest.fail e
      in
      let m =
        match sp.Spec.sp_work with
        | Spec.Modelcheck m -> m
        | _ -> Alcotest.fail "not a modelcheck spec"
      in
      let sc =
        match Mcheck.Scenario.find m.Spec.mc_scenario ~n_s:m.Spec.mc_n_s with
        | Ok sc -> sc
        | Error e -> Alcotest.fail e
      in
      let local, _ =
        Simkit.Exhaustive.run
          ?reduce:(Mcheck.Scenario.reduction sc ~reduce:m.Spec.mc_reduce)
          ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
          ~depth:m.Spec.mc_depth ~prop:sc.Mcheck.Scenario.sc_prop ()
      in
      Test_dist.with_tcp_workers 2 (fun servers ->
          let workers = List.map snd servers in
          match
            Dist.Coordinator.run ~reduce:m.Spec.mc_reduce ~scenario:sc
              ~depth:m.Spec.mc_depth ~workers ()
          with
          | Error e -> Alcotest.failf "%s distributed: %s" scen e
          | Ok r ->
            check_string
              (Printf.sprintf "%s: data form distributed = local" scen)
              (Test_exhaustive.verdict_str local)
              (Test_exhaustive.verdict_str r.Dist.Coordinator.r_verdict)))
    [ ("safe-agreement", "safe"); ("race-false", "violation") ]

let suite =
  [
    Alcotest.test_case "golden byte identity" `Quick
      test_golden_byte_identity;
    Alcotest.test_case "golden malformed diagnostics" `Quick
      test_golden_malformed;
    Alcotest.test_case "load missing file" `Quick test_load_missing_file;
    Alcotest.test_case "strict parse errors" `Quick test_strict_parse_errors;
    Alcotest.test_case "derived expectations" `Quick test_derived_expect;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_print_fixpoint;
    Alcotest.test_case "campaign expand" `Quick test_campaign_expand;
    Alcotest.test_case "campaign bad cell" `Quick test_campaign_bad_cell;
    Alcotest.test_case "campaign duplicate names" `Quick
      test_campaign_duplicate_names;
    Alcotest.test_case "run_local outcome classes" `Quick
      test_run_local_outcomes;
    Alcotest.test_case "campaign bench record" `Quick test_record_shape;
    Alcotest.test_case "differential: data = name (1 worker)" `Quick
      (test_differential ~workers:1);
    Alcotest.test_case "differential: data = name (4 workers)" `Quick
      (test_differential ~workers:4);
    Alcotest.test_case "differential: data = name (distributed)" `Quick
      test_differential_distributed;
  ]
