(* The checkpoint durability battery (DESIGN.md §8):
   - qcheck: [Store.load ∘ Store.save = id] over arbitrary records, in
     both payload codecs — the record survives the store byte-exactly;
   - torn writes: the newest generation truncated at EVERY byte offset
     must roll back to the previous generation, never raise;
   - corruption: a flipped bit anywhere demotes the generation the same
     way. *)

open Simkit
module J = Obs.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wfa-ckpt-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_store ?codec ?keep f =
  let dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match Ckpt.Store.create ?codec ?keep dir with
      | Error msg -> Alcotest.failf "create %s: %s" dir msg
      | Ok store -> f store)

(* ------------------------------------------------------------ generators *)

let pid_gen =
  QCheck.Gen.(
    map2 (fun is_c i -> if is_c then Pid.c i else Pid.s i) bool (int_bound 3))

let verdict_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun n -> Exhaustive.Ok n) (int_bound 1_000_000));
        ( 1,
          map
            (fun ps -> Exhaustive.Counterexample ps)
            (list_size (int_range 1 8) pid_gen) );
      ])

let stats_gen =
  QCheck.Gen.(
    map
      (fun ((nodes, steps, replays, builds), (memo, sleep, orbits, wall)) ->
        {
          Exhaustive.nodes;
          steps_executed = steps;
          replays;
          runtimes_built = builds;
          memo_hits = memo;
          sleep_pruned = sleep;
          orbits_collapsed = orbits;
          wall_s = wall;
        })
      (pair
         (quad (int_bound 1_000_000) (int_bound 1_000_000)
            (int_bound 1_000_000) (int_bound 1_000_000))
         (quad (int_bound 1_000_000) (int_bound 1_000_000)
            (int_bound 1_000_000)
            (* finite, exactly-representable through the JSON printer *)
            (map (fun f -> f /. 1024.) (float_bound_inclusive 1e6)))))

let config_gen =
  QCheck.Gen.(
    map
      (fun (scenario, n_s, depth, reduce) ->
        {
          Ckpt.Record.cf_scenario =
            (if scenario then "safe-agreement" else "race-false");
          cf_n_s = n_s;
          cf_depth = depth;
          cf_reduce = reduce;
          cf_split_depth = max 1 (min 3 (depth - 1));
        })
      (quad bool (int_range 1 4) (int_range 2 12) bool))

let record_gen =
  QCheck.Gen.(
    config_gen >>= fun config ->
    int_range 0 40 >>= fun total ->
    (if total = 0 then return []
     else
       list_size (int_bound (min total 20))
         (map2
            (fun id (verdict, stats) ->
              { Ckpt.Record.dj_id = id; dj_verdict = verdict; dj_stats = stats })
            (int_bound (total - 1))
            (pair verdict_gen stats_gen)))
    >>= fun done_ -> return (Ckpt.Record.make ~config ~total ~done_))

let record_arb =
  QCheck.make record_gen ~print:(fun r -> J.to_string (Ckpt.Record.json r))

(* ------------------------------------------------------------ round-trip *)

let roundtrip_prop codec r =
  with_store ~codec (fun store ->
      (match Ckpt.Store.save store (Ckpt.Record.json r) with
      | Error msg -> Alcotest.failf "save: %s" msg
      | Ok _ -> ());
      match Ckpt.Store.load store with
      | None -> Alcotest.fail "load: no generation after save"
      | Some (_, value) -> (
        match Ckpt.Record.of_json value with
        | Error msg -> Alcotest.failf "of_json: %s" msg
        | Ok r' -> Ckpt.Record.equal r r'))

let roundtrip_test codec name =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name record_arb (roundtrip_prop codec))

(* ------------------------------------------------------------ torn tails *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let small_record =
  Ckpt.Record.make
    ~config:
      {
        Ckpt.Record.cf_scenario = "safe-agreement";
        cf_n_s = 1;
        cf_depth = 6;
        cf_reduce = true;
        cf_split_depth = 2;
      }
    ~total:4
    ~done_:
      [
        {
          Ckpt.Record.dj_id = 1;
          dj_verdict = Exhaustive.Ok 9;
          dj_stats = Exhaustive.zero_stats;
        };
      ]

(* Two generations, then truncate the newest at every byte offset: the
   loader must always fall back to generation 0, never raise, and an
   untouched store must still prefer generation 1. *)
let torn_write_codec codec () =
  let old_value = J.Obj [ ("v", J.Int 1); ("marker", J.Str "old") ] in
  with_store ~codec (fun store ->
      (match Ckpt.Store.save store old_value with
      | Ok g -> check_int "first generation" 0 g
      | Error msg -> Alcotest.failf "save old: %s" msg);
      (match Ckpt.Store.save store (Ckpt.Record.json small_record) with
      | Ok g -> check_int "second generation" 1 g
      | Error msg -> Alcotest.failf "save new: %s" msg);
      let newest = Ckpt.Store.generation_path store 1 in
      let intact = read_file newest in
      check_bool "untouched store loads the newest" true
        (match Ckpt.Store.load store with
        | Some (1, _) -> true
        | _ -> false);
      for len = 0 to String.length intact - 1 do
        write_file newest (String.sub intact 0 len);
        match Ckpt.Store.load store with
        | Some (0, v) when v = old_value -> ()
        | Some (g, _) ->
          Alcotest.failf "truncated at %d: loaded generation %d" len g
        | None -> Alcotest.failf "truncated at %d: no fallback" len
      done;
      (* restore and flip one bit in every byte position: checksum (or
         header validation) must demote it identically *)
      for i = 0 to String.length intact - 1 do
        let b = Bytes.of_string intact in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
        write_file newest (Bytes.to_string b);
        match Ckpt.Store.load store with
        | Some (0, v) when v = old_value -> ()
        | Some (g, _) ->
          Alcotest.failf "bit flip at %d: loaded generation %d" i g
        | None -> Alcotest.failf "bit flip at %d: no fallback" i
      done)

(* ------------------------------------------------------- store mechanics *)

let test_generations_and_pruning () =
  with_store ~codec:Ckpt.Store.Json ~keep:2 (fun store ->
      for i = 0 to 4 do
        match Ckpt.Store.save store (J.Int i) with
        | Ok g -> check_int "generation number" i g
        | Error msg -> Alcotest.failf "save %d: %s" i msg
      done;
      Alcotest.(check (list int))
        "pruned to keep" [ 3; 4 ]
        (Ckpt.Store.generations store);
      check_bool "newest wins" true
        (Ckpt.Store.load store = Some (4, J.Int 4));
      (* a reopened store continues the numbering *)
      match Ckpt.Store.create (Ckpt.Store.dir store) with
      | Error msg -> Alcotest.failf "reopen: %s" msg
      | Ok store' -> (
        match Ckpt.Store.save store' (J.Int 5) with
        | Ok g -> check_int "numbering continues after reopen" 5 g
        | Error msg -> Alcotest.failf "save after reopen: %s" msg))

let test_empty_and_garbage () =
  with_store (fun store ->
      check_bool "empty store loads None" true (Ckpt.Store.load store = None);
      (* stray files that do not parse as generation names are ignored *)
      write_file
        (Filename.concat (Ckpt.Store.dir store) "not-a-generation")
        "junk";
      check_bool "stray file ignored" true (Ckpt.Store.load store = None))

(* Record validation: of_json must reject what make forbids. *)
let test_record_validation () =
  let json = Ckpt.Record.json small_record in
  (match Ckpt.Record.of_json json with
  | Ok r -> check_bool "round-trip equal" true (Ckpt.Record.equal small_record r)
  | Error msg -> Alcotest.failf "of_json: %s" msg);
  let reject what mangle =
    match Ckpt.Record.of_json (mangle json) with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  reject "wrong version" (fun j ->
      match j with
      | J.Obj kvs ->
        J.Obj (List.map (fun (k, v) -> if k = "v" then (k, J.Int 2) else (k, v)) kvs)
      | j -> j);
  reject "id out of range" (fun j ->
      match j with
      | J.Obj kvs ->
        J.Obj
          (List.map
             (fun (k, v) -> if k = "total" then (k, J.Int 1) else (k, v))
             kvs)
      | j -> j);
  reject "not an object" (fun _ -> J.Str "nope")

(* Journals written before every verdict carried [schedules] hold a
   counterexample entry without it: such a record still loads. *)
let test_record_without_cex_schedules () =
  let entry id verdict =
    J.Obj
      ((("id", J.Int id) :: verdict)
      @ [ ("stats", Exhaustive.stats_json Exhaustive.zero_stats) ])
  in
  let cex = [ Pid.c 0; Pid.s 0; Pid.c 1 ] in
  let json =
    J.Obj
      [
        ("v", J.Int 1);
        ( "config",
          J.Obj
            [
              ("scenario", J.Str "race-false");
              ("n_s", J.Int 1);
              ("depth", J.Int 6);
              ("reduce", J.Bool false);
              ("split_depth", J.Int 3);
            ] );
        ("total", J.Int 27);
        ( "done",
          J.List
            [
              entry 0 [ ("verdict", J.Str "ok"); ("schedules", J.Int 27) ];
              entry 1
                [
                  ("verdict", J.Str "counterexample");
                  ("cex", Exhaustive.schedule_json cex);
                ];
            ] );
      ]
  in
  match Ckpt.Record.of_json json with
  | Error msg -> Alcotest.failf "of_json: %s" msg
  | Ok r ->
    check_bool "both entries, verdicts intact" true
      (List.map
         (fun d -> (d.Ckpt.Record.dj_id, d.Ckpt.Record.dj_verdict))
         r.Ckpt.Record.ck_done
      = [ (0, Exhaustive.Ok 27); (1, Exhaustive.Counterexample cex) ])

let suite =
  [
    roundtrip_test Ckpt.Store.Json "store round-trip (json codec)";
    roundtrip_test Ckpt.Store.Binary "store round-trip (binary codec)";
    Alcotest.test_case "torn/corrupt tail rolls back (json)" `Quick
      (torn_write_codec Ckpt.Store.Json);
    Alcotest.test_case "torn/corrupt tail rolls back (binary)" `Quick
      (torn_write_codec Ckpt.Store.Binary);
    Alcotest.test_case "generations, pruning, reopen" `Quick
      test_generations_and_pruning;
    Alcotest.test_case "empty store and stray files" `Quick
      test_empty_and_garbage;
    Alcotest.test_case "record validation" `Quick test_record_validation;
    Alcotest.test_case "counterexample entry without schedules loads" `Quick
      test_record_without_cex_schedules;
  ]
