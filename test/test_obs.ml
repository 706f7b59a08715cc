(* The obs library: metric semantics, JSON writer/parser, sinks, the
   bench-record schema (golden bytes + round-trip), and the two exports of
   a recorded run's events. *)

open Simkit
open Tasklib
open Efd

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------- metrics *)

let test_counter () =
  let reg = Obs.Metrics.registry () in
  let c = Obs.Metrics.counter reg "hits" in
  check_int "fresh counter" 0 (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  check_int "incremented" 42 (Obs.Metrics.counter_value c);
  (* same (name, labels) is the same counter; different labels are not *)
  let c' = Obs.Metrics.counter reg "hits" in
  check_int "same identity" 42 (Obs.Metrics.counter_value c');
  let d = Obs.Metrics.counter reg ~labels:[ ("task", "ksa") ] "hits" in
  check_int "distinct labels" 0 (Obs.Metrics.counter_value d);
  check_bool "negative increment rejected" true
    (try
       Obs.Metrics.incr ~by:(-1) c;
       false
     with Invalid_argument _ -> true);
  check_bool "name/type collision rejected" true
    (try
       ignore (Obs.Metrics.gauge reg "hits");
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  let reg = Obs.Metrics.registry () in
  let g = Obs.Metrics.gauge reg "depth" in
  Obs.Metrics.set g 3.5;
  Obs.Metrics.set g 2.25;
  Alcotest.(check (float 0.)) "last write wins" 2.25 (Obs.Metrics.gauge_value g)

let test_histogram () =
  let reg = Obs.Metrics.registry () in
  let h = Obs.Metrics.histogram reg "lat" in
  check_bool "empty min is nan" true (Float.is_nan (Obs.Metrics.hist_min h));
  let lo, hi = Obs.Metrics.quantile_bounds h 0.5 in
  check_bool "empty bounds are nan" true (Float.is_nan lo && Float.is_nan hi);
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 4.0; 8.0; 0.0; -3.0 ];
  check_int "count" 6 (Obs.Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 12.0 (Obs.Metrics.hist_sum h);
  Alcotest.(check (float 0.)) "min" (-3.0) (Obs.Metrics.hist_min h);
  Alcotest.(check (float 0.)) "max" 8.0 (Obs.Metrics.hist_max h);
  (* extreme quantiles are exact: clipped to the observed min/max *)
  let lo, _ = Obs.Metrics.quantile_bounds h 0.0 in
  Alcotest.(check (float 0.)) "q0 lower" (-3.0) lo;
  let _, hi = Obs.Metrics.quantile_bounds h 1.0 in
  Alcotest.(check (float 0.)) "q1 upper" 8.0 hi;
  let p50lo, p50hi = Obs.Metrics.quantile_bounds h 0.5 in
  (* rank max 1 (ceil (0.5 * 6)) = 3 => sorted sample 1.0 *)
  check_bool "median bracketed" true (p50lo <= 1.0 && 1.0 <= p50hi);
  let est = Obs.Metrics.quantile h 0.5 in
  check_bool "point estimate inside bounds" true (p50lo <= est && est <= p50hi);
  check_bool "gamma <= 1 rejected" true
    (try
       ignore (Obs.Metrics.histogram reg ~gamma:1.0 "bad");
       false
     with Invalid_argument _ -> true)

(* the qcheck property behind quantile_bounds' contract: the returned
   interval brackets the exact rank-based quantile of the raw samples *)
let prop_quantile_bounds =
  QCheck.Test.make ~name:"quantile_bounds brackets the exact quantile"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 150) (float_range (-50.) 10_000.))
        (float_range 0. 1.))
    (fun (samples, q) ->
      let reg = Obs.Metrics.registry () in
      let h = Obs.Metrics.histogram reg "p" in
      List.iter (Obs.Metrics.observe h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
      let exact = List.nth sorted (rank - 1) in
      let lo, hi = Obs.Metrics.quantile_bounds h q in
      let tol = 1e-9 *. (abs_float exact +. 1.) in
      lo -. tol <= exact && exact <= hi +. tol)

let test_metrics_json () =
  let reg = Obs.Metrics.registry () in
  Obs.Metrics.incr (Obs.Metrics.counter reg ~labels:[ ("k", "1") ] "runs");
  Obs.Metrics.set (Obs.Metrics.gauge reg "wall_s") 0.125;
  let h = Obs.Metrics.histogram reg "steps" in
  List.iter (Obs.Metrics.observe h) [ 10.; 20.; 30. ];
  let j = Obs.Metrics.to_json reg in
  (* the export is valid JSON and round-trips through the parser *)
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "metrics json does not parse: %s" e
  | Ok j' -> check_bool "round-trip" true (Obs.Json.equal j j')

(* ---------------------------------------------------------------- json *)

let test_json_escaping () =
  check_string "control chars" {|"a\nb\tc\u0001"|}
    (Obs.Json.to_string (Obs.Json.Str "a\nb\tc\001"));
  check_string "quote and backslash" {|"\"\\"|}
    (Obs.Json.to_string (Obs.Json.Str "\"\\"));
  check_string "non-finite float is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check_string "escape_string quotes and wraps" {|"say \"hi\""|}
    (Obs.Json.escape_string {|say "hi"|})

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str "esc \"x\" \n \\ \001 end");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 3.140625);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Str ""; Obs.Json.Obj [] ]);
      ]
  in
  (match Obs.Json.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "compact does not parse: %s" e
  | Ok j' -> check_bool "compact round-trip" true (Obs.Json.equal j j'));
  (match Obs.Json.of_string (Obs.Json.to_string_pretty j) with
  | Error e -> Alcotest.failf "pretty does not parse: %s" e
  | Ok j' -> check_bool "pretty round-trip" true (Obs.Json.equal j j'));
  (* unicode escapes decode to UTF-8 *)
  (match Obs.Json.of_string {|"A\u00e9"|} with
  | Ok (Obs.Json.Str s) -> check_string "unicode escape" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode escape did not parse");
  (* malformed inputs are errors, not exceptions *)
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ "{"; "[1,]"; "\"unterminated"; "tru"; "1 2"; "{\"a\" 1}" ]

(* Untrusted-input guards: the parser the service layer aims at wire bytes
   must fail cleanly — never a stack overflow or escaping exception. *)
let test_json_untrusted_guards () =
  let err = function Error _ -> true | Ok _ -> false in
  (* a million open brackets would previously recurse a million deep *)
  let bombs =
    [
      String.make 1_000_000 '[';
      String.make 1_000_000 '{';
      String.concat "" (List.init 200_000 (fun _ -> "[{\"a\":"));
    ]
  in
  List.iter
    (fun s -> check_bool "nesting bomb is a clean error" true
        (err (Obs.Json.of_string s)))
    bombs;
  (* the limits are tunable per call site *)
  check_bool "depth 3 under limit 4" true
    (Obs.Json.of_string ~max_depth:4 "[[[1]]]" |> Result.is_ok);
  check_bool "depth 5 over limit 4" true
    (err (Obs.Json.of_string ~max_depth:4 "[[[[[1]]]]]"));
  check_bool "string over limit" true
    (err (Obs.Json.of_string ~max_string:8 "\"123456789abc\""));
  check_bool "string under limit" true
    (Obs.Json.of_string ~max_string:32 "\"short\"" |> Result.is_ok);
  check_bool "number literal over limit" true
    (err (Obs.Json.of_string ~max_number:8 (String.make 100 '1')));
  check_bool "number under limit" true
    (Obs.Json.of_string ~max_number:8 "1234567" |> Result.is_ok);
  (* guard errors carry a message, and legitimate deep-ish data still
     parses under the defaults *)
  (match Obs.Json.of_string ~max_depth:2 "[[[1]]]" with
  | Error msg -> check_bool "error mentions nesting" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "expected depth error");
  let nested depth =
    String.concat ""
      (List.concat
         [ List.init depth (fun _ -> "["); [ "0" ];
           List.init depth (fun _ -> "]") ])
  in
  check_bool "depth 100 parses under defaults" true
    (Obs.Json.of_string (nested 100) |> Result.is_ok)

(* --------------------------------------------------------------- sinks *)

let test_sinks () =
  let ev i = Obs.Event.make "tick" [ ("i", Obs.Json.Int i) ] in
  let sink, events = Obs.Sink.buffer () in
  Obs.Sink.emit sink (ev 1);
  Obs.Sink.emit sink (ev 2);
  check_int "count" 2 (Obs.Sink.count sink);
  check_bool "order preserved" true
    (List.for_all2 Obs.Event.equal [ ev 1; ev 2 ] (events ()));
  Obs.Sink.close sink;
  Obs.Sink.emit sink (ev 3);
  check_int "emit after close dropped" 2 (Obs.Sink.count sink);
  let path = Filename.temp_file "obs_test" ".jsonl" in
  let fs = Obs.Sink.file path in
  Obs.Sink.emit fs (ev 7);
  Obs.Sink.emit fs (Obs.Event.make "done" []);
  Obs.Sink.close fs;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  check_int "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Ok (Obs.Json.Obj (("ev", Obs.Json.Str _) :: _)) -> ()
      | _ -> Alcotest.failf "bad event line %S" line)
    lines

let test_span () =
  let sink, events = Obs.Sink.buffer () in
  let sp = Obs.Span.start ~name:"work" () in
  let s = Obs.Span.finish ~sink sp in
  check_bool "elapsed non-negative" true (s >= 0.);
  match events () with
  | [ e ] ->
    check_bool "span event shape" true
      (match Obs.Event.to_json e with
      | Obs.Json.Obj (("ev", Obs.Json.Str "span") :: _) -> true
      | _ -> false)
  | l -> Alcotest.failf "expected one span event, got %d" (List.length l)

(* -------------------------------------------------------- bench record *)

(* must stay in sync with the committed golden file: regenerate it with this
   exact construction if the schema version is ever bumped *)
let golden_record () =
  let r = Obs.Bench_record.create ~id:"golden" ~title:"golden fixture" () in
  Obs.Bench_record.meta r "seed" (Obs.Json.Int 42);
  Obs.Bench_record.meta r "note" (Obs.Json.Str "fixed fixture \"quoted\"\n");
  Obs.Bench_record.row r
    ~labels:[ ("task", "consensus"); ("k", "1") ]
    [ ("pass", Obs.Json.Int 12); ("mean_steps", Obs.Json.Float 314.25) ];
  Obs.Bench_record.row r
    ~labels:[ ("task", "renaming") ]
    [ ("violation", Obs.Json.Bool false); ("max_name", Obs.Json.Null) ];
  r

let test_bench_record_golden () =
  let got = Obs.Json.to_string_pretty (Obs.Bench_record.to_json (golden_record ())) in
  let path = "golden/bench_record_golden.json" in
  let ic = open_in_bin path in
  let want = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_string "golden bytes" want got

(* the comparison behind check_bench_json --baseline: pass and fail sides of
   the tolerance gate, on hand-built records *)
let test_baseline_regressions () =
  let record rate extra_row =
    let r = Obs.Bench_record.create ~id:"gate" () in
    Obs.Bench_record.row r
      ~labels:[ ("engine", "incremental"); ("config", "sa") ]
      [
        ("steps_per_s", Obs.Json.Float rate);
        ("nodes", Obs.Json.Int 9);  (* not a throughput metric: never gated *)
      ];
    if extra_row then
      Obs.Bench_record.row r
        ~labels:[ ("engine", "fresh-only") ]
        [ ("steps_per_s", Obs.Json.Float 1.) ];
    Obs.Bench_record.to_json r
  in
  let base = record 300. false in
  (* pass side: exactly at the floor (300 / 3 = 100) is not a regression *)
  let regs, compared =
    Obs.Bench_record.baseline_regressions ~fresh:(record 100. true) ~base ()
  in
  Alcotest.(check int) "one metric compared (unmatched row ignored)" 1
    compared;
  check_bool "at the floor passes" true (regs = []);
  (* fail side: just under the floor regresses, with the numbers reported *)
  (match
     Obs.Bench_record.baseline_regressions ~fresh:(record 99. false) ~base ()
   with
  | [ r ], 1 ->
    check_string "metric" "steps_per_s" r.Obs.Bench_record.reg_metric;
    check_bool "key carries the sorted labels" true
      (r.Obs.Bench_record.reg_key
      = [ ("config", "sa"); ("engine", "incremental") ]);
    check_bool "limit is base / tolerance" true
      (abs_float (r.Obs.Bench_record.reg_limit -. 100.) < 1e-9)
  | regs, n ->
    Alcotest.failf "expected exactly one regression, got %d (%d compared)"
      (List.length regs) n);
  (* the tolerance is a parameter: at 2.0 the same drop fails, a mild one
     passes *)
  (match
     Obs.Bench_record.baseline_regressions ~tolerance:2. ~fresh:(record 149. false)
       ~base ()
   with
  | [ _ ], 1 -> ()
  | _ -> Alcotest.fail "expected a regression at tolerance 2");
  let regs, _ =
    Obs.Bench_record.baseline_regressions ~tolerance:2. ~fresh:(record 151. false)
      ~base ()
  in
  check_bool "151 >= 300/2 passes at tolerance 2" true (regs = []);
  check_bool "tolerance < 1 rejected" true
    (match
       Obs.Bench_record.baseline_regressions ~tolerance:0.5 ~fresh:base ~base ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* latency metrics gate in the opposite direction: a rise beyond
   base * tolerance regresses, a drop never does *)
let test_baseline_latency_direction () =
  let record lat =
    let r = Obs.Bench_record.create ~id:"gate" () in
    Obs.Bench_record.row r
      ~labels:[ ("verb", "ping"); ("codec", "binary") ]
      [
        ("p99_latency_s", Obs.Json.Float lat);
        ("req_per_s", Obs.Json.Float 1000.);
      ];
    Obs.Bench_record.to_json r
  in
  let base = record 0.01 in
  (* pass side: exactly at the ceiling (0.01 * 3) is not a regression, and
     an improvement (lower latency) never is *)
  let regs, compared =
    Obs.Bench_record.baseline_regressions ~fresh:(record 0.03) ~base ()
  in
  Alcotest.(check int) "latency and throughput both compared" 2 compared;
  check_bool "at the ceiling passes" true (regs = []);
  let regs, _ =
    Obs.Bench_record.baseline_regressions ~fresh:(record 0.0001) ~base ()
  in
  check_bool "faster is never a latency regression" true (regs = []);
  (* fail side: above the ceiling regresses, with the ceiling reported *)
  match
    Obs.Bench_record.baseline_regressions ~fresh:(record 0.031) ~base ()
  with
  | [ r ], 2 ->
    check_string "metric" "p99_latency_s" r.Obs.Bench_record.reg_metric;
    check_bool "limit is base * tolerance" true
      (abs_float (r.Obs.Bench_record.reg_limit -. 0.03) < 1e-9)
  | regs, n ->
    Alcotest.failf "expected exactly one regression, got %d (%d compared)"
      (List.length regs) n

let test_bench_record_roundtrip () =
  let r = golden_record () in
  let j = Obs.Bench_record.to_json r in
  (match Obs.Json.of_string (Obs.Json.to_string_pretty j) with
  | Error e -> Alcotest.failf "bench record does not parse: %s" e
  | Ok j' ->
    check_bool "round-trip" true (Obs.Json.equal j j');
    check_bool "schema field" true
      (Obs.Json.member "schema" j' |> Option.map Obs.Json.to_string_opt
      = Some (Some Obs.Bench_record.schema_name));
    check_bool "version field" true
      (Obs.Json.member "version" j' |> Option.map Obs.Json.to_int_opt
      = Some (Some Obs.Bench_record.schema_version)));
  (* stable across runs: building the same record twice gives identical bytes *)
  let bytes () =
    Obs.Json.to_string_pretty (Obs.Bench_record.to_json (golden_record ()))
  in
  check_string "deterministic bytes" (bytes ()) (bytes ())

(* ------------------------------------------------- recorded events *)

(* A run's per-step events are read from its recorded trace: streamed
   through a sink, they are the trace's event list. *)
let test_recorded_events () =
  let task = Set_agreement.make ~n:3 ~k:1 () in
  let input = Task.sample_input task (Random.State.make [| 7 |]) in
  let r =
    Run.execute ~record_trace:true ~task ~algo:(Ksa.consensus ())
      ~fd:(Fdlib.Leader_fds.omega ~max_stab:40 ())
      ~pattern:(Failure.failure_free 3)
      ~input ~seed:7 ()
  in
  let tr = Option.get r.Run.r_trace in
  let events = Trace.to_events tr in
  check_int "one event per step" r.Run.r_steps (List.length events);
  let sink, streamed = Obs.Sink.buffer () in
  Trace.emit tr sink;
  check_bool "emit = to_events" true
    (List.equal Obs.Event.equal events (streamed ()))

let test_exhaustive_stats_export () =
  let build () =
    let mem = Memory.create () in
    let r = Memory.alloc1 mem () in
    Runtime.create
      {
        Runtime.n_c = 2;
        n_s = 1;
        memory = mem;
        pattern = Failure.failure_free 1;
        history = History.trivial;
        record_trace = false;
      }
      ~c_code:(fun i () ->
        Runtime.Op.write r (Value.int i);
        Runtime.Op.decide (Runtime.Op.read r))
      ~s_code:(fun _ () -> ())
  in
  let verdict, st =
    Exhaustive.run ~build
      ~pids:[ Pid.c 0; Pid.c 1 ]
      ~depth:4
      ~prop:(fun _ -> true)
      ()
  in
  check_bool "verdict ok" true (match verdict with Exhaustive.Ok _ -> true | _ -> false);
  check_bool "monotonic wall time" true (st.Exhaustive.wall_s >= 0.);
  match Obs.Json.of_string (Obs.Json.to_string (Exhaustive.stats_json st)) with
  | Ok j ->
    check_bool "stats_of_json reads back what stats_json wrote" true
      (Exhaustive.stats_of_json j = Ok st)
  | Error e -> Alcotest.failf "stats_json does not parse: %s" e

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "histogram semantics" `Quick test_histogram;
    QCheck_alcotest.to_alcotest prop_quantile_bounds;
    Alcotest.test_case "metrics json export" `Quick test_metrics_json;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json untrusted-input guards" `Quick
      test_json_untrusted_guards;
    Alcotest.test_case "sinks" `Quick test_sinks;
    Alcotest.test_case "span" `Quick test_span;
    Alcotest.test_case "bench record golden bytes" `Quick test_bench_record_golden;
    Alcotest.test_case "bench record round-trip" `Quick test_bench_record_roundtrip;
    Alcotest.test_case "baseline tolerance gate (pass + fail)" `Quick
      test_baseline_regressions;
    Alcotest.test_case "baseline latency direction (pass + fail)" `Quick
      test_baseline_latency_direction;
    Alcotest.test_case "recorded events: emit = to_events" `Quick
      test_recorded_events;
    Alcotest.test_case "exhaustive stats export" `Quick test_exhaustive_stats_export;
  ]
