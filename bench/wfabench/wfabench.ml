(* wfabench: the repository's performance benchmark.

     dune exec bench/wfabench/wfabench.exe -- --seed 1
       all four workloads, each in a fresh process, end-to-end metrics
     dune exec bench/wfabench/wfabench.exe -- --seed 1 --trace 1
       the same, traced: per-layer metrics and a Chrome trace per workload
     dune exec bench/wfabench/wfabench.exe -- --workload serve-rpc --seed 3
       one workload in this process; the last line is the JSON result
     dune exec bench/wfabench/wfabench.exe -- --runs 10
       the suite ten times (seeds 1..10): median and quartiles per metric

   See README.md in this directory for the workloads and metrics. *)

module J = Obs.Json

let workload = ref None
let seed = ref 1
let seconds = ref None
let trace = ref false
let runs = ref 1
let quick = ref false
let smoke = ref false
let cold_start = ref false

let spec =
  [
    ( "--workload",
      Arg.String (fun w -> workload := Some w),
      "NAME run one workload in this process: "
      ^ String.concat ", " Manifest.workloads );
    ("--seed", Arg.Set_int seed, "N input seed (default 1)");
    ( "--seconds",
      Arg.Float (fun s -> seconds := Some s),
      "S measured seconds per workload (default BENCHMARK.json's run_seconds, \
       traced 10)" );
    ( "--trace",
      Arg.Int
        (function
        | 0 -> trace := false
        | 1 -> trace := true
        | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
      "0|1 traced run: per-layer metrics and a trace file" );
    ( "--runs",
      Arg.Set_int runs,
      "N repeat the suite N times, with seeds seed..seed+N-1" );
    ( "--quick",
      Arg.Set quick,
      " rounds of four inputs and no warm-up (for the test rule, not for \
       measurement)" );
    ( "--smoke",
      Arg.Set smoke,
      " run every workload for about a second with the oracle on (the test \
       rule)" );
    ( "--cold-start",
      Arg.Set cold_start,
      " build check-local's inputs and first runtime, print the seconds \
       that took and the host's slowdown, then exit (the set-up check-local \
       times)" );
  ]

let usage =
  "wfabench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs \
   N]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("wfabench: " ^ msg);
      exit 2)
    fmt

let listed () = if !trace then Manifest.per_layer else Manifest.end_to_end

(* ------------------------------------------------------- one workload *)

let run_one name f =
  let nproc = Host.nproc () in
  let cfg =
    {
      Workloads.seed = !seed;
      seconds =
        (match !seconds with
        | Some s -> s
        | None -> if !trace then 10. else Manifest.run_seconds);
      trace = !trace;
      quick = !quick;
      nproc;
    }
  in
  Printf.printf "wfabench: %s seed %d seconds %g trace %d%s\n%!" name !seed
    cfg.Workloads.seconds
    (if !trace then 1 else 0)
    (if !quick then " quick" else "");
  let o = f cfg in
  let host =
    [
      ("nproc", string_of_int nproc);
      ( "recommended_domain_count",
        string_of_int (Domain.recommended_domain_count ()) );
      ("ocaml", Sys.ocaml_version);
    ]
    @ o.Workloads.notes
  in
  Printf.printf "host: %s\n"
    (String.concat ", " (List.map (fun (k, v) -> k ^ " " ^ v) host));
  let value m =
    match List.assoc_opt m.Manifest.m_name o.Workloads.metrics with
    | Some v -> v
    | None -> failwith ("metric not measured: " ^ m.Manifest.m_name)
  in
  List.iter
    (fun m ->
      Printf.printf "  %-26s %16.9g %s\n" m.Manifest.m_name (value m)
        m.Manifest.m_unit)
    (listed ());
  List.iter
    (fun (n, v, u) ->
      Printf.printf "  %-26s %16.9g %s (not in the result line)\n" n v u)
    o.Workloads.extras;
  if !trace then begin
    let path =
      Filename.concat Host.root
        (Printf.sprintf "trace/%s-seed%d.json" name !seed)
    in
    Tracer.write ~path ~lanes:o.Workloads.lanes
      ~meta:
        ([ ("workload", J.Str name); ("seed", J.Int !seed) ]
        @ List.map (fun (k, v) -> (k, J.Str v)) host);
    Printf.printf "trace: %s (%d spans)\n" path !Tracer.count
  end;
  let correct = o.Workloads.failed = 0 in
  let metric m =
    ( m.Manifest.m_name,
      J.Obj [ ("value", J.Float (value m)); ("unit", J.Str m.Manifest.m_unit) ]
    )
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int o.Workloads.attempted);
            ("failed", J.Int o.Workloads.failed);
            ("metrics", J.Obj (List.map metric (listed ())));
          ]));
  exit (if correct then 0 else 1)

(* -------------------------------------------------- suite, runs, smoke *)

let current_child = ref None

let () =
  at_exit (fun () ->
      match !current_child with
      | Some pid -> (
        try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      | None -> ())

(* Run one workload in a fresh process; echo its output unless [echo] is
   false, and return the parsed result line, [None] when it ended without
   one. *)
let child ?(echo = true) ~name ~seed ~seconds ~trace ~quick () =
  let args =
    [
      Sys.executable_name;
      "--workload";
      name;
      "--seed";
      string_of_int seed;
      "--trace";
      (if trace then "1" else "0");
    ]
    @ (match seconds with
      | Some s -> [ "--seconds"; Printf.sprintf "%g" s ]
      | None -> [])
    @ if quick then [ "--quick" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr
      Unix.stderr
  in
  current_child := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  current_child := None;
  if echo then begin
    print_string out;
    flush stdout
  end;
  let last =
    List.find_opt (( <> ) "") (List.rev (String.split_on_char '\n' out))
  in
  match (status, Option.map J.of_string last) with
  | Unix.WEXITED (0 | 1), Some (Ok j) -> Some j
  | _ -> None

let metric_values j =
  match J.member "metrics" j with
  | Some (J.Obj kvs) ->
    List.filter_map
      (fun (k, v) ->
        Option.map (fun x -> (k, x))
          (Option.bind (J.member "value" v) J.to_float_opt))
      kvs
  | _ -> []

let correct j = J.member "correct" j = Some (J.Bool true)

(* The suite [--runs] times with seeds seed..seed+runs-1, every workload in
   a fresh process; with two runs or more, per workload and metric the
   median, the quartiles and the spread (q3 - q1) / median, flagged where
   it exceeds the metric's bound. *)
let suite () =
  let workloads =
    match !workload with
    | None -> Manifest.workloads
    | Some w -> [ w ]
  in
  let results = Hashtbl.create 16 in
  let ok = ref true in
  for i = 0 to !runs - 1 do
    List.iter
      (fun name ->
        match
          child ~name ~seed:(!seed + i) ~seconds:!seconds ~trace:!trace
            ~quick:!quick ()
        with
        | Some j ->
          if not (correct j) then ok := false;
          Hashtbl.add results name j
        | None ->
          ok := false;
          Printf.printf "wfabench: %s (seed %d) ended without a result\n%!"
            name (!seed + i))
      workloads
  done;
  if !runs >= 2 then begin
    Printf.printf "\nsummary over %d runs (seeds %d..%d)\n" !runs !seed
      (!seed + !runs - 1);
    Printf.printf "%-15s %-24s %12s %12s %12s %7s %6s\n" "workload" "metric"
      "median" "q1" "q3" "spread" "bound";
    List.iter
      (fun name ->
        let js = Hashtbl.find_all results name in
        List.iter
          (fun m ->
            let xs =
              List.filter_map
                (fun j -> List.assoc_opt m.Manifest.m_name (metric_values j))
                js
            in
            let med = Stat.median xs in
            let q1, q3 = Stat.quartiles xs in
            let spread = (q3 -. q1) /. Float.abs med in
            let bound = Option.value ~default:nan m.Manifest.m_bound in
            let over = spread > bound in
            Printf.printf "%-15s %-24s %12.6g %12.6g %12.6g %7.4f %6.2f%s\n"
              name m.Manifest.m_name med q1 q3 spread bound
              (if over then "  OVER" else ""))
          (listed ()))
      workloads
  end;
  exit (if !ok then 0 else 1)

(* The test rule: BENCHMARK.json names the workloads this bench has, and
   every workload runs end to end with its oracle on and prints every
   metric it owes. No timing is asserted. *)
let run_smoke () =
  if
    List.sort compare Manifest.workloads
    <> List.sort compare (List.map fst Workloads.all)
  then die "BENCHMARK.json and the bench name different workloads";
  let names ms = List.sort compare (List.map (fun m -> m.Manifest.m_name) ms) in
  let failures = ref [] in
  let go name ~trace =
    let owed = if trace then Manifest.per_layer else Manifest.end_to_end in
    match
      child ~echo:false ~name ~seed:1 ~seconds:(Some 1.) ~trace ~quick:true ()
    with
    | Some j
      when correct j
           && List.sort compare (List.map fst (metric_values j)) = names owed
      ->
      ()
    | _ -> failures := Printf.sprintf "%s (trace %b)" name trace :: !failures
  in
  go "check-local" ~trace:false;
  List.iter (fun name -> go name ~trace:true) Manifest.workloads;
  match !failures with
  | [] -> print_endline "wfabench smoke: ok"
  | fs -> die "smoke failed: %s" (String.concat ", " (List.rev fs))

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* a signal still runs the at_exit handlers that stop child processes *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  (match !workload with
  | Some w when not (List.mem_assoc w Workloads.all) ->
    die "unknown workload %S (%s)" w
      (String.concat ", " (List.map fst Workloads.all))
  | _ -> ());
  if !runs < 1 then die "--runs must be at least 1";
  if !cold_start then begin
    let seconds = Workloads.cold_start () in
    Printf.printf "%.9f %.9f\n" seconds (Calib.slowdown ~cores:1);
    exit 0
  end;
  match !workload with
  | _ when !smoke -> run_smoke ()
  | Some w when !runs = 1 -> (
    try run_one w (List.assoc w Workloads.all)
    with Failure msg | Sys_error msg -> die "%s" msg)
  | _ -> suite ()
