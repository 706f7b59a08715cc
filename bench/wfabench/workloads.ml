(* The four workloads. Each one: timed set-up (cold starts, more of them
   spread over an untraced run), one untimed warm-up pass, then closed-loop
   operation for the run's seconds in whole rounds. Untraced runs report
   the end-to-end metrics. A traced run spends its first third untraced and
   the rest under spans (the ratio is the tracing overhead), then runs the
   layer probes on the workload's own inputs and reports the per-layer
   metrics. *)

module J = Obs.Json
module P = Svc.Protocol
module Spec = Scenario.Spec
open Simkit

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;  (** rounds of four inputs and no warm-up: the test rule *)
  nproc : int;
}

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** end-to-end when untraced, per-layer when traced *)
  extras : (string * float * string) list;
      (** printed only, not in the result line *)
  notes : (string * string) list;
  lanes : (int * string) list;  (** trace lanes by tid *)
}

(* ------------------------------------------------------------ common *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let check_op t name r =
  t.attempted <- t.attempted + 1;
  match r with
  | Ok () -> ()
  | Error msg ->
    t.failed <- t.failed + 1;
    Printf.eprintf "wfabench: FAIL %s: %s\n%!" name msg

(* Set-up cost: the median of cold starts, each in seconds on the
   reference core (calib.ml). [cold_start_count] come before the timed
   rounds, the last of them kept for the run, and [top_up_count] more
   whenever the meter below closes a segment [top_up_s] after the last: the
   host has spells of seconds in which a start takes half as long again,
   which a median over starts taken together reads in full and one over
   starts spread across the run passes over. [start] returns what it built
   and its own reference seconds; [dispose] tears it down. *)
let cold_start_count = 5
let top_up_count = 2
let top_up_s = 0.5

type setup = {
  again : unit -> float;  (** one more cold start, torn down: its seconds *)
  mutable times : float list;
  mutable last : int;
}

let cold_starts ~start ~dispose =
  let again () =
    let x, s = start () in
    dispose x;
    s
  in
  let times = List.init (cold_start_count - 1) (fun _ -> again ()) in
  let x, s = start () in
  (x, { again; times = s :: times; last = Host.now_ns () })

let top_up st =
  if Host.since_s st.last >= top_up_s then begin
    for _ = 1 to top_up_count do
      st.times <- st.again () :: st.times
    done;
    st.last <- Host.now_ns ()
  end

let setup_s st = Stat.median st.times

(* A server workload's cold start: [start] its servers, and divide the
   seconds that took by the host's slowdown on [cores] cores, measured
   while the fresh servers sit idle. *)
let server_start ~cores start () =
  let servers, s = start () in
  (servers, s /. Calib.slowdown ~cores)

(* CPU seconds of the bench process and of [servers]: all the processes a
   workload runs on. *)
let cpu_of servers () =
  List.fold_left
    (fun acc s -> acc +. Host.cpu_s s.Servers.pid)
    (Host.self_cpu_s ()) servers

(* The workload's cost on the reference core (calib.ml), metered in
   segments: a segment's CPU seconds over the mean of the host's slowdown
   probed at its two ends. The host changes speed within a second, so a
   segment is kept short: workloads that run one operation at a time close
   one between operations once [segment_s] have passed ([tick]), the others
   at the end of each round. The probe's own CPU time falls between
   segments, and so do the cold starts [setup] is topped up with. *)
type meter = {
  read_cpu : unit -> float;
  cores : int;  (** CPUs the workload keeps busy: the probe runs on as many *)
  setup : setup option;
  mutable cpu0 : float;
  mutable slow0 : float;
  mutable since : int;
  mutable ref_s : float;  (** reference CPU seconds metered so far *)
}

let segment_s = 0.1

let meter ?setup ~cpu ~cores () =
  let slow0 = Calib.slowdown ~cores in
  {
    read_cpu = cpu;
    cores;
    setup;
    cpu0 = cpu ();
    slow0;
    since = Host.now_ns ();
    ref_s = 0.;
  }

let close m =
  let c = m.read_cpu () in
  let slow = Calib.slowdown ~cores:m.cores in
  m.ref_s <- m.ref_s +. ((c -. m.cpu0) *. 2. /. (m.slow0 +. slow));
  Option.iter top_up m.setup;
  m.cpu0 <- m.read_cpu ();
  m.slow0 <- slow;
  m.since <- Host.now_ns ()

let tick m = if Host.since_s m.since >= segment_s then close m

(* One round: a pass over the workload's inputs, with the latency of each
   operation in it, its wall seconds, its reference CPU seconds, and the
   host's slowdown at its end. *)
type round = {
  wall : float;
  ref_cpu : float;
  slowdown : float;
  lat : float list;
}

(* Whole rounds back to back for about [seconds], at least one: another
   round starts while at least half of one still fits, so a phase of long
   rounds (check-fleet's take seconds) overruns by half a round at most.
   [f i lat] runs round [i] and adds each operation's latency to [lat]; it
   may [tick m] between operations, and [m] is closed after it. *)
let rounds ~seconds m f =
  let t0 = Host.now_ns () in
  let rec go i acc =
    let lat = Stat.samples () in
    let r0 = Host.now_ns () and ref0 = m.ref_s in
    f i lat;
    let wall = Host.since_s r0 in
    close m;
    let acc =
      {
        wall;
        ref_cpu = m.ref_s -. ref0;
        slowdown = m.slow0;
        lat = Stat.to_list lat;
      }
      :: acc
    in
    if Host.since_s t0 +. (wall /. 2.) < seconds then go (i + 1) acc
    else List.rev acc
  in
  go 0 []

(* Throughput: the rounds' operations per CPU second of the reference
   core. CPU time leaves out what the host stole and time spent waiting,
   and the slowdown takes out how fast the host ran meanwhile. *)
let rate rs =
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  sum (fun r -> float_of_int (List.length r.lat)) /. sum (fun r -> r.ref_cpu)

(* Operations per second of wall time, as a user waiting for them sees it:
   reported per layer, since it moves with the host. *)
let wall_rate rs =
  Stat.median
    (List.map (fun r -> float_of_int (List.length r.lat) /. r.wall) rs)

let all_lat rs = List.concat_map (fun r -> r.lat) rs
let take n l = List.filteri (fun i _ -> i < n) l

(* The run's time split: all of it untraced, or a third untraced and the
   rest traced. *)
let phases cfg =
  if cfg.trace then (cfg.seconds /. 3., cfg.seconds *. 2. /. 3.)
  else (cfg.seconds, 0.)

(* Cold starts are topped up in untraced runs only: a traced run does not
   report set-up. *)
let top_ups cfg setup = if cfg.trace then None else Some setup

let e2e ~setup_s ~rounds ~rss =
  [
    ("setup_s", setup_s);
    ("ops_per_ref_cpu_s", rate rounds);
    ("peak_rss_mb", rss);
  ]

let stats_fields (s : Exhaustive.stats) per =
  let f n = float_of_int n /. per in
  [
    ("simkit.nodes", f s.Exhaustive.nodes);
    ("simkit.steps", f s.Exhaustive.steps_executed);
    ("simkit.replays", f s.Exhaustive.replays);
    ("simkit.builds", f s.Exhaustive.runtimes_built);
    ("simkit.memo_hits", f s.Exhaustive.memo_hits);
    ("simkit.sleep_pruned", f s.Exhaustive.sleep_pruned);
    ("simkit.orbits_collapsed", f s.Exhaustive.orbits_collapsed);
    ( "simkit.memo_hit_ratio",
      float_of_int s.Exhaustive.memo_hits
      /. float_of_int (max 1 (s.Exhaustive.memo_hits + s.Exhaustive.nodes)) );
  ]

(* Engine time and allocation per round, from [per] rounds of engine work. *)
let engine_fields (e : Probe.engine) ~per =
  let self = Probe.self_s e in
  [
    ("simkit.build_s", e.Probe.e_build_s /. per);
    ("simkit.prop_s", e.Probe.e_prop_s /. per);
    ("simkit.engine_self_s", self /. per);
    ( "simkit.ns_per_step",
      self *. 1e9
      /. float_of_int (max 1 e.Probe.e_stats.Exhaustive.steps_executed) );
    ("simkit.alloc_words", e.Probe.e_alloc_words /. per);
    ("simkit.major_gcs", float_of_int e.Probe.e_major_gcs /. per);
  ]

(* Per-layer metrics every workload measures the same way, from probes
   over its own checks, requests and specs. [local] is the monolithic
   engine's stats summed over [per] rounds of the same checks. *)
let probe_fields ~rng ~checks ~requests ~specs ~local:(local, per)
    ~(part : Probe.partitioned) =
  (* serve-rpc runs no model checks: its engine numbers are 0 *)
  let step_ns, digest_ns =
    match checks with [] -> (0., 0.) | _ -> Probe.step_digest ~rng checks
  in
  let svc = Probe.svc requests in
  let ratio f =
    float_of_int (f part.Probe.p_engine.Probe.e_stats)
    /. (float_of_int (max 1 (f local)) /. per)
  in
  ( [
      ("simkit.step_ns", step_ns);
      ("simkit.digest_ns", digest_ns);
      ("dist.split_s", part.Probe.p_split_s);
      ("dist.subtree_exec_s", part.Probe.p_subtree_s);
      ("dist.nodes_vs_local", ratio (fun s -> s.Exhaustive.nodes));
      ("dist.steps_vs_local", ratio (fun s -> s.Exhaustive.steps_executed));
      ("svc.exec_mean_s", svc.Probe.s_exec_mean_s);
      ("svc.encode_ns", svc.Probe.s_encode_ns);
      ("svc.decode_ns", svc.Probe.s_decode_ns);
      ("scenario.parse_us", Probe.parse_us specs);
      ("efd.solve_steps", svc.Probe.s_solve_steps);
    ],
    svc )

let slowdown rounds = Stat.median (List.map (fun r -> r.slowdown) rounds)

(* What the untraced rounds of a traced run looked like in wall time. *)
let wall_fields rounds =
  let lat = all_lat rounds in
  [
    ("ops_per_s", wall_rate rounds);
    ("op_p50_ms", Stat.median lat *. 1e3);
    ("op_p90_ms", Stat.quantile 0.9 lat *. 1e3);
    ("op_p99_ms", Stat.quantile 0.99 lat *. 1e3);
    ("host.slowdown", slowdown rounds);
  ]

(* The same for an untraced run: printed for people, not gated. *)
let wall_extras rounds =
  [
    ("ops_per_s", wall_rate rounds, "1/s");
    ("op_p50_ms", Stat.median (all_lat rounds) *. 1e3, "ms");
    ("host.slowdown", slowdown rounds, "ratio");
  ]

let overhead ~untraced ~traced =
  [ ("trace_overhead", rate untraced /. rate traced) ]

(* Server counters over a phase: [stats] for rejections and timeouts,
   [metrics] for the server-side latency histogram (queue + execution). *)
type counters = {
  rejected : int;
  timed_out : int;
  lat_sum : float;
  lat_count : int;
}

let counters servers =
  List.fold_left
    (fun acc s ->
      let int j k =
        Option.value ~default:0 (Option.bind (J.member k j) J.to_int_opt)
      in
      let st = Servers.call_json s P.Stats in
      let hists =
        match J.member "metrics" (Servers.call_json s P.Metrics) with
        | Some (J.List ms) ->
          List.filter
            (fun m -> J.member "name" m = Some (J.Str "svc.latency_s"))
            ms
        | _ -> []
      in
      let sum k =
        List.fold_left
          (fun a m ->
            a
            +. Option.value ~default:0.
                 (Option.bind (J.member k m) J.to_float_opt))
          0. hists
      in
      {
        rejected = acc.rejected + int st "rejected";
        timed_out = acc.timed_out + int st "timed_out";
        lat_sum = acc.lat_sum +. sum "sum";
        lat_count = acc.lat_count + int_of_float (sum "count");
      })
    { rejected = 0; timed_out = 0; lat_sum = 0.; lat_count = 0 }
    servers

let delta a b =
  {
    rejected = b.rejected - a.rejected;
    timed_out = b.timed_out - a.timed_out;
    lat_sum = b.lat_sum -. a.lat_sum;
    lat_count = b.lat_count - a.lat_count;
  }

let server_counts d ~per =
  [
    ("svc.rejected", float_of_int d.rejected /. per);
    ("svc.timed_out", float_of_int d.timed_out /. per);
  ]

let no_fleet =
  [
    ("dist.redispatched", 0.);
    ("ckpt.saves", 0.);
    ("ckpt.bytes", 0.);
  ]

let max_rss servers =
  List.fold_left (fun m s -> Float.max m (Servers.peak_rss_mb s)) 0. servers

let workers_used cfg = min 2 cfg.nproc

(* The in-process probes of a service workload (serve-rpc,
   campaign-batch): the engine over its model checks, the partitioned
   engine, and every request through [Svc.Jobs.run]. A round is one pass
   over [specs]. *)
let service_layers ~rng ~specs ~untraced ~traced ~server_delta ~client_mean =
  let checks = Catalog.checks_of specs in
  let local = Probe.monolithic checks in
  let part = Probe.partitioned checks in
  let fields, svc =
    probe_fields ~rng ~checks
      ~requests:(List.map Probe.scenario_request specs)
      ~specs ~local:(local.Probe.e_stats, 1.) ~part
  in
  let server_s =
    server_delta.lat_sum /. float_of_int (max 1 server_delta.lat_count)
  in
  let metrics =
    stats_fields local.Probe.e_stats 1.
    @ engine_fields local ~per:1.
    @ [ ("dist.jobs", float_of_int part.Probe.p_jobs) ]
    @ no_fleet @ fields @ wall_fields untraced
    @ overhead ~untraced ~traced
  in
  let extras =
    [
      ("svc.server_mean_s", server_s, "s");
      ("svc.wire_mean_s", client_mean -. server_s, "s");
      ("svc.queue_mean_s", server_s -. svc.Probe.s_exec_mean_s, "s");
    ]
    @ List.map
        (fun (l, s) ->
          let layer = match l with "solve" | "fuzz" -> "efd" | _ -> "svc" in
          (Printf.sprintf "%s.%s_exec_s" layer l, s, "s"))
        svc.Probe.s_exec_by_label
  in
  (metrics, extras)

(* ------------------------------------------------------- check-local *)

let check_local cfg =
  let t = tally () in
  let rng = Random.State.make [| cfg.seed |] in
  (* A cold start is a fresh bench process that builds the inputs and the
     first runtime ([cold_start] below) and prints how long that took.
     Process creation is left out: on the 2-vCPU VM the benchmark was sized
     on it alone took 1.5 or 2.1 ms, switching between the two every few
     seconds, where the set-up itself takes about 0.25 ms. *)
  let (), setup =
    cold_starts
      ~start:(fun () ->
        let out = Host.run_self [ "--cold-start" ] in
        match
          List.map float_of_string_opt
            (String.split_on_char ' ' (String.trim out))
        with
        | [ Some s; Some slowdown ] -> ((), s /. slowdown)
        | _ -> failwith ("cold start printed " ^ String.escaped out))
      ~dispose:ignore
  in
  let checks = Catalog.grid () in
  let checks =
    if cfg.quick then take 4 (Catalog.shuffle rng checks) else checks
  in
  (* [run] is the engine call: traced rounds wrap it in a span *)
  let one ?(run = fun ck -> Probe.run_check ck) lat ck =
    let t0 = Host.now_ns () in
    let verdict, stats = run ck in
    Stat.add lat (Host.since_s t0);
    check_op t (Catalog.name ck) (Catalog.oracle ck verdict);
    stats
  in
  if not cfg.quick then
    List.iter (fun ck -> ignore (one (Stat.samples ()) ck)) checks;
  let untraced_s, traced_s = phases cfg in
  let m = meter ?setup:(top_ups cfg setup) ~cpu:Host.self_cpu_s ~cores:1 ()
  in
  let untraced =
    rounds ~seconds:untraced_s m (fun _ lat ->
        List.iter
          (fun ck ->
            ignore (one lat ck);
            tick m)
          (Catalog.shuffle rng checks))
  in
  let lanes = [ (0, "bench") ] in
  if not cfg.trace then
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        e2e ~setup_s:(setup_s setup) ~rounds:untraced
          ~rss:(Host.peak_rss_mb (Unix.getpid ()));
      extras = wall_extras untraced;
      notes = [];
      lanes;
    }
  else begin
    Tracer.enable ();
    let clk = Probe.clock () in
    let stats = ref Exhaustive.zero_stats in
    let run_ns = ref 0 and check_ns = ref 0 in
    let words = ref 0. and gcs = ref 0 in
    let run ck =
      let r0 = Host.now_ns () in
      let r =
        Tracer.span ~tid:0 "simkit.run" (fun () -> Probe.run_check ~clk ck)
      in
      run_ns := !run_ns + (Host.now_ns () - r0);
      r
    in
    let traced =
      rounds ~seconds:traced_s m (fun r lat ->
          let w0 = Probe.gc_words () and g0 = Probe.major_gcs () in
          List.iteri
            (fun i ck ->
              let c0 = Host.now_ns () in
              Tracer.span ~tid:0 "check"
                ~args:
                  [
                    ("id", J.Int ((r * 1000) + i));
                    ("config", J.Str (Catalog.name ck));
                  ]
                (fun () ->
                  stats := Exhaustive.merge_stats !stats (one ~run lat ck));
              check_ns := !check_ns + (Host.now_ns () - c0);
              tick m)
            (Catalog.shuffle rng checks);
          words := !words +. (Probe.gc_words () -. w0);
          gcs := !gcs + (Probe.major_gcs () - g0))
    in
    let per = float_of_int (List.length traced) in
    let engine =
      Probe.engine_of ~clk ~stats:!stats ~run_ns:!run_ns ~words:!words
        ~gcs:!gcs
    in
    let part = Probe.partitioned checks in
    let fields, _ =
      probe_fields ~rng ~checks
        ~requests:
          (List.map
             (fun ck -> Probe.scenario_request ck.Catalog.ck_spec)
             checks)
        ~specs:(List.map (fun ck -> ck.Catalog.ck_spec) checks)
        ~local:(!stats, per) ~part
    in
    let check_s = float_of_int !check_ns /. 1e9 in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        stats_fields !stats per @ engine_fields engine ~per
        @ [ ("dist.jobs", float_of_int part.Probe.p_jobs) ]
        @ no_fleet
        @ [ ("svc.rejected", 0.); ("svc.timed_out", 0.) ]
        @ fields @ wall_fields untraced
        @ overhead ~untraced ~traced;
      extras =
        [
          ("attribution.check_spans_s", check_s /. per, "s");
          ("attribution.covered", engine.Probe.e_run_s /. check_s, "ratio");
        ];
      notes = [];
      lanes;
    }
  end

(* ------------------------------------------------------- check-fleet *)

(* What the coordinator's events say about the traced checks. *)
type fleet_trace = {
  mutable rtts : float list;
  mutable tail_s : float;
  mutable saves : int;
  mutable bytes : int;
  lanes : (int, string) Hashtbl.t;  (** job lanes used, by tid *)
}

(* A worker has up to [window] jobs in flight, so its jobs overlap in time:
   each gets a slot lane of its own, the first one free at its dispatch. *)
let slots = 8

(* A sink that timestamps each [dist.*]/[ckpt.*] event on arrival and
   turns it into spans: the split (from [t_run], the coordinator call), one
   job per dispatch-to-result on a lane of its worker, and — on [finish],
   when the call returned — the tail from the last result. *)
let fleet_sink ft ~workers ~t_run =
  let dispatched = Hashtbl.create 64 in
  let last_result = ref 0 in
  let slot_ends = Array.make_matrix (List.length workers) slots 0 in
  let lane w ~ts ~stop =
    let ends = slot_ends.(w) in
    (* spans arrive in completion order, so a slot's last end is its max *)
    let rec free i =
      if i = slots - 1 || ends.(i) <= ts then i else free (i + 1)
    in
    let i = free 0 in
    ends.(i) <- stop;
    let tid = 10 + (w * slots) + i in
    Hashtbl.replace ft.lanes tid
      (Printf.sprintf "worker %s, slot %d" (List.nth workers w) i);
    tid
  in
  let worker_of f =
    match List.assoc_opt "worker" f with
    | Some (J.Str w) -> (
      match String.index_opt w ':' with
      | Some i -> int_of_string_opt (String.sub w 0 i)
      | None -> None)
    | _ -> None
  in
  let job f = List.assoc_opt "job" f in
  let sink =
    Obs.Sink.of_fn (fun ev ->
        let now = Host.now_ns () in
        let f = ev.Obs.Event.fields in
        let n = ev.Obs.Event.name in
        if n = Obs.Event.Name.dist_split then
          Tracer.complete ~tid:0 "dist.split" ~ts:!t_run ~stop:now ~args:f
        else if n = Obs.Event.Name.dist_dispatch then
          Hashtbl.replace dispatched (job f, worker_of f) now
        else if n = Obs.Event.Name.dist_result then begin
          last_result := now;
          match Hashtbl.find_opt dispatched (job f, worker_of f) with
          | Some ts ->
            ft.rtts <- (float_of_int (now - ts) /. 1e9) :: ft.rtts;
            let w = Option.value ~default:0 (worker_of f) in
            Tracer.complete ~tid:(lane w ~ts ~stop:now) "dist.job" ~ts ~stop:now
              ~args:f
          | None -> ()
        end
        else if n = Obs.Event.Name.dist_redispatch then
          Tracer.instant ~tid:0 "dist.redispatch" ~ts:now ~args:f
        else if n = Obs.Event.Name.ckpt_save then begin
          ft.saves <- ft.saves + 1;
          (match List.assoc_opt "bytes" f with
          | Some (J.Int b) -> ft.bytes <- ft.bytes + b
          | _ -> ());
          Tracer.instant ~tid:0 "ckpt.save" ~ts:now ~args:f
        end)
  in
  let finish () =
    if !last_result > 0 then begin
      let now = Host.now_ns () in
      ft.tail_s <- ft.tail_s +. (float_of_int (now - !last_result) /. 1e9);
      Tracer.complete ~tid:0 "dist.tail" ~ts:!last_result ~stop:now
    end
  in
  (sink, finish)

let check_fleet cfg =
  let t = tally () in
  let rng = Random.State.make [| cfg.seed |] in
  let w = workers_used cfg in
  let cores = w in
  let servers, setup =
    cold_starts
      ~start:
        (server_start ~cores (fun () ->
             Servers.start ~name:"fleet" ~listen:Servers.Tcp_loopback
               ~workers:1 ~count:w))
      ~dispose:(List.iter Servers.discard)
  in
  let workers = List.map (fun s -> s.Servers.addr) servers in
  let checks = Catalog.grid () in
  let checks =
    if cfg.quick then take 4 (Catalog.shuffle rng checks) else checks
  in
  (* the counterexample a local run finds: the fleet must return the same *)
  let local_cex = Hashtbl.create 16 in
  List.iter
    (fun ck ->
      match Probe.run_check ck with
      | Exhaustive.Counterexample cex, _ ->
        Hashtbl.replace local_cex (Catalog.name ck) cex
      | Exhaustive.Ok _, _ -> ())
    checks;
  let seq = ref 0 in
  let save_s = Stat.samples () in
  let one ?ft lat ck =
    incr seq;
    let dir = Host.scratch_path (Printf.sprintf "ckpt-%d" !seq) in
    let t0 = Host.now_ns () in
    let t_run = ref t0 in
    let sink, finish =
      match ft with
      | None -> (None, ignore)
      | Some ft ->
        let s, f = fleet_sink ft ~workers ~t_run in
        (Some s, f)
    in
    let result =
      match Ckpt.Store.create ?sink dir with
      | Error msg -> Error msg
      | Ok store ->
        let r =
          Tracer.span ~tid:0 "dist.run" (fun () ->
              t_run := Host.now_ns ();
              let r =
                Dist.Coordinator.run ?sink ~reduce:ck.Catalog.ck_reduce
                  ~checkpoint:(store, 0.5) ~scenario:ck.Catalog.ck_sc
                  ~depth:ck.Catalog.ck_depth ~workers ()
              in
              finish ();
              r)
        in
        Stat.add lat (Host.since_s t0);
        (* traced: the bench's own save of the run's final record *)
        (match (ft, Ckpt.Store.load store) with
        | Some _, Some (_, record) ->
          let s0 = Host.now_ns () in
          ignore (Ckpt.Store.save store record);
          Stat.add save_s (Host.since_s s0)
        | _ -> ());
        r
    in
    Host.rm_rf dir;
    match result with
    | Error msg ->
      check_op t (Catalog.name ck) (Error msg);
      None
    | Ok r ->
      let verdict = r.Dist.Coordinator.r_verdict in
      check_op t (Catalog.name ck)
        (match (Catalog.oracle ck verdict, verdict) with
        | (Error _ as e), _ -> e
        | Ok (), Exhaustive.Counterexample cex
          when Hashtbl.find_opt local_cex (Catalog.name ck) <> Some cex ->
          Error "counterexample differs from the local run's"
        | Ok (), _ -> Ok ());
      Some r
  in
  if not cfg.quick then
    List.iter (fun ck -> ignore (one (Stat.samples ()) ck)) checks;
  let untraced_s, traced_s = phases cfg in
  let c0 = counters servers in
  let m = meter ?setup:(top_ups cfg setup) ~cpu:(cpu_of servers) ~cores ()
  in
  let untraced =
    rounds ~seconds:untraced_s m (fun _ lat ->
        List.iter
          (fun ck ->
            ignore (one lat ck);
            tick m)
          (Catalog.shuffle rng checks))
  in
  let notes =
    ("workers_used", string_of_int w)
    ::
    (if cfg.nproc = 1 then
       [ ("scaling", "not measured: one core, so the fleet runs one worker") ]
     else [])
  in
  let lanes = [ (0, "bench") ] in
  if not cfg.trace then begin
    let rss = max_rss servers in
    List.iter Servers.stop servers;
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics = e2e ~setup_s:(setup_s setup) ~rounds:untraced ~rss;
      extras = wall_extras untraced;
      notes;
      lanes;
    }
  end
  else begin
    Tracer.enable ();
    let ft =
      {
        rtts = [];
        tail_s = 0.;
        saves = 0;
        bytes = 0;
        lanes = Hashtbl.create 16;
      }
    in
    let stats = ref Exhaustive.zero_stats in
    let jobs = ref 0 and redispatched = ref 0 in
    let traced =
      rounds ~seconds:traced_s m (fun r lat ->
          List.iteri
            (fun i ck ->
              Tracer.span ~tid:0 "check"
                ~args:
                  [
                    ("id", J.Int ((r * 1000) + i));
                    ("config", J.Str (Catalog.name ck));
                  ]
                (fun () ->
                  match one ~ft lat ck with
                  | Some r ->
                    stats :=
                      Exhaustive.merge_stats !stats r.Dist.Coordinator.r_stats;
                    jobs := !jobs + r.Dist.Coordinator.r_jobs;
                    redispatched :=
                      !redispatched + r.Dist.Coordinator.r_redispatched
                  | None -> ());
              tick m)
            (Catalog.shuffle rng checks))
    in
    let d = delta c0 (counters servers) in
    List.iter Servers.stop servers;
    let per = float_of_int (List.length traced) in
    let local = Probe.monolithic checks in
    let part = Probe.partitioned checks in
    let requests =
      if List.length part.Probe.p_requests <= 64 then part.Probe.p_requests
      else take 64 (Catalog.shuffle rng part.Probe.p_requests)
    in
    let fields, _ =
      probe_fields ~rng ~checks ~requests
        ~specs:(List.map (fun ck -> ck.Catalog.ck_spec) checks)
        ~local:(local.Probe.e_stats, 1.) ~part
    in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics =
        stats_fields !stats per
        @ engine_fields part.Probe.p_engine ~per:1.
        @ [
            ("dist.jobs", float_of_int !jobs /. per);
            ("dist.redispatched", float_of_int !redispatched /. per);
            ("ckpt.saves", float_of_int ft.saves /. per);
            ("ckpt.bytes", float_of_int ft.bytes /. per);
          ]
        @ server_counts d ~per:(float_of_int (List.length untraced) +. per)
        @ fields @ wall_fields untraced
        @ overhead ~untraced ~traced;
      extras =
        [
          ("dist.rtt_p50_s", Stat.median ft.rtts, "s");
          ("dist.tail_s", ft.tail_s /. per, "s");
          ("ckpt.save_s", Stat.median (Stat.to_list save_s), "s");
        ];
      notes;
      lanes =
        lanes
        @ List.sort compare (List.of_seq (Hashtbl.to_seq ft.lanes));
    }
  end

(* --------------------------------------------------------- serve-rpc *)

let serve_rpc cfg =
  let t = tally () in
  let rng = Random.State.make [| cfg.seed |] in
  let cores = workers_used cfg in
  let servers, setup =
    cold_starts
      ~start:
        (server_start ~cores (fun () ->
             Servers.start ~name:"rpc" ~listen:Servers.Unix_socket ~workers:1
               ~count:1))
      ~dispose:(List.iter Servers.discard)
  in
  let server = List.hd servers in
  let cells = Catalog.rpc () in
  let catalog = List.map (Array.map (fun sp -> (sp, Spec.to_json sp))) cells in
  let conns = cores in
  let clients =
    List.init conns (fun _ ->
        Svc.Client.connect ~codec:P.Codec.Binary server.Servers.addr)
  in
  let mutex = Mutex.create () in
  (* one closed-loop request, its latency added to [lat] *)
  let call ~tid lat client (sp, params) =
    let t0 = Host.now_ns () in
    let outcome, detail =
      Tracer.span ~tid "rpc" ~args:[ ("spec", J.Str sp.Spec.sp_name) ]
        (fun () ->
          match
            Tracer.span ~tid "svc.call" (fun () ->
                Svc.Client.call ~params client P.Scenario)
          with
          | Ok j -> (
            match J.member "result" j with
            | Some inner -> Spec.classify sp (Ok inner)
            | None -> (Spec.Error, "response missing \"result\""))
          | Error (Svc.Client.Server (code, msg)) ->
            Spec.classify sp (Error (P.err_code_string code, msg))
          | Error (Svc.Client.Transport msg) ->
            Spec.classify sp (Error ("transport", msg)))
    in
    let dt = Host.since_s t0 in
    Mutex.lock mutex;
    Stat.add lat dt;
    check_op t sp.Spec.sp_name
      (if outcome = Spec.Pass then Ok () else Error detail);
    Mutex.unlock mutex
  in
  (* A round: every connection walks [passes] seeded permutations of the
     catalog, one request outstanding on each, and the round ends when the
     last connection is done. *)
  let passes = if cfg.quick then 1 else 8 in
  let round r lat =
    let threads =
      List.mapi
        (fun i client ->
          let rng = Random.State.make [| cfg.seed; r; i + 1 |] in
          Thread.create
            (fun () ->
              for _ = 1 to passes do
                List.iter
                  (fun cell ->
                    call ~tid:(i + 1) lat client (Catalog.draw rng cell))
                  (Catalog.shuffle rng catalog)
              done)
            ())
        clients
    in
    List.iter Thread.join threads
  in
  if not cfg.quick then round (-1) (Stat.samples ());
  let untraced_s, traced_s = phases cfg in
  let c0 = counters servers in
  let m = meter ?setup:(top_ups cfg setup) ~cpu:(cpu_of servers) ~cores ()
  in
  let untraced = rounds ~seconds:untraced_s m round in
  let c1 = counters servers in
  let notes =
    [ ("connections", string_of_int conns); ("workers_used", "1") ]
  in
  let lanes =
    (0, "bench")
    :: List.init conns (fun i -> (i + 1, Printf.sprintf "connection %d" i))
  in
  let finish () =
    List.iter Svc.Client.close clients;
    let rss = Servers.peak_rss_mb server in
    Servers.stop server;
    rss
  in
  if not cfg.trace then begin
    let rss = finish () in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics = e2e ~setup_s:(setup_s setup) ~rounds:untraced ~rss;
      extras = wall_extras untraced;
      notes;
      lanes;
    }
  end
  else begin
    Tracer.enable ();
    let traced = rounds ~seconds:traced_s m round in
    let c2 = counters servers in
    ignore (finish ());
    let specs = List.map (Catalog.draw rng) cells in
    let metrics, extras =
      service_layers ~rng ~specs ~untraced ~traced ~server_delta:(delta c0 c1)
        ~client_mean:(Stat.mean (all_lat untraced))
    in
    let catalog_passes =
      float_of_int (List.length (all_lat untraced @ all_lat traced))
      /. float_of_int (List.length cells)
    in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics = metrics @ server_counts (delta c0 c2) ~per:catalog_passes;
      extras;
      notes;
      lanes;
    }
  end

(* ---------------------------------------------------- campaign-batch *)

let campaign_batch cfg =
  let t = tally () in
  let rng = Random.State.make [| cfg.seed |] in
  let w = workers_used cfg in
  let cores = w in
  let servers, setup =
    cold_starts
      ~start:
        (server_start ~cores (fun () ->
             Servers.start ~name:"campaign" ~listen:Servers.Unix_socket
               ~workers:w ~count:1))
      ~dispose:(List.iter Servers.discard)
  in
  let server = List.hd servers in
  let specs = Catalog.campaign () in
  let specs = if cfg.quick then take 4 (Catalog.shuffle rng specs) else specs in
  let client = Svc.Client.connect ~codec:P.Codec.Binary server.Servers.addr in
  let one r lat =
    let s =
      Tracer.span ~tid:0 "campaign" ~args:[ ("round", J.Int r) ] (fun () ->
          Tracer.span ~tid:0 "svc.campaign" (fun () ->
              Svc.Campaign.run_client ~window:16 ~name:"wfabench" ~client
                (Catalog.shuffle rng specs)))
    in
    List.iter
      (fun row ->
        Stat.add lat row.Svc.Campaign.row_latency_s;
        check_op t row.Svc.Campaign.row_spec.Spec.sp_name
          (if row.Svc.Campaign.row_outcome = Spec.Pass then Ok ()
           else Error row.Svc.Campaign.row_detail))
      s.Svc.Campaign.s_rows
  in
  if not cfg.quick then one (-1) (Stat.samples ());
  let untraced_s, traced_s = phases cfg in
  let c0 = counters servers in
  let m = meter ?setup:(top_ups cfg setup) ~cpu:(cpu_of servers) ~cores ()
  in
  let untraced = rounds ~seconds:untraced_s m one in
  let c1 = counters servers in
  let notes = [ ("workers_used", string_of_int w) ] in
  let lanes = [ (0, "bench") ] in
  let finish () =
    Svc.Client.close client;
    let rss = Servers.peak_rss_mb server in
    Servers.stop server;
    rss
  in
  if not cfg.trace then begin
    let rss = finish () in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics = e2e ~setup_s:(setup_s setup) ~rounds:untraced ~rss;
      extras = wall_extras untraced;
      notes;
      lanes;
    }
  end
  else begin
    Tracer.enable ();
    let traced = rounds ~seconds:traced_s m one in
    let c2 = counters servers in
    ignore (finish ());
    let metrics, extras =
      service_layers ~rng ~specs ~untraced ~traced ~server_delta:(delta c0 c1)
        ~client_mean:(Stat.mean (all_lat untraced))
    in
    let per = float_of_int (List.length untraced + List.length traced) in
    {
      attempted = t.attempted;
      failed = t.failed;
      metrics = metrics @ server_counts (delta c0 c2) ~per;
      extras;
      notes;
      lanes;
    }
  end

(* What a check-local process does before its first check, and the seconds
   it took. *)
let cold_start () =
  let t0 = Host.now_ns () in
  let first = List.hd (Catalog.grid ()) in
  Runtime.destroy (first.Catalog.ck_sc.Mcheck.Scenario.sc_build ());
  Host.since_s t0

let all =
  [
    ("check-local", check_local);
    ("check-fleet", check_fleet);
    ("serve-rpc", serve_rpc);
    ("campaign-batch", campaign_batch);
  ]
