(* Per-layer measurements taken from outside the program, on a workload's
   own inputs: the bench wraps the closures it hands the engine, times
   calls into each layer's public functions, and reads the engine's own
   counters. *)

module J = Obs.Json
module P = Svc.Protocol
open Simkit

(* Words allocated by this domain: [Gc.minor_words] is exact for the
   calling domain, where [Gc.quick_stat] may lag until the next minor
   collection. Large blocks that go straight to the major heap are not
   counted; the engine allocates none. *)
let gc_words () = Gc.minor_words ()

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

(* --------------------------------------------------------------- engine *)

(* Time spent in the [build] and [prop] closures the engine was given; the
   rest of an engine call is the engine's own time. *)
type clock = { mutable build_ns : int; mutable prop_ns : int }

let clock () = { build_ns = 0; prop_ns = 0 }

(* Individual build/prop spans are kept only for the first few thousand
   calls: one check makes tens of thousands, and the sums above carry the
   totals. *)
let detail_cap = 20_000

let timed_scenario clk ~tid sc =
  let detail name ts stop =
    if !Tracer.count < detail_cap then Tracer.complete ~tid name ~ts ~stop
  in
  let build () =
    let ts = Host.now_ns () in
    let rt = sc.Mcheck.Scenario.sc_build () in
    let stop = Host.now_ns () in
    clk.build_ns <- clk.build_ns + (stop - ts);
    detail "simkit.build" ts stop;
    rt
  in
  let prop rt =
    let ts = Host.now_ns () in
    let ok = sc.Mcheck.Scenario.sc_prop rt in
    let stop = Host.now_ns () in
    clk.prop_ns <- clk.prop_ns + (stop - ts);
    detail "simkit.prop" ts stop;
    ok
  in
  { sc with Mcheck.Scenario.sc_build = build; sc_prop = prop }

(* One monolithic check, as [wfa modelcheck] and the server run it. *)
let run_check ?clk ?(tid = 0) (ck : Catalog.check) =
  let sc =
    match clk with
    | None -> ck.Catalog.ck_sc
    | Some clk -> timed_scenario clk ~tid ck.Catalog.ck_sc
  in
  Exhaustive.run ?reduce:(Catalog.reduction ck)
    ~build:sc.Mcheck.Scenario.sc_build ~pids:sc.Mcheck.Scenario.sc_pids
    ~depth:ck.Catalog.ck_depth ~prop:sc.Mcheck.Scenario.sc_prop ()

(* What one pass of engine work cost: summed stats, closure time, the
   engine calls' total span, and the bench process's allocation. *)
type engine = {
  e_stats : Exhaustive.stats;
  e_build_s : float;
  e_prop_s : float;
  e_run_s : float;
  e_alloc_words : float;
  e_major_gcs : int;
}

let engine_of ~clk ~stats ~run_ns ~words ~gcs =
  {
    e_stats = stats;
    e_build_s = float_of_int clk.build_ns /. 1e9;
    e_prop_s = float_of_int clk.prop_ns /. 1e9;
    e_run_s = float_of_int run_ns /. 1e9;
    e_alloc_words = words;
    e_major_gcs = gcs;
  }

let self_s e = e.e_run_s -. e.e_build_s -. e.e_prop_s

let monolithic checks =
  let clk = clock () in
  let w0 = gc_words () and g0 = major_gcs () in
  let stats, run_ns =
    Tracer.span ~tid:0 "probe.engine" (fun () ->
        List.fold_left
          (fun (acc, ns) ck ->
            let t0 = Host.now_ns () in
            let _, st =
              Tracer.span ~tid:0 "simkit.run" (fun () -> run_check ~clk ck)
            in
            (Exhaustive.merge_stats acc st, ns + (Host.now_ns () - t0)))
          (Exhaustive.zero_stats, 0) checks)
  in
  engine_of ~clk ~stats ~run_ns ~words:(gc_words () -. w0)
    ~gcs:(major_gcs () - g0)

(* The partitioned engine on the same checks, in process: the split plus
   every subtree job, as the coordinator and its workers run them. *)
type partitioned = {
  p_engine : engine;
  p_jobs : int;
  p_split_s : float;
  p_subtree_s : float;
  p_requests : (string * P.verb * J.t * int option) list;
      (** one subtree request per job, as the coordinator sends it *)
}

let subtree_params (ck : Catalog.check) sj =
  J.Obj
    [
      ("scenario", J.Str ck.Catalog.ck_sc.Mcheck.Scenario.sc_name);
      ("n_s", J.Int ck.Catalog.ck_sc.Mcheck.Scenario.sc_n_s);
      ("depth", J.Int ck.Catalog.ck_depth);
      ("reduce", J.Bool ck.Catalog.ck_reduce);
      ("job", Exhaustive.subtree_json sj);
    ]

let partitioned checks =
  let clk = clock () in
  let w0 = gc_words () and g0 = major_gcs () in
  let stats = ref Exhaustive.zero_stats in
  let jobs = ref 0 and split_ns = ref 0 and subtree_ns = ref 0 in
  let requests = ref [] in
  Tracer.span ~tid:0 "probe.partitioned" (fun () ->
      List.iter
        (fun (ck : Catalog.check) ->
          let sc = timed_scenario clk ~tid:0 ck.Catalog.ck_sc in
          let reduce = Catalog.reduction ck in
          let depth = ck.Catalog.ck_depth in
          let t0 = Host.now_ns () in
          let fr =
            Tracer.span ~tid:0 "dist.split" (fun () ->
                Exhaustive.split ?reduce ~build:sc.Mcheck.Scenario.sc_build
                  ~pids:sc.Mcheck.Scenario.sc_pids ~depth
                  ~split_depth:(Dist.Coordinator.default_split_depth ~depth)
                  ~prop:sc.Mcheck.Scenario.sc_prop ())
          in
          let t1 = Host.now_ns () in
          split_ns := !split_ns + (t1 - t0);
          stats := Exhaustive.merge_stats !stats fr.Exhaustive.fr_stats;
          List.iter
            (fun sj ->
              incr jobs;
              requests :=
                ("subtree", P.Subtree, subtree_params ck sj, None) :: !requests;
              let _, st =
                Tracer.span ~tid:0 "dist.subtree" (fun () ->
                    Exhaustive.run_subtree ?reduce
                      ~build:sc.Mcheck.Scenario.sc_build
                      ~pids:sc.Mcheck.Scenario.sc_pids ~depth
                      ~prop:sc.Mcheck.Scenario.sc_prop sj)
              in
              stats := Exhaustive.merge_stats !stats st)
            fr.Exhaustive.fr_jobs;
          subtree_ns := !subtree_ns + (Host.now_ns () - t1))
        checks);
  {
    p_engine =
      engine_of ~clk ~stats:!stats ~run_ns:(!split_ns + !subtree_ns)
        ~words:(gc_words () -. w0) ~gcs:(major_gcs () - g0);
    p_jobs = !jobs;
    p_split_s = float_of_int !split_ns /. 1e9;
    p_subtree_s = float_of_int !subtree_ns /. 1e9;
    p_requests = List.rev !requests;
  }

(* Median wall time of [Runtime.step] and of [Runtime.digest], per call,
   replaying random schedules of the checks' scenarios on fresh runtimes:
   about 20k calls of each in total. *)
let step_digest ~rng checks =
  let steps = ref [] and digests = ref [] in
  let per_check = max 1 (20_000 / max 1 (List.length checks)) in
  Tracer.span ~tid:0 "probe.step_digest" (fun () ->
      List.iter
        (fun (ck : Catalog.check) ->
          let sc = ck.Catalog.ck_sc in
          let pids = Array.of_list sc.Mcheck.Scenario.sc_pids in
          let calls = ref 0 in
          while !calls < per_check do
            let rt = sc.Mcheck.Scenario.sc_build () in
            for _ = 1 to ck.Catalog.ck_depth do
              let p = pids.(Random.State.int rng (Array.length pids)) in
              let t0 = Host.now_ns () in
              Runtime.step rt p;
              let t1 = Host.now_ns () in
              ignore (Sys.opaque_identity (Runtime.digest rt));
              let t2 = Host.now_ns () in
              steps := float_of_int (t1 - t0) :: !steps;
              digests := float_of_int (t2 - t1) :: !digests;
              incr calls
            done;
            Runtime.destroy rt
          done)
        checks);
  (Stat.median !steps, Stat.median !digests)

(* ------------------------------------------------------------- service *)

(* A request as the workload sends it: a label for grouping (the verb the
   work runs as), the wire verb, its params and deadline. *)
type request = string * P.verb * J.t * int option

let scenario_request sp : request =
  ( Scenario.Spec.verb sp,
    P.Scenario,
    Scenario.Spec.to_json sp,
    sp.Scenario.Spec.sp_deadline_ms )

type svc = {
  s_exec_mean_s : float;
  s_exec_by_label : (string * float) list;  (** mean per label *)
  s_encode_ns : float;
  s_decode_ns : float;
  s_solve_steps : float;  (** mean over solve results; [0.] when none *)
}

(* ns per call of [f], timed over a batch to keep clock reads out. *)
let per_call_ns reps f =
  let t0 = Host.now_ns () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  float_of_int (Host.now_ns () - t0) /. float_of_int reps

let rec path keys j =
  match keys with
  | [] -> Some j
  | k :: rest -> Option.bind (J.member k j) (path rest)

(* Every request executed in process through [Svc.Jobs.run] — the code a
   server's pool worker runs — plus the binary codec timed on the request
   and on its response. *)
let svc (requests : request list) =
  let execs = ref [] and enc = ref [] and dec = ref [] and steps = ref [] in
  Tracer.span ~tid:0 "probe.svc" (fun () ->
      List.iteri
        (fun id (label, verb, params, deadline_ms) ->
          let rq = P.request ?deadline_ms ~params ~id verb in
          enc :=
            per_call_ns 20 (fun () -> P.Codec.encode_request P.Codec.Binary rq)
            :: !enc;
          let t0 = Host.now_ns () in
          (* a deadline binds as in a pool worker *)
          let cancel =
            Option.map
              (fun ms ->
                Svc.Pool.deadline_cancel
                  (Int64.of_int (t0 + (ms * 1_000_000))))
              deadline_ms
          in
          let result = Svc.Jobs.run ?cancel verb params in
          execs := (label, Host.since_s t0) :: !execs;
          let rs =
            match result with
            | Ok j -> P.ok ~id j
            | Error (code, msg) -> P.error ~id code msg
          in
          let bytes = P.Codec.encode_response P.Codec.Binary rs in
          dec :=
            per_call_ns 20 (fun () -> P.Codec.decode_response bytes) :: !dec;
          match
            Option.bind
              (Result.to_option result)
              (path [ "result"; "report"; "steps" ])
          with
          | Some (J.Int n) when label = "solve" ->
            steps := float_of_int n :: !steps
          | _ -> ())
        requests);
  let labels = List.sort_uniq compare (List.map fst !execs) in
  {
    s_exec_mean_s = Stat.mean (List.map snd !execs);
    s_exec_by_label =
      List.map
        (fun l ->
          ( l,
            Stat.mean
              (List.filter_map
                 (fun (l', s) -> if l = l' then Some s else None)
                 !execs) ))
        labels;
    s_encode_ns = Stat.median !enc;
    s_decode_ns = Stat.median !dec;
    s_solve_steps = (match !steps with [] -> 0. | s -> Stat.mean s);
  }

(* Median microseconds per [Spec.of_json] over the specs' JSON. *)
let parse_us specs =
  let jsons = List.map Scenario.Spec.to_json specs in
  Stat.median
    (List.map
       (fun j -> per_call_ns 50 (fun () -> Scenario.Spec.of_json j) /. 1e3)
       jsons)
