(* The benchmark's own inputs, all generated here from --seed. Nothing is
   read from bench/campaigns: editing the repository's smoke or conformance
   files cannot move a workload.

   Every input is a Scenario.Spec that went through [Spec.of_json], so each
   carries an expectation, explicit or derived from the registry; a spec
   with neither fails to parse and the bench refuses to start.

   The seed orders each round and draws the solve seeds of serve-rpc. What
   a round contains is otherwise fixed, so runs with different seeds do
   the same amount of work and stay comparable. *)

module J = Obs.Json
module Spec = Scenario.Spec
open Simkit

let parse json =
  match Spec.of_json json with
  | Ok sp -> sp
  | Error msg -> failwith ("bench input refused: " ^ msg)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------- check-local / -fleet *)

type check = {
  ck_spec : Spec.t;
  ck_sc : Mcheck.Scenario.t;
  ck_depth : int;
  ck_reduce : bool;
}

let check_of_spec sp =
  match sp.Spec.sp_work with
  | Spec.Modelcheck mc -> (
    match Mcheck.Scenario.find mc.Spec.mc_scenario ~n_s:mc.Spec.mc_n_s with
    | Ok sc ->
      {
        ck_spec = sp;
        ck_sc = sc;
        ck_depth = mc.Spec.mc_depth;
        ck_reduce = mc.Spec.mc_reduce;
      }
    | Error msg -> failwith msg)
  | _ -> invalid_arg "Catalog.check_of_spec: not a modelcheck spec"

let name ck = ck.ck_spec.Spec.sp_name
let reduction ck = Mcheck.Scenario.reduction ck.ck_sc ~reduce:ck.ck_reduce

(* Both scenarios x depth {10, 12} x n_s {1, 2, 3} x reduce {off, on}:
   plain and reduced searches, safe runs that credit every schedule and
   seeded violations that stop at the first counterexample. *)
let grid_campaign =
  {|{ "v": 1, "name": "wfabench-grid", "groups": [
  { "name": "grid",
    "template": { "verb": "modelcheck" },
    "axes": [ { "field": "params.scenario",
                "values": ["safe-agreement", "race-false"] },
              { "field": "params.depth", "values": [10, 12] },
              { "field": "params.n_s", "values": [1, 2, 3] },
              { "field": "params.reduce", "values": [false, true] } ] } ] }|}

let expand ~size text =
  match
    Result.bind (Scenario.Campaign.of_string text) Scenario.Campaign.expand
  with
  | Ok specs when List.length specs = size -> specs
  | Ok specs ->
    failwith
      (Printf.sprintf "bench campaign expands to %d scenarios, want %d"
         (List.length specs) size)
  | Error msg -> failwith ("bench campaign refused: " ^ msg)

let grid () = List.map check_of_spec (expand ~size:24 grid_campaign)

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(* The verdict's own oracle: a safe check credits every one of the
   |pids|^depth schedules; an expected violation is a counterexample the
   replay oracle rejects. *)
let oracle ck verdict =
  let pids = ck.ck_sc.Mcheck.Scenario.sc_pids in
  match (ck.ck_spec.Spec.sp_expect, verdict) with
  | Spec.Safe, Exhaustive.Ok n ->
    let want = pow (List.length pids) ck.ck_depth in
    if n = want then Ok ()
    else Error (Printf.sprintf "credited %d schedules, want %d" n want)
  | Spec.Violation _, Exhaustive.Counterexample cex ->
    if
      Exhaustive.replay_ok ~build:ck.ck_sc.Mcheck.Scenario.sc_build
        ~prop:ck.ck_sc.Mcheck.Scenario.sc_prop cex
    then Error "counterexample survives replay"
    else Ok ()
  | Spec.Safe, Exhaustive.Counterexample _ -> Error "unexpected counterexample"
  | Spec.Violation _, Exhaustive.Ok _ -> Error "missed the violation"
  | (Spec.Solves | Spec.Err _), _ -> Error "no model-check oracle for this spec"

(* --------------------------------------------------------- campaigns *)

(* The bench's copy of the 127-cell conformance campaign. *)
let conformance =
  {|{ "v": 1, "name": "wfabench-conformance", "groups": [
  { "name": "mc/safe-agreement",
    "template": { "verb": "modelcheck", "params": { "scenario": "safe-agreement" } },
    "axes": [ { "field": "params.depth", "values": [2, 4, 6, 8, 10] },
              { "field": "params.n_s", "values": [1, 2, 3] },
              { "field": "params.reduce", "values": [false, true] } ] },
  { "name": "mc/race-false",
    "template": { "verb": "modelcheck", "params": { "scenario": "race-false" } },
    "axes": [ { "field": "params.depth", "values": [6, 8, 10, 12] },
              { "field": "params.n_s", "values": [1, 2] },
              { "field": "params.reduce", "values": [false, true] } ] },
  { "name": "solve/consensus-live",
    "template": { "verb": "solve", "params": { "task": "consensus" } },
    "axes": [ { "field": "params.fd", "values": ["omega", "vector", "silent"] },
              { "field": "params.n", "values": [2, 3, 4] },
              { "field": "params.seed", "values": [1, 2] } ] },
  { "name": "solve/consensus-trivial",
    "template": { "verb": "solve", "params": { "task": "consensus", "fd": "trivial" },
                  "expect": { "outcome": "violation", "kind": "undecided" } },
    "axes": [ { "field": "params.n", "values": [3, 4] },
              { "field": "params.seed", "values": [1, 2, 3] } ] },
  { "name": "solve/ksa-live",
    "template": { "verb": "solve", "params": { "task": "ksa" } },
    "axes": [ { "field": "params.fd", "values": ["omega", "vector", "silent"] },
              { "field": "params.n", "values": [3, 4] } ] },
  { "name": "solve/renaming-1conc",
    "template": { "verb": "solve",
                  "params": { "task": "renaming", "policy": "kconc:1", "n": 3, "j": 2 } },
    "axes": [ { "field": "params.fd", "values": ["omega", "vector", "silent", "trivial"] },
              { "field": "params.seed", "values": [1, 2] } ] },
  { "name": "solve/renaming-fair",
    "template": { "verb": "solve",
                  "params": { "task": "renaming", "policy": "fair", "n": 3, "j": 2 } },
    "axes": [ { "field": "params.fd", "values": ["omega", "vector"] },
              { "field": "params.seed", "values": [1, 2] } ] },
  { "name": "solve/wsb-1conc",
    "template": { "verb": "solve",
                  "params": { "task": "wsb", "policy": "kconc:1", "n": 3, "j": 2 } },
    "axes": [ { "field": "params.fd", "values": ["omega", "vector", "silent", "trivial"] },
              { "field": "params.seed", "values": [1, 2] } ] },
  { "name": "solve/identity",
    "template": { "verb": "solve", "params": { "task": "identity" } },
    "axes": [ { "field": "params.fd",
                "values": ["omega", "vector", "silent", "trivial", "perfect"] },
              { "field": "params.n", "values": [2, 3, 4] } ] },
  { "name": "solve/crashes",
    "template": { "verb": "solve",
                  "params": { "task": "consensus", "n": 3, "crashes": [[0, 40]] } },
    "axes": [ { "field": "params.fd", "values": ["omega", "vector"] },
              { "field": "params.seed", "values": [1, 2, 3] } ] },
  { "name": "fuzz/witness-found",
    "template": { "verb": "fuzz", "params": { "n": 4, "j": 3, "budget": 500 },
                  "expect": { "outcome": "violation" } },
    "axes": [ { "field": "params.kind",
                "values": ["strong-renaming", "consensus-reduction"] },
              { "field": "params.seed", "values": [1, 2, 3] } ] },
  { "name": "fuzz/under-budget",
    "template": { "verb": "fuzz",
                  "params": { "kind": "strong-renaming", "n": 4, "j": 3, "budget": 1 },
                  "expect": { "outcome": "safe" } },
    "axes": [ { "field": "params.seed", "values": [1, 2] } ] },
  { "name": "deadline/declared",
    "template": { "verb": "modelcheck",
                  "params": { "scenario": "safe-agreement", "depth": 16 },
                  "deadline_ms": 1,
                  "expect": { "outcome": "error", "code": "deadline_exceeded" } },
    "axes": [ { "field": "params.n_s", "values": [1, 2] } ] } ] }|}

let campaign () = expand ~size:127 conformance

(* ------------------------------------------------------------ serve-rpc *)

(* Solve seeds are drawn from 1..solve_seeds; every solve cell of the
   campaign passes its expectation on each of them. *)
let solve_seeds = 64

let with_seed seed sp =
  let set_seed = function
    | J.Obj kvs ->
      J.Obj
        (List.filter (fun (k, _) -> k <> "seed") kvs @ [ ("seed", J.Int seed) ])
    | j -> j
  in
  match Spec.to_json sp with
  | J.Obj kvs ->
    parse
      (J.Obj
         (List.map
            (fun (k, v) -> if k = "params" then (k, set_seed v) else (k, v))
            kvs))
  | _ -> assert false

(* The campaign's small work: its solve cells, each 0.3 ms of execution or
   less on average, so the wire and dispatch stay a large share of a
   request. Left out are the trivial-detector consensus cells, which never
   decide and run to the step budget (45-65 ms), fuzz, and the model
   checks: those run the engine check-local measures (a digest three times
   slower cut this workload's throughput by about 9% with checks of depth
   <= 4 in the mix). A cell lists its variants, one per solve seed, drawn
   per request from the workload seed, so every run mixes the same spread
   of solve costs. *)
let rpc () =
  List.filter_map
    (fun sp ->
      match sp.Spec.sp_work with
      | Spec.Solve _
        when not
               (String.starts_with ~prefix:"solve/consensus-trivial:"
                  sp.Spec.sp_name) ->
        Some (Array.init solve_seeds (fun i -> with_seed (i + 1) sp))
      | Spec.Solve _ | Spec.Modelcheck _ | Spec.Fuzz _ -> None)
    (campaign ())

let draw rng variants = variants.(Random.State.int rng (Array.length variants))

(* The model checks among [specs] (deadline cells excluded: they exist to
   be cancelled), as checks for the in-process layer probes. *)
let checks_of specs =
  List.filter_map
    (fun sp ->
      match sp.Spec.sp_work with
      | Spec.Modelcheck _ when sp.Spec.sp_deadline_ms = None ->
        Some (check_of_spec sp)
      | _ -> None)
    specs
