(* The benchmark's definition, read from BENCHMARK.json at the repository
   root, which the dune file builds into this executable: the workloads,
   the measured seconds of a run, and every metric with its unit and — for
   the end-to-end metrics — the share of the parent's median by which it
   may worsen before a change counts as a regression. *)

module J = Obs.Json

type metric = {
  m_name : string;
  m_unit : string;
  m_bound : float option;  (** [Some] exactly for end-to-end metrics *)
}

let bad what = failwith ("BENCHMARK.json: bad or missing " ^ what)

let file =
  match J.of_string Benchmark_json.text with
  | Ok j -> j
  | Error msg -> failwith ("BENCHMARK.json: " ^ msg)

let field k j = match J.member k j with Some v -> v | None -> bad k

let str k j =
  match J.to_string_opt (field k j) with Some s -> s | None -> bad k

let list k = match field k file with J.List l -> l | _ -> bad k

let metrics k =
  List.map
    (fun m ->
      {
        m_name = str "name" m;
        m_unit = str "unit" m;
        m_bound = Option.bind (J.member "bound" m) J.to_float_opt;
      })
    (list k)

let workloads = List.map (str "name") (list "workloads")
let end_to_end = metrics "end_to_end"
let per_layer = metrics "per_layer"

let run_seconds =
  match J.to_float_opt (field "run_seconds" file) with
  | Some s -> s
  | None -> bad "run_seconds"
