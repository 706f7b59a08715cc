open Simkit
module J = Obs.Json

type config = {
  cf_scenario : string;
  cf_n_s : int;
  cf_depth : int;
  cf_reduce : bool;
  cf_split_depth : int;
}

type done_job = {
  dj_id : int;
  dj_verdict : Exhaustive.verdict;
  dj_stats : Exhaustive.stats;
}

type t = { ck_config : config; ck_total : int; ck_done : done_job list }

let make ~config ~total ~done_ =
  List.iter
    (fun d ->
      if d.dj_id < 0 || d.dj_id >= total then
        invalid_arg
          (Printf.sprintf "Ckpt.Record.make: job id %d outside [0, %d)"
             d.dj_id total))
    done_;
  let sorted =
    List.stable_sort (fun a b -> compare a.dj_id b.dj_id) done_
  in
  let rec dedup = function
    | a :: (b :: _ as rest) when a.dj_id = b.dj_id ->
      a :: dedup (List.filter (fun d -> d.dj_id <> a.dj_id) rest)
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  { ck_config = config; ck_total = total; ck_done = dedup sorted }

(* -- writing ---------------------------------------------------------------- *)

let config_json c =
  J.Obj
    [
      ("scenario", J.Str c.cf_scenario);
      ("n_s", J.Int c.cf_n_s);
      ("depth", J.Int c.cf_depth);
      ("reduce", J.Bool c.cf_reduce);
      ("split_depth", J.Int c.cf_split_depth);
    ]

(* the same shape the [subtree] verb replies with, so a journal entry and a
   wire result read identically *)
let done_json d =
  J.Obj
    ((("id", J.Int d.dj_id) :: Exhaustive.verdict_fields d.dj_verdict)
    @ [ ("stats", Exhaustive.stats_json d.dj_stats) ])

let json r =
  J.Obj
    [
      ("v", J.Int 1);
      ("config", config_json r.ck_config);
      ("total", J.Int r.ck_total);
      ("done", J.List (List.map done_json r.ck_done));
    ]

(* -- reading ---------------------------------------------------------------- *)

let ( let* ) = Result.bind

let int_field name j =
  match J.member name j with
  | Some v -> (
    match J.to_int_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "field %S is not an integer" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field name j =
  match J.member name j with
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S is not a string" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S is not a boolean" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let config_of_json j =
  let* scenario = str_field "scenario" j in
  let* n_s = int_field "n_s" j in
  let* depth = int_field "depth" j in
  let* reduce = bool_field "reduce" j in
  let* split_depth = int_field "split_depth" j in
  Ok
    {
      cf_scenario = scenario;
      cf_n_s = n_s;
      cf_depth = depth;
      cf_reduce = reduce;
      cf_split_depth = split_depth;
    }

let done_of_json j =
  let* id = int_field "id" j in
  let* verdict = Exhaustive.verdict_of_json j in
  let* stats =
    match J.member "stats" j with
    | Some s -> Exhaustive.stats_of_json s
    | None -> Error "missing field \"stats\""
  in
  Ok { dj_id = id; dj_verdict = verdict; dj_stats = stats }

let of_json j =
  match j with
  | J.Obj _ -> (
    let* () =
      match J.member "v" j with
      | Some (J.Int 1) -> Ok ()
      | Some _ -> Error "unsupported checkpoint record version"
      | None -> Error "missing field \"v\""
    in
    let* config =
      match J.member "config" j with
      | Some (J.Obj _ as c) -> config_of_json c
      | Some _ -> Error "field \"config\" is not an object"
      | None -> Error "missing field \"config\""
    in
    let* total = int_field "total" j in
    let* done_ =
      match J.member "done" j with
      | Some (J.List items) ->
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest -> (
            match done_of_json item with
            | Ok d -> go (i + 1) (d :: acc) rest
            | Error msg -> Error (Printf.sprintf "done[%d]: %s" i msg))
        in
        go 0 [] items
      | Some _ -> Error "field \"done\" is not a list"
      | None -> Error "missing field \"done\""
    in
    if total < 0 then Error "field \"total\" must be >= 0"
    else
      match make ~config ~total ~done_ with
      | r -> Ok r
      | exception Invalid_argument msg -> Error msg)
  | _ -> Error "checkpoint record is not an object"

let equal a b = a = b
