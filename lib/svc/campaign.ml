module J = Obs.Json
module P = Protocol
module Spec = Scenario.Spec

type row = {
  row_spec : Spec.t;
  row_outcome : Spec.outcome;
  row_detail : string;
  row_latency_s : float;
}

type summary = {
  s_name : string;
  s_rows : row list;
  s_pass : int;
  s_fail : int;
  s_timeout : int;
  s_error : int;
  s_wall_s : float;
}

let ok s = s.s_fail = 0 && s.s_timeout = 0 && s.s_error = 0

let summarize ~name ~wall_s rows =
  let count o =
    List.length (List.filter (fun r -> r.row_outcome = o) rows)
  in
  {
    s_name = name;
    s_rows = rows;
    s_pass = count Spec.Pass;
    s_fail = count Spec.Fail;
    s_timeout = count Spec.Timeout;
    s_error = count Spec.Error;
    s_wall_s = wall_s;
  }

(* The response of a [scenario] request, reduced to what [Spec.classify]
   wants: the inner verb result on success, an (error-code, message) pair
   otherwise. Transport failures use the pseudo-code ["transport"], which
   no expectation can name — they always classify as [error]. *)
let classify sp (resp : (J.t, Client.error) result) =
  match resp with
  | Ok j -> (
    match J.member "result" j with
    | Some r -> Spec.classify sp (Ok r)
    | None ->
      Spec.classify sp (Error ("internal", "response missing \"result\"")))
  | Error (Client.Server (code, msg)) ->
    Spec.classify sp (Error (P.err_code_string code, msg))
  | Error (Client.Transport msg) ->
    Spec.classify sp (Error ("transport", msg))

let deadline_of ?default_deadline_ms sp =
  match sp.Spec.sp_deadline_ms with
  | Some d -> Some d
  | None -> default_deadline_ms

(* ------------------------------------------------------------- client *)

let run_client ?(window = 16) ?default_deadline_ms ~name ~client specs =
  let window = max 1 window in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let rows : row option array = Array.make n None in
  let span = Obs.Span.start ~name:"campaign" () in
  (* id -> (scenario index, send time) for every in-flight request *)
  let inflight = Hashtbl.create (2 * window) in
  let next = ref 0 in
  let completed = ref 0 in
  let dead = ref None in
  let finish i t0 resp =
    let outcome, detail = classify specs.(i) resp in
    rows.(i) <-
      Some
        {
          row_spec = specs.(i);
          row_outcome = outcome;
          row_detail = detail;
          row_latency_s = Obs.Clock.elapsed_s ~since:t0;
        };
    incr completed
  in
  while !completed < n do
    (match !dead with
    | Some msg ->
      (* connection gone: everything unfinished becomes an error row *)
      for i = 0 to n - 1 do
        if rows.(i) = None then
          finish i (Obs.Clock.now_ns ())
            (Error (Client.Transport msg))
      done
    | None ->
      while !next < n && Hashtbl.length inflight < window && !dead = None do
        let i = !next in
        let sp = specs.(i) in
        let t0 = Obs.Clock.now_ns () in
        (match
           Client.send
             ?deadline_ms:(deadline_of ?default_deadline_ms sp)
             ~params:(Spec.to_json sp) client P.Scenario
         with
        | Ok id ->
          Hashtbl.replace inflight id (i, t0);
          incr next
        | Error e ->
          finish i t0 (Error e);
          incr next;
          dead := Some (Client.error_string e))
      done;
      if !dead = None && Hashtbl.length inflight > 0 then
        match Client.recv client with
        | Ok (id, result) -> (
          match Hashtbl.find_opt inflight id with
          | Some (i, t0) ->
            Hashtbl.remove inflight id;
            finish i t0 result
          | None ->
            (* a reply we never sent (id -1 for a frame the server could
               not attribute): the connection is desynchronized *)
            dead := Some (Printf.sprintf "unexpected response id %d" id))
        | Error e -> dead := Some (Client.error_string e));
    ()
  done;
  let rows =
    Array.to_list (Array.map (fun r -> Option.get r) rows)
  in
  summarize ~name ~wall_s:(Obs.Span.finish span) rows

(* -------------------------------------------------------------- local *)

let run_local ?default_deadline_ms ~name specs =
  let span = Obs.Span.start ~name:"campaign" () in
  let rows =
    List.map
      (fun sp ->
        let t0 = Obs.Clock.now_ns () in
        let cancel =
          Option.map
            (fun ms ->
              Pool.deadline_cancel
                (Int64.add t0 (Int64.mul (Int64.of_int ms) 1_000_000L)))
            (deadline_of ?default_deadline_ms sp)
        in
        let result =
          match Jobs.run_work ?cancel sp.Spec.sp_work with
          | Ok j -> Ok j
          | Error (code, msg) -> Error (P.err_code_string code, msg)
        in
        let outcome, detail = Spec.classify sp result in
        {
          row_spec = sp;
          row_outcome = outcome;
          row_detail = detail;
          row_latency_s = Obs.Clock.elapsed_s ~since:t0;
        })
      specs
  in
  summarize ~name ~wall_s:(Obs.Span.finish span) rows

(* ------------------------------------------------------------- record *)

let groups_of rows =
  List.fold_left
    (fun acc r ->
      let g = Scenario.Campaign.group_of r.row_spec in
      if List.mem_assoc g acc then
        List.map (fun (g', rs) -> if g' = g then (g', rs @ [ r ]) else (g', rs)) acc
      else acc @ [ (g, [ r ]) ])
    [] rows

let counts rows =
  let count o =
    List.length (List.filter (fun r -> r.row_outcome = o) rows)
  in
  [
    ("scenarios", J.Int (List.length rows));
    ("pass", J.Int (count Spec.Pass));
    ("fail", J.Int (count Spec.Fail));
    ("timeout", J.Int (count Spec.Timeout));
    ("error", J.Int (count Spec.Error));
  ]

let record s =
  let r =
    Obs.Bench_record.create ~id:"campaign"
      ~title:(Printf.sprintf "campaign %s: expectation conformance" s.s_name)
      ()
  in
  Obs.Bench_record.meta r "campaign" (J.Str s.s_name);
  List.iter
    (fun (g, rows) ->
      Obs.Bench_record.row r
        ~labels:[ ("section", "campaign"); ("group", g) ]
        (counts rows))
    (groups_of s.s_rows);
  let total = List.length s.s_rows in
  let latency =
    if total = 0 then []
    else begin
      let reg = Obs.Metrics.registry () in
      let h = Obs.Metrics.histogram reg "campaign.scenario_latency_s" in
      List.iter (fun row -> Obs.Metrics.observe h row.row_latency_s) s.s_rows;
      [
        ( "scenarios_per_s",
          J.Float (float_of_int total /. Float.max 1e-9 s.s_wall_s) );
        ("p50_scenario_latency_s", J.Float (Obs.Metrics.quantile h 0.5));
        ("p99_scenario_latency_s", J.Float (Obs.Metrics.quantile h 0.99));
      ]
    end
  in
  Obs.Bench_record.row r
    ~labels:[ ("section", "campaign"); ("group", "total") ]
    (counts s.s_rows @ latency);
  r

let pp_summary ppf s =
  let pr fmt = Format.fprintf ppf fmt in
  pr "%-42s %9s %5s %5s %8s %6s@." "group" "scenarios" "pass" "fail"
    "timeout" "error";
  List.iter
    (fun (g, rows) ->
      let count o =
        List.length (List.filter (fun r -> r.row_outcome = o) rows)
      in
      pr "%-42s %9d %5d %5d %8d %6d@." g (List.length rows)
        (count Spec.Pass) (count Spec.Fail) (count Spec.Timeout)
        (count Spec.Error))
    (groups_of s.s_rows);
  List.iter
    (fun row ->
      if row.row_outcome <> Spec.Pass then
        pr "%s %s: %s@."
          (String.uppercase_ascii (Spec.outcome_string row.row_outcome))
          row.row_spec.Spec.sp_name row.row_detail)
    s.s_rows;
  let total = List.length s.s_rows in
  pr "total: %d scenarios, %d pass, %d fail, %d timeout, %d error (%.2f s, %.1f/s)@."
    total s.s_pass s.s_fail s.s_timeout s.s_error s.s_wall_s
    (float_of_int total /. Float.max 1e-9 s.s_wall_s)
