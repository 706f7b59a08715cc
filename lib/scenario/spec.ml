module J = Obs.Json

type expect = Safe | Violation of string option | Solves | Err of string

type solve = {
  sv_task : Build.task_kind;
  sv_fd : Build.fd_kind;
  sv_policy : Build.policy;
  sv_n : int;
  sv_k : int;
  sv_j : int;
  sv_l : int option;
  sv_crashes : (int * int) list;
  sv_seed : int;
  sv_budget : int;
}

type modelcheck = {
  mc_scenario : string;
  mc_n_s : int;
  mc_depth : int;
  mc_reduce : bool;
}

type fuzz = {
  fz_kind : string;
  fz_n : int;
  fz_j : int;
  fz_seed : int;
  fz_budget : int;
  fz_domains : int;
}

type work = Solve of solve | Modelcheck of modelcheck | Fuzz of fuzz

type t = {
  sp_name : string;
  sp_work : work;
  sp_deadline_ms : int option;
  sp_expect : expect;
}

let version = 1

let work_verb = function
  | Solve _ -> "solve"
  | Modelcheck _ -> "modelcheck"
  | Fuzz _ -> "fuzz"

let verb t = work_verb t.sp_work

let equal (a : t) (b : t) = a = b

let expect_string = function
  | Safe -> "safe"
  | Violation None -> "violation"
  | Violation (Some k) -> "violation:" ^ k
  | Solves -> "solves"
  | Err c -> "error:" ^ c

(* ------------------------------------------------------------- bounds *)

(* Bounds on untrusted numeric input: generous for every legitimate
   scenario, small enough that a hostile file cannot request astronomical
   work or index past any array. *)
let max_procs = 1024
let max_depth = 64
let max_n_s = 64
let max_domains = 256
let max_budget = 1 lsl 30
let max_crashes = 64
let max_crash_time = 1 lsl 30
let max_deadline_ms = 2147483647 (* = Svc.Protocol.max_deadline_ms *)
let max_name_len = 120

let violation_kinds = [ "task_violation"; "undecided"; "not_wait_free" ]

let err_codes =
  [
    "bad_request"; "oversized"; "overloaded"; "deadline_exceeded";
    "shutting_down"; "internal";
  ]

let name_ok s =
  let n = String.length s in
  n >= 1 && n <= max_name_len
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
         | '.' | '_' | '/' | '=' | ',' | ':' | '+' | '-' -> true
         | _ -> false)
       s

(* ------------------------------------------------------------ printing *)

let expect_json = function
  | Safe -> J.Obj [ ("outcome", J.Str "safe") ]
  | Violation None -> J.Obj [ ("outcome", J.Str "violation") ]
  | Violation (Some k) ->
    J.Obj [ ("outcome", J.Str "violation"); ("kind", J.Str k) ]
  | Solves -> J.Obj [ ("outcome", J.Str "solves") ]
  | Err c -> J.Obj [ ("outcome", J.Str "error"); ("code", J.Str c) ]

let params_json = function
  | Solve s ->
    J.Obj
      ([
         ("task", J.Str (Build.task_kind_to_string s.sv_task));
         ("fd", J.Str (Build.fd_kind_to_string s.sv_fd));
         ("policy", J.Str (Build.policy_to_string s.sv_policy));
         ("n", J.Int s.sv_n);
         ("k", J.Int s.sv_k);
         ("j", J.Int s.sv_j);
       ]
      @ (match s.sv_l with None -> [] | Some l -> [ ("l", J.Int l) ])
      @ (match s.sv_crashes with
        | [] -> []
        | cs ->
          [
            ( "crashes",
              J.List
                (List.map (fun (i, t) -> J.List [ J.Int i; J.Int t ]) cs) );
          ])
      @ [ ("seed", J.Int s.sv_seed); ("budget", J.Int s.sv_budget) ])
  | Modelcheck m ->
    J.Obj
      [
        ("scenario", J.Str m.mc_scenario);
        ("n_s", J.Int m.mc_n_s);
        ("depth", J.Int m.mc_depth);
        ("reduce", J.Bool m.mc_reduce);
      ]
  | Fuzz f ->
    J.Obj
      [
        ("kind", J.Str f.fz_kind);
        ("n", J.Int f.fz_n);
        ("j", J.Int f.fz_j);
        ("seed", J.Int f.fz_seed);
        ("budget", J.Int f.fz_budget);
        ("domains", J.Int f.fz_domains);
      ]

let to_json t =
  J.Obj
    ([
       ("v", J.Int version);
       ("name", J.Str t.sp_name);
       ("verb", J.Str (verb t));
       ("params", params_json t.sp_work);
     ]
    @ (match t.sp_deadline_ms with
      | None -> []
      | Some d -> [ ("deadline_ms", J.Int d) ])
    @ [ ("expect", expect_json t.sp_expect) ])

let to_string t = J.to_string_pretty (to_json t)

(* ------------------------------------------------------------- parsing *)

(* Every reader threads the JSON path of what it is reading, so a bad file
   fails with the exact location: [$.params.depth: expected an integer]. *)

let fail path fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt

let ( let* ) = Result.bind

let obj path = function
  | J.Obj kvs -> Ok kvs
  | _ -> fail path "expected an object"

let reject_unknown path ~known kvs =
  match List.find_opt (fun (k, _) -> not (List.mem k known)) kvs with
  | None -> Ok ()
  | Some (k, _) ->
    fail path "unknown field %S (%s)" k (String.concat "|" known)

let int_in path ~min ~max = function
  | J.Int n when n >= min && n <= max -> Ok n
  | J.Int n -> fail path "%d out of range [%d, %d]" n min max
  | _ -> fail path "expected an integer"

let any_int path = function
  | J.Int n -> Ok n
  | _ -> fail path "expected an integer"

let bool path = function
  | J.Bool b -> Ok b
  | _ -> fail path "expected a boolean"

let str path = function
  | J.Str s -> Ok s
  | _ -> fail path "expected a string"

let field kvs name ~default read =
  match List.assoc_opt name kvs with
  | None -> Ok default
  | Some v -> read v

let req path kvs name read =
  match List.assoc_opt name kvs with
  | None -> fail path "missing field %S" name
  | Some v -> read v

(* resolvers returning [Build]-style "unknown X (a|b|c)" messages, with the
   path prefixed *)
let resolving path = function Ok v -> Ok v | Error m -> Error (path ^ ": " ^ m)

let crashes_of_json path ~n v =
  match v with
  | J.List items ->
    if List.length items > max_crashes then
      fail path "more than %d crashes" max_crashes
    else
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | J.List [ J.Int p; J.Int t ] :: rest ->
          let path = Printf.sprintf "%s[%d]" path i in
          if p < 0 || p >= n then
            fail path "crash index %d out of range (S-processes: 0..%d)" p
              (n - 1)
          else if t < 0 || t > max_crash_time then
            fail path "crash time %d out of range [0, %d]" t max_crash_time
          else go (i + 1) ((p, t) :: acc) rest
        | _ :: _ ->
          fail
            (Printf.sprintf "%s[%d]" path i)
            "expected a [index, time] pair of integers"
      in
      go 0 [] items
  | _ -> fail path "expected a list of [index, time] pairs"

let solve_of_json path kvs =
  let* () =
    reject_unknown path
      ~known:
        [ "task"; "fd"; "policy"; "n"; "k"; "j"; "l"; "crashes"; "seed";
          "budget" ]
      kvs
  in
  let sub name = path ^ "." ^ name in
  let named name ~default resolve =
    field kvs name ~default:(Ok default) (fun v ->
        Ok
          (let* s = str (sub name) v in
           resolving (sub name) (resolve s)))
  in
  let* task = named "task" ~default:`Consensus Build.task_kind_of_string in
  let* sv_task = task in
  let* fd = named "fd" ~default:`Vector Build.fd_kind_of_string in
  let* sv_fd = fd in
  let* policy = named "policy" ~default:Build.Fair Build.policy_of_string in
  let* sv_policy = policy in
  let* sv_n =
    field kvs "n" ~default:4 (int_in (sub "n") ~min:1 ~max:max_procs)
  in
  let* sv_k =
    field kvs "k" ~default:1 (int_in (sub "k") ~min:1 ~max:max_procs)
  in
  (* consensus is 1-set agreement: any other k would size the detector for
     a task the algorithm does not solve *)
  let* () =
    if sv_task = `Consensus && sv_k <> 1 then
      fail (sub "k") "consensus needs k = 1, got %d (use task \"ksa\")" sv_k
    else Ok ()
  in
  let* sv_j =
    field kvs "j" ~default:3 (int_in (sub "j") ~min:1 ~max:max_procs)
  in
  let* sv_l =
    field kvs "l" ~default:None (fun v ->
        Result.map Option.some (int_in (sub "l") ~min:1 ~max:max_procs v))
  in
  let* sv_crashes =
    field kvs "crashes" ~default:[] (crashes_of_json (sub "crashes") ~n:sv_n)
  in
  let* sv_seed = field kvs "seed" ~default:1 (any_int (sub "seed")) in
  let* sv_budget =
    field kvs "budget" ~default:400_000
      (int_in (sub "budget") ~min:1 ~max:max_budget)
  in
  Ok
    (Solve
       {
         sv_task; sv_fd; sv_policy; sv_n; sv_k; sv_j; sv_l; sv_crashes;
         sv_seed; sv_budget;
       })

let modelcheck_of_json path kvs =
  let* () =
    reject_unknown path ~known:[ "scenario"; "n_s"; "depth"; "reduce" ] kvs
  in
  let sub name = path ^ "." ^ name in
  let* mc_scenario =
    field kvs "scenario" ~default:"safe-agreement" (str (sub "scenario"))
  in
  let* () =
    if List.mem mc_scenario Mcheck.Scenario.names then Ok ()
    else
      fail (sub "scenario") "unknown scenario %S (%s)" mc_scenario
        (String.concat "|" Mcheck.Scenario.names)
  in
  let* mc_n_s =
    field kvs "n_s" ~default:1 (int_in (sub "n_s") ~min:1 ~max:max_n_s)
  in
  let* mc_depth =
    field kvs "depth" ~default:8 (int_in (sub "depth") ~min:1 ~max:max_depth)
  in
  let* mc_reduce = field kvs "reduce" ~default:false (bool (sub "reduce")) in
  Ok (Modelcheck { mc_scenario; mc_n_s; mc_depth; mc_reduce })

let fuzz_of_json path kvs =
  let* () =
    reject_unknown path
      ~known:[ "kind"; "n"; "j"; "seed"; "budget"; "domains" ]
      kvs
  in
  let sub name = path ^ "." ^ name in
  let* fz_kind =
    field kvs "kind" ~default:"strong-renaming" (str (sub "kind"))
  in
  let* () =
    if List.mem fz_kind Build.fuzz_kinds then Ok ()
    else
      fail (sub "kind") "unknown fuzz kind %S (%s)" fz_kind
        (String.concat "|" Build.fuzz_kinds)
  in
  let* fz_n =
    field kvs "n" ~default:4 (int_in (sub "n") ~min:1 ~max:max_procs)
  in
  let* fz_j =
    field kvs "j" ~default:3 (int_in (sub "j") ~min:1 ~max:max_procs)
  in
  let* fz_seed = field kvs "seed" ~default:1 (any_int (sub "seed")) in
  let* fz_budget =
    field kvs "budget" ~default:500
      (int_in (sub "budget") ~min:1 ~max:max_budget)
  in
  let* fz_domains =
    field kvs "domains" ~default:1
      (int_in (sub "domains") ~min:1 ~max:max_domains)
  in
  Ok (Fuzz { fz_kind; fz_n; fz_j; fz_seed; fz_budget; fz_domains })

let work_of_kvs ~verb_path path ~verb kvs =
  match verb with
  | "solve" -> solve_of_json path kvs
  | "modelcheck" -> modelcheck_of_json path kvs
  | "fuzz" -> fuzz_of_json path kvs
  | s -> fail verb_path "unknown verb %S (solve|modelcheck|fuzz)" s

let work_of_params ?(path = "params") ~verb params =
  let* kvs = obj path params in
  work_of_kvs ~verb_path:"verb" path ~verb kvs

let check work =
  Result.map ignore
    (work_of_params ~verb:(work_verb work) (params_json work))

let expect_of_json path ~verb v =
  let* kvs = obj path v in
  let* () = reject_unknown path ~known:[ "outcome"; "kind"; "code" ] kvs in
  let sub name = path ^ "." ^ name in
  let* outcome = req path kvs "outcome" (str (sub "outcome")) in
  let no field =
    match List.assoc_opt field kvs with
    | None -> Ok ()
    | Some _ ->
      fail (sub field) "field %S only applies to outcome %S" field
        (if field = "kind" then "violation" else "error")
  in
  match outcome with
  | "safe" ->
    let* () = no "kind" in
    let* () = no "code" in
    if verb = "solve" then
      fail (sub "outcome")
        "outcome \"safe\" does not apply to solve (use \"solves\")"
    else Ok Safe
  | "solves" ->
    let* () = no "kind" in
    let* () = no "code" in
    if verb <> "solve" then
      fail (sub "outcome")
        "outcome \"solves\" only applies to solve (use \"safe\")"
    else Ok Solves
  | "violation" -> (
    let* () = no "code" in
    match List.assoc_opt "kind" kvs with
    | None -> Ok (Violation None)
    | Some v ->
      let* k = str (sub "kind") v in
      if verb <> "solve" then
        fail (sub "kind") "violation kinds only apply to solve"
      else if not (List.mem k violation_kinds) then
        fail (sub "kind") "unknown violation kind %S (%s)" k
          (String.concat "|" violation_kinds)
      else Ok (Violation (Some k)))
  | "error" ->
    let* () = no "kind" in
    let* code = req path kvs "code" (str (sub "code")) in
    if not (List.mem code err_codes) then
      fail (sub "code") "unknown error code %S (%s)" code
        (String.concat "|" err_codes)
    else Ok (Err code)
  | s ->
    fail (sub "outcome") "unknown outcome %S (%s)" s
      (String.concat "|"
         (if verb = "solve" then [ "solves"; "violation"; "error" ]
          else [ "safe"; "violation"; "error" ]))

(* When a spec omits [expect], derive it from the classification the
   registry predicts (the Theorem 10 vocabulary): a task solves iff the
   schedule's concurrency stays within the task's wait-free level, or the
   failure detector supplies the missing advice. Explicit [expect] always
   overrides — it can pin a violation kind or an error class the
   derivation cannot know. *)
let derive_expect path work =
  match work with
  | Modelcheck m -> (
    match Mcheck.Scenario.expected_safe m.mc_scenario with
    | Some true -> Ok Safe
    | Some false -> Ok (Violation None)
    | None ->
      fail path "cannot derive an expectation for scenario %S; declare it"
        m.mc_scenario)
  | Fuzz _ ->
    fail path "fuzz outcomes depend on seed and budget; declare \"expect\""
  | Solve s ->
    let conc =
      match s.sv_policy with
      | Build.Fair -> s.sv_n
      | Build.Kconc k | Build.Uniform k -> k
    in
    (* the task's maximal wait-free concurrency level, as classified by
       Tasklib.Registry.standard *)
    let level : Tasklib.Registry.expectation =
      match s.sv_task with
      | `Consensus -> Exact 1
      | `Ksa -> Exact s.sv_k
      | `Identity -> Exact s.sv_n
      | `Renaming ->
        let l = match s.sv_l with Some l -> l | None -> s.sv_j + s.sv_k - 1 in
        if l >= (2 * s.sv_j) - 1 then Exact s.sv_n
        else if l = s.sv_j then Exact 1
        else At_least (l - s.sv_j + 1)
      | `Wsb -> At_least 2
    in
    let fd_helps =
      (* only the agreement tasks have advice-backed algorithms in the
         battery; "trivial" is the no-advice baseline *)
      (match s.sv_task with `Consensus | `Ksa -> true | _ -> false)
      &&
      match s.sv_fd with
      | `Omega | `Vector | `Silent | `Perfect -> true
      | `Trivial -> false
    in
    let lower = Tasklib.Registry.expected_lower level in
    if conc <= lower || fd_helps then Ok Solves
    else (
      match level with
      | Exact _ -> Ok (Violation None)
      | At_least _ ->
        fail path
          "task is only classified as level >= %d; cannot derive an \
           expectation for concurrency %d — declare \"expect\""
          lower conc)

let of_json ?(path = "$") j =
  let* kvs = obj path j in
  let* () =
    reject_unknown path
      ~known:[ "v"; "name"; "verb"; "params"; "deadline_ms"; "expect" ]
      kvs
  in
  let sub name = path ^ "." ^ name in
  let* v = req path kvs "v" (any_int (sub "v")) in
  let* () =
    if v = version then Ok ()
    else fail (sub "v") "unsupported version %d (expected %d)" v version
  in
  let* sp_name = req path kvs "name" (str (sub "name")) in
  let* () =
    if name_ok sp_name then Ok ()
    else
      fail (sub "name")
        "invalid name %S (1-%d chars from [a-zA-Z0-9._/=,:+-])" sp_name
        max_name_len
  in
  let* verb = req path kvs "verb" (str (sub "verb")) in
  let* params = req path kvs "params" (obj (sub "params")) in
  let* sp_work =
    work_of_kvs ~verb_path:(sub "verb") (sub "params") ~verb params
  in
  let* sp_deadline_ms =
    field kvs "deadline_ms" ~default:None (fun v ->
        Result.map Option.some
          (int_in (sub "deadline_ms") ~min:1 ~max:max_deadline_ms v))
  in
  let* sp_expect =
    match List.assoc_opt "expect" kvs with
    | Some v -> expect_of_json (sub "expect") ~verb v
    | None -> derive_expect (sub "expect") sp_work
  in
  Ok { sp_name; sp_work; sp_deadline_ms; sp_expect }

let of_string s =
  let* j = J.of_string s in
  of_json j

let load path =
  match
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error (path ^ ": " ^ msg)
  | contents -> (
    match of_string contents with
    | Ok t -> Ok t
    | Error msg -> Error (path ^ ": " ^ msg))

(* ------------------------------------------------- outcome classification *)

type outcome = Pass | Fail | Timeout | Error

let outcome_string = function
  | Pass -> "pass"
  | Fail -> "fail"
  | Timeout -> "timeout"
  | Error -> "error"

(* What the result object says happened, in the same vocabulary as
   [expect]. [None] when the result does not have the verb's shape (an
   internal inconsistency, classified as [Error]). *)
let observed t result =
  match t.sp_work with
  | Solve _ -> (
    match J.member "ok" result with
    | Some (J.Bool true) -> Some Solves
    | Some (J.Bool false) ->
      (* the violation kind, re-derived in [Run.violation_of_report]'s
         checking order from the report's verdict fields *)
      let report_bool name =
        match Option.bind (J.member "report" result) (J.member name) with
        | Some (J.Bool b) -> Some b
        | _ -> None
      in
      Some
        (Violation
           (match
              ( report_bool "task_ok", report_bool "all_decided",
                report_bool "wait_free" )
            with
           | Some false, _, _ -> Some "task_violation"
           | Some true, Some false, _ -> Some "undecided"
           | Some true, Some true, Some false -> Some "not_wait_free"
           | _ -> None))
    | _ -> None)
  | Modelcheck _ -> (
    match J.member "verdict" result with
    | Some (J.Str "ok") -> Some Safe
    | Some (J.Str "counterexample") -> Some (Violation None)
    | _ -> None)
  | Fuzz _ -> (
    match J.member "found" result with
    | Some (J.Bool true) -> Some (Violation None)
    | Some (J.Bool false) -> Some Safe
    | _ -> None)

let classify t result =
  let expected = expect_string t.sp_expect in
  match result with
  | Stdlib.Error (code, msg) -> (
    match t.sp_expect with
    | Err c when c = code -> (Pass, "as expected: error:" ^ code)
    | _ when code = "deadline_exceeded" ->
      (Timeout, Printf.sprintf "expected %s, got deadline_exceeded" expected)
    | _ ->
      ( Error,
        Printf.sprintf "expected %s, got error:%s (%s)" expected code msg ))
  | Stdlib.Ok result -> (
    match observed t result with
    | None ->
      ( Error,
        Printf.sprintf "expected %s, got an unrecognized %s result" expected
          (verb t) )
    | Some obs ->
      let matches =
        match (t.sp_expect, obs) with
        | Safe, Safe | Solves, Solves -> true
        | Violation None, Violation _ -> true
        | Violation (Some k), Violation (Some k') -> k = k'
        | _ -> false
      in
      if matches then (Pass, "as expected: " ^ expect_string obs)
      else
        ( Fail,
          Printf.sprintf "expected %s, got %s" expected (expect_string obs)
        ))
