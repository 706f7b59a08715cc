open Simkit

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_config ?(n_c = 2) ?(n_s = 2) ?(pattern : Failure.pattern option) ?(trace = false) mem =
  let pattern =
    match pattern with Some p -> p | None -> Failure.failure_free n_s
  in
  {
    Runtime.n_c;
    n_s;
    memory = mem;
    pattern;
    history = History.trivial;
    record_trace = trace;
  }

(* --- Pid --- *)

let test_pid () =
  check_bool "c is c" true (Pid.is_c (Pid.c 0));
  check_bool "s is s" true (Pid.is_s (Pid.s 3));
  check_int "index" 3 (Pid.index (Pid.s 3));
  check_bool "order C before S" true (Pid.compare (Pid.c 9) (Pid.s 0) < 0);
  Alcotest.(check string) "pp 1-based" "p1" (Pid.to_string (Pid.c 0));
  Alcotest.(check string) "pp q" "q2" (Pid.to_string (Pid.s 1));
  check_int "all count" 5 (List.length (Pid.all ~n_c:2 ~n_s:3))

(* --- Failure --- *)

let test_failure_basic () =
  let f = Failure.pattern ~n_s:3 [ (1, 5) ] in
  check_bool "not crashed before" false (Failure.crashed f ~time:4 1);
  check_bool "crashed at" true (Failure.crashed f ~time:5 1);
  check_bool "crashed after" true (Failure.crashed f ~time:100 1);
  check_bool "others fine" false (Failure.crashed f ~time:100 0);
  Alcotest.(check (list int)) "faulty" [ 1 ] (Failure.faulty f);
  Alcotest.(check (list int)) "correct" [ 0; 2 ] (Failure.correct f);
  check_int "num faulty" 1 (Failure.num_faulty f)

let test_failure_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "all faulty" (fun () ->
      Failure.pattern ~n_s:2 [ (0, 1); (1, 2) ]);
  expect_invalid "repeated" (fun () -> Failure.pattern ~n_s:3 [ (0, 1); (0, 2) ]);
  expect_invalid "negative time" (fun () -> Failure.pattern ~n_s:3 [ (0, -1) ]);
  expect_invalid "out of range" (fun () -> Failure.pattern ~n_s:3 [ (5, 0) ])

let test_env_et () =
  let env = Failure.e_t ~n_s:4 ~t:2 in
  check_bool "member ok" true (env.member (Failure.pattern ~n_s:4 [ (0, 1); (2, 3) ]));
  check_bool "too many" false
    (env.member (Failure.pattern ~n_s:4 [ (0, 1); (2, 3); (3, 0) ]));
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    let p = env.sample rng ~horizon:100 in
    check_bool "sampled member" true (env.member p)
  done

let test_env_enumerate () =
  let env = Failure.e_t ~n_s:3 ~t:1 in
  let pats = Failure.enumerate env ~horizon:10 ~times:[ 0; 5 ] in
  (* failure-free (1) + 3 choices of single faulty × 2 times = 7 *)
  check_int "enumeration size" 7 (List.length pats);
  List.iter (fun p -> check_bool "enumerated member" true (env.member p)) pats

(* --- Memory --- *)

let test_memory () =
  let mem = Memory.create () in
  let rs = Memory.alloc mem 3 in
  check_int "alloc size" 3 (Array.length rs);
  check_bool "init unit" true (Value.is_unit (Memory.read mem rs.(0)));
  Memory.write mem rs.(1) (Value.int 7);
  check_int "write/read" 7 (Value.to_int (Memory.read mem rs.(1)));
  let rs2 = Memory.alloc mem ~init:(Value.int 9) 100 in
  check_int "grow" 9 (Value.to_int (Memory.read mem rs2.(99)));
  check_int "used" 103 (Memory.size mem);
  Alcotest.check_raises "oob" (Invalid_argument "Memory: register out of range")
    (fun () -> ignore (Memory.read mem 1000))

(* Random scripts of memory operations against a dense reference: an array
   that makes every cell when it is allocated. Registers range past the
   allocated size and below zero, so reads hit reserved cells that were
   never written, cells of pages never made, and out-of-range ids. An
   [init] of -1 stands for [~init:Value.unit]. *)
type mem_op =
  | Reserve of int
  | Alloc of int * int option
  | Write of int * int
  | Read of int
  | Read_many of int list
  | Size

type mem_obs =
  | Base of int
  | Regs of int array
  | Done
  | Got of Value.t
  | Got_many of Value.t array
  | Is of int
  | Out_of_range

let pp_mem_op = function
  | Reserve n -> Printf.sprintf "reserve %d" n
  | Alloc (n, None) -> Printf.sprintf "alloc %d" n
  | Alloc (n, Some v) -> Printf.sprintf "alloc ~init:%d %d" v n
  | Write (r, v) -> Printf.sprintf "write %d %d" r v
  | Read r -> Printf.sprintf "read %d" r
  | Read_many rs ->
    Printf.sprintf "read_many [%s]"
      (String.concat ";" (List.map string_of_int rs))
  | Size -> "size"

let gen_mem_ops =
  let open QCheck.Gen in
  let reg = int_range (-2) 700 and inits = opt (int_range (-1) 3) in
  list_size (int_range 0 60)
    (frequency
       [
         (2, map (fun n -> Reserve n) (int_range 0 150));
         (2, map2 (fun n init -> Alloc (n, init)) (int_range 0 80) inits);
         (4, map2 (fun r v -> Write (r, v)) reg (int_range 0 9));
         (4, map (fun r -> Read r) reg);
         (1, map (fun rs -> Read_many rs) (list_size (int_range 0 4) reg));
         (1, return Size);
       ])

let value_of_init =
  Option.map (fun v -> if v < 0 then Value.unit else Value.int v)

let memory_script ops =
  let mem = Memory.create () in
  let guard f = try f () with Invalid_argument _ -> Out_of_range in
  List.map
    (function
      | Reserve n -> Base (Memory.reserve mem n)
      | Alloc (n, init) -> Regs (Memory.alloc mem ?init:(value_of_init init) n)
      | Write (r, v) ->
        guard (fun () ->
            Memory.write mem r (Value.int v);
            Done)
      | Read r -> guard (fun () -> Got (Memory.read mem r))
      | Read_many rs ->
        guard (fun () -> Got_many (Memory.read_many mem (Array.of_list rs)))
      | Size -> Is (Memory.size mem))
    ops

let dense_script ops =
  let cells = ref [||] and used = ref 0 in
  let take n init =
    let base = !used in
    let c = Array.make (base + n) Value.unit in
    Array.blit !cells 0 c 0 base;
    Array.fill c base n (Option.value init ~default:Value.unit);
    cells := c;
    used := base + n;
    base
  in
  let cell r = if r < 0 || r >= !used then None else Some r in
  List.map
    (function
      | Reserve n -> Base (take n None)
      | Alloc (n, init) ->
        let base = take n (value_of_init init) in
        Regs (Array.init n (fun i -> base + i))
      | Write (r, v) -> (
        match cell r with
        | Some r ->
          !cells.(r) <- Value.int v;
          Done
        | None -> Out_of_range)
      | Read r -> (
        match cell r with Some r -> Got !cells.(r) | None -> Out_of_range)
      | Read_many rs ->
        if List.for_all (fun r -> cell r <> None) rs then
          Got_many (Array.of_list (List.map (fun r -> !cells.(r)) rs))
        else Out_of_range
      | Size -> Is !used)
    ops

let prop_memory_matches_dense =
  QCheck.Test.make ~name:"memory matches a dense reference" ~count:300
    (QCheck.make gen_mem_ops
       ~print:(fun ops -> String.concat "; " (List.map pp_mem_op ops)))
    (fun ops -> memory_script ops = dense_script ops)

(* --- Runtime basics --- *)

let test_runtime_write_read () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let seen = ref None in
  let c_code i () =
    if i = 0 then Runtime.Op.write r (Value.int 42)
    else seen := Some (Runtime.Op.read r)
  in
  let rt = Runtime.create (mk_config mem) ~c_code ~s_code:(fun _ () -> ()) in
  (* p1 writes on its first step *)
  Runtime.step rt (Pid.c 0);
  check_int "value visible in memory" 42 (Value.to_int (Memory.read mem r));
  Runtime.step rt (Pid.c 1);
  (match !seen with
  | Some v -> check_int "p2 read it" 42 (Value.to_int v)
  | None -> Alcotest.fail "p2 did not read");
  check_bool "p1 done" true (Runtime.status rt (Pid.c 0) = Runtime.Done);
  Runtime.destroy rt

let test_runtime_step_counts_time () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let c_code _ () =
    for i = 1 to 5 do
      Runtime.Op.write r (Value.int i)
    done
  in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  for _ = 1 to 3 do
    Runtime.step rt (Pid.c 0)
  done;
  check_int "time advanced" 3 (Runtime.time rt);
  check_int "3 writes landed" 3 (Value.to_int (Memory.read mem r));
  check_int "steps taken" 3 (Runtime.steps_taken rt (Pid.c 0));
  for _ = 1 to 10 do
    Runtime.step rt (Pid.c 0)
  done;
  check_int "only 5 writes total" 5 (Value.to_int (Memory.read mem r));
  check_bool "done after code returns" true
    (Runtime.status rt (Pid.c 0) = Runtime.Done);
  check_int "null steps counted as scheds" 13 (Runtime.sched_count rt (Pid.c 0));
  Runtime.destroy rt

let test_runtime_decide () =
  let mem = Memory.create () in
  let c_code _ () =
    Runtime.Op.decide (Value.int 99);
    (* unreachable: decide terminates the process *)
    Runtime.Op.write (Memory.alloc1 mem ()) (Value.int 0)
  in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  check_bool "not decided yet" true (Runtime.decision rt 0 = None);
  Runtime.step rt (Pid.c 0);
  (match Runtime.decision rt 0 with
  | Some v -> check_int "decided 99" 99 (Value.to_int v)
  | None -> Alcotest.fail "no decision");
  check_bool "all done" true (Runtime.all_c_done rt);
  check_bool "decide time" true (Runtime.decide_time rt 0 = Some 0);
  (* further steps are null *)
  Runtime.step rt (Pid.c 0);
  check_int "no extra steps" 1 (Runtime.steps_taken rt (Pid.c 0));
  Runtime.destroy rt

let test_runtime_crash_semantics () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let pattern = Failure.pattern ~n_s:2 [ (0, 2) ] in
  let s_code i () =
    if i = 0 then
      let rec loop n = Runtime.Op.write r (Value.int n); loop (n + 1) in
      loop 1
  in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:2 ~pattern mem)
      ~c_code:(fun _ () -> ())
      ~s_code
  in
  Runtime.step rt (Pid.s 0) (* time 0: alive, writes 1 *);
  Runtime.step rt (Pid.s 0) (* time 1: alive, writes 2 *);
  Runtime.step rt (Pid.s 0) (* time 2: crashed -> null *);
  Runtime.step rt (Pid.s 0) (* time 3: crashed -> null *);
  check_int "writes stop at crash" 2 (Value.to_int (Memory.read mem r));
  check_int "steps taken" 2 (Runtime.steps_taken rt (Pid.s 0));
  check_int "scheds include null" 4 (Runtime.sched_count rt (Pid.s 0));
  Runtime.destroy rt

let test_runtime_query () =
  let mem = Memory.create () in
  let history =
    History.make ~name:"time-echo" (fun q time -> Value.pair (Value.int q) (Value.int time))
  in
  let got = ref [] in
  let s_code i () =
    if i = 0 then
      for _ = 1 to 3 do
        got := Runtime.Op.query () :: !got
      done
  in
  let cfg = { (mk_config ~n_c:1 ~n_s:2 mem) with Runtime.history } in
  let rt = Runtime.create cfg ~c_code:(fun _ () -> ()) ~s_code in
  Runtime.step rt (Pid.s 0);
  Runtime.step rt (Pid.s 1);
  Runtime.step rt (Pid.s 0);
  Runtime.step rt (Pid.s 0);
  let vals = List.rev_map (fun v -> Value.to_pair v) !got in
  (match vals with
  | [ (q1, t1); (q2, t2); (q3, t3) ] ->
    check_int "q id" 0 (Value.to_int q1);
    check_int "q id" 0 (Value.to_int q2);
    check_int "q id" 0 (Value.to_int q3);
    check_int "t1" 0 (Value.to_int t1);
    check_int "t2" 2 (Value.to_int t2);
    check_int "t3" 3 (Value.to_int t3)
  | _ -> Alcotest.failf "expected 3 queries, got %d" (List.length vals));
  Runtime.destroy rt

let test_runtime_c_query_forbidden () =
  let mem = Memory.create () in
  let c_code _ () = ignore (Runtime.Op.query ()) in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  (match Runtime.step rt (Pid.c 0) with
  | exception Runtime.Forbidden_query pid ->
    check_bool "right pid" true (Pid.equal pid (Pid.c 0))
  | () -> Alcotest.fail "expected Forbidden_query");
  Runtime.destroy rt

let test_runtime_snapshot_primitive () =
  let mem = Memory.create () in
  let rs = Memory.alloc mem 3 in
  Array.iteri (fun i r -> Memory.write mem r (Value.int (i * 10))) rs;
  let got = ref [||] in
  let c_code _ () = got := Runtime.Op.snapshot rs in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  Runtime.step rt (Pid.c 0);
  Alcotest.(check (array int)) "snapshot" [| 0; 10; 20 |]
    (Array.map Value.to_int !got);
  Runtime.destroy rt

let test_runtime_determinism () =
  (* Same codes + same schedule => identical trace of memory states. *)
  let run () =
    let mem = Memory.create () in
    let rs = Memory.alloc mem 4 in
    let c_code i () =
      Runtime.Op.write rs.(i) (Value.int (i + 1));
      let v = Runtime.Op.read rs.((i + 1) mod 2) in
      Runtime.Op.decide (Value.pair (Value.int i) v)
    in
    let rt =
      Runtime.create (mk_config ~n_c:2 ~n_s:2 mem) ~c_code
        ~s_code:(fun _ () -> ())
    in
    let sched = [ Pid.c 0; Pid.c 1; Pid.c 1; Pid.c 0; Pid.c 0; Pid.c 1 ] in
    List.iter (Runtime.step rt) sched;
    let out = Runtime.decisions rt in
    Runtime.destroy rt;
    Array.map (Option.map Value.to_string) out
  in
  let a = run () and b = run () in
  check_bool "identical outcomes" true (a = b)

let test_runtime_yield () =
  let mem = Memory.create () in
  let c_code _ () =
    Runtime.Op.yield ();
    Runtime.Op.decide (Value.int 1)
  in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  Runtime.step rt (Pid.c 0);
  check_bool "yield is not a decision" true (Runtime.decision rt 0 = None);
  Runtime.step rt (Pid.c 0);
  check_bool "decided after yield" true (Runtime.decision rt 0 <> None);
  Runtime.destroy rt

let test_participating_requires_op () =
  (* A scheduled process whose code performs no operation takes a null step
     and must NOT count as participating (first_step is set only when an
     operation executes). *)
  let mem = Memory.create () in
  let c_code i () = if i = 0 then () else Runtime.Op.decide (Value.int i) in
  let rt =
    Runtime.create (mk_config ~n_c:2 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  Runtime.step rt (Pid.c 0);
  check_bool "no-op code does not participate" false (Runtime.participating rt 0);
  check_bool "no first-step time" true (Runtime.first_step_time rt 0 = None);
  Alcotest.(check (list int)) "not an undecided participant" []
    (Runtime.undecided_participants rt);
  Runtime.step rt (Pid.c 1);
  check_bool "op-performing code participates" true (Runtime.participating rt 1);
  check_int "steps_total counts every step call" 2 (Runtime.steps_total rt);
  Runtime.destroy rt

let test_digest_convergence () =
  (* Interleavings that commute (ops on distinct registers) digest equal;
     genuinely different outcomes digest differently. Keys compare within
     one context, so every runtime here is attached to the same one. *)
  let keys = Keys.create () in
  let build () =
    let mem = Memory.create () in
    let rs = Memory.alloc mem 2 in
    let c_code i () =
      Runtime.Op.write rs.(i) (Value.int (10 + i));
      Runtime.Op.decide (Value.int i)
    in
    let rt =
      Runtime.create (mk_config ~n_c:2 ~n_s:1 mem) ~c_code
        ~s_code:(fun _ () -> ())
    in
    Runtime.attach rt keys;
    rt
  in
  let after sched =
    let rt = build () in
    List.iter (Runtime.step rt) sched;
    let d = Runtime.digest rt in
    Runtime.destroy rt;
    d
  in
  Alcotest.(check string) "commuting writes converge"
    (after [ Pid.c 0; Pid.c 1 ])
    (after [ Pid.c 1; Pid.c 0 ]);
  check_bool "different progress differs" true
    (after [ Pid.c 0; Pid.c 0 ] <> after [ Pid.c 0; Pid.c 1 ])

(* A key holds the registers up to the last one written, not every one
   reserved: a keyed k-set agreement runtime that reserves 8 or 512
   rounds keys the same state in the same bytes, and the key stays exact
   (a write still moves it). *)
let test_key_ignores_reserved_rounds () =
  let after ~max_rounds sched =
    let mem = Memory.create () in
    let input_regs = Memory.alloc mem 2 in
    let ctx = { Efd.Algorithm.mem; n_c = 2; n_s = 2; input_regs } in
    let inst = (Efd.Ksa.consensus ~max_rounds ()).Efd.Algorithm.make ctx in
    let c_code i () =
      let v = Value.int (10 + i) in
      Runtime.Op.write input_regs.(i) v;
      inst.Efd.Algorithm.c_run i v
    in
    let rt =
      Runtime.create (mk_config mem) ~c_code ~s_code:(fun i () ->
          inst.Efd.Algorithm.s_run i)
    in
    Runtime.attach rt (Keys.create ());
    List.iter (Runtime.step rt) sched;
    let key = Runtime.digest rt in
    Runtime.destroy rt;
    (Memory.size mem, key)
  in
  let sched = [ Pid.c 0; Pid.c 1; Pid.s 0 ] in
  let small, k8 = after ~max_rounds:8 sched in
  let large, k512 = after ~max_rounds:512 sched in
  check_bool "512 rounds reserve more registers" true (large > small);
  Alcotest.(check int) "the key does not grow with max_rounds"
    (String.length k8) (String.length k512);
  Alcotest.(check string) "the same state keys the same" k8 k512;
  check_bool "a step that writes moves the key" true
    (snd (after ~max_rounds:512 [ Pid.c 0 ]) <> snd (after ~max_rounds:512 []))

(* The key context: a digest needs one, attaching is refused once an
   operation has executed, and two states that differ only in which of
   two ints a process read (ints a 30-bit hash confuses) key apart. *)
let test_key_context () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem)
      ~c_code:(fun _ () -> Runtime.Op.write r (Value.int 1))
      ~s_code:(fun _ () -> ())
  in
  expect_invalid "digest without a context" (fun () -> Runtime.digest rt);
  Runtime.peek rt (Pid.c 0);
  Runtime.step rt (Pid.s 0);
  let keys = Keys.create () in
  Runtime.attach rt keys;
  let d0 = Runtime.digest rt in
  Runtime.step rt (Pid.c 0);
  check_bool "a write moves the key" true (Runtime.digest rt <> d0);
  expect_invalid "attach after an operation" (fun () ->
      Runtime.attach rt (Keys.create ()));
  Runtime.destroy rt;
  let sc = Mcheck.Scenario.read_collision ~n_s:1 in
  let keys = Keys.create () in
  let after sched =
    let rt = sc.Mcheck.Scenario.sc_build () in
    Runtime.attach rt keys;
    List.iter (Runtime.step rt) sched;
    let d = Runtime.digest rt in
    Runtime.destroy rt;
    d
  in
  let p1 = Pid.c 0 and p2 = Pid.c 1 in
  check_bool "p1 read 21395 or 35553: keys differ" true
    (after [ p2; p1; p2 ] <> after [ p2; p2; p1 ]);
  Alcotest.(check string) "one history, one key" (after [ p2; p1; p2 ])
    (after [ p2; p1; p2 ]);
  (* a scenario runtime keys on its own context outside any engine *)
  let rt = sc.Mcheck.Scenario.sc_build () in
  Runtime.step rt p2;
  check_bool "scenario runtime digests" true (Runtime.digest rt <> "");
  Runtime.destroy rt

let test_trace_recording () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let c_code _ () =
    Runtime.Op.write r (Value.int 5);
    ignore (Runtime.Op.read r);
    Runtime.Op.decide (Value.int 5)
  in
  let cfg = { (mk_config ~n_c:1 ~n_s:1 mem) with Runtime.record_trace = true } in
  let rt = Runtime.create cfg ~c_code ~s_code:(fun _ () -> ()) in
  for _ = 1 to 4 do
    Runtime.step rt (Pid.c 0)
  done;
  let entries = Trace.entries (Runtime.trace rt) in
  check_int "4 entries" 4 (List.length entries);
  (match List.map (fun e -> e.Trace.event) entries with
  | [ Trace.Write _; Trace.Read _; Trace.Decide _; Trace.Null ] -> ()
  | _ -> Alcotest.fail "unexpected event sequence");
  Runtime.destroy rt

(* --- Null moves taken back --- *)

(* p1 writes and decides; q1 writes once, then crashes at time 3 with its
   next write parked; p2 is peeked onto a parked write; q2 is Fresh. *)
let null_move_runtime ?(keys = Keys.create ()) () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let c_code i () =
    Runtime.Op.write r (Value.int i);
    Runtime.Op.decide (Value.int i)
  in
  let s_code _ () =
    let rec loop n =
      Runtime.Op.write r (Value.int (100 + n));
      loop (n + 1)
    in
    loop 0
  in
  let pattern = Failure.pattern ~n_s:2 [ (0, 3) ] in
  let rt = Runtime.create (mk_config ~pattern ~trace:true mem) ~c_code ~s_code in
  Runtime.attach rt keys;
  List.iter (Runtime.step rt) [ Pid.c 0; Pid.c 0; Pid.s 0 ];
  Runtime.peek rt (Pid.c 1);
  rt

let observe rt pid =
  ( Runtime.digest rt,
    Runtime.time rt,
    Runtime.sched_count rt pid,
    Runtime.steps_total rt,
    Trace.length (Runtime.trace rt) )

let test_null_move_taken_back () =
  List.iter
    (fun pid ->
      let name = Pid.to_string pid in
      let keys = Keys.create () in
      let rt = null_move_runtime ~keys () in
      let before = observe rt pid in
      (* the state inside is exactly the one a real step reaches *)
      let twin = null_move_runtime ~keys () in
      Runtime.step twin pid;
      (match Runtime.with_step rt pid (fun () -> observe rt pid) with
      | Some inside ->
        check_bool (name ^ ": inside is the stepped state") true
          (inside = observe twin pid)
      | None -> Alcotest.failf "%s: null move refused" name);
      check_bool (name ^ ": taken back") true (observe rt pid = before);
      (* and taken back when the body raises *)
      (match Runtime.with_step rt pid (fun () -> raise Exit) with
      | exception Exit -> ()
      | _ -> Alcotest.failf "%s: exception swallowed" name);
      check_bool (name ^ ": taken back after a raise") true
        (observe rt pid = before);
      Runtime.destroy rt;
      Runtime.destroy twin)
    [ Pid.c 0 (* decided *); Pid.s 0 (* crashed, write parked *) ]

(* A process that has not finished, and is not crashed, moves for real:
   taken back, a [Fresh] one is restarted and a started one is spent. *)
let test_live_move_real () =
  let keys = Keys.create () in
  let rt = null_move_runtime ~keys () in
  let real pid label =
    let before = observe rt pid in
    check_bool (label ^ ": a step") true
      (Runtime.with_step rt pid (fun () -> Runtime.steps_taken rt pid)
      = Some (Runtime.steps_taken rt pid + 1));
    check_bool (label ^ ": taken back") true (observe rt pid = before)
  in
  real (Pid.s 1) "Fresh q2";
  check_bool "q2 restarted, Fresh" true
    (Runtime.status rt (Pid.s 1) = Runtime.Fresh);
  real (Pid.c 1) "p2 with a parked write";
  check_bool "p2 spent" true
    (match Runtime.step rt (Pid.c 1) with
    | exception Invalid_argument _ -> true
    | () -> false);
  Runtime.destroy rt

(* --- Schedule --- *)

let counter_codes mem n =
  (* Each C-process increments its own register forever. *)
  let rs = Memory.alloc mem n in
  let c_code i () =
    let rec loop v =
      Runtime.Op.write rs.(i) (Value.int v);
      loop (v + 1)
    in
    loop 1
  in
  (rs, c_code)

let test_round_robin_fair () =
  let mem = Memory.create () in
  let _, c_code = counter_codes mem 3 in
  let rt =
    Runtime.create (mk_config ~n_c:3 ~n_s:2 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let policy = Schedule.round_robin ~n_c:3 ~n_s:2 in
  let outcome = Schedule.run rt policy ~budget:50 in
  check_int "budget hit" 50 outcome.Schedule.total_steps;
  check_bool "exhausted" true outcome.Schedule.exhausted;
  check_int "each scheduled 10x" 10 (Runtime.sched_count rt (Pid.c 0));
  check_int "each scheduled 10x" 10 (Runtime.sched_count rt (Pid.s 1));
  Runtime.destroy rt

let test_shuffled_rounds_fair () =
  let mem = Memory.create () in
  let _, c_code = counter_codes mem 2 in
  let rt =
    Runtime.create (mk_config ~n_c:2 ~n_s:3 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let rng = Random.State.make [| 7 |] in
  let policy = Schedule.shuffled_rounds ~n_c:2 ~n_s:3 rng in
  let _ = Schedule.run rt policy ~budget:100 in
  (* 100 steps = 20 full rounds of 5: every process scheduled exactly 20x *)
  List.iter
    (fun pid -> check_int "fair rounds" 20 (Runtime.sched_count rt pid))
    (Pid.all ~n_c:2 ~n_s:3);
  Runtime.destroy rt

let test_explicit_schedule_stops () =
  let mem = Memory.create () in
  let _, c_code = counter_codes mem 1 in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let policy = Schedule.explicit [ Pid.c 0; Pid.c 0 ] in
  let outcome = Schedule.run rt policy ~budget:100 in
  check_int "ran 2" 2 outcome.Schedule.total_steps;
  check_bool "not exhausted" false outcome.Schedule.exhausted;
  Runtime.destroy rt

let test_run_stops_on_decisions () =
  let mem = Memory.create () in
  let c_code i () = Runtime.Op.decide (Value.int i) in
  let rt =
    Runtime.create (mk_config ~n_c:3 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let policy = Schedule.round_robin ~n_c:3 ~n_s:1 in
  let outcome = Schedule.run rt policy ~budget:1000 in
  check_bool "all decided" true outcome.Schedule.all_decided;
  check_bool "stopped early" true (outcome.Schedule.total_steps <= 4);
  Runtime.destroy rt

let test_starve_policy () =
  let mem = Memory.create () in
  let _, c_code = counter_codes mem 2 in
  let rt =
    Runtime.create (mk_config ~n_c:2 ~n_s:2 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let rng = Random.State.make [| 3 |] in
  let policy =
    Schedule.starve [ Pid.c 0 ] ~until:40
      (Schedule.shuffled_rounds ~n_c:2 ~n_s:2 rng)
  in
  let _ = Schedule.run rt policy ~budget:80 in
  (* p1 must not have been scheduled before time 40 *)
  (match Runtime.first_step_time rt 0 with
  | Some t -> check_bool "starved until 40" true (t >= 40)
  | None -> Alcotest.fail "p1 never ran at all");
  Runtime.destroy rt

let test_k_concurrent_controller () =
  let mem = Memory.create () in
  (* every C-process spins a bit, then decides *)
  let rs = Memory.alloc mem 4 in
  let c_code i () =
    for v = 1 to 3 do
      Runtime.Op.write rs.(i) (Value.int v)
    done;
    Runtime.Op.decide (Value.int i)
  in
  let rt =
    Runtime.create (mk_config ~n_c:4 ~n_s:2 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let rng = Random.State.make [| 11 |] in
  let policy = Schedule.k_concurrent ~k:2 ~arrival:[ 0; 1; 2; 3 ] ~n_s:2 rng in
  let outcome = Schedule.run rt policy ~budget:500 in
  check_bool "all decided" true outcome.Schedule.all_decided;
  check_bool "run was 2-concurrent" true (Checker.is_k_concurrent rt ~k:2);
  check_bool "not 1-concurrent (2 admitted at once)" false
    (Checker.max_concurrency rt <= 1);
  Runtime.destroy rt

let test_solo_policy () =
  let mem = Memory.create () in
  let c_code _ () = Runtime.Op.decide (Value.int 0) in
  let rt =
    Runtime.create (mk_config ~n_c:3 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let outcome =
    Schedule.run rt (Schedule.c_solo 1) ~budget:10
      ~stop_when:(fun rt -> Runtime.decision rt 1 <> None)
  in
  check_bool "p2 decided" true (Runtime.decision rt 1 <> None);
  check_bool "others never ran" true
    ((not (Runtime.participating rt 0)) && not (Runtime.participating rt 2));
  check_bool "solo is 1-concurrent" true (Checker.is_k_concurrent rt ~k:1);
  ignore outcome;
  Runtime.destroy rt

(* --- Checker --- *)

let test_checker_wait_free () =
  let mem = Memory.create () in
  let c_code i () =
    if i = 0 then Runtime.Op.decide (Value.int 0)
    else
      let r = Memory.alloc1 mem () in
      let rec loop () =
        ignore (Runtime.Op.read r);
        loop ()
      in
      loop ()
  in
  let rt =
    Runtime.create (mk_config ~n_c:2 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let _ =
    Schedule.run rt (Schedule.round_robin ~n_c:2 ~n_s:1) ~budget:90
  in
  check_bool "p1 fine" true (Runtime.decision rt 0 <> None);
  check_bool "wait-freedom violated by p2" false
    (Checker.wait_free_ok rt ~min_scheds:20);
  Alcotest.(check (list int)) "witness is p2" [ 1 ]
    (Checker.undecided_with_scheds rt ~min_scheds:20);
  Runtime.destroy rt

let test_checker_concurrency_sequential () =
  let mem = Memory.create () in
  let c_code i () = Runtime.Op.decide (Value.int i) in
  let rt =
    Runtime.create (mk_config ~n_c:3 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  (* strictly sequential: p1 runs & decides, then p2, then p3 *)
  List.iter (Runtime.step rt) [ Pid.c 0; Pid.c 1; Pid.c 2 ];
  check_int "sequential run is 1-concurrent" 1 (Checker.max_concurrency rt);
  Runtime.destroy rt

let test_checker_concurrency_parallel () =
  let mem = Memory.create () in
  let r = Memory.alloc1 mem () in
  let c_code i () =
    ignore (Runtime.Op.read r);
    Runtime.Op.decide (Value.int i)
  in
  let rt =
    Runtime.create (mk_config ~n_c:3 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  (* all three start before any decides *)
  List.iter (Runtime.step rt)
    [ Pid.c 0; Pid.c 1; Pid.c 2; Pid.c 0; Pid.c 1; Pid.c 2 ];
  check_int "3-concurrent" 3 (Checker.max_concurrency rt);
  Runtime.destroy rt

let test_checker_fairness_measure () =
  let mem = Memory.create () in
  let pattern = Failure.pattern ~n_s:3 [ (2, 0) ] in
  let rt =
    Runtime.create
      (mk_config ~n_c:1 ~n_s:3 ~pattern mem)
      ~c_code:(fun _ () -> ())
      ~s_code:(fun _ () -> ())
  in
  Runtime.step rt (Pid.s 0);
  Runtime.step rt (Pid.s 0);
  Runtime.step rt (Pid.s 1);
  check_int "min correct scheds" 1 (Checker.min_correct_s_scheds rt);
  Runtime.destroy rt

(* --- Snapshot (honest construction) --- *)

let test_snapshot_sequential () =
  let mem = Memory.create () in
  let h = Snapshot.create mem ~n:3 in
  let result = ref [||] in
  let c_code i () =
    if i = 0 then begin
      Snapshot.update h 0 (Value.int 10);
      result := Snapshot.scan h
    end
  in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let _ = Schedule.run rt (Schedule.c_solo 0) ~budget:200 in
  check_int "slots" 3 (Snapshot.n_slots h);
  check_bool "scan sees own update" true
    (Value.equal !result.(0) (Value.int 10));
  check_bool "others bottom" true (Value.is_unit !result.(1));
  Runtime.destroy rt

let test_snapshot_interleaved_atomic () =
  (* Two writers + one scanner under many random schedules: every scan must
     be a prefix-consistent atomic view — for single-writer counters that
     increment their own slot, any scan must read values that were
     simultaneously current. We check monotone consistency: repeated scans
     are pointwise non-decreasing. *)
  let trials = 25 in
  let violations = ref 0 in
  for seed = 1 to trials do
    let mem = Memory.create () in
    let h = Snapshot.create mem ~n:3 in
    let scans = ref [] in
    let c_code i () =
      if i < 2 then
        for v = 1 to 5 do
          Snapshot.update h i (Value.int v)
        done
      else
        for _ = 1 to 5 do
          scans := Snapshot.scan h :: !scans
        done
    in
    let rt =
      Runtime.create (mk_config ~n_c:3 ~n_s:1 mem) ~c_code
        ~s_code:(fun _ () -> ())
    in
    let rng = Random.State.make [| seed |] in
    let _ =
      Schedule.run rt (Schedule.shuffled_rounds ~n_c:3 ~n_s:1 rng) ~budget:5000
    in
    let as_int v = if Value.is_unit v then 0 else Value.to_int v in
    let ordered = List.rev !scans in
    let rec check_mono = function
      | a :: (b :: _ as rest) ->
        for j = 0 to 1 do
          if as_int a.(j) > as_int b.(j) then incr violations
        done;
        check_mono rest
      | _ -> ()
    in
    check_mono ordered;
    Runtime.destroy rt
  done;
  check_int "no monotonicity violations" 0 !violations

let test_snapshot_borrowed_view () =
  (* Force the borrow path: a scanner interleaved with a fast writer that
     updates many times; the scanner must still terminate (wait-freedom). *)
  let mem = Memory.create () in
  let h = Snapshot.create mem ~n:2 in
  let scan_done = ref false in
  let c_code i () =
    if i = 0 then
      for v = 1 to 50 do
        Snapshot.update h 0 (Value.int v)
      done
    else begin
      ignore (Snapshot.scan h);
      scan_done := true;
      Runtime.Op.decide (Value.unit)
    end
  in
  let rt =
    Runtime.create (mk_config ~n_c:2 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  (* adversarial: give the scanner one step per 6 writer steps *)
  let sched = ref [] in
  for _ = 1 to 400 do
    sched := Pid.c 0 :: Pid.c 0 :: Pid.c 0 :: Pid.c 0 :: Pid.c 0 :: Pid.c 0 :: Pid.c 1 :: !sched
  done;
  let _ =
    Schedule.run rt (Schedule.explicit !sched) ~budget:3000
      ~stop_when:(fun _ -> !scan_done)
  in
  check_bool "scan terminated despite concurrent writer" true !scan_done;
  Runtime.destroy rt

let test_collect_vs_scan () =
  let mem = Memory.create () in
  let h = Snapshot.create mem ~n:2 in
  let out = ref Value.unit in
  let c_code _ () =
    Snapshot.update h 0 (Value.str "a");
    Snapshot.update h 1 (Value.str "b");
    let c = Snapshot.collect h in
    out := Value.pair c.(0) c.(1);
    Runtime.Op.decide Value.unit
  in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  let _ = Schedule.run rt (Schedule.c_solo 0) ~budget:500 in
  let a, b = Value.to_pair !out in
  Alcotest.(check string) "collect a" "a" (Value.to_str a);
  Alcotest.(check string) "collect b" "b" (Value.to_str b);
  Runtime.destroy rt

(* --- Nested runtimes (the Figure-1 prerequisite) --- *)

let test_nested_runtime () =
  (* An outer process runs a complete inner simulation as local computation
     between two of its own steps. *)
  let mem = Memory.create () in
  let outer_result = Memory.alloc1 mem () in
  let c_code _ () =
    (* inner simulation: 2 C-processes exchanging a value *)
    let imem = Memory.create () in
    let ir = Memory.alloc1 imem () in
    let inner_c i () =
      if i = 0 then Runtime.Op.write ir (Value.int 123)
      else Runtime.Op.decide (Runtime.Op.read ir)
    in
    let irt =
      Runtime.create
        {
          Runtime.n_c = 2;
          n_s = 1;
          memory = imem;
          pattern = Failure.failure_free 1;
          history = History.trivial;
          record_trace = false;
        }
        ~c_code:inner_c
        ~s_code:(fun _ () -> ())
    in
    Runtime.step irt (Pid.c 0);
    Runtime.step irt (Pid.c 1);
    Runtime.step irt (Pid.c 1);
    let inner_decision =
      match Runtime.decision irt 1 with Some v -> v | None -> Value.int (-1)
    in
    Runtime.destroy irt;
    (* back in the outer world: one outer step publishing the result *)
    Runtime.Op.write outer_result inner_decision;
    Runtime.Op.decide inner_decision
  in
  let rt =
    Runtime.create (mk_config ~n_c:1 ~n_s:1 mem) ~c_code
      ~s_code:(fun _ () -> ())
  in
  Runtime.step rt (Pid.c 0);
  Runtime.step rt (Pid.c 0);
  check_int "inner run result escaped to outer memory" 123
    (Value.to_int (Memory.read mem outer_result));
  (match Runtime.decision rt 0 with
  | Some v -> check_int "outer decided inner value" 123 (Value.to_int v)
  | None -> Alcotest.fail "outer did not decide");
  Runtime.destroy rt

let suite =
  [
    Alcotest.test_case "pid" `Quick test_pid;
    Alcotest.test_case "failure pattern basics" `Quick test_failure_basic;
    Alcotest.test_case "failure validation" `Quick test_failure_validation;
    Alcotest.test_case "environment E_t" `Quick test_env_et;
    Alcotest.test_case "environment enumeration" `Quick test_env_enumerate;
    Alcotest.test_case "memory" `Quick test_memory;
    Alcotest.test_case "runtime write/read" `Quick test_runtime_write_read;
    Alcotest.test_case "runtime steps and time" `Quick test_runtime_step_counts_time;
    Alcotest.test_case "runtime decide" `Quick test_runtime_decide;
    Alcotest.test_case "runtime crash semantics" `Quick test_runtime_crash_semantics;
    Alcotest.test_case "runtime FD query" `Quick test_runtime_query;
    Alcotest.test_case "C-process query forbidden" `Quick test_runtime_c_query_forbidden;
    Alcotest.test_case "snapshot primitive" `Quick test_runtime_snapshot_primitive;
    Alcotest.test_case "determinism" `Quick test_runtime_determinism;
    Alcotest.test_case "yield" `Quick test_runtime_yield;
    Alcotest.test_case "participation requires an operation" `Quick
      test_participating_requires_op;
    Alcotest.test_case "state digest convergence" `Quick test_digest_convergence;
    Alcotest.test_case "key context: attach, refusal, exactness" `Quick
      test_key_context;
    Alcotest.test_case "a key does not grow with reserved rounds" `Quick
      test_key_ignores_reserved_rounds;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
    Alcotest.test_case "null move taken back" `Quick test_null_move_taken_back;
    Alcotest.test_case "a live process's move is real" `Quick
      test_live_move_real;
    Alcotest.test_case "round robin fair" `Quick test_round_robin_fair;
    Alcotest.test_case "shuffled rounds fair" `Quick test_shuffled_rounds_fair;
    Alcotest.test_case "explicit schedule stops" `Quick test_explicit_schedule_stops;
    Alcotest.test_case "run stops on decisions" `Quick test_run_stops_on_decisions;
    Alcotest.test_case "starve policy" `Quick test_starve_policy;
    Alcotest.test_case "k-concurrent controller" `Quick test_k_concurrent_controller;
    Alcotest.test_case "solo policy" `Quick test_solo_policy;
    Alcotest.test_case "checker wait-freedom" `Quick test_checker_wait_free;
    Alcotest.test_case "checker: sequential is 1-concurrent" `Quick
      test_checker_concurrency_sequential;
    Alcotest.test_case "checker: parallel is 3-concurrent" `Quick
      test_checker_concurrency_parallel;
    Alcotest.test_case "checker fairness measure" `Quick test_checker_fairness_measure;
    Alcotest.test_case "snapshot sequential" `Quick test_snapshot_sequential;
    Alcotest.test_case "snapshot atomic under interleaving" `Quick
      test_snapshot_interleaved_atomic;
    Alcotest.test_case "snapshot wait-free under fast writer" `Quick
      test_snapshot_borrowed_view;
    Alcotest.test_case "collect vs scan" `Quick test_collect_vs_scan;
    Alcotest.test_case "nested runtimes" `Quick test_nested_runtime;
    QCheck_alcotest.to_alcotest prop_memory_matches_dense;
  ]
