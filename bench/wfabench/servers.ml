(* `wfa serve` child processes of the built bin/wfa.exe: the system under
   test behind the wire. A server counts as started once it answers [ping];
   start-up is polled every 0.1 ms, not through [Client.connect]'s 50 ms
   backoff: a start takes about 3 ms, and a coarser poll would quantise
   the set-up time. *)

type listen = Unix_socket | Tcp_loopback
type t = { pid : int; addr : string; log : string }

(* bin/wfa.exe sits two directories above this executable's directory in
   the build tree; the dune file makes it a link dependency, so building
   the bench builds the server. *)
let wfa_exe =
  lazy
    (let build_root =
       Filename.dirname
         (Filename.dirname (Filename.dirname Sys.executable_name))
     in
     let exe = Filename.concat build_root (Filename.concat "bin" "wfa.exe") in
     if Sys.file_exists exe then exe
     else failwith (Printf.sprintf "server executable %s not found" exe))

let live : int list ref = ref []
let live_mutex = Mutex.create ()

let forget pid =
  Mutex.lock live_mutex;
  live := List.filter (( <> ) pid) !live;
  Mutex.unlock live_mutex

(* SIGTERM drains the server; one still running after 5 s is killed.
   Either way the child is reaped before this returns. *)
let stop_pid pid =
  forget pid;
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Host.now_ns () + 5_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Host.now_ns () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ -> (
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

let stop t = stop_pid t.pid

(* SIGKILL and reap at once: for a server started only to time its start,
   which has nothing to drain. SIGTERM would wait on the server's 50 ms
   shutdown poll. *)
let discard t =
  forget t.pid;
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] t.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error _ -> ()
  in
  reap ()
let () = at_exit (fun () -> List.iter stop_pid !live)

let spawn ~name ~listen ~workers =
  let wfa = Lazy.force wfa_exe in
  let log = Host.scratch_path (name ^ ".log") in
  let where =
    match listen with
    | Unix_socket -> "unix:" ^ Host.scratch_path (name ^ ".sock")
    | Tcp_loopback -> "tcp:127.0.0.1:0"
  in
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process wfa
          [|
            wfa;
            "serve";
            "--listen";
            where;
            "--workers";
            string_of_int workers;
            "--shards";
            "1";
          |]
          Unix.stdin fd Unix.stderr)
  in
  Mutex.lock live_mutex;
  live := pid :: !live;
  Mutex.unlock live_mutex;
  ({ pid; addr = where; log }, listen)

(* The address the server printed once bound: with port 0 the kernel picks,
   so the log line is the only way to learn it. *)
let announced t =
  let marker = "listening on " in
  match Host.read_file t.log with
  | exception Sys_error _ -> None
  | text -> (
    let m = String.length marker in
    let rec find i =
      if i + m > String.length text then None
      else if String.sub text i m = marker then Some (i + m)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start -> (
      match String.index_from_opt text start ' ' with
      | Some stop -> Some (String.sub text start (stop - start))
      | None -> None))

let alive t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Poll every 0.1 ms until the server answers ping; [Error] once it
   died or 10 s passed. The result carries the bound address. *)
let await (t, listen) =
  let deadline = Host.now_ns () + 10_000_000_000 in
  let rec poll () =
    if Host.now_ns () > deadline then Error "no ping answer within 10 s"
    else if not (alive t) then Error "exited during start-up"
    else
      let addr =
        match listen with
        | Tcp_loopback -> announced t
        | Unix_socket -> Some t.addr
      in
      match Option.map Svc.Client.connect addr with
      | None | (exception Unix.Unix_error _) ->
        Unix.sleepf 0.0001;
        poll ()
      | Some c -> (
        let r = Svc.Client.call c Svc.Protocol.Ping in
        Svc.Client.close c;
        match r with
        | Ok _ -> Ok { t with addr = Option.get addr }
        | Error e -> Error (Svc.Client.error_string e))
  in
  poll ()

let started = ref 0

(* Start [count] servers at once and wait until each answers ping:
   returns them and the elapsed seconds. Each start has files of its own,
   so a cold start can run beside the servers a workload uses. *)
let start ~name ~listen ~workers ~count =
  incr started;
  let t0 = Host.now_ns () in
  let spawned =
    List.init count (fun i ->
        spawn
          ~name:(Printf.sprintf "%s-%d-%d" name !started i)
          ~listen ~workers)
  in
  let ready =
    List.map
      (fun ((s, _) as sp) ->
        match await sp with
        | Ok s -> s
        | Error msg ->
          List.iter (fun (s, _) -> stop s) spawned;
          failwith
            (Printf.sprintf "wfa serve %s failed to start: %s" s.addr msg))
      spawned
  in
  (ready, Host.since_s t0)

(* One inline verb ([stats], [metrics]) on a fresh connection. *)
let call_json t verb =
  let c = Svc.Client.connect t.addr in
  Fun.protect
    ~finally:(fun () -> Svc.Client.close c)
    (fun () ->
      match Svc.Client.call c verb with
      | Ok j -> j
      | Error e -> failwith (Svc.Client.error_string e))

let peak_rss_mb t = Host.peak_rss_mb t.pid
