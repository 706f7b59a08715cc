(* The host the benchmark runs on, and the files it leaves: clock, core
   count, peak resident memory of a process, and a private scratch
   directory under the build directory that is removed at exit. *)

let now_ns () = Int64.to_int (Obs.Clock.now_ns ())
let since_s t0 = float_of_int (now_ns () - t0) /. 1e9

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

(* The value of one "Key:   value" line of /proc/<pid>/status. *)
let proc_status_field pid key =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = key ->
             Some
               (String.trim
                  (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)

(* Cores this process may run on — what `nproc` prints — from the
   affinity list ("0-3,6"); the runtime's own estimate when /proc is
   unavailable. *)
let nproc () =
  let count list =
    String.split_on_char ',' list
    |> List.fold_left
         (fun acc range ->
           match String.split_on_char '-' range with
           | [ a ] when a <> "" -> acc + 1
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | _ -> acc)
         0
  in
  match proc_status_field (Unix.getpid ()) "Cpus_allowed_list" with
  | Some l -> (
    try max 1 (count l) with _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  match proc_status_field pid "VmHWM" with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> ( try float_of_string kb /. 1024. with _ -> nan)
    | [] -> nan)
  | None -> nan

(* CPU seconds of this process, all threads, exited ones included
   (getrusage): time spent waiting or stolen by the host is not in it. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds a live process has run, summed over its threads: the first
   field of each /proc/<pid>/task/<tid>/schedstat, in ns. Like getrusage it
   leaves out time the thread waited or the host stole; unlike
   /proc/<pid>/stat it is not rounded to clock ticks. *)
let cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0.
  | tids ->
    Array.fold_left
      (fun acc tid ->
        match
          read_file (Filename.concat dir (Filename.concat tid "schedstat"))
        with
        | exception Sys_error _ -> acc
        | text -> (
          match String.split_on_char ' ' (String.trim text) with
          | ns :: _ -> (
            match float_of_string_opt ns with
            | Some ns -> acc +. (ns /. 1e9)
            | None -> acc)
          | [] -> acc))
      0. tids

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Run this executable with [args] to completion and return its standard
   output; [Failure] unless it exits 0. *)
let run_self args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> out
  | _ -> failwith (String.concat " " (exe :: args) ^ " failed")

(* Everything the bench writes lives under [root] in the working
   directory — the checkout when run as the repository's benchmark — inside
   the build directory, which is not committed. *)
let root = Filename.concat "_build" "wfabench"

(* Relative on purpose: Unix socket paths are limited to ~100 bytes, and
   the checkout can sit anywhere. *)
let scratch =
  lazy
    (let d = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf d;
     mkdir_p d;
     at_exit (fun () -> try rm_rf d with _ -> ());
     d)

let scratch_path name = Filename.concat (Lazy.force scratch) name
