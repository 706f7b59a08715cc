(* The reference core. The shared host this benchmark runs on changes
   speed by up to half within seconds and keeps doing so (README.md, "Host
   drift"), far past any regression bound, and the change hits the
   engine's kind of code — hashing, polymorphic compare, short loops over
   small tables — much more than plain arithmetic. So after every round the
   bench times a fixed unit of such code, in CPU seconds of the calling
   thread, and divides the round's CPU seconds by how much slower than the
   reference core the unit ran: what is left is the round's cost on the
   reference core, which the host's drift does not move.

   The unit is the bench's own code over the standard library only, so no
   change under lib/ or bin/ can move it. It allocates nothing: an
   allocation could start a slice of the major collector that pays off the
   workload's garbage, and the unit would then time the workload. *)

external thread_cpu_s : unit -> float = "wfabench_thread_cpu_s"

let entries = 1024
let mask = entries - 1

let table () =
  let t = Hashtbl.create entries in
  for k = 0 to mask do
    Hashtbl.replace t k k
  done;
  t

let iterations = 20_000

let unit_of_work t =
  let x = ref 0x2545F491 and sum = ref 0 in
  for i = 1 to iterations do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land mask in
    let v = Hashtbl.find t ((k * 40503) land mask) in
    Hashtbl.replace t k ((v + i) land mask);
    sum := !sum + v
  done;
  !sum

(* CPU seconds the reference core takes for one unit: a little faster
   than the 2-vCPU VM the benchmark was sized on ran it at its fastest. *)
let reference_s = 1e-3

let units_per_probe = 5

(* How many times slower than the reference core this thread runs now:
   the median over [units_per_probe] units. *)
let probe t =
  Stat.median
    (List.init units_per_probe (fun _ ->
         let c0 = thread_cpu_s () in
         ignore (Sys.opaque_identity (unit_of_work t));
         thread_cpu_s () -. c0))
  /. reference_s

(* One table per core a probe may run on; a table belongs to one domain
   at a time. *)
let tables = Array.init 2 (fun _ -> table ())

(* The host's slowdown on [cores] cores (1 or 2): the mean of probes run at
   once in as many domains, which the kernel spreads over that many idle
   CPUs. The drift differs between the vCPUs at times, so a workload that
   keeps two CPUs busy is measured on two. Call it while the workload is
   idle. *)
let slowdown ~cores =
  if cores <= 1 then probe tables.(0)
  else
    let other = Domain.spawn (fun () -> probe tables.(1)) in
    let mine = probe tables.(0) in
    (mine +. Domain.join other) /. 2.
