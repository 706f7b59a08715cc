(* Spans recorded by the bench around its calls into each layer, kept in
   memory and written at exit as Chrome trace-event JSON (loads in Perfetto
   and chrome://tracing). Spans inside the program under test are not
   recorded: server internals stay opaque. Off unless [enable] was called,
   and then a span costs two clock reads and one list cell. *)

module J = Obs.Json

type ev = {
  name : string;
  ts : int;  (** start, ns on {!Host.now_ns}'s clock *)
  dur : int;  (** ns; [-1] for an instant event *)
  tid : int;  (** one lane per bench thread or fleet worker *)
  args : (string * J.t) list;
}

let on = ref false
let events : ev list ref = ref []
let count = ref 0
let mutex = Mutex.create ()
let enable () = on := true

let add ev =
  Mutex.lock mutex;
  events := ev :: !events;
  incr count;
  Mutex.unlock mutex

let complete ?(args = []) ~tid name ~ts ~stop =
  if !on then add { name; ts; dur = stop - ts; tid; args }

let instant ?(args = []) ~tid name ~ts =
  if !on then add { name; ts; dur = -1; tid; args }

(* [f ()] under a span; the span is recorded even when [f] raises. *)
let span ?(args = []) ~tid name f =
  if not !on then f ()
  else
    let ts = Host.now_ns () in
    Fun.protect
      ~finally:(fun () -> complete ~args ~tid name ~ts ~stop:(Host.now_ns ()))
      f

let write ~path ~lanes ~meta =
  let buf = Buffer.create (1 lsl 16) in
  let origin =
    List.fold_left (fun m e -> min m e.ts) max_int !events
  in
  let us ns = J.Float (float_of_int ns /. 1e3) in
  let pid = Unix.getpid () in
  let sep = ref "" in
  let emit j =
    Buffer.add_string buf !sep;
    sep := ",\n";
    J.to_buffer buf j
  in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  List.iter
    (fun (tid, lane) ->
      emit
        (J.Obj
           [
             ("name", J.Str "thread_name");
             ("ph", J.Str "M");
             ("pid", J.Int pid);
             ("tid", J.Int tid);
             ("args", J.Obj [ ("name", J.Str lane) ]);
           ]))
    lanes;
  List.iter
    (fun e ->
      emit
        (J.Obj
           ([
              ("name", J.Str e.name);
              ("ph", J.Str (if e.dur < 0 then "i" else "X"));
              ("ts", us (e.ts - origin));
            ]
           @ (if e.dur < 0 then [ ("s", J.Str "t") ]
              else [ ("dur", us e.dur) ])
           @ [
               ("pid", J.Int pid);
               ("tid", J.Int e.tid);
               ("args", J.Obj e.args);
             ])))
    (List.rev !events);
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\",\"otherData\":";
  J.to_buffer buf (J.Obj meta);
  Buffer.add_string buf "}\n";
  Host.mkdir_p (Filename.dirname path);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)
