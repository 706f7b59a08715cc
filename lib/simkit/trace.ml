type event =
  | Read of Memory.reg * Value.t
  | Write of Memory.reg * Value.t
  | Snapshot of Memory.reg array
  | Query of Value.t
  | Decide of Value.t
  | Null

type entry = { time : int; pid : Pid.t; event : event }

(* Entries live in a growable array in chronological order: recording is
   amortized O(1) and queries walk the buffer directly instead of re-reversing
   a cons list per call. *)
type t = { enabled : bool; mutable buf : entry array; mutable len : int }

let dummy = { time = 0; pid = Pid.C 0; event = Null }
let create ~enabled = { enabled; buf = [||]; len = 0 }

let record t ~time ~pid event =
  if t.enabled then begin
    if t.len = Array.length t.buf then begin
      let cap = max 64 (2 * Array.length t.buf) in
      let buf = Array.make cap dummy in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    t.buf.(t.len) <- { time; pid; event };
    t.len <- t.len + 1
  end

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  t.buf.(i)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let entries t = List.init t.len (fun i -> t.buf.(i))
let length t = t.len

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Trace.truncate";
  Array.fill t.buf n (t.len - n) dummy;
  t.len <- n

let pp_event ppf = function
  | Read (r, v) -> Fmt.pf ppf "read r%d -> %a" r Value.pp v
  | Write (r, v) -> Fmt.pf ppf "write r%d := %a" r Value.pp v
  | Snapshot rs -> Fmt.pf ppf "snapshot (%d regs)" (Array.length rs)
  | Query v -> Fmt.pf ppf "query -> %a" Value.pp v
  | Decide v -> Fmt.pf ppf "decide %a" Value.pp v
  | Null -> Fmt.string ppf "null"

let pp_entry ppf e =
  Fmt.pf ppf "[%4d] %a: %a" e.time Pid.pp e.pid pp_event e.event

let pp ppf t =
  let first = ref true in
  iter t (fun e ->
      if !first then first := false else Fmt.pf ppf "@\n";
      pp_entry ppf e)

(* --------------------------------------------- structured-event export *)

let value_json v = Obs.Json.Str (Fmt.str "%a" Value.pp v)

let event_to_obs ~time ~pid event =
  let base = [ ("t", Obs.Json.Int time); ("pid", Obs.Json.Str (Pid.to_string pid)) ] in
  let op kind extra = base @ (("op", Obs.Json.Str kind) :: extra) in
  let fields =
    match event with
    | Read (r, v) -> op "read" [ ("reg", Obs.Json.Int r); ("value", value_json v) ]
    | Write (r, v) -> op "write" [ ("reg", Obs.Json.Int r); ("value", value_json v) ]
    | Snapshot rs ->
      op "snapshot"
        [ ("regs", Obs.Json.List (Array.to_list (Array.map (fun r -> Obs.Json.Int r) rs))) ]
    | Query v -> op "query" [ ("value", value_json v) ]
    | Decide v -> op "decide" [ ("value", value_json v) ]
    | Null -> op "null" []
  in
  Obs.Event.make "step" fields

let to_events t =
  List.map (fun e -> event_to_obs ~time:e.time ~pid:e.pid e.event) (entries t)

let emit t sink =
  iter t (fun e -> Obs.Sink.emit sink (event_to_obs ~time:e.time ~pid:e.pid e.event))
