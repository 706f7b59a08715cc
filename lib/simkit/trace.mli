(** Run traces: the sequence of steps taken, for checkers and debugging. *)

type event =
  | Read of Memory.reg * Value.t
  | Write of Memory.reg * Value.t
  | Snapshot of Memory.reg array
  | Query of Value.t
  | Decide of Value.t
  | Yield  (** a [yield]: a step that executes, touching no shared state *)
  | Null  (** step of a terminated/decided process, or skipped crashed process *)

type entry = { time : int; pid : Pid.t; event : event }
type t

val create : enabled:bool -> t
val record : t -> time:int -> pid:Pid.t -> event -> unit
val entries : t -> entry list
(** In chronological order. Allocates a fresh list; for scans prefer {!iter},
    which walks the underlying buffer without building one. *)

val length : t -> int

val truncate : t -> int -> unit
(** [truncate t n] drops every entry past the first [n]. Raises
    [Invalid_argument] unless [0 <= n <= length t]. *)

val get : t -> int -> entry
(** [get t i] is the [i]-th entry in chronological order, O(1). *)

val iter : t -> (entry -> unit) -> unit

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

(** {1 Structured-event export}

    Bridge into {!Obs}: the canonical event encoding of a step. A run is
    fixed by its codes, schedule, history and inputs, so its per-step
    events are read after it, from the trace it recorded under
    [record_trace] ({!Runtime.config}), as [--explain] reads a witness's
    replayed run: no live hook is needed. *)

val event_to_obs : time:int -> pid:Pid.t -> event -> Obs.Event.t
(** [{"ev":"step","t":time,"pid":"p1","op":"write","reg":3,"value":"7"}] —
    [reg]/[regs]/[value] fields appear as applicable per event kind. *)

val to_events : t -> Obs.Event.t list
(** The whole recorded trace, chronological. *)

val emit : t -> Obs.Sink.t -> unit
(** Stream the recorded trace through a sink (post-hoc replay export). *)
