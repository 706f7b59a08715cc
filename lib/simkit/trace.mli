(** Run traces: the sequence of steps taken, for checkers and debugging. *)

type event =
  | Read of Memory.reg * Value.t
  | Write of Memory.reg * Value.t
  | Snapshot of Memory.reg array
  | Query of Value.t
  | Decide of Value.t
  | Null  (** step of a terminated/decided process, or skipped crashed process *)

type entry = { time : int; pid : Pid.t; event : event }
type t

val create : enabled:bool -> t
val enabled : t -> bool
val record : t -> time:int -> pid:Pid.t -> event -> unit
val entries : t -> entry list
(** In chronological order. Allocates a fresh list; for scans prefer {!iter}
    or {!fold}, which walk the underlying buffer without building one. *)

val length : t -> int

val truncate : t -> int -> unit
(** [truncate t n] drops every entry past the first [n]. Raises
    [Invalid_argument] unless [0 <= n <= length t]. *)

val get : t -> int -> entry
(** [get t i] is the [i]-th entry in chronological order, O(1). *)

val iter : t -> (entry -> unit) -> unit
val fold : t -> init:'a -> ('a -> entry -> 'a) -> 'a

val steps_of : t -> Pid.t -> entry list
(** Entries of one process, chronological: one filtered pass over the buffer. *)

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

(** {1 Structured-event export}

    Bridge into {!Obs}: the canonical event encoding of a step, shared by
    the live {!Runtime} instrumentation hook and the post-hoc export of a
    recorded trace — the two streams of the same run compare equal. *)

val event_to_obs : time:int -> pid:Pid.t -> event -> Obs.Event.t
(** [{"ev":"step","t":time,"pid":"p1","op":"write","reg":3,"value":"7"}] —
    [reg]/[regs]/[value] fields appear as applicable per event kind. *)

val to_events : t -> Obs.Event.t list
(** The whole recorded trace, chronological. *)

val emit : t -> Obs.Sink.t -> unit
(** Stream the recorded trace through a sink (post-hoc replay export). *)
