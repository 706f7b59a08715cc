(** Key context: what makes {!Runtime.digest} exact.

    A context interns the values a run observes into dense ids and names
    each process's observation history by a node of a hash-consed trie: a
    history is the sequence of its process's executed operations with
    their results, and one (parent node, operation, value id) edge leads to
    exactly one child. Equal histories therefore get equal nodes, and
    different ones different nodes, with no hash standing in for either.
    Ids and nodes mean something only within the context that made them,
    so runtimes whose keys are compared must share one context
    ({!Runtime.attach}).

    Each value and each edge is stored once, under its id and its node,
    so a context also reads backwards: a node's parent and the edge into
    it, and an id's value. {!Runtime.restore} walks a process's history
    this way, from its node back to {!root}, and re-runs its code along
    it.

    Creating a context allocates one small record; its tables are made on
    first use. A context is not thread-safe: the runtimes attached to it
    must run on one domain at a time. *)

type t

val create : unit -> t

val clear : t -> unit
(** Forget every value and node: ids and nodes start again from [0] and
    {!root}, as in a context just created, so keys written afterwards
    equal those a fresh context writes. The tables keep their capacity
    (up to a bound), so a context reused for a search of the same size
    grows nothing. Keys written before the clear mean nothing after it. *)

val root : int
(** The node of the empty history, the same in every context. *)

val intern : t -> Value.t -> int
(** The value's id: ids are dense from 0, and two values get one id iff
    they are {!Value.equal}. *)

val child : t -> int -> op:int -> vid:int -> int
(** [child k node ~op ~vid]: the node one edge below [node]. [op] encodes
    the operation (its kind and register), [vid] its value id. *)

val value : t -> int -> Value.t
(** [value k id]: the value {!intern} gave [id]. Raises [Invalid_argument]
    for an id the context has not given. *)

val parent : t -> int -> int
val op : t -> int -> int

val vid : t -> int -> int
(** [parent k c], [op k c] and [vid k c]: the edge by which node [c] is
    {!child} of [parent k c]. Raise [Invalid_argument] for {!root} and for
    a node the context has not made. *)

(** {1 Building a key}

    One key at a time, in the context's own scratch buffer:
    {!start}, then {!add} each number, then {!finish}. *)

val start : t -> unit

val add : t -> int -> unit
(** Append a non-negative number as an LEB128 varint, so the finished key
    decodes to exactly the sequence of numbers added. *)

val finish : t -> string
(** The key built since {!start}. *)
