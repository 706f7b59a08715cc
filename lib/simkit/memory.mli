(** Simulated shared memory: a growable pool of atomic MWMR registers.

    Registers are plain integer handles into one [Memory.t], numbered in
    allocation order. Algorithm constructors take their registers when they
    are built, by {!alloc} or {!reserve}. Process code must never allocate:
    register ids would then depend on the schedule, and state would live
    outside the runtime, which {!Exhaustive.run} forbids (a
    {!Runtime.restore} that re-runs such code raises, its registers no
    longer the recorded ones).

    Every register in range that was never written reads [Value.unit]
    (playing the role of ⊥). Cells are kept in pages of 64 registers, and a
    page is made by the first write into it, so a reserved block costs
    nothing until something writes it: an algorithm can reserve all the
    rounds it might reach and pay only for the ones a run does reach.

    All reads and writes go through the runtime, one atomic step each; the
    direct accessors below exist for the runtime itself and for checkers
    inspecting final states. *)

type t
type reg = int

val create : unit -> t

val reserve : t -> int -> reg
(** [reserve mem n] takes the next [n] registers, [base] to [base + n - 1],
    and returns [base], in O(1). They read [Value.unit] until written. *)

val alloc : t -> ?init:Value.t -> int -> reg array
(** [alloc mem n] takes the next [n] registers, as {!reserve} does, and
    returns them, initialized to [init] (default [Value.unit]). *)

val alloc1 : t -> ?init:Value.t -> unit -> reg

val size : t -> int
(** The number of registers taken so far; ids [0] to [size - 1] are in
    range. *)

val extent : t -> int
(** One past the highest register ever written ([0] before any write):
    every register from it up reads [Value.unit]. A write that puts the
    old value back does not lower it. *)

val read : t -> reg -> Value.t
(** Direct read — runtime/checker use only; inside process code use
    {!Runtime.Op.read}. Raises [Invalid_argument] out of range. *)

val write : t -> reg -> Value.t -> unit
(** Direct write — runtime use only. Raises [Invalid_argument] out of
    range. *)

val read_many : t -> reg array -> Value.t array

val overlaps : reg array -> reg array -> bool
(** Do two register footprints share a register? Linear scan — footprints
    are at most one snapshot wide. Used by the exhaustive checker's
    independence relation ({!Runtime.footprint}). *)
