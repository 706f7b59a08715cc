(** Wait-free commit–adopt (Gafni): the safety core of round-based
    consensus. If every participant proposes the same value, everyone
    commits it; if anyone commits [v], everyone at least adopts [v]. *)

type t

type outcome = Commit of Value.t | Adopt of Value.t

val create : Simkit.Memory.t -> n:int -> t
(** Takes [2n] fresh registers: [n] for phase 1, then [n] for phase 2. *)

val at : Simkit.Memory.reg -> n:int -> t
(** [at base ~n]: the instance whose [2n] registers start at [base], in
    {!create}'s layout (phase 1 at [base] to [base + n - 1], phase 2 at
    [base + n] to [base + 2n - 1]). Allocates no register: the caller
    reserved the block when it was built ({!Simkit.Memory.reserve}), and
    [at] with the same arguments names the same instance every time. *)

val registers : t -> Simkit.Memory.reg array * Simkit.Memory.reg array
(** The phase-1 and phase-2 registers. *)

val run : t -> me:int -> Value.t -> outcome
(** Two write/snapshot phases; call once per process per instance. *)

val outcome_value : outcome -> Value.t
val is_commit : outcome -> bool
