(** Leader-based consensus, the sub-protocol of Figure 2.

    Clients (C-processes) publish round-stamped queries carrying their
    estimate; whoever currently believes itself leader (a C- or S-process —
    the election rule belongs to the caller) answers unanswered rounds by
    copying back one queried estimate; clients adopt the answer and run a
    wait-free commit–adopt per round, deciding on commit.

    Safety (agreement, validity) holds unconditionally — commit–adopt
    arbitrates conflicting answers from rogue leaders. Liveness needs what
    Ω-style detectors provide: from some point on, a single correct process
    keeps serving the instance.

    All operations perform runtime effects; each call costs a bounded
    number of steps (clients are pumped, never blocked). *)

type t

val create : Simkit.Memory.t -> n_c:int -> max_rounds:int -> t
(** Takes, in this order: [n_c] query registers, [max_rounds] answer
    registers (round [r]'s is the [r]-th), one decision register, and
    [max_rounds] commit–adopt instances of [2 n_c] registers each (round
    [r]'s is the [r]-th, in {!Bglib.Commit_adopt.create}'s layout). That is
    the numbering an eager [alloc] of each block would give, but the answer
    and commit–adopt blocks are only reserved ({!Simkit.Memory.reserve}):
    set-up costs the same at any [max_rounds], and a round's registers cost
    nothing until a process writes into them. A client that reaches round
    [r] names that round's instance with {!Bglib.Commit_adopt.at}. *)

val answer_reg : t -> int -> Simkit.Memory.reg
(** [answer_reg t r]: round [r]'s answer register, [1 <= r <= max_rounds]. *)

val round : t -> int -> Bglib.Commit_adopt.t
(** [round t r]: round [r]'s commit–adopt instance, [1 <= r <= max_rounds].
    Pure: the same registers on every call. *)

type client

val client : t -> me:int -> Value.t -> client
(** [client t ~me input]: local pump state for C-process [me]. *)

type step = Decided of Value.t | Pending | Exhausted

val pump : client -> step
(** Advance the client a bounded amount: publish the next query, poll for
    the round's answer, or run the round's commit–adopt. [Exhausted] =
    [max_rounds] hit (size budgets accordingly). *)

val serve : t -> unit
(** Leader duty: answer every queried-but-unanswered round with one of that
    round's queried estimates. Call repeatedly while believing yourself
    leader. *)

val read_decision : t -> Value.t option
(** One-step probe of the decision register. *)
