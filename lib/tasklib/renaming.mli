(** (j, ℓ)-renaming (§5): at most [j] of the [n] processes participate, each
    carrying a distinct original name from a large namespace, and every
    participant must acquire a distinct new name in [1..ℓ].

    Strong renaming is [ℓ = j]. Known concurrency metadata follows §5:
    level 1 for [ℓ = j] (Theorem 12: not 2-concurrently solvable), level [n]
    for [ℓ ≥ 2j − 1] (wait-free solvable, Attiya et al.), unknown otherwise
    (lower bound [ℓ − j + 1] by Theorem 15; upper bound open [8]). *)

val make : n:int -> j:int -> l:int -> Task.t
(** Requires [1 ≤ j ≤ l] and [j < n]. *)

val strong : n:int -> j:int -> Task.t
(** (j, j)-renaming. *)

val original_name : n:int -> int -> int
(** The injective original name carried by C-process [i] in our instances
    (inputs are these names as [Value.Int]). *)

val participating : n:int -> int list -> Vectors.t
(** The vector in which exactly the listed processes participate, each with
    its {!original_name}. *)

val input_count : n:int -> j:int -> int
val nth_input : n:int -> j:int -> int -> Vectors.t
(** The maximal inputs of [make ~n ~j ~l] (and of WSB): one vector per
    [j]-subset of the processes, in {!Combinat.subsets_of_size}'s order. *)
