(** Small enumeration helpers shared by the task constructors.

    Each enumeration comes with its count and an unranking: [nth_* i] is
    the [i]-th element of the list the enumeration builds, found without
    building it. Counts saturate: [max_int] stands for any count that an
    [int] cannot hold. *)

val subsets_of_size : int -> 'a list -> 'a list list
(** All sublists of the given size, order-preserving. *)

val binomial : int -> int -> int
(** [binomial n k]: [List.length (subsets_of_size k l)] for a list [l] of
    length [n]; saturating. *)

val nth_subset_of_size : int -> 'a list -> int -> 'a list
(** [nth_subset_of_size k l i = List.nth (subsets_of_size k l) i].
    Raises [Invalid_argument] unless [0 <= i < binomial (List.length l) k]. *)

val assignments : 'a list -> 'b list -> 'b list list
(** All functions from positions of the first list into the second, as lists
    aligned with the first ([|b|^|a|] results). *)

val count_assignments : slots:int -> values:int -> int
(** [values] to the power [slots]: [List.length (assignments a b)] when [a]
    has [slots] elements and [b] has [values]; saturating. *)

val nth_assignment : 'a list -> 'b list -> int -> 'b list
(** [nth_assignment a b i = List.nth (assignments a b) i]. Raises
    [Invalid_argument] unless [0 <= i < count_assignments]. *)
