(** Decision tasks [(I, O, Δ)] (§2.1 of the paper).

    A task is given by its arity [m] (one slot per C-process), a finite set
    of maximal input vectors (prefix closure is implicit: every non-empty
    prefix of an input vector is an input vector), and the relation Δ,
    realized as a checker on (input, partial output) pairs. Partial outputs
    must be accepted whenever they extend to a valid full output — all the
    concrete tasks here admit a direct such check.

    [choose] is the sequential choice oracle used by the generic
    1-concurrent solver (Proposition 1): given the input vector read so far
    and a compatible partial output with slot [i] undecided, it returns a
    value for [i] keeping the output valid. Such a function exists for every
    task by the paper's task axioms; we require it constructively. *)

type t = {
  task_name : string;
  arity : int;
  colorless : bool;
      (** processes may adopt each other's inputs/outputs (footnote 6) *)
  max_inputs : unit -> Vectors.t list;
      (** the maximal input vectors; finite, per the paper's assumption *)
  input_count : int;
      (** [List.length (max_inputs ())], saturating at [max_int] *)
  nth_input : int -> Vectors.t;
      (** [nth_input i = List.nth (max_inputs ()) i], built alone, for
          [0 <= i < input_count] *)
  check : input:Vectors.t -> output:Vectors.t -> bool;
      (** is the (possibly partial) output compatible with Δ on [input]? *)
  choose : input:Vectors.t -> output:Vectors.t -> int -> Value.t;
      (** sequential choice oracle; may raise [Invalid_argument] if slot [i]
          is ⊥ in [input] or already decided in [output] *)
  known_concurrency : int option;
      (** the task's maximal concurrency level if known (Thm 10 metadata) *)
}

val satisfies : t -> input:Vectors.t -> output:Vectors.t -> bool
(** Full run check: [output] only decides participants of [input], and
    [check] accepts. (The wait-freedom side of run satisfaction is checked
    by {!Simkit.Checker}, which knows step counts.) *)

val input_ok : t -> Vectors.t -> bool
(** Is the vector a prefix of some maximal input vector? *)

val sample_input : t -> Random.State.t -> Vectors.t
(** A maximal input vector drawn uniformly: [nth_input] of one
    [Random.State.full_int] draw below [input_count], which for a count
    below [2^30] is the draw [Random.State.int] makes. Raises
    [Invalid_argument] when there is no input, or when [input_count] has
    saturated at [max_int] (past one draw's range). *)

val sample_prefix : t -> Random.State.t -> min_participants:int -> Vectors.t
(** A random prefix (with at least [min_participants] non-⊥ slots) of a
    random maximal input vector. *)

val choice_closure : t -> input:Vectors.t -> Vectors.t
(** Repeatedly apply [choose] in index order to extend the empty output to
    all participants of [input] — the sequential (1-concurrent) solution.
    Useful for testing that [choose] is total and valid. *)
