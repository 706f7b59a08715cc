(** Dynamic values stored in simulated shared memory.

    Shared registers in the simulator are untyped, mirroring raw shared
    memory. Algorithms exchange [Value.t] and convert at module boundaries
    with the typed accessors below, which raise {!Type_error} on mismatch
    (a type confusion is an algorithm bug, not a recoverable condition). *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Vec of t array  (** immutable by convention: never mutate in place *)

exception Type_error of string

(** {1 Constructors} *)

val unit : t
val bool : bool -> t
val int : int -> t
val str : string -> t
val pair : t -> t -> t
val list : t list -> t
val vec : t array -> t
val option : t option -> t
(** [option v] encodes [None] as [Unit] and [Some x] as [Pair (x, Unit)],
    so that [Unit]-valued payloads stay distinguishable from absence. *)

val triple : t -> t -> t -> t
val int_list : int list -> t
val int_vec : int array -> t

(** {1 Typed accessors (raise {!Type_error} on mismatch)} *)

val to_bool : t -> bool
val to_int : t -> int
val to_str : t -> string
val to_pair : t -> t * t
val to_list : t -> t list
val to_vec : t -> t array
val to_option : t -> t option
val to_triple : t -> t * t * t
val to_int_list : t -> int list
val to_int_vec : t -> int array

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order: structural, with a fixed order on constructors. *)

val hash : t -> int
(** Structural hash over the full width of [int]: {!equal} values hash
    equal, and distinct [Int]s never collide. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Misc} *)

val is_unit : t -> bool
val depth : t -> int
(** Nesting depth; used by generators and sanity bounds. *)

val size : t -> int
(** Number of constructor nodes. *)
