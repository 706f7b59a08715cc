(** A crash-safe generational record store — the durability layer under
    checkpoint/resume (DESIGN.md §8).

    One store is one directory holding monotonically numbered generation
    files [gen-NNNNNN.ckpt] and nothing else. Every write is atomic: the
    bytes go to a temp file in the same directory and are renamed over
    the final name, so a killed process leaves the new generation whole
    or absent. A durable write (the default) also [fsync]s the temp file
    before the rename and the directory after it, so a power loss at any
    instant leaves either the previous state or the new one, never a
    half-written generation under its final name. A write with
    [~sync:false] skips both: after a power loss its generation may be
    absent, or torn, which {!load} detects and skips like any other.

    Each generation file carries a header (magic, version, codec), the
    payload length, the payload — one {!Obs.Json.t} value in either the
    JSON text encoding or the {!Obs.Binval} tagged binary encoding, the
    same bytes the wire protocol uses — and an FNV-1a checksum. {!load}
    validates newest-first and {e rolls back}: a torn tail, a bit flip, a
    lying length or an undecodable payload demotes that generation and the
    next older one is tried, so the loader returns the newest generation
    that is provably intact, or [None] when none is. It never raises on
    corrupt input.

    Old generations are pruned on save (keeping a small tail as rollback
    insurance), so a long run's store stays O(keep) files. *)

type codec = Json | Binary

type t

val create :
  ?codec:codec ->
  ?keep:int ->
  ?sink:Obs.Sink.t ->
  string ->
  (t, string) result
(** Open (creating the directory if needed) a store rooted at the given
    directory. [codec] (default [Binary]) is the payload encoding for
    {e new} generations — {!load} auto-detects per file, so a store may
    mix codecs across its history. [keep] (default 3, min 1) is how many
    newest generations survive pruning. [sink] receives the [ckpt.*]
    events ({!Obs.Event.Name}). [Error] covers an unusable path (exists
    but is a file, cannot be created). *)

val dir : t -> string

val save : ?sync:bool -> t -> Obs.Json.t -> (int, string) result
(** Write a new generation holding the value; returns its number (one
    more than the newest generation present at {!create} time or written
    since). [sync] (default [true]) makes the write durable, as above;
    [~sync:false] is for a value whose loss to a power failure costs
    nothing, such as a journal generation that holds no answered job.
    [Error] reports I/O failure (disk full, permissions), also as a
    [ckpt.save.error] event; the store's existing generations are
    untouched in that case. *)

val load : t -> (int * Obs.Json.t) option
(** The newest intact generation and its number. [None] when the store
    holds no valid generation (fresh directory, or all corrupt). *)

val generations : t -> int list
(** Generation numbers currently on disk, ascending (validity not
    checked) — for tests and [wfa resume] diagnostics. *)

val generation_path : t -> int -> string
(** The file a given generation lives in (whether or not it exists). *)

val note_resume : t -> gen:int -> total:int -> done_:int -> unit
(** Emit the [ckpt.resume] event through this store's sink — called by
    the engines when they continue from a loaded record. *)
