(* Values and trie edges are stored once, indexed by id and by node, and
   two open-addressing tables of slots holding ids find them; a scratch
   buffer builds keys. Everything is grown on first use, so that a context
   nobody keys through costs one small record. Probes are top-level
   functions taking every argument, so a lookup allocates nothing. *)

type t = {
  (* value [i] is [vals.(i)], with hash [vhash.(i)]; a slot of [vslot]
     holds an id + 1 (0 = empty) *)
  mutable vals : Value.t array;
  mutable vhash : int array;
  mutable vslot : int array;
  mutable n_vals : int;
  (* node [c] > 0 is the child of [edges.(3c)] by the edge
     ([edges.(3c + 1)], [edges.(3c + 2)]) = (op, value id); a slot of
     [kslot] holds a node (0 = empty: the root is nobody's child) *)
  mutable edges : int array;
  mutable kslot : int array;
  mutable n_nodes : int;
  (* the key being built *)
  mutable buf : Bytes.t;
  mutable pos : int;
}

let create () =
  {
    vals = [||];
    vhash = [||];
    vslot = [||];
    n_vals = 0;
    edges = [||];
    kslot = [||];
    n_nodes = 0;
    buf = Bytes.empty;
    pos = 0;
  }

let root = 0

(* Past this many values or nodes, [clear] drops the tables instead of
   wiping them: one large search must not make every later small one pay
   to clear its capacity. *)
let keep_max = 1 lsl 16

let clear k =
  if k.n_vals > keep_max then begin
    k.vals <- [||];
    k.vhash <- [||];
    k.vslot <- [||]
  end
  else if k.n_vals > 0 then begin
    (* the stored values are let go; [vhash] needs no wipe, as an id is
       read only once a slot holds it *)
    Array.fill k.vslot 0 (Array.length k.vslot) 0;
    Array.fill k.vals 0 k.n_vals Value.unit
  end;
  if k.n_nodes > keep_max then begin
    k.edges <- [||];
    k.kslot <- [||]
  end
  else if k.n_nodes > 0 then Array.fill k.kslot 0 (Array.length k.kslot) 0;
  k.n_vals <- 0;
  k.n_nodes <- 0;
  k.pos <- 0

(* [a], or [a] doubled with its new cells [x], so that index [n] is in
   range. *)
let room a n x =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Put [id] into the first empty slot from [h]'s. *)
let rec place slots mask i id =
  if slots.(i) = 0 then slots.(i) <- id + 1
  else place slots mask ((i + 1) land mask) id

(* ------------------------------------------------------------ values *)

let rec vprobe k v h mask i =
  let s = k.vslot.(i) in
  if s = 0 then begin
    let id = k.n_vals in
    k.vals <- room k.vals id Value.unit;
    k.vhash <- room k.vhash id 0;
    k.vals.(id) <- v;
    k.vhash.(id) <- h;
    k.n_vals <- id + 1;
    k.vslot.(i) <- id + 1;
    id
  end
  else
    let id = s - 1 in
    if k.vhash.(id) = h && (k.vals.(id) == v || Value.equal k.vals.(id) v)
    then id
    else vprobe k v h mask ((i + 1) land mask)

let grow_values k =
  let cap = max 16 (2 * Array.length k.vslot) in
  k.vslot <- Array.make cap 0;
  for id = 0 to k.n_vals - 1 do
    place k.vslot (cap - 1) (k.vhash.(id) land (cap - 1)) id
  done

let intern k v =
  if 2 * (k.n_vals + 1) > Array.length k.vslot then grow_values k;
  let h = Value.hash v and mask = Array.length k.vslot - 1 in
  vprobe k v h mask (h land mask)

let value k id =
  if id < 0 || id >= k.n_vals then invalid_arg "Keys.value";
  k.vals.(id)

(* -------------------------------------------------------------- trie *)

let edge_hash parent op vid =
  let h = (((parent * 0x5851f42d4c957f2d) + op) * 0x5851f42d4c957f2d) + vid in
  let h = (h lxor (h lsr 29)) * 0x14057b7ef767814f in
  h lxor (h lsr 32)

let rec eprobe k parent op vid mask i =
  let c = k.kslot.(i) in
  if c = 0 then begin
    let c = k.n_nodes + 1 in
    k.edges <- room k.edges ((3 * c) + 2) 0;
    k.edges.(3 * c) <- parent;
    k.edges.((3 * c) + 1) <- op;
    k.edges.((3 * c) + 2) <- vid;
    k.n_nodes <- c;
    k.kslot.(i) <- c;
    c
  end
  else if
    k.edges.(3 * c) = parent
    && k.edges.((3 * c) + 1) = op
    && k.edges.((3 * c) + 2) = vid
  then c
  else eprobe k parent op vid mask ((i + 1) land mask)

let grow_trie k =
  let cap = max 64 (2 * Array.length k.kslot) in
  k.kslot <- Array.make cap 0;
  for c = 1 to k.n_nodes do
    let e = 3 * c in
    place k.kslot (cap - 1)
      (edge_hash k.edges.(e) k.edges.(e + 1) k.edges.(e + 2) land (cap - 1))
      (c - 1)
  done

let child k parent ~op ~vid =
  if 2 * (k.n_nodes + 1) > Array.length k.kslot then grow_trie k;
  let mask = Array.length k.kslot - 1 in
  eprobe k parent op vid mask (edge_hash parent op vid land mask)

(* Field [i] of the edge into node [c]. *)
let edge k c i =
  if c <= root || c > k.n_nodes then invalid_arg "Keys: not a child node";
  k.edges.((3 * c) + i)

let parent k c = edge k c 0
let op k c = edge k c 1
let vid k c = edge k c 2

(* --------------------------------------------------------------- keys *)

let start k = k.pos <- 0

(* LEB128: seven bits a byte, low bits first, the high bit set on every
   byte but the last. A number ends at its first byte below 0x80, so a key
   decodes to exactly one sequence of numbers. *)
let rec add k n =
  if n < 0 then invalid_arg "Keys.add: negative";
  if k.pos + 10 > Bytes.length k.buf then begin
    let buf = Bytes.create (max 64 (2 * Bytes.length k.buf)) in
    Bytes.blit k.buf 0 buf 0 k.pos;
    k.buf <- buf
  end;
  if n < 0x80 then begin
    Bytes.set k.buf k.pos (Char.unsafe_chr n);
    k.pos <- k.pos + 1
  end
  else begin
    Bytes.set k.buf k.pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    k.pos <- k.pos + 1;
    add k (n lsr 7)
  end

let finish k = Bytes.sub_string k.buf 0 k.pos
