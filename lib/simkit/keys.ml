(* Two open-addressing tables and a scratch buffer, grown on first use so
   that a context nobody keys through costs one small record. Probes are
   top-level functions taking every argument, so a lookup allocates
   nothing. *)

type t = {
  (* value intern table: slot i holds [vals.(i)], its hash [vhash.(i)] and
     its id + 1 in [vslot.(i)] (0 = empty) *)
  mutable vals : Value.t array;
  mutable vhash : int array;
  mutable vslot : int array;
  mutable n_vals : int;
  (* history trie, one flat table: slot i maps the edge
     (edges.(3i), edges.(3i+1), edges.(3i+2)) = (parent, op, value id) to
     the child [kids.(i)] (0 = empty: the root is nobody's child) *)
  mutable edges : int array;
  mutable kids : int array;
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
    kids = [||];
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
    (* [vhash] needs no wipe: a slot is read only when [vslot] marks it *)
    Array.fill k.vslot 0 (Array.length k.vslot) 0;
    Array.fill k.vals 0 (Array.length k.vals) Value.unit
  end;
  if k.n_nodes > keep_max then begin
    k.edges <- [||];
    k.kids <- [||]
  end
  else if k.n_nodes > 0 then Array.fill k.kids 0 (Array.length k.kids) 0;
  k.n_vals <- 0;
  k.n_nodes <- 0;
  k.pos <- 0

(* ------------------------------------------------------------ values *)

let rec vprobe k v h mask i =
  let s = k.vslot.(i) in
  if s = 0 then begin
    k.vals.(i) <- v;
    k.vhash.(i) <- h;
    k.n_vals <- k.n_vals + 1;
    k.vslot.(i) <- k.n_vals;
    k.n_vals - 1
  end
  else if k.vhash.(i) = h && (k.vals.(i) == v || Value.equal k.vals.(i) v)
  then s - 1
  else vprobe k v h mask ((i + 1) land mask)

let grow_values k =
  let vals = k.vals and vhash = k.vhash and vslot = k.vslot in
  let cap = max 16 (2 * Array.length vslot) in
  k.vals <- Array.make cap Value.unit;
  k.vhash <- Array.make cap 0;
  k.vslot <- Array.make cap 0;
  let mask = cap - 1 in
  for i = 0 to Array.length vslot - 1 do
    if vslot.(i) <> 0 then begin
      let j = ref (vhash.(i) land mask) in
      while k.vslot.(!j) <> 0 do
        j := (!j + 1) land mask
      done;
      k.vals.(!j) <- vals.(i);
      k.vhash.(!j) <- vhash.(i);
      k.vslot.(!j) <- vslot.(i)
    end
  done

let intern k v =
  if 2 * (k.n_vals + 1) > Array.length k.vslot then grow_values k;
  let h = Value.hash v and mask = Array.length k.vslot - 1 in
  vprobe k v h mask (h land mask)

(* -------------------------------------------------------------- trie *)

let edge_hash parent op vid =
  let h = (((parent * 0x5851f42d4c957f2d) + op) * 0x5851f42d4c957f2d) + vid in
  let h = (h lxor (h lsr 29)) * 0x14057b7ef767814f in
  h lxor (h lsr 32)

let rec eprobe k parent op vid mask i =
  let c = k.kids.(i) in
  if c = 0 then begin
    k.n_nodes <- k.n_nodes + 1;
    k.kids.(i) <- k.n_nodes;
    k.edges.(3 * i) <- parent;
    k.edges.((3 * i) + 1) <- op;
    k.edges.((3 * i) + 2) <- vid;
    k.n_nodes
  end
  else if
    k.edges.(3 * i) = parent
    && k.edges.((3 * i) + 1) = op
    && k.edges.((3 * i) + 2) = vid
  then c
  else eprobe k parent op vid mask ((i + 1) land mask)

let grow_trie k =
  let edges = k.edges and kids = k.kids in
  let cap = max 64 (2 * Array.length kids) in
  k.edges <- Array.make (3 * cap) 0;
  k.kids <- Array.make cap 0;
  let mask = cap - 1 in
  for i = 0 to Array.length kids - 1 do
    if kids.(i) <> 0 then begin
      let parent = edges.(3 * i)
      and op = edges.((3 * i) + 1)
      and vid = edges.((3 * i) + 2) in
      let j = ref (edge_hash parent op vid land mask) in
      while k.kids.(!j) <> 0 do
        j := (!j + 1) land mask
      done;
      k.kids.(!j) <- kids.(i);
      k.edges.(3 * !j) <- parent;
      k.edges.((3 * !j) + 1) <- op;
      k.edges.((3 * !j) + 2) <- vid
    end
  done

let child k parent ~op ~vid =
  if 2 * (k.n_nodes + 1) > Array.length k.kids then grow_trie k;
  let mask = Array.length k.kids - 1 in
  eprobe k parent op vid mask (edge_hash parent op vid land mask)

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
