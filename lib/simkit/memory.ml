type reg = int

(* Cells live in pages of [page] registers. A page is [absent] until the
   first write into it, and the page table grows only as far as the highest
   written page, so a reserved block costs nothing until it is written. *)
let page_bits = 6
let page = 1 lsl page_bits
let absent : Value.t array = [||]

type t = {
  mutable pages : Value.t array array;
  mutable used : int;
  mutable extent : int;  (* one past the highest register written *)
}

let create () = { pages = [||]; used = 0; extent = 0 }

let reserve mem n =
  if n < 0 then invalid_arg "Memory.reserve";
  let base = mem.used in
  mem.used <- base + n;
  base

let size mem = mem.used
let extent mem = mem.extent

let check mem r =
  if r < 0 || r >= mem.used then invalid_arg "Memory: register out of range"

let read mem r =
  check mem r;
  let i = r lsr page_bits in
  if i >= Array.length mem.pages then Value.unit
  else
    let p = mem.pages.(i) in
    if p == absent then Value.unit else p.(r land (page - 1))

let write mem r v =
  check mem r;
  if r >= mem.extent then mem.extent <- r + 1;
  let i = r lsr page_bits in
  let have = Array.length mem.pages in
  if i >= have then begin
    let pages = Array.make (max (i + 1) (2 * have)) absent in
    Array.blit mem.pages 0 pages 0 have;
    mem.pages <- pages
  end;
  let p = mem.pages.(i) in
  let p =
    if p == absent then begin
      let p = Array.make page Value.unit in
      mem.pages.(i) <- p;
      p
    end
    else p
  in
  p.(r land (page - 1)) <- v

let alloc mem ?init n =
  let base = reserve mem n in
  (match init with
  | Some v when not (Value.is_unit v) ->
    for r = base to base + n - 1 do
      write mem r v
    done
  | _ -> ());
  Array.init n (fun i -> base + i)

let alloc1 mem ?init () = (alloc mem ?init 1).(0)

let read_many mem rs = Array.map (read mem) rs

(* Register footprints stay tiny (one register, or one snapshot's worth), so
   quadratic disjointness is cheaper than building any set structure. *)
let overlaps a b =
  Array.exists (fun r -> Array.exists (fun r' -> r = r') b) a
