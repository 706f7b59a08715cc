type reg = int
type t = { mutable cells : Value.t array; mutable used : int }

let create () = { cells = Array.make 64 Value.unit; used = 0 }

let ensure mem n =
  let needed = mem.used + n in
  if needed > Array.length mem.cells then begin
    let cap = max needed (2 * Array.length mem.cells) in
    let cells = Array.make cap Value.unit in
    Array.blit mem.cells 0 cells 0 mem.used;
    mem.cells <- cells
  end

let alloc mem ?(init = Value.unit) n =
  if n < 0 then invalid_arg "Memory.alloc";
  ensure mem n;
  let base = mem.used in
  for i = base to base + n - 1 do
    mem.cells.(i) <- init
  done;
  mem.used <- base + n;
  Array.init n (fun i -> base + i)

let alloc1 mem ?init () = (alloc mem ?init 1).(0)
let size mem = mem.used

let check mem r =
  if r < 0 || r >= mem.used then invalid_arg "Memory: register out of range"

let read mem r =
  check mem r;
  mem.cells.(r)

let write mem r v =
  check mem r;
  mem.cells.(r) <- v

let read_many mem rs = Array.map (read mem) rs

(* Register footprints stay tiny (one register, or one snapshot's worth), so
   quadratic disjointness is cheaper than building any set structure. *)
let overlaps a b =
  Array.exists (fun r -> Array.exists (fun r' -> r = r') b) a
