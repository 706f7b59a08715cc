module Memory = Simkit.Memory
module Op = Simkit.Runtime.Op
module Commit_adopt = Bglib.Commit_adopt

type t = {
  n_c : int;
  max_rounds : int;
  q_regs : Memory.reg array;  (** client queries: (round, est) *)
  a_base : Memory.reg;  (** round [r]'s answer at [a_base + r - 1] *)
  dec : Memory.reg;
  ca_base : Memory.reg;  (** round [r]'s commit–adopt, [2 n_c] registers *)
}

let create mem ~n_c ~max_rounds =
  if n_c <= 0 || max_rounds <= 0 then invalid_arg "Leader_consensus.create";
  let q_regs = Memory.alloc mem n_c in
  let a_base = Memory.reserve mem max_rounds in
  let dec = Memory.alloc1 mem () in
  let ca_base = Memory.reserve mem (max_rounds * 2 * n_c) in
  { n_c; max_rounds; q_regs; a_base; dec; ca_base }

let check_round lc r =
  if r < 1 || r > lc.max_rounds then invalid_arg "Leader_consensus: round"

let answer_reg lc r =
  check_round lc r;
  lc.a_base + r - 1

let round lc r =
  check_round lc r;
  Commit_adopt.at (lc.ca_base + ((r - 1) * 2 * lc.n_c)) ~n:lc.n_c

type phase = Start | Waiting of int
type client = { lc : t; me : int; input : Value.t; mutable phase : phase; mutable est : Value.t }

let client lc ~me input =
  if me < 0 || me >= lc.n_c then invalid_arg "Leader_consensus.client";
  { lc; me; input; phase = Start; est = input }

type step = Decided of Value.t | Pending | Exhausted

let publish_query cl r =
  Op.write cl.lc.q_regs.(cl.me) (Value.pair (Value.int r) cl.est)

let pump cl =
  let lc = cl.lc in
  match cl.phase with
  | Start ->
    cl.est <- cl.input;
    publish_query cl 1;
    cl.phase <- Waiting 1;
    Pending
  | Waiting r -> (
    let d = Op.read lc.dec in
    if not (Value.is_unit d) then Decided d
    else
      let a = Op.read (answer_reg lc r) in
      if Value.is_unit a then Pending
      else begin
        cl.est <- a;
        match Commit_adopt.run (round lc r) ~me:cl.me cl.est with
        | Commit_adopt.Commit v ->
          Op.write lc.dec v;
          Decided v
        | Commit_adopt.Adopt v ->
          cl.est <- v;
          if r + 1 > lc.max_rounds then Exhausted
          else begin
            publish_query cl (r + 1);
            cl.phase <- Waiting (r + 1);
            Pending
          end
      end)

let serve lc =
  let queries = Op.snapshot lc.q_regs in
  Array.iter
    (fun q ->
      if not (Value.is_unit q) then begin
        let r, est = Value.to_pair q in
        let r = Value.to_int r in
        if r >= 1 && r <= lc.max_rounds then
          let a = Op.read (answer_reg lc r) in
          if Value.is_unit a then Op.write (answer_reg lc r) est
      end)
    queries

let read_decision lc =
  let d = Op.read lc.dec in
  if Value.is_unit d then None else Some d
