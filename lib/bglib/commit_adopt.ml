module Memory = Simkit.Memory
module Op = Simkit.Runtime.Op

type t = { phase1 : Memory.reg array; phase2 : Memory.reg array }
type outcome = Commit of Value.t | Adopt of Value.t

let at base ~n =
  if n <= 0 || base < 0 then invalid_arg "Commit_adopt.at";
  {
    phase1 = Array.init n (fun i -> base + i);
    phase2 = Array.init n (fun i -> base + n + i);
  }

let create mem ~n = at (Memory.reserve mem (2 * n)) ~n

let registers t = (t.phase1, t.phase2)

let present cells =
  Array.to_list cells |> List.filter (fun c -> not (Value.is_unit c))

let run t ~me v =
  Op.write t.phase1.(me) v;
  let seen1 = present (Op.snapshot t.phase1) in
  let unanimous1 = List.for_all (Value.equal v) seen1 in
  Op.write t.phase2.(me) (Value.pair (Value.bool unanimous1) v);
  let seen2 = present (Op.snapshot t.phase2) in
  let props = List.map Value.to_pair seen2 in
  let all_true = List.for_all (fun (flag, _) -> Value.to_bool flag) props in
  let true_value =
    List.find_opt (fun (flag, _) -> Value.to_bool flag) props
  in
  match true_value with
  | Some (_, u) when all_true -> Commit u
  | Some (_, u) -> Adopt u
  | None -> Adopt v

let outcome_value = function Commit v | Adopt v -> v
let is_commit = function Commit _ -> true | Adopt _ -> false
