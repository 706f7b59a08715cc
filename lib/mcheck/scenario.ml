open Simkit

type t = {
  sc_name : string;
  sc_n_c : int;
  sc_n_s : int;
  sc_pids : Pid.t list;
  sc_build : unit -> Runtime.t;
  sc_prop : Runtime.t -> bool;
  sc_symmetry : Pid.t list list;
}

(* Each runtime comes with a fresh key context of its own, so that its
   [Runtime.digest] reads outside any engine. The engine attaches its
   table's context over it before the first step; an unused context is one
   small record. *)
let runtime ~n_c ~n_s mem c_code =
  let rt =
    Runtime.create
      {
        Runtime.n_c;
        n_s;
        memory = mem;
        pattern = Failure.failure_free (max 1 n_s);
        history = History.trivial;
        record_trace = false;
      }
      ~c_code
      ~s_code:(fun _ () -> ())
  in
  Runtime.attach rt (Keys.create ());
  rt

let safe_agreement ~n_s =
  let build () =
    let mem = Memory.create () in
    let sa = Bglib.Safe_agreement.create mem ~n:2 in
    let c_code i () =
      Bglib.Safe_agreement.propose sa ~me:i (Value.int (100 + i));
      let rec resolve () =
        match Bglib.Safe_agreement.try_resolve sa with
        | Some v -> Runtime.Op.decide v
        | None -> resolve ()
      in
      resolve ()
    in
    runtime ~n_c:2 ~n_s mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> Value.equal a b
    | _ -> true
  in
  {
    sc_name = "safe-agreement";
    sc_n_c = 2;
    sc_n_s = n_s;
    sc_pids = Pid.all ~n_c:2 ~n_s;
    sc_build = build;
    sc_prop = prop;
    sc_symmetry = [ Pid.all_s n_s ];
  }

(* Two writers race on one register and the (deliberately false) claim is
   that they always decide differently: every engine configuration finds
   the same lex-least violating schedule, which makes this the seeded
   counterexample scenario for differential and distributed tests. *)
let race_false ~n_s =
  let build () =
    let mem = Memory.create () in
    let r = Memory.alloc1 mem () in
    let c_code i () =
      Runtime.Op.write r (Value.int i);
      let v = Runtime.Op.read r in
      Runtime.Op.decide v
    in
    runtime ~n_c:2 ~n_s mem c_code
  in
  let prop rt =
    match (Runtime.decision rt 0, Runtime.decision rt 1) with
    | Some a, Some b -> not (Value.equal a b)
    | _ -> true
  in
  {
    sc_name = "race-false";
    sc_n_c = 2;
    sc_n_s = n_s;
    sc_pids = Pid.all ~n_c:2 ~n_s;
    sc_build = build;
    sc_prop = prop;
    sc_symmetry = [ Pid.all_s n_s ];
  }

(* The negative control for the memo's exactness. p1 reads the register
   once and decides whether it read [Int 35553]; p2 writes [Int 21395],
   then [Int 35553]. p2,p1,p2 and p2,p2,p1 reach one memory and one p2, and
   differ only in what p1 read: a key that stands in for p1's history by a
   hash of the values it read, under which these two ints collide
   ([Hashtbl.hash] keeps 30 bits), takes the second state for the first,
   already explored and safe, and misses p2,p2,p1,p1. *)
let read_collision ~n_s =
  let build () =
    let mem = Memory.create () in
    let r = Memory.alloc1 mem () in
    let c_code i () =
      if i = 0 then
        let v = Runtime.Op.read r in
        Runtime.Op.decide (Value.bool (Value.equal v (Value.int 35553)))
      else begin
        Runtime.Op.write r (Value.int 21395);
        Runtime.Op.write r (Value.int 35553)
      end
    in
    runtime ~n_c:2 ~n_s mem c_code
  in
  let prop rt =
    match Runtime.decision rt 0 with
    | Some v -> not (Value.equal v (Value.bool true))
    | None -> true
  in
  {
    sc_name = "read-collision";
    sc_n_c = 2;
    sc_n_s = n_s;
    sc_pids = Pid.all ~n_c:2 ~n_s;
    sc_build = build;
    sc_prop = prop;
    sc_symmetry = [ Pid.all_s n_s ];
  }

let names = [ "safe-agreement"; "race-false"; "read-collision" ]

(* what each named scenario is built to exhibit — campaign specs that omit
   [expect] derive it from here *)
let expected_safe = function
  | "safe-agreement" -> Some true
  | "race-false" | "read-collision" -> Some false
  | _ -> None

let find name ~n_s =
  if n_s < 1 then Error "scenario needs n_s >= 1"
  else
    match name with
    | "safe-agreement" -> Ok (safe_agreement ~n_s)
    | "race-false" -> Ok (race_false ~n_s)
    | "read-collision" -> Ok (read_collision ~n_s)
    | _ ->
      Error
        (Printf.sprintf "unknown scenario %S (%s)" name
           (String.concat "|" names))

let reduction sc ~reduce =
  if reduce then Some { Exhaustive.sleep = true; symmetry = sc.sc_symmetry }
  else None
