type t = {
  task_name : string;
  arity : int;
  colorless : bool;
  max_inputs : unit -> Vectors.t list;
  input_count : int;
  nth_input : int -> Vectors.t;
  check : input:Vectors.t -> output:Vectors.t -> bool;
  choose : input:Vectors.t -> output:Vectors.t -> int -> Value.t;
  known_concurrency : int option;
}

let satisfies t ~input ~output =
  Array.length output = t.arity
  && Array.for_all2
       (fun i o -> not (i = None && o <> None))
       input output
  && t.check ~input ~output

let input_ok t v =
  List.exists (fun m -> Vectors.is_prefix v m) (t.max_inputs ())

(* Below 2^30, [Random.State.full_int] makes [Random.State.int]'s draw: a
   seed picks [List.nth (max_inputs ()) (Random.State.int rng input_count)],
   which the tests check. *)
let sample_input t rng =
  if t.input_count <= 0 then invalid_arg "Task.sample_input: no inputs";
  if t.input_count = max_int then
    invalid_arg
      (Printf.sprintf "%s has too many maximal inputs to draw one (max_int)"
         t.task_name);
  t.nth_input (Random.State.full_int rng t.input_count)

let sample_prefix t rng ~min_participants =
  let maximal = sample_input t rng in
  let ps = Vectors.participants maximal in
  let min_participants = max 1 (min min_participants (List.length ps)) in
  let keep =
    List.filter
      (fun _ -> Random.State.bool rng)
      ps
  in
  let keep = if List.length keep >= min_participants then keep else ps in
  Vectors.restrict maximal keep

let choice_closure t ~input =
  let out = ref (Vectors.bottom t.arity) in
  List.iter
    (fun i ->
      let v = t.choose ~input ~output:!out i in
      out := Vectors.set !out i v)
    (Vectors.participants input);
  !out
