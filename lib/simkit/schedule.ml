type t = { policy_name : string; next : Runtime.t -> Pid.t option }

(* Fisher-Yates in place: one [Random.State.int] draw per position, from
   the last down to the second. *)
let permute rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle rng a =
  let a = Array.copy a in
  permute rng a;
  a

let round_robin ~n_c ~n_s =
  let pids = Array.of_list (Pid.all ~n_c ~n_s) in
  let pos = ref 0 in
  {
    policy_name = "round-robin";
    next =
      (fun _ ->
        let p = pids.(!pos mod Array.length pids) in
        incr pos;
        Some p);
  }

let shuffled_rounds ?only ~n_c ~n_s rng =
  let base =
    match only with
    | Some pids -> Array.of_list pids
    | None -> Array.of_list (Pid.all ~n_c ~n_s)
  in
  let n = Array.length base in
  if n = 0 then invalid_arg "Schedule.shuffled_rounds: empty";
  (* Each round permutes the base order afresh, as indices into [picks]:
     the draws of shuffling a copy of [base], with nothing allocated. *)
  let picks = Array.map Option.some base in
  let order = Array.make n 0 in
  let pos = ref n in
  {
    policy_name = "shuffled-rounds";
    next =
      (fun _ ->
        if !pos = n then begin
          for i = 0 to n - 1 do
            order.(i) <- i
          done;
          permute rng order;
          pos := 0
        end;
        let p = picks.(order.(!pos)) in
        incr pos;
        p);
  }

let explicit pids =
  let rest = ref pids in
  {
    policy_name = "explicit";
    next =
      (fun _ ->
        match !rest with
        | [] -> None
        | p :: tl ->
          rest := tl;
          Some p);
  }

let explicit_looping pids =
  if pids = [] then invalid_arg "Schedule.explicit_looping: empty";
  let rest = ref pids in
  {
    policy_name = "explicit-looping";
    next =
      (fun _ ->
        (match !rest with [] -> rest := pids | _ -> ());
        match !rest with
        | p :: tl ->
          rest := tl;
          Some p
        | [] -> assert false);
  }

let seq a ~steps b =
  let taken = ref 0 in
  {
    policy_name = Printf.sprintf "%s;then;%s" a.policy_name b.policy_name;
    next =
      (fun rt ->
        if !taken < steps then begin
          incr taken;
          a.next rt
        end
        else b.next rt);
  }

let filtered keep inner =
  {
    policy_name = "filtered:" ^ inner.policy_name;
    next =
      (fun rt ->
        let rec draw tries =
          if tries = 0 then None
          else
            match inner.next rt with
            | None -> None
            | Some p -> if keep rt p then Some p else draw (tries - 1)
        in
        draw 10_000);
  }

let starve victims ~until inner =
  let is_victim p = List.exists (Pid.equal p) victims in
  filtered (fun rt p -> Runtime.time rt >= until || not (is_victim p)) inner

let k_concurrent ?(mode = `Rounds) ~k ~arrival ~n_s rng =
  if k <= 0 then invalid_arg "Schedule.k_concurrent: k must be positive";
  let waiting = ref arrival in
  let admitted = ref [] in
  let queue = ref [] in
  let refresh rt =
    (* Admit new arrivals while fewer than k admitted processes are
       undecided; drop decided ones from the active set. *)
    admitted := List.filter (fun i -> Runtime.decision rt i = None) !admitted;
    let rec admit () =
      if List.length !admitted < k then
        match !waiting with
        | [] -> ()
        | i :: rest ->
          if Runtime.decision rt i = None then begin
            admitted := !admitted @ [ i ];
            waiting := rest;
            admit ()
          end
          else begin
            waiting := rest;
            admit ()
          end
    in
    admit ()
  in
  {
    policy_name = Printf.sprintf "%d-concurrent" k;
    next =
      (fun rt ->
        refresh rt;
        match mode with
        | `Uniform ->
          let pids = List.map Pid.c !admitted @ Pid.all_s n_s in
          let arr = Array.of_list pids in
          if Array.length arr = 0 then None
          else Some arr.(Random.State.int rng (Array.length arr))
        | `Rounds -> (
          (match !queue with
          | [] ->
            let pids = List.map Pid.c !admitted @ Pid.all_s n_s in
            if pids = [] then queue := []
            else queue := Array.to_list (shuffle rng (Array.of_list pids))
          | _ -> ());
          match !queue with
          | [] -> None
          | p :: rest ->
            queue := rest;
            (* a decided C-process drawn from a stale round takes a null
               step; harmless, and time keeps moving *)
            Some p));
  }

let c_solo i =
  {
    policy_name = Printf.sprintf "solo-p%d" (i + 1);
    next = (fun _ -> Some (Pid.c i));
  }

let s_first ~n_c ~n_s ~s_steps rng =
  let s_only = shuffled_rounds ~only:(Pid.all_s n_s) ~n_c ~n_s rng in
  let everyone = shuffled_rounds ~n_c ~n_s rng in
  seq s_only ~steps:s_steps everyone

(* Symmetry over interchangeable pids: pure list utilities, shared by the
   exhaustive checker's orbit collapsing and by the tests that validate it
   by brute-force enumeration. *)

let class_of classes p =
  List.find_opt (fun cls -> List.exists (Pid.equal p) cls) classes

let canonicalize ~classes sched =
  (* Per class, map members to class order by first appearance. *)
  let seen = List.map (fun cls -> (cls, ref [])) classes in
  List.map
    (fun p ->
      match class_of classes p with
      | None -> p
      | Some cls ->
        let tbl = List.assq cls seen in
        (match List.find_opt (fun (q, _) -> Pid.equal p q) !tbl with
        | Some (_, canon) -> canon
        | None ->
          let canon = List.nth cls (List.length !tbl) in
          tbl := !tbl @ [ (p, canon) ];
          canon))
    sched

let orbit_size ~classes sched =
  (* The group ∏ Sym(class) acts by renaming class members; a schedule
     touching k distinct members of an m-member class has stabilizer
     (m-k)!, hence orbit factor m!/(m-k)! — the falling factorial. *)
  List.fold_left
    (fun acc cls ->
      let m = List.length cls in
      let k =
        List.length
          (List.filter
             (fun q ->
               List.exists (Pid.equal q) sched)
             cls)
      in
      let rec falling m k = if k = 0 then 1 else m * falling (m - 1) (k - 1) in
      acc * falling m k)
    1 classes

type outcome = {
  total_steps : int;
  all_decided : bool;
  out_decisions : Value.t option array;
  exhausted : bool;
}

let run ?(stop_when = fun _ -> false) rt policy ~budget =
  let rec loop steps =
    if Runtime.all_c_done rt || stop_when rt then (steps, false)
    else if steps >= budget then (steps, true)
    else
      match policy.next rt with
      | None -> (steps, false)
      | Some p ->
        Runtime.step rt p;
        loop (steps + 1)
  in
  let total_steps, exhausted = loop 0 in
  {
    total_steps;
    all_decided = Runtime.all_c_done rt;
    out_decisions = Runtime.decisions rt;
    exhausted;
  }
