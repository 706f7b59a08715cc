let make ~n =
  if n < 2 then invalid_arg "Leader_election.make";
  (* one maximal input, everyone participating: participation only carries
     the process's original name *)
  let everyone () = Array.init n (fun i -> Some (Value.int (i + 1))) in
  let nth_input i =
    if i <> 0 then invalid_arg "Leader_election.nth_input";
    everyone ()
  in
  let check ~input ~output =
    let decided =
      Array.to_list output |> List.filter_map (Option.map Value.to_int)
    in
    match List.sort_uniq Int.compare decided with
    | [] -> true
    | [ leader ] -> leader >= 0 && leader < n && input.(leader) <> None
    | _ :: _ :: _ -> false
  in
  let choose ~input ~output i =
    ignore i;
    let existing =
      Array.to_list output |> List.filter_map (Option.map Value.to_int)
    in
    match existing with
    | leader :: _ -> Value.int leader
    | [] -> (
      match Vectors.participants input with
      | p :: _ -> Value.int p
      | [] -> invalid_arg "Leader_election.choose: empty input")
  in
  {
    Task.task_name = Printf.sprintf "leader-election(n=%d)" n;
    arity = n;
    colorless = false;
    max_inputs = (fun () -> [ everyone () ]);
    input_count = 1;
    nth_input;
    check;
    choose;
    known_concurrency = Some 1;
  }
