let make ~n ~j =
  if j < 2 || j >= n then invalid_arg "Wsb.make: need 2 <= j < n";
  let max_inputs () =
    List.map (Renaming.participating ~n)
      (Combinat.subsets_of_size j (List.init n Fun.id))
  in
  let bits output =
    Array.to_list output |> List.filter_map (Option.map Value.to_int)
  in
  let check ~input ~output =
    ignore input;
    let bs = bits output in
    List.for_all (fun b -> b = 0 || b = 1) bs
    && (List.length bs < j || (List.mem 0 bs && List.mem 1 bs))
  in
  let choose ~input ~output i =
    match input.(i) with
    | None -> invalid_arg "Wsb.choose: non-participant"
    | Some _ ->
      let bs = bits output in
      (* the last decider must break symmetry if everyone so far agreed *)
      if List.length bs = j - 1 && not (List.mem 0 bs && List.mem 1 bs) then
        Value.int (match bs with 0 :: _ -> 1 | _ -> 0)
      else Value.int 0
  in
  {
    Task.task_name = Printf.sprintf "WSB(j=%d,n=%d)" j n;
    arity = n;
    colorless = false;
    max_inputs;
    input_count = Renaming.input_count ~n ~j;
    nth_input = Renaming.nth_input ~n ~j;
    check;
    choose;
    known_concurrency = None;
  }
