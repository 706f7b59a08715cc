let distinct_values output =
  let vals =
    Array.to_list output
    |> List.filter_map Fun.id
    |> List.sort_uniq Value.compare
  in
  vals

let make ?u ?values ~n ~k () =
  if k < 1 then invalid_arg "Set_agreement.make: k >= 1 required";
  let u = match u with Some u -> List.sort_uniq Int.compare u | None -> List.init n Fun.id in
  if List.exists (fun i -> i < 0 || i >= n) u then
    invalid_arg "Set_agreement.make: U out of range";
  let values = match values with Some vs -> vs | None -> List.init (k + 1) Fun.id in
  if values = [] then invalid_arg "Set_agreement.make: empty value domain";
  let value_set = List.map Value.int values in
  let full_u = List.length u = n in
  let name =
    if full_u then Printf.sprintf "%d-set-agreement(n=%d)" k n
    else Printf.sprintf "(U,%d)-agreement(|U|=%d,n=%d)" k (List.length u) n
  in
  let vector assignment =
    let v = Vectors.bottom n in
    List.iter2 (fun i value -> v.(i) <- Some value) u assignment;
    v
  in
  let all_inputs = lazy (List.map vector (Combinat.assignments u value_set)) in
  let max_inputs () = Lazy.force all_inputs in
  let check ~input ~output =
    let input_values =
      Array.to_list input |> List.filter_map Fun.id
      |> List.sort_uniq Value.compare
    in
    let out_values = distinct_values output in
    List.length out_values <= k
    && List.for_all (fun v -> List.exists (Value.equal v) input_values) out_values
  in
  let choose ~input ~output i =
    match input.(i) with
    | None -> invalid_arg "Set_agreement.choose: non-participant"
    | Some own -> (
      match distinct_values output with
      | existing :: _ -> existing
      | [] -> own)
  in
  {
    Task.task_name = name;
    arity = n;
    colorless = true;
    max_inputs;
    input_count =
      Combinat.count_assignments ~slots:(List.length u)
        ~values:(List.length value_set);
    nth_input = (fun i -> vector (Combinat.nth_assignment u value_set i));
    check;
    choose;
    known_concurrency = Some (if List.length u <= k then n else k);
  }

let consensus ?u ?values ~n () = make ?u ?values ~n ~k:1 ()
