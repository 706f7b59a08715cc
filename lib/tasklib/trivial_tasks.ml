let vector assignment = Array.of_list (List.map Option.some assignment)

let full_vectors ~n ~values =
  let value_set = List.map Value.int values in
  Combinat.assignments (List.init n Fun.id) value_set |> List.map vector

let input_count ~n ~values =
  Combinat.count_assignments ~slots:n ~values:(List.length values)

let nth_input ~n ~values i =
  let value_set = List.map Value.int values in
  vector (Combinat.nth_assignment (List.init n Fun.id) value_set i)

let identity ?(values = [ 0; 1 ]) ~n () =
  {
    Task.task_name = Printf.sprintf "identity(n=%d)" n;
    arity = n;
    colorless = false;
    max_inputs = (fun () -> full_vectors ~n ~values);
    input_count = input_count ~n ~values;
    nth_input = nth_input ~n ~values;
    check =
      (fun ~input ~output ->
        Array.for_all2
          (fun i o -> match o with None -> true | Some _ -> Option.equal Value.equal i o)
          input output);
    choose =
      (fun ~input ~output:_ i ->
        match input.(i) with
        | Some v -> v
        | None -> invalid_arg "identity.choose: non-participant");
    known_concurrency = Some n;
  }

let constant ?(values = [ 0; 1 ]) ~n ~out () =
  {
    Task.task_name = Printf.sprintf "constant-%d(n=%d)" out n;
    arity = n;
    colorless = true;
    max_inputs = (fun () -> full_vectors ~n ~values);
    input_count = input_count ~n ~values;
    nth_input = nth_input ~n ~values;
    check =
      (fun ~input:_ ~output ->
        Array.for_all
          (function None -> true | Some v -> Value.equal v (Value.int out))
          output);
    choose = (fun ~input:_ ~output:_ _ -> Value.int out);
    known_concurrency = Some n;
  }
