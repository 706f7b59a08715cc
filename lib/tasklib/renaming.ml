let original_name ~n i = ((i + 1) * (n + 2)) + 1

let participating ~n subset =
  let v = Vectors.bottom n in
  List.iter (fun i -> v.(i) <- Some (Value.int (original_name ~n i))) subset;
  v

let input_count ~n ~j = Combinat.binomial n j

let nth_input ~n ~j i =
  participating ~n (Combinat.nth_subset_of_size j (List.init n Fun.id) i)

let make ~n ~j ~l =
  if j < 1 || j > l then invalid_arg "Renaming.make: need 1 <= j <= l";
  if j >= n then invalid_arg "Renaming.make: need j < n";
  let all_inputs =
    lazy
      (List.map (participating ~n)
         (Combinat.subsets_of_size j (List.init n Fun.id)))
  in
  let max_inputs () = Lazy.force all_inputs in
  let check ~input ~output =
    ignore input;
    let names = Array.to_list output |> List.filter_map Fun.id in
    let ints =
      List.filter_map
        (fun v -> match v with Value.Int i -> Some i | _ -> None)
        names
    in
    List.length ints = List.length names
    && List.for_all (fun x -> x >= 1 && x <= l) ints
    && List.length (List.sort_uniq Int.compare ints) = List.length ints
  in
  let choose ~input ~output i =
    match input.(i) with
    | None -> invalid_arg "Renaming.choose: non-participant"
    | Some _ ->
      let used =
        Array.to_list output
        |> List.filter_map (Option.map Value.to_int)
      in
      let rec first_free c = if List.mem c used then first_free (c + 1) else c in
      let name = first_free 1 in
      if name > l then invalid_arg "Renaming.choose: name space exhausted";
      Value.int name
  in
  let known_concurrency =
    if l = j then Some 1 else if l >= (2 * j) - 1 then Some n else None
  in
  {
    Task.task_name = Printf.sprintf "(%d,%d)-renaming(n=%d)" j l n;
    arity = n;
    colorless = false;
    max_inputs;
    input_count = input_count ~n ~j;
    nth_input = nth_input ~n ~j;
    check;
    choose;
    known_concurrency;
  }

let strong ~n ~j = make ~n ~j ~l:j
