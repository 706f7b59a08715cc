let rec subsets_of_size k = function
  | [] -> if k = 0 then [ [] ] else []
  | x :: rest ->
    if k = 0 then [ [] ]
    else
      subsets_of_size k rest
      @ List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)

let rec assignments slots values =
  match slots with
  | [] -> [ [] ]
  | _ :: rest ->
    let tails = assignments rest values in
    List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) values

(* Saturating arithmetic: [max_int] absorbs every product past it. *)
let mul_sat a b =
  if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* C(n, i + 1) = C(n, i) (n - i) / (i + 1), divided before it is multiplied
   so that only a result past [max_int] overflows. The row rises up to
   [k <= n / 2], so once saturated it stays so. *)
let binomial n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    let rec go c i =
      if i = k || c = max_int then c
      else
        let g = gcd c (i + 1) in
        go (mul_sat (c / g) ((n - i) / ((i + 1) / g))) (i + 1)
    in
    go 1 0

(* [subsets_of_size] lists the subsets without the head before those with
   it. *)
let nth_subset_of_size k items i =
  let len = List.length items in
  if i < 0 || i >= binomial len k then
    invalid_arg "Combinat.nth_subset_of_size";
  let rec go k items len i =
    match items with
    | _ when k = 0 -> []
    | [] -> assert false
    | x :: rest ->
      let without = binomial (len - 1) k in
      if i < without then go k rest (len - 1) i
      else x :: go (k - 1) rest (len - 1) (i - without)
  in
  go k items len i

let count_assignments ~slots ~values =
  let rec go acc s = if s = 0 then acc else go (mul_sat acc values) (s - 1) in
  go 1 slots

(* [assignments] counts in base [|values|], the first slot most
   significant. *)
let nth_assignment slots values i =
  let m = List.length slots and b = List.length values in
  if i < 0 || i >= count_assignments ~slots:m ~values:b then
    invalid_arg "Combinat.nth_assignment";
  let values = Array.of_list values in
  let rec digits acc i s =
    if s = 0 then acc else digits (values.(i mod b) :: acc) (i / b) (s - 1)
  in
  digits [] i m
