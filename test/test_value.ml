open Value

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_roundtrips () =
  check_int "int" 42 (to_int (int 42));
  check_bool "bool" true (to_bool (bool true));
  Alcotest.(check string) "str" "hi" (to_str (str "hi"));
  let a, b = to_pair (pair (int 1) (int 2)) in
  check_int "pair fst" 1 (to_int a);
  check_int "pair snd" 2 (to_int b);
  Alcotest.(check (list int)) "int_list" [ 1; 2; 3 ] (to_int_list (int_list [ 1; 2; 3 ]));
  Alcotest.(check (array int)) "int_vec" [| 4; 5 |] (to_int_vec (int_vec [| 4; 5 |]))

let test_option_encoding () =
  check_bool "none" true (to_option (option None) = None);
  (match to_option (option (Some unit)) with
  | Some v -> check_bool "some unit distinguishable" true (is_unit v)
  | None -> Alcotest.fail "Some Unit decoded as None");
  match to_option (option (Some (int 7))) with
  | Some v -> check_int "some 7" 7 (to_int v)
  | None -> Alcotest.fail "Some decoded as None"

let test_triple () =
  let a, b, c = to_triple (triple (int 1) (str "x") (bool false)) in
  check_int "fst" 1 (to_int a);
  Alcotest.(check string) "snd" "x" (to_str b);
  check_bool "thd" false (to_bool c)

let test_type_errors () =
  Alcotest.check_raises "int of bool" (Type_error "expected int, got bool")
    (fun () -> ignore (to_int (bool true)));
  Alcotest.check_raises "pair of int" (Type_error "expected pair, got int")
    (fun () -> ignore (to_pair (int 1)))

let test_compare_basic () =
  check_bool "refl" true (equal (int 3) (int 3));
  check_bool "neq" false (equal (int 3) (int 4));
  check_bool "cross-constructor ordered" true (compare unit (bool false) < 0);
  check_bool "list order" true (compare (int_list [ 1; 2 ]) (int_list [ 1; 3 ]) < 0);
  check_bool "vec prefix smaller" true
    (compare (int_vec [| 1 |]) (int_vec [| 1; 0 |]) < 0)

(* qcheck generator for values *)
let gen_value =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Unit;
            map (fun b -> Bool b) bool;
            map (fun i -> Int i) small_signed_int;
            map (fun s -> Str s) small_string;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map2 (fun a b -> Pair (a, b)) (self (n / 2)) (self (n / 2)));
            (1, map (fun l -> List l) (list_size (int_bound 4) (self (n / 3))));
            ( 1,
              map
                (fun l -> Vec (Array.of_list l))
                (list_size (int_bound 4) (self (n / 3))) );
          ])

let arb_value = QCheck.make ~print:to_string gen_value

let prop_compare_refl =
  QCheck.Test.make ~name:"compare reflexive" ~count:300 arb_value (fun v ->
      compare v v = 0 && equal v v)

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:300
    (QCheck.pair arb_value arb_value) (fun (a, b) ->
      Stdlib.compare (Stdlib.compare (compare a b) 0)
        (Stdlib.compare 0 (compare b a))
      = 0)

let prop_compare_trans =
  QCheck.Test.make ~name:"compare transitive" ~count:300
    (QCheck.triple arb_value arb_value arb_value) (fun (a, b, c) ->
      let l = List.sort compare [ a; b; c ] in
      match l with
      | [ x; y; z ] -> compare x y <= 0 && compare y z <= 0 && compare x z <= 0
      | _ -> false)

(* a structurally equal copy sharing no block with the original *)
let rec copy = function
  | (Unit | Bool _ | Int _) as v -> v
  | Str s -> Str (String.init (String.length s) (String.get s))
  | Pair (a, b) -> Pair (copy a, copy b)
  | List l -> List (List.map copy l)
  | Vec a -> Vec (Array.map copy a)

let prop_equal_hash =
  QCheck.Test.make ~name:"equal implies same hash" ~count:300 arb_value
    (fun v ->
      let v' = copy v in
      equal v v' && hash v = hash v')

(* [Hashtbl.hash] keeps 30 bits of an int, so these pairs collide there; the
   memo's value interning relies on [hash] telling them apart. *)
let test_hash_full_width () =
  List.iter
    (fun (a, b) ->
      check_bool
        (Printf.sprintf "Hashtbl.hash %d = Hashtbl.hash %d" a b)
        true
        (Hashtbl.hash a = Hashtbl.hash b);
      check_bool
        (Printf.sprintf "hash (Int %d) <> hash (Int %d)" a b)
        true
        (hash (int a) <> hash (int b)))
    [ (21395, 35553); (16023, 51553) ];
  check_bool "hash (Int max_int) <> hash (Int min_int)" true
    (hash (int max_int) <> hash (int min_int))

let prop_size_depth =
  QCheck.Test.make ~name:"depth <= size" ~count:300 arb_value (fun v ->
      depth v <= size v && size v >= 1 && depth v >= 1)

let suite =
  [
    Alcotest.test_case "roundtrips" `Quick test_roundtrips;
    Alcotest.test_case "option encoding" `Quick test_option_encoding;
    Alcotest.test_case "triple" `Quick test_triple;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "compare basics" `Quick test_compare_basic;
    Alcotest.test_case "hash is full-width" `Quick test_hash_full_width;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_compare_refl;
        prop_compare_antisym;
        prop_compare_trans;
        prop_equal_hash;
        prop_size_depth;
      ]
