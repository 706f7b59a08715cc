type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | List of t list
  | Vec of t array

exception Type_error of string

let type_error expected got =
  let tag = function
    | Unit -> "unit"
    | Bool _ -> "bool"
    | Int _ -> "int"
    | Str _ -> "str"
    | Pair _ -> "pair"
    | List _ -> "list"
    | Vec _ -> "vec"
  in
  raise (Type_error (Printf.sprintf "expected %s, got %s" expected (tag got)))

let unit = Unit
let bool b = Bool b
let int i = Int i
let str s = Str s
let pair a b = Pair (a, b)
let list l = List l
let vec a = Vec a

let option = function
  | None -> Unit
  | Some v -> Pair (v, Unit)

let triple a b c = Pair (a, Pair (b, c))
let int_list l = List (List.map (fun i -> Int i) l)
let int_vec a = Vec (Array.map (fun i -> Int i) a)

let to_bool = function Bool b -> b | v -> type_error "bool" v
let to_int = function Int i -> i | v -> type_error "int" v
let to_str = function Str s -> s | v -> type_error "str" v
let to_pair = function Pair (a, b) -> (a, b) | v -> type_error "pair" v
let to_list = function List l -> l | v -> type_error "list" v
let to_vec = function Vec a -> a | v -> type_error "vec" v

let to_option = function
  | Unit -> None
  | Pair (v, Unit) -> Some v
  | v -> type_error "option" v

let to_triple = function
  | Pair (a, Pair (b, c)) -> (a, b, c)
  | v -> type_error "triple" v

let to_int_list v = List.map to_int (to_list v)
let to_int_vec v = Array.map to_int (to_vec v)

let constructor_rank = function
  | Unit -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Pair _ -> 4
  | List _ -> 5
  | Vec _ -> 6

let rec compare a b =
  match (a, b) with
  | Unit, Unit -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Pair (x1, x2), Pair (y1, y2) ->
    let c = compare x1 y1 in
    if c <> 0 then c else compare x2 y2
  | List x, List y -> List.compare compare x y
  | Vec x, Vec y ->
    let lx = Array.length x and ly = Array.length y in
    let rec loop i =
      if i >= lx && i >= ly then 0
      else if i >= lx then -1
      else if i >= ly then 1
      else
        let c = compare x.(i) y.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0
  | (Unit | Bool _ | Int _ | Str _ | Pair _ | List _ | Vec _), _ ->
    Int.compare (constructor_rank a) (constructor_rank b)

let equal a b = compare a b = 0

(* Full-width mixing over OCaml's 63-bit ints: xor-shifts and odd
   multipliers are each invertible, so [mix] is a bijection and no two
   [Int]s share a hash ([Hashtbl.hash] keeps 30 bits, and so
   [Hashtbl.hash 21395 = Hashtbl.hash 35553]). *)
let mix h =
  let h = (h lxor (h lsr 32)) * 0x5851f42d4c957f2d in
  let h = (h lxor (h lsr 29)) * 0x14057b7ef767814f in
  h lxor (h lsr 32)

let combine acc h = mix ((acc * 0x100000001b3) lxor h)

let rec hash v =
  match v with
  | Unit -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> mix i
  | Str s -> mix (Hashtbl.hash s)
  | Pair (a, b) -> combine (combine 4 (hash a)) (hash b)
  | List l -> List.fold_left (fun acc x -> combine acc (hash x)) 5 l
  | Vec a -> Array.fold_left (fun acc x -> combine acc (hash x)) 6 a

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List l -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp) l
  | Vec a -> Fmt.pf ppf "[|%a|]" Fmt.(array ~sep:(any "; ") pp) a

let to_string v = Fmt.str "%a" pp v
let is_unit = function Unit -> true | _ -> false

let rec depth = function
  | Unit | Bool _ | Int _ | Str _ -> 1
  | Pair (a, b) -> 1 + max (depth a) (depth b)
  | List l -> 1 + List.fold_left (fun acc x -> max acc (depth x)) 0 l
  | Vec a -> 1 + Array.fold_left (fun acc x -> max acc (depth x)) 0 a

let rec size = function
  | Unit | Bool _ | Int _ | Str _ -> 1
  | Pair (a, b) -> 1 + size a + size b
  | List l -> 1 + List.fold_left (fun acc x -> acc + size x) 0 l
  | Vec a -> 1 + Array.fold_left (fun acc x -> acc + size x) 0 a
