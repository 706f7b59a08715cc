(* Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The middle sample, or the mean of the middle two: Python's
   [statistics.median]. [nan] on no samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A tail quantile by nearest rank: the sample of rank
   max 1 (ceil (q * n)). [nan] on no samples. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    a.(min n rank - 1)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* First and third quartile as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the spread this
   bench reports is the one the acceptance check computes. Needs two
   samples or more. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  if ld < 2 then (nan, nan) else (cut 1, cut 3)

(* A sample buffer for the timed loops. *)
type samples = float list ref

let samples () : samples = ref []
let add (s : samples) x = s := x :: !s
let to_list (s : samples) = !s
