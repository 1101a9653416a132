(* Order statistics shared by the workloads and the compare tool. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The [i]-th of the [n]-quantile cut points by the "exclusive" rule of
   Python's [statistics.quantiles] (position i·(len+1)/n, linear
   inter- or extrapolation between the two nearest order statistics),
   so the numbers printed here match the ones an outside script
   computes from the same values. *)
let cut ~i ~n xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then 0.0
  else if len = 1 then a.(0)
  else begin
    let m = len + 1 in
    let j = max 1 (min (len - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta)) /. float_of_int n
  end

let median xs = cut ~i:1 ~n:2 xs

(* Clamped to the largest value: with few samples the exclusive rule
   would extrapolate past it. *)
let p90 = function
  | [] -> 0.0
  | xs -> Float.min (List.fold_left Float.max neg_infinity xs) (cut ~i:9 ~n:10 xs)
let quartiles xs = (cut ~i:1 ~n:4 xs, median xs, cut ~i:3 ~n:4 xs)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function [] -> 0.0 | xs -> exp (mean (List.map log xs))

(* Ratio with an explicit base; an empty base reads as 0 (the layer was
   not reached), never as nan. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den
