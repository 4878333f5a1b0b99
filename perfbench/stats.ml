(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The mean of the values between the 40th and the 60th percentile: a
   median that does not jump from one run to its neighbour when the runs
   near the middle are few and far apart, as the paper workloads' are. *)
let central_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank q = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  if n = 0 then nan else mean (Array.to_list (Array.sub a (rank 0.4) (rank 0.6 - rank 0.4 + 1)))

(* The tail percentile reported next to the median: the highest of these
   that still leaves at least ten samples beyond it, so the figure never
   rests on a handful of outliers. *)
let tail_ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = { pct : float; value : float; samples : int }

(* The tail percentile for [n] samples. *)
let tail_pct n =
  match
    List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) tail_ladder
  with
  | Some p -> p
  | None -> 50.0

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let pct = tail_pct n in
  { pct; value = quantile_sorted a (pct /. 100.); samples = n }

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den
