type t = Random.State.t

let make seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bf03635 |]

let split t =
  let a = Random.State.bits t and b = Random.State.bits t in
  Random.State.make [| a; b; a lxor (b lsl 7) |]

let copy = Random.State.copy
let int t bound = Random.State.int t bound
let float t bound = Random.State.float t bound
let bool t = Random.State.bool t

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a

let sample_distinct_pair t bound =
  if bound < 2 then invalid_arg "Rng.sample_distinct_pair: bound < 2";
  let u = int t bound in
  let v = int t (bound - 1) in
  let v = if v >= u then v + 1 else v in
  (min u v, max u v)
