module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Arena = Relalg.Arena

type t = {
  depths : int array;  (* level -> global order position of its variable *)
  width : int;
  rows : int;
  cells : int array;  (* row-major, rows sorted lexicographically *)
}

(* A cell of an arena's storage; the type is named so each read is one
   load, not a generic Bigarray call. *)
let[@inline] get_d (d : Arena.data) i = Bigarray.Array1.unsafe_get d i

let rows t = t.rows
let width t = t.width
let depth_at t l = t.depths.(l)
let value t ~level ~row = t.cells.((row * t.width) + level)

let build ~depth_of_var rel =
  let schema = Relation.schema rel in
  let attrs = Schema.to_array schema in
  let width = Array.length attrs in
  let rows = Relation.cardinality rel in
  (* Levels: the schema's columns reordered by global order position. *)
  let levels = Array.init width Fun.id in
  Array.sort
    (fun a b -> compare (depth_of_var attrs.(a)) (depth_of_var attrs.(b)))
    levels;
  let depths = Array.map (fun c -> depth_of_var attrs.(c)) levels in
  (* Read the arena in place: its first [rows * width] cells are live. *)
  let src = Arena.data (Relation.arena rel) in
  let idx = Array.init rows Fun.id in
  let compare_rows a b =
    let ra = a * width and rb = b * width in
    let rec go l =
      if l = width then 0
      else
        let c = levels.(l) in
        let d = Int.compare (get_d src (ra + c)) (get_d src (rb + c)) in
        if d <> 0 then d else go (l + 1)
    in
    go 0
  in
  Array.sort compare_rows idx;
  let cells = Array.make (max 1 (rows * width)) 0 in
  for i = 0 to rows - 1 do
    let r = idx.(i) * width in
    for l = 0 to width - 1 do
      cells.((i * width) + l) <- get_d src (r + levels.(l))
    done
  done;
  { depths; width; rows; cells }

(* Least row in [lo, hi) with cells.(row, level) >= v (gallop then binary
   search); [hi] when none. *)
let seek t ~level ~lo ~hi v =
  if lo >= hi || value t ~level ~row:lo >= v then lo
  else begin
    (* Invariant: cells at [lo + step/2] < v. *)
    let step = ref 1 in
    while lo + !step < hi && value t ~level ~row:(lo + !step) < v do
      step := !step * 2
    done;
    let l = ref (lo + (!step / 2)) and h = ref (min (lo + !step) hi) in
    (* cells at !l < v; cells at !h >= v or !h = hi. *)
    while !h - !l > 1 do
      let mid = (!l + !h) / 2 in
      if value t ~level ~row:mid < v then l := mid else h := mid
    done;
    !h
  end

let strictly_above t ~level ~lo ~hi v =
  if lo >= hi || value t ~level ~row:lo > v then lo
  else begin
    let step = ref 1 in
    while lo + !step < hi && value t ~level ~row:(lo + !step) <= v do
      step := !step * 2
    done;
    let l = ref (lo + (!step / 2)) and h = ref (min (lo + !step) hi) in
    while !h - !l > 1 do
      let mid = (!l + !h) / 2 in
      if value t ~level ~row:mid <= v then l := mid else h := mid
    done;
    !h
  end
