module Cost = Ppr_core.Cost
module Naive = Ppr_core.Naive
module Cq = Conjunctive.Cq
module Rng = Graphlib.Rng

type params = {
  seed : int;
  restarts : int;
  steps : int;
  batch : int;
  learning_rate : float;
  sigma : float;
}

let default_params =
  {
    seed = 42;
    restarts = 4;
    steps = 40;
    batch = 8;
    learning_rate = 0.25;
    sigma = 1.0;
  }

(* Scores decode to a permutation by sorting descending (stable on ties
   via the index), so any real vector is a valid order — the relaxation
   can never propose an ill-formed plan. *)
let decode scores =
  let m = Array.length scores in
  let idx = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      match compare scores.(b) scores.(a) with 0 -> compare a b | c -> c)
    idx;
  idx

(* Scores that decode to exactly [perm]. *)
let encode perm =
  let m = Array.length perm in
  let scores = Array.make m 0. in
  Array.iteri (fun pos i -> scores.(i) <- float_of_int (m - pos)) perm;
  scores

(* Greedy left-deep construction under the independence model: always
   scan next the atom whose join with the current prefix is estimated
   cheapest — the incremental term [order_cost] itself charges. *)
let greedy_order env atoms =
  let m = Array.length atoms in
  let used = Array.make m false in
  let bound = Hashtbl.create 16 in
  let order = Array.make m 0 in
  let card = ref 1.0 in
  for pos = 0 to m - 1 do
    let best = ref (-1) and best_cost = ref infinity in
    for i = 0 to m - 1 do
      if not used.(i) then begin
        let joined =
          List.fold_left
            (fun acc v ->
              if Hashtbl.mem bound v then acc /. Cost.domain_size env v
              else acc)
            (!card *. Cost.atom_cardinality env atoms.(i))
            (Cq.atom_vars atoms.(i))
        in
        if joined < !best_cost then begin
          best := i;
          best_cost := joined
        end
      end
    done;
    used.(!best) <- true;
    order.(pos) <- !best;
    card := !best_cost;
    List.iter
      (fun v -> Hashtbl.replace bound v ())
      (Cq.atom_vars atoms.(!best))
  done;
  order

(* Remove the element at [i] and reinsert it at position [j]. *)
let insert_move src i j =
  let m = Array.length src in
  let v = src.(i) in
  let rest = Array.make (m - 1) v in
  let p = ref 0 in
  for k = 0 to m - 1 do
    if k <> i then begin
      rest.(!p) <- src.(k);
      incr p
    end
  done;
  let cand = Array.make m v in
  for k = 0 to j - 1 do
    cand.(k) <- rest.(k)
  done;
  cand.(j) <- v;
  for k = j to m - 2 do
    cand.(k + 1) <- rest.(k)
  done;
  cand

(* Full-neighborhood local search over general swaps and single-element
   insertions, to a local optimum (bounded passes as a safety net —
   each pass is O(m^2) evaluations). *)
let local_search fitness perm cost0 =
  let m = Array.length perm in
  let best = Array.copy perm in
  let best_cost = ref cost0 in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < 4 * m do
    improved := false;
    incr passes;
    for i = 0 to m - 2 do
      for j = i + 1 to m - 1 do
        let tmp = best.(i) in
        best.(i) <- best.(j);
        best.(j) <- tmp;
        let c = fitness best in
        if c < !best_cost then begin
          best_cost := c;
          improved := true
        end
        else begin
          best.(j) <- best.(i);
          best.(i) <- tmp
        end
      done
    done;
    (* Insertions: move element i to position j, shifting the rest. *)
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        if i <> j then begin
          let cand = insert_move best i j in
          let c = fitness cand in
          if c < !best_cost then begin
            Array.blit cand 0 best 0 m;
            best_cost := c;
            improved := true
          end
        end
      done
    done
  done;
  (best, !best_cost)

let gumbel rng sigma =
  (* Inverse-CDF sampling; clamp the uniform away from {0, 1}. *)
  let u = Float.max 1e-12 (Float.min (1. -. 1e-12) (Rng.float rng 1.0)) in
  -.sigma *. log (-.log u)

let order ?(params = default_params) env atoms =
  let m = Array.length atoms in
  if m <= 1 then Array.init m Fun.id
  else begin
    let fitness = Cost.Model.order_cost (Cost.Model.make env atoms) in
    let rng = Rng.make params.seed in
    let best = ref (Array.init m Fun.id) in
    let best_cost = ref (fitness !best) in
    let consider perm =
      let c = fitness perm in
      if c < !best_cost then begin
        best := Array.copy perm;
        best_cost := c
      end;
      c
    in
    let inits =
      greedy_order env atoms :: Array.init m Fun.id
      :: List.init (max 0 params.restarts) (fun _ ->
             let p = Array.init m Fun.id in
             Rng.shuffle rng p;
             p)
    in
    List.iter
      (fun init ->
        ignore (consider init);
        let scores = encode init in
        (* Score-function (evolution-strategies) gradient on the Gumbel
           relaxation: perturb, decode, measure log-cost, and push the
           scores along the baseline-centered perturbations. log1p keeps
           the huge cost range from blowing up the step size. *)
        for _ = 1 to params.steps do
          let zs =
            Array.init params.batch (fun _ ->
                Array.init m (fun _ -> gumbel rng params.sigma))
          in
          let fs =
            Array.map
              (fun z ->
                let perturbed =
                  Array.init m (fun i -> scores.(i) +. z.(i))
                in
                log1p (consider (decode perturbed)))
              zs
          in
          let baseline =
            Array.fold_left ( +. ) 0. fs /. float_of_int params.batch
          in
          for i = 0 to m - 1 do
            let g = ref 0. in
            for b = 0 to params.batch - 1 do
              g := !g +. ((fs.(b) -. baseline) *. zs.(b).(i))
            done;
            let g =
              !g /. (float_of_int params.batch *. params.sigma)
            in
            scores.(i) <- scores.(i) -. (params.learning_rate *. g)
          done
        done;
        ignore (consider (decode scores));
        (* Polish per restart: the relaxation gets close, the discrete
           neighborhood finishes the job — and polishing every start,
           not just the global champion, keeps one deep local optimum
           from shadowing a better basin found by another init. *)
        let final = decode scores in
        let cand, cand_cost =
          let ci = fitness init and cf = fitness final in
          if ci <= cf then (init, ci) else (final, cf)
        in
        let polished, _ = local_search fitness (Array.copy cand) cand_cost in
        ignore (consider polished))
      inits;
    (* Iterated local search around the champion: random swap kicks
       escape the basin the polish converged into, and every kicked
       point is re-polished. The champion only ever improves. *)
    for _ = 1 to Int.max 20 (2 * m) do
      let cand = Array.copy !best in
      for _ = 1 to 3 do
        let i = Rng.int rng m and j = Rng.int rng m in
        let tmp = cand.(i) in
        cand.(i) <- cand.(j);
        cand.(j) <- tmp
      done;
      let polished, _ = local_search fitness cand (fitness cand) in
      ignore (consider polished)
    done;
    !best
  end

let register () =
  Naive.register_order_search "gradient" (fun env atoms ->
      order ~params:default_params env atoms)
