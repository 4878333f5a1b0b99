(* Reference implementations of the cost model and the naive planner's
   searches, as they stood before the compiled model: estimates on
   integer sets, subset cardinalities through a hash table, and GEQO's
   worst member by a linear scan. They share no estimation code with
   [Cost.Model]; the plan-identity tests hold the library to their
   answers, down to the bits of every cost. Only the environment's
   inputs (corrected atom cardinalities and domains) come from [Cost]. *)

module Cq = Conjunctive.Cq
module Cost = Ppr_core.Cost
module Naive = Ppr_core.Naive
module Plan = Ppr_core.Plan
module Iset = Set.Make (Int)

let join_estimate env (card_l, vars_l) (card_r, vars_r) =
  let shared = Iset.inter vars_l vars_r in
  let divisor =
    Iset.fold (fun v acc -> acc *. Cost.domain_size env v) shared 1.0
  in
  (card_l *. card_r /. divisor, Iset.union vars_l vars_r)

let rec analyze env = function
  | Plan.Atom atom ->
    (Cost.atom_cardinality env atom, Iset.of_list (Cq.atom_vars atom), 0.0)
  | Plan.Join (l, r) ->
    let cl, vl, kl = analyze env l in
    let cr, vr, kr = analyze env r in
    let card, vars = join_estimate env (cl, vl) (cr, vr) in
    (card, vars, kl +. kr +. card)
  | Plan.Project (sub, kept) ->
    let c, _, k = analyze env sub in
    let vars = Iset.of_list kept in
    let cap = Iset.fold (fun v acc -> acc *. Cost.domain_size env v) vars 1.0 in
    let card = Float.min c cap in
    (card, vars, k +. card)

let estimate env plan =
  let card, _, _ = analyze env plan in
  card *. Cost.query_correction env

let plan_cost env plan =
  let _, _, cost = analyze env plan in
  cost

let order_cost env atoms perm =
  let n = Array.length perm in
  if n = 0 then 0.0
  else begin
    let first = atoms.(perm.(0)) in
    let card = ref (Cost.atom_cardinality env first) in
    let vars = ref (Iset.of_list (Cq.atom_vars first)) in
    let cost = ref 0.0 in
    for i = 1 to n - 1 do
      let atom = atoms.(perm.(i)) in
      let card', vars' =
        join_estimate env (!card, !vars)
          (Cost.atom_cardinality env atom, Iset.of_list (Cq.atom_vars atom))
      in
      card := card';
      vars := vars';
      cost := !cost +. card'
    done;
    !cost
  end

let subset_cardinality env atoms mask =
  let m = Array.length atoms in
  let occ = Hashtbl.create 32 in
  let card = ref 1.0 in
  for i = 0 to m - 1 do
    if mask land (1 lsl i) <> 0 then begin
      card := !card *. Cost.atom_cardinality env atoms.(i);
      List.iter
        (fun v ->
          Hashtbl.replace occ v
            (1 + Option.value ~default:0 (Hashtbl.find_opt occ v)))
        (Cq.atom_vars atoms.(i))
    end
  done;
  Hashtbl.iter
    (fun v count ->
      for _ = 2 to count do
        card := !card /. Cost.domain_size env v
      done)
    occ;
  !card

let popcount mask =
  let rec go mask acc =
    if mask = 0 then acc else go (mask lsr 1) (acc + (mask land 1))
  in
  go mask 0

let lowest_bit mask =
  let rec bit i = if mask land (1 lsl i) <> 0 then i else bit (i + 1) in
  bit 0

let dp_order env atoms =
  let m = Array.length atoms in
  if m = 0 then [||]
  else begin
    let full = (1 lsl m) - 1 in
    let cost = Array.make (full + 1) infinity in
    let choice = Array.make (full + 1) (-1) in
    for mask = 1 to full do
      if popcount mask = 1 then begin
        cost.(mask) <- 0.0;
        choice.(mask) <- lowest_bit mask
      end
      else begin
        let card = subset_cardinality env atoms mask in
        for v = 0 to m - 1 do
          if mask land (1 lsl v) <> 0 then begin
            let total = cost.(mask lxor (1 lsl v)) +. card in
            if total < cost.(mask) then begin
              cost.(mask) <- total;
              choice.(mask) <- v
            end
          end
        done
      end
    done;
    let order = Array.make m 0 in
    let mask = ref full in
    for pos = m - 1 downto 0 do
      let v = choice.(!mask) in
      order.(pos) <- v;
      mask := !mask lxor (1 lsl v)
    done;
    order
  end

let dp_bushy_plan env atoms =
  let m = Array.length atoms in
  let full = (1 lsl m) - 1 in
  let cost = Array.make (full + 1) infinity in
  let split = Array.make (full + 1) 0 in
  for mask = 1 to full do
    if popcount mask = 1 then cost.(mask) <- 0.0
    else begin
      let card = subset_cardinality env atoms mask in
      let sub = ref ((mask - 1) land mask) in
      while !sub > 0 do
        let total = card +. cost.(!sub) +. cost.(mask lxor !sub) in
        if total < cost.(mask) then begin
          cost.(mask) <- total;
          split.(mask) <- !sub
        end;
        sub := (!sub - 1) land mask
      done
    end
  done;
  let rec rebuild mask =
    if popcount mask = 1 then Plan.Atom atoms.(lowest_bit mask)
    else Plan.Join (rebuild split.(mask), rebuild (mask lxor split.(mask)))
  in
  rebuild full

let auto_pool_size m = if m >= 12 then 8192 else max 128 (1 lsl (m + 1))

let order_crossover rng a b =
  let m = Array.length a in
  let lo = Graphlib.Rng.int rng m in
  let hi = lo + Graphlib.Rng.int rng (m - lo) in
  let child = Array.make m (-1) in
  let used = Array.make m false in
  for i = lo to hi do
    child.(i) <- a.(i);
    used.(a.(i)) <- true
  done;
  let fill = ref 0 in
  Array.iter
    (fun g ->
      if not used.(g) then begin
        while !fill >= lo && !fill <= hi do incr fill done;
        child.(!fill) <- g;
        incr fill
      end)
    b;
  child

let swap_mutation rng perm =
  let m = Array.length perm in
  if m >= 2 then begin
    let i = Graphlib.Rng.int rng m and j = Graphlib.Rng.int rng m in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  end

(* GEQO's worst member: the first index holding the largest fitness. *)
let worst_by_scan fit =
  let w = ref 0 in
  for i = 1 to Array.length fit - 1 do
    if fit.(i) > fit.(!w) then w := i
  done;
  !w

let genetic_order (params : Naive.genetic_params) env atoms =
  let m = Array.length atoms in
  if m <= 1 then Array.init m Fun.id
  else begin
    let rng = Graphlib.Rng.make params.seed in
    let pool_size = Option.value ~default:(auto_pool_size m) params.pool_size in
    let generations = Option.value ~default:pool_size params.generations in
    let fitness perm = order_cost env atoms perm in
    let random_perm () =
      let p = Array.init m Fun.id in
      Graphlib.Rng.shuffle rng p;
      p
    in
    let pool = Array.init pool_size (fun _ -> random_perm ()) in
    let fit = Array.map fitness pool in
    let tournament () =
      let a = Graphlib.Rng.int rng pool_size
      and b = Graphlib.Rng.int rng pool_size in
      if fit.(a) <= fit.(b) then a else b
    in
    for _ = 1 to generations do
      let parent_a = pool.(tournament ()) and parent_b = pool.(tournament ()) in
      let child = order_crossover rng parent_a parent_b in
      if Graphlib.Rng.int rng 5 = 0 then swap_mutation rng child;
      let f = fitness child in
      let w = worst_by_scan fit in
      if f < fit.(w) then begin
        pool.(w) <- child;
        fit.(w) <- f
      end
    done;
    let best = ref 0 in
    for i = 1 to pool_size - 1 do
      if fit.(i) < fit.(!best) then best := i
    done;
    pool.(!best)
  end
