module Cq = Conjunctive.Cq

type genetic_params = {
  pool_size : int option;
  generations : int option;
  seed : int;
}

let default_genetic = { pool_size = None; generations = None; seed = 42 }

type search =
  | Dp
  | Dp_bushy
  | Genetic of genetic_params
  | Auto of int * genetic_params
  | Plugin of string * int

let default_search = Auto (12, default_genetic)

(* Registered order-search plugins, by name. The registry is global so
   the [Plugin] variant stays a plain data constructor — [Driver.meth]
   values are compared structurally (the supervisor's ladder does), and
   a closure inside the variant would make [(=)] raise. Registration
   happens at startup (CLI main, engine create); lookups take the lock
   so concurrent worker-domain compiles stay safe. *)
let planners : (string, Cost.env -> Cq.atom array -> int array) Hashtbl.t =
  Hashtbl.create 4

let planners_lock = Mutex.create ()

let register_order_search name search =
  Mutex.protect planners_lock (fun () -> Hashtbl.replace planners name search)

let order_search name =
  Mutex.protect planners_lock (fun () -> Hashtbl.find_opt planners name)

let dp_order env atoms =
  let m = Array.length atoms in
  if m = 0 then [||]
  else if m > 24 then invalid_arg "Naive.dp_order: too many atoms for DP"
  else begin
    let model = Cost.Model.make env atoms in
    let full = (1 lsl m) - 1 in
    let cost = Array.make (full + 1) infinity in
    let choice = Array.make (full + 1) (-1) in
    let popcount mask =
      let rec go mask acc = if mask = 0 then acc else go (mask lsr 1) (acc + (mask land 1)) in
      go mask 0
    in
    for mask = 1 to full do
      if popcount mask = 1 then begin
        cost.(mask) <- 0.0;
        let rec bit i = if mask land (1 lsl i) <> 0 then i else bit (i + 1) in
        choice.(mask) <- bit 0
      end
      else begin
        let card = Cost.Model.join_cardinality model mask in
        for v = 0 to m - 1 do
          if mask land (1 lsl v) <> 0 then begin
            let prev = cost.(mask lxor (1 lsl v)) in
            let total = prev +. card in
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

(* Bushy DP: for every subset, try every binary partition. The subset
   cardinality is order-independent under the cost model, so the
   recurrence is cost(S) = card(S) + min over partitions (cost(T) +
   cost(S\T)); singleton subsets are free scans. *)
let dp_bushy_plan env atoms =
  let m = Array.length atoms in
  if m = 0 then invalid_arg "Naive.dp_bushy_plan: no atoms";
  if m > 15 then invalid_arg "Naive.dp_bushy_plan: too many atoms for bushy DP";
  let model = Cost.Model.make env atoms in
  let full = (1 lsl m) - 1 in
  let cost = Array.make (full + 1) infinity in
  let split = Array.make (full + 1) 0 in
  let popcount mask =
    let rec go mask acc = if mask = 0 then acc else go (mask lsr 1) (acc + (mask land 1)) in
    go mask 0
  in
  for mask = 1 to full do
    if popcount mask = 1 then cost.(mask) <- 0.0
    else begin
      let card = Cost.Model.join_cardinality model mask in
      (* Enumerate proper submasks; visiting each unordered partition
         twice is harmless for the minimum. *)
      let sub = ref ((mask - 1) land mask) in
      while !sub > 0 do
        let other = mask lxor !sub in
        let total = card +. cost.(!sub) +. cost.(other) in
        if total < cost.(mask) then begin
          cost.(mask) <- total;
          split.(mask) <- !sub
        end;
        sub := (!sub - 1) land mask
      done
    end
  done;
  let rec rebuild mask =
    if popcount mask = 1 then begin
      let rec bit i = if mask land (1 lsl i) <> 0 then i else bit (i + 1) in
      Plan.Atom atoms.(bit 0)
    end
    else Plan.Join (rebuild split.(mask), rebuild (mask lxor split.(mask)))
  in
  rebuild full

(* GEQO's historical pool sizing: 2^(m+1), clamped. *)
let auto_pool_size m =
  if m >= 12 then 8192 else max 128 (1 lsl (m + 1))

(* Order crossover (OX1): copy a random slice from the first parent and
   fill the rest in the second parent's relative order. *)
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

(* GEQO's worst member, in O(log pool) per replacement: a tournament
   tree over the pool's fitness whose every node holds the index of its
   subtree's largest fitness, the lower index on a tie. That is the
   member a left-to-right scan with strict [>] finds. A NaN never wins
   a match; a scan that starts on a NaN at index 0 never leaves it, so
   [index] answers 0 there. *)
module Worst = struct
  type t = { fit : float array; leaves : int; node : int array }

  let winner fit a b =
    if b < 0 then a
    else if a < 0 then b
    else if fit.(b) > fit.(a) || (Float.is_nan fit.(a) && not (Float.is_nan fit.(b)))
    then b
    else a

  let create fit =
    let n = Array.length fit in
    let leaves = ref 1 in
    while !leaves < n do leaves := 2 * !leaves done;
    let leaves = !leaves in
    let node = Array.make (2 * leaves) (-1) in
    for i = 0 to n - 1 do node.(leaves + i) <- i done;
    for k = leaves - 1 downto 1 do
      node.(k) <- winner fit node.(2 * k) node.((2 * k) + 1)
    done;
    { fit; leaves; node }

  let index t = if Float.is_nan t.fit.(0) then 0 else t.node.(1)

  let set t i f =
    t.fit.(i) <- f;
    let k = ref ((t.leaves + i) / 2) in
    while !k >= 1 do
      t.node.(!k) <- winner t.fit t.node.(2 * !k) t.node.((2 * !k) + 1);
      k := !k / 2
    done
end

let genetic_order params env atoms =
  (match params.pool_size with
  | Some p when p <= 0 ->
    invalid_arg "Naive.genetic_order: pool_size must be positive"
  | _ -> ());
  (match params.generations with
  | Some g when g < 0 ->
    invalid_arg "Naive.genetic_order: generations must be non-negative"
  | _ -> ());
  let m = Array.length atoms in
  if m <= 1 then Array.init m Fun.id
  else begin
    let rng = Graphlib.Rng.make params.seed in
    let pool_size = Option.value ~default:(auto_pool_size m) params.pool_size in
    let generations = Option.value ~default:pool_size params.generations in
    let model = Cost.Model.make env atoms in
    let fitness = Cost.Model.order_cost model in
    let random_perm () =
      let p = Array.init m Fun.id in
      Graphlib.Rng.shuffle rng p;
      p
    in
    let pool = Array.init pool_size (fun _ -> random_perm ()) in
    let fit = Array.map fitness pool in
    let worst = Worst.create fit in
    let tournament () =
      let a = Graphlib.Rng.int rng pool_size and b = Graphlib.Rng.int rng pool_size in
      if fit.(a) <= fit.(b) then a else b
    in
    for _ = 1 to generations do
      let parent_a = pool.(tournament ()) and parent_b = pool.(tournament ()) in
      let child = order_crossover rng parent_a parent_b in
      if Graphlib.Rng.int rng 5 = 0 then swap_mutation rng child;
      let f = fitness child in
      let w = Worst.index worst in
      if f < fit.(w) then begin
        pool.(w) <- child;
        Worst.set worst w f
      end
    done;
    let best = ref 0 in
    for i = 1 to pool_size - 1 do
      if fit.(i) < fit.(!best) then best := i
    done;
    pool.(!best)
  end

let compile ?(search = default_search) ?feedback db cq =
  let atoms = Array.of_list cq.Cq.atoms in
  let m = Array.length atoms in
  if m = 0 then invalid_arg "Naive.compile: no atoms";
  let env = Cost.environment ?feedback db cq in
  match search with
  | Dp_bushy -> Plan.project_to (dp_bushy_plan env atoms) cq.Cq.free
  | (Dp | Genetic _ | Auto _ | Plugin _) as search ->
    let order =
      match search with
      | Dp -> dp_order env atoms
      | Genetic params -> genetic_order params env atoms
      | Auto (threshold, params) ->
        if m <= threshold then dp_order env atoms
        else genetic_order params env atoms
      | Plugin (name, threshold) -> (
        if m <= threshold then dp_order env atoms
        else
          match order_search name with
          | Some search -> search env atoms
          | None ->
            failwith
              (Printf.sprintf "Naive.compile: planner %S is not registered"
                 name))
      | Dp_bushy -> assert false
    in
    let scans = List.map (fun i -> Plan.Atom atoms.(i)) (Array.to_list order) in
    Plan.project_to (Plan.left_deep scans) cq.Cq.free
