(* Tests for the evaluation strategies: plans, the executor, the cost
   model, all five of the paper's methods, mini-buckets, and the paper's
   Theorem 2 (induced width = treewidth). *)

open Helpers
module Cq = Conjunctive.Cq
module Encode = Conjunctive.Encode
module Plan = Ppr_core.Plan
module Exec = Ppr_core.Exec
module Cost = Ppr_core.Cost
module Naive = Ppr_core.Naive
module Driver = Ppr_core.Driver
module Bucket = Ppr_core.Bucket
module Relation = Relalg.Relation
module G = Graphlib.Graph

let edge u v = { Cq.rel = "edge"; vars = [ u; v ] }
let pentagon_cq = coloring_query Graphlib.Generators.pentagon

(* ------------------------------------------------------------------ *)
(* Plan                                                                *)

let test_plan_schema () =
  let p = Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)) in
  Alcotest.(check (list int)) "join schema" [ 0; 1; 2 ] (Plan.schema p);
  let projected = Plan.Project (p, [ 2; 0 ]) in
  Alcotest.(check (list int)) "projection schema" [ 0; 2 ] (Plan.schema projected);
  Alcotest.check_raises "projecting absent var"
    (Invalid_argument "Plan: projection keeps v9, absent from input") (fun () ->
      ignore (Plan.schema (Plan.Project (p, [ 9 ]))))

let test_plan_width_counts () =
  let p =
    Plan.Project
      (Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)), [ 0; 2 ])
  in
  check_int "width" 3 (Plan.width p);
  check_int "joins" 1 (Plan.join_count p);
  check_int "projections" 1 (Plan.projection_count p);
  check_int "nodes" 4 (Plan.node_count p)

let test_plan_helpers () =
  let atoms = [ Plan.Atom (edge 0 1); Plan.Atom (edge 1 2); Plan.Atom (edge 2 0) ] in
  let chain = Plan.left_deep atoms in
  check_int "left-deep joins" 2 (Plan.join_count chain);
  check_int "atoms in order" 3 (List.length (Plan.atoms chain));
  let identity = Plan.project_to chain [ 0; 1; 2 ] in
  check_int "identity projection skipped" 0 (Plan.projection_count identity);
  Alcotest.check_raises "empty left_deep"
    (Invalid_argument "Plan.left_deep: empty") (fun () ->
      ignore (Plan.left_deep []))

let test_answers_query () =
  let cq = Cq.make ~atoms:[ edge 0 1; edge 1 2 ] ~free:[ 0 ] in
  let good =
    Plan.Project (Plan.Join (Plan.Atom (edge 1 2), Plan.Atom (edge 0 1)), [ 0 ])
  in
  check_bool "order-insensitive atom match" true (Plan.answers_query cq good);
  let missing = Plan.Project (Plan.Atom (edge 0 1), [ 0 ]) in
  check_bool "missing atom detected" false (Plan.answers_query cq missing);
  let wrong_schema = Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)) in
  check_bool "wrong target schema detected" false
    (Plan.answers_query cq wrong_schema)

(* ------------------------------------------------------------------ *)
(* Exec                                                                *)

let test_exec_boolean_result () =
  (* Triangle is 3-colorable: the 0-ary result holds the empty tuple. *)
  let cq = coloring_query (Graphlib.Generators.cycle 3) in
  let result = Exec.run coloring_db (Bucket.compile cq) in
  check_int "0-ary relation" 0 (Relation.arity result);
  check_int "one (empty) tuple" 1 (Relation.cardinality result);
  (* K4 is not 3-colorable. *)
  let cq4 = coloring_query (Graphlib.Generators.clique 4) in
  check_bool "K4 empty" false (Exec.nonempty coloring_db (Bucket.compile cq4))

let test_exec_stats_measure_width () =
  let stats = Relalg.Stats.create () in
  let plan = Ppr_core.Straightforward.compile pentagon_cq in
  ignore (Exec.run ~ctx:(Relalg.Ctx.create ~stats ()) coloring_db plan);
  (* The straightforward pentagon plan reaches all 5 variables. *)
  check_int "measured arity = plan width" (Plan.width plan)
    (Relalg.Stats.max_arity stats)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)

let test_cost_environment () =
  let cq = pentagon_cq in
  let env = Cost.environment coloring_db cq in
  Alcotest.(check (float 1e-9)) "edge cardinality" 6.0
    (Cost.atom_cardinality env (edge 0 1));
  Alcotest.(check (float 1e-9)) "domain size" 3.0 (Cost.domain_size env 0);
  (* A variable the environment never saw must not look free: it
     defaults to the largest observed domain (3 here), not 1.0 — a
     1.0 default made every join over an unseen variable estimate as a
     key-key join and systematically underestimate. *)
  Alcotest.(check (float 1e-9)) "unseen var" 3.0 (Cost.domain_size env 99)

let test_cost_estimates () =
  let env = Cost.environment coloring_db pentagon_cq in
  (* edge(0,1) |><| edge(1,2): 6*6/3 = 12 expected tuples. *)
  let join = Plan.Join (Plan.Atom (edge 0 1), Plan.Atom (edge 1 2)) in
  Alcotest.(check (float 1e-9)) "join estimate" 12.0 (Cost.estimate env join);
  Alcotest.(check (float 1e-9)) "plan cost = intermediates" 12.0
    (Cost.plan_cost env join);
  (* Projection estimates are capped by the domain product. *)
  let proj = Plan.Project (join, [ 1 ]) in
  Alcotest.(check (float 1e-9)) "projection cap" 3.0 (Cost.estimate env proj)

let test_order_cost_matches_plan_cost () =
  let atoms = Array.of_list pentagon_cq.Cq.atoms in
  let env = Cost.environment coloring_db pentagon_cq in
  let perm = [| 0; 1; 2; 3; 4 |] in
  let plan =
    Plan.left_deep (List.map (fun i -> Plan.Atom atoms.(i)) (Array.to_list perm))
  in
  Alcotest.(check (float 1e-6)) "incremental = full"
    (Cost.plan_cost env plan)
    (Cost.order_cost env atoms perm)

(* ------------------------------------------------------------------ *)
(* Naive planner                                                       *)

let test_dp_beats_bad_orders () =
  (* On a path query the DP order should keep cost at the minimum:
     joining adjacent atoms, never a cartesian blowup. *)
  let cq = coloring_query (Graphlib.Generators.path 6) in
  let atoms = Array.of_list cq.Cq.atoms in
  let env = Cost.environment coloring_db cq in
  let dp = Naive.dp_order env atoms in
  let dp_cost = Cost.order_cost env atoms dp in
  (* Compare against the worst of a few random permutations. *)
  let rng = rng 1 in
  let worst = ref dp_cost in
  for _ = 1 to 20 do
    let p = Array.init (Array.length atoms) Fun.id in
    Graphlib.Rng.shuffle rng p;
    worst := max !worst (Cost.order_cost env atoms p)
  done;
  check_bool "dp no worse than random" true (dp_cost <= !worst);
  check_bool "dp is a permutation" true
    (List.sort compare (Array.to_list dp)
    = List.init (Array.length atoms) Fun.id)

let test_genetic_order_valid () =
  let cq = coloring_query (random_graph ~seed:2 ~n:12 ~m:30) in
  let atoms = Array.of_list cq.Cq.atoms in
  let env = Cost.environment coloring_db cq in
  let params = { Naive.default_genetic with pool_size = Some 64; generations = Some 200 } in
  let order = Naive.genetic_order params env atoms in
  check_bool "permutation" true
    (List.sort compare (Array.to_list order) = List.init 30 Fun.id)

let test_genetic_improves_over_median_random () =
  let cq = coloring_query (random_graph ~seed:5 ~n:14 ~m:28) in
  let atoms = Array.of_list cq.Cq.atoms in
  let env = Cost.environment coloring_db cq in
  let params = { Naive.default_genetic with pool_size = Some 128; generations = Some 500 } in
  let best = Cost.order_cost env atoms (Naive.genetic_order params env atoms) in
  let rng = rng 9 in
  let random_costs =
    List.init 21 (fun _ ->
        let p = Array.init (Array.length atoms) Fun.id in
        Graphlib.Rng.shuffle rng p;
        Cost.order_cost env atoms p)
  in
  let median_random = List.nth (List.sort compare random_costs) 10 in
  check_bool "genetic <= median random" true (best <= median_random)

let prop_bushy_never_beats_nothing =
  qtest ~count:40 "bushy DP cost <= left-deep DP cost" tiny_graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      Cq.atom_count cq > 15
      ||
      let atoms = Array.of_list cq.Cq.atoms in
      let env = Cost.environment coloring_db cq in
      let bushy = Naive.dp_bushy_plan env atoms in
      let left_deep_cost = Cost.order_cost env atoms (Naive.dp_order env atoms) in
      Cost.plan_cost env bushy <= left_deep_cost +. 1e-6)

let prop_bushy_correct =
  qtest ~count:40 "bushy plans compute the right answer" tiny_graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      Cq.atom_count cq > 15
      ||
      let plan = Naive.compile ~search:Naive.Dp_bushy coloring_db cq in
      Plan.answers_query cq plan
      && Exec.nonempty coloring_db plan = brute_force_colorable g)

let test_bushy_rejects_large () =
  let cq = coloring_query (random_graph ~seed:1 ~n:10 ~m:20) in
  let env = Cost.environment coloring_db cq in
  Alcotest.check_raises "cap"
    (Invalid_argument "Naive.dp_bushy_plan: too many atoms for bushy DP")
    (fun () ->
      ignore (Naive.dp_bushy_plan env (Array.of_list cq.Cq.atoms)))

let test_naive_compile_structure () =
  let plan = Naive.compile coloring_db pentagon_cq in
  check_bool "answers the query" true (Plan.answers_query pentagon_cq plan);
  (* No projection pushing: at most the final projection. *)
  check_bool "no pushed projections" true (Plan.projection_count plan <= 1)

(* ------------------------------------------------------------------ *)
(* Plan identity: the compiled cost model against the set-based
   reference ([Reference_cost]). Every order, plan and cost must match
   bit for bit. The gradient planner's orders, and GEQO at its default
   pool sizing, are pinned against the set-based model's output by the
   golden file in test/golden.                                          *)

module Ref = Reference_cost

let bits = Int64.bits_of_float
let check_bits msg want got = Alcotest.(check int64) msg (bits want) (bits got)

(* Deterministic, key-dependent factors in [0.25, 4]: unequal domains
   and corrected atoms, so ties break differently than without. *)
let synthetic_feedback key =
  Some (0.25 *. float_of_int (1 + (Hashtbl.hash key mod 16)))

let feedbacks = [ ("textbook", None); ("feedback", Some synthetic_feedback) ]

(* The figures' instances, drawn as lib/experiments/figures.ml draws
   them for a seed. *)
let sat_instance ~k ~num_vars ~density seed =
  let rng = Graphlib.Rng.make seed in
  let num_clauses = max 1 (int_of_float (density *. float_of_int num_vars)) in
  let cnf = Conjunctive.Cnf.random_ksat ~rng ~k ~num_vars ~num_clauses in
  (Encode.sat_database cnf, Encode.sat_query ~mode:Encode.Boolean cnf)

let color_instance ~n ~density ~mode seed =
  let rng = Graphlib.Rng.make seed in
  let m =
    max 1
      (min (int_of_float (Float.round (density *. float_of_int n))) (n * (n - 1) / 2))
  in
  let g = Graphlib.Generators.random ~rng ~n ~m in
  (coloring_db, Encode.coloring_query_of_graph ~mode ~rng:(Graphlib.Rng.split rng) g)

let family_instance family n mode seed =
  (coloring_db, Encode.coloring_query_of_graph ~mode ~rng:(Graphlib.Rng.make seed) (family n))

let free = Encode.Fraction 0.2

(* perfbench's paper-batch cells, one figure seed each. *)
let paper_batch_instances =
  let module Gen = Graphlib.Generators in
  [
    ("fig2", sat_instance ~k:3 ~num_vars:5 ~density:4. 1000);
    ("fig3", color_instance ~n:20 ~density:1. ~mode:Encode.Boolean 1000);
    ("fig4", color_instance ~n:30 ~density:3. ~mode:free 1000);
    ("fig5", color_instance ~n:15 ~density:6. ~mode:Encode.Boolean 1000);
    ("fig6", family_instance Gen.augmented_path 10 free 1000);
    ("fig7", family_instance Gen.ladder 10 Encode.Boolean 1000);
    ("fig8", family_instance Gen.augmented_ladder 5 free 1000);
    ("fig9", family_instance Gen.augmented_circular_ladder 5 Encode.Boolean 1000);
    ("sec7-3sat", sat_instance ~k:3 ~num_vars:20 ~density:1. 1000);
    ("sec7-2sat", sat_instance ~k:2 ~num_vars:20 ~density:2. 1000);
  ]

let figure2_instances =
  List.map
    (fun d -> (Printf.sprintf "fig2 d%g" d, sat_instance ~k:3 ~num_vars:5 ~density:d 1000))
    [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ]

let coloring_order_instances =
  List.map
    (fun n -> (Printf.sprintf "3-COLOR n%d" n, color_instance ~n ~density:3. ~mode:free 1000))
    [ 5; 10; 15; 20; 25; 30 ]

(* A small, non-power-of-two pool: the reference's set-based fitness
   and linear scan make the default 8192 too slow for a unit test. *)
let small_pool =
  { Naive.pool_size = Some 100; generations = Some 600; seed = 7 }

let check_plan_identity ?(params = small_pool) (name, (db, cq)) =
  List.iter
    (fun (fb_name, feedback) ->
      let env = Cost.environment ?feedback db cq in
      let atoms = Array.of_list cq.Cq.atoms in
      let m = Array.length atoms in
      let label what = Printf.sprintf "%s, %s: %s" name fb_name what in
      let same_order what ~want ~got =
        Alcotest.(check (array int)) (label what) want got;
        check_bits (label (what ^ " cost")) (Ref.order_cost env atoms want)
          (Cost.order_cost env atoms got)
      in
      same_order "geqo" ~want:(Ref.genetic_order params env atoms)
        ~got:(Naive.genetic_order params env atoms);
      if m <= 14 then
        same_order "dp" ~want:(Ref.dp_order env atoms) ~got:(Naive.dp_order env atoms);
      if m <= 10 then begin
        let want = Ref.dp_bushy_plan env atoms in
        let got = Naive.dp_bushy_plan env atoms in
        check_bool (label "bushy plan") true (want = got);
        check_bits (label "bushy cost") (Ref.plan_cost env want) (Cost.plan_cost env got)
      end;
      let plan = Naive.compile ~search:(Naive.Genetic params) ?feedback db cq in
      check_bits (label "estimate") (Ref.estimate env plan) (Cost.estimate env plan);
      check_bits (label "plan cost") (Ref.plan_cost env plan) (Cost.plan_cost env plan))
    feedbacks

let test_plan_identity instances () = List.iter check_plan_identity instances

(* 70 variables: every variable mask spans two words. *)
let test_plan_identity_wide () =
  let cq = coloring_query ~mode:free ~seed:3 (Graphlib.Generators.path 70) in
  check_bool "more than 62 variables" true (Cq.var_count cq > 62);
  check_plan_identity
    ~params:{ Naive.default_genetic with pool_size = Some 40; generations = Some 300 }
    ("path70", (coloring_db, cq));
  let atoms = Array.of_list cq.Cq.atoms in
  let env = Cost.environment ~feedback:synthetic_feedback coloring_db cq in
  let rng = rng 11 in
  for _ = 1 to 50 do
    let p = Array.init (Array.length atoms) Fun.id in
    Graphlib.Rng.shuffle rng p;
    check_bits "random order" (Ref.order_cost env atoms p) (Cost.order_cost env atoms p)
  done;
  Alcotest.check_raises "subset masks stop at 62 atoms"
    (Invalid_argument "Cost.Model.join_cardinality: more atoms than mask bits")
    (fun () -> ignore (Cost.Model.join_cardinality (Cost.Model.make env atoms) 3))

(* Random queries over a database with binary and ternary relations:
   coloring and SAT encodings, and free-form atoms with repeated
   variables and self-joins, under random feedback. *)
let random_instance seed =
  let rng = rng seed in
  let pick a = a.(Graphlib.Rng.int rng (Array.length a)) in
  match Graphlib.Rng.int rng 3 with
  | 0 ->
    let n = 2 + Graphlib.Rng.int rng 8 in
    let m = 1 + Graphlib.Rng.int rng (n * (n - 1) / 2) in
    let g = Graphlib.Generators.random ~rng ~n ~m in
    (coloring_db, coloring_query ~mode:free ~seed g)
  | 1 ->
    sat_instance ~k:(2 + Graphlib.Rng.int rng 2) ~num_vars:(3 + Graphlib.Rng.int rng 6)
      ~density:(0.5 +. Graphlib.Rng.float rng 3.) seed
  | _ ->
    let db, _ = sat_instance ~k:3 ~num_vars:4 ~density:3. seed in
    Conjunctive.Database.add db "edge" (Conjunctive.Database.find coloring_db "edge");
    let rels = Array.of_list (Conjunctive.Database.names db) in
    let num_vars = 1 + Graphlib.Rng.int rng 7 in
    let atoms =
      List.init
        (1 + Graphlib.Rng.int rng 9)
        (fun _ ->
          let rel = pick rels in
          let arity = Relation.arity (Conjunctive.Database.find db rel) in
          { Cq.rel; vars = List.init arity (fun _ -> Graphlib.Rng.int rng num_vars) })
    in
    let used = List.sort_uniq compare (List.concat_map Cq.atom_vars atoms) in
    (db, Cq.make ~atoms ~free:(List.filter (fun _ -> Graphlib.Rng.bool rng) used))

let prop_order_cost_bit_identical =
  qtest ~count:300 "compiled order_cost = reference = plan_cost, bit for bit"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let db, cq = random_instance seed in
      let rng = rng (seed + 1) in
      let feedback =
        if Graphlib.Rng.bool rng then None
        else
          Some
            (fun key ->
              match Hashtbl.hash (seed, key) mod 3 with
              | 0 -> None
              | h -> Some (Float.exp (float_of_int (h - 2 + (Hashtbl.hash key mod 5)) -. 2.)))
      in
      let env = Cost.environment ?feedback db cq in
      let atoms = Array.of_list cq.Cq.atoms in
      List.for_all
        (fun _ ->
          let perm = Array.init (Array.length atoms) Fun.id in
          Graphlib.Rng.shuffle rng perm;
          let plan =
            Plan.left_deep (List.map (fun i -> Plan.Atom atoms.(i)) (Array.to_list perm))
          in
          let compiled = Cost.order_cost env atoms perm in
          let projected = Plan.project_to plan cq.Cq.free in
          bits compiled = bits (Ref.order_cost env atoms perm)
          && bits compiled = bits (Cost.plan_cost env plan)
          && bits (Cost.plan_cost env projected) = bits (Ref.plan_cost env projected)
          && bits (Cost.estimate env projected) = bits (Ref.estimate env projected))
        (List.init 10 Fun.id))

(* The tree's answer is the linear scan's — the first index holding the
   largest fitness — under point updates drawn from a handful of values,
   so ties are the rule, with the odd NaN and infinity. *)
let prop_worst_tree_matches_scan =
  qtest ~count:300 "tournament tree = linear scan under updates"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let rng = rng seed in
      let value () =
        match Graphlib.Rng.int rng 12 with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | k -> float_of_int (k mod 4)
      in
      let fit = Array.init (1 + Graphlib.Rng.int rng 40) (fun _ -> value ()) in
      let tree = Naive.Worst.create fit in
      let ok = ref (Naive.Worst.index tree = Ref.worst_by_scan fit) in
      for _ = 1 to 60 do
        Naive.Worst.set tree (Graphlib.Rng.int rng (Array.length fit)) (value ());
        ok := !ok && Naive.Worst.index tree = Ref.worst_by_scan fit
      done;
      !ok)

let test_genetic_rejects_bad_params () =
  let atoms = Array.of_list pentagon_cq.Cq.atoms in
  let env = Cost.environment coloring_db pentagon_cq in
  Alcotest.check_raises "empty pool"
    (Invalid_argument "Naive.genetic_order: pool_size must be positive")
    (fun () ->
      ignore
        (Naive.genetic_order { Naive.default_genetic with pool_size = Some 0 } env atoms));
  Alcotest.check_raises "negative generations"
    (Invalid_argument "Naive.genetic_order: generations must be non-negative")
    (fun () ->
      ignore
        (Naive.genetic_order
           { Naive.default_genetic with generations = Some (-1) }
           env atoms));
  let zero = { Naive.default_genetic with pool_size = Some 3; generations = Some 0 } in
  check_bool "zero generations: a random pool member" true
    (List.sort compare (Array.to_list (Naive.genetic_order zero env atoms))
    = List.init 5 Fun.id)

(* ------------------------------------------------------------------ *)
(* The five methods agree                                              *)

let all_methods =
  [
    Driver.Naive (Naive.Auto (8, Naive.{ default_genetic with pool_size = Some 64; generations = Some 100 }));
    Driver.Straightforward;
    Driver.Early_projection;
    Driver.Reorder;
    Driver.Bucket_elimination;
  ]

let prop_methods_agree_boolean =
  qtest ~count:50 "all methods agree with the oracle (Boolean)"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let expected = brute_force_colorable g in
      List.for_all
        (fun meth ->
          let plan = Driver.compile ~rng:(rng 3) meth coloring_db cq in
          Plan.answers_query cq plan
          && Exec.nonempty coloring_db plan = expected)
        all_methods)

let prop_methods_agree_non_boolean =
  qtest ~count:40 "all methods compute identical answers (free vars)"
    graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.order g) g in
      let reference =
        Exec.run coloring_db (Driver.compile Driver.Bucket_elimination coloring_db cq)
      in
      List.for_all
        (fun meth ->
          let plan = Driver.compile ~rng:(rng 3) meth coloring_db cq in
          Relation.equal_modulo_order reference (Exec.run coloring_db plan))
        all_methods)

(* The answer's rows restricted to [keep], in [keep]'s order. *)
let rows_on rel keep =
  let schema = Relation.schema rel in
  List.sort_uniq compare
    (List.map
       (fun tup ->
         List.map
           (fun v -> Relalg.Tuple.get tup (Relalg.Schema.index schema v))
           keep)
       (Relation.to_list rel))

let prop_non_boolean_matches_oracle =
  qtest ~count:40 "free-variable answers match the coloring oracle"
    graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.size g) g in
      match cq.Cq.free with
      | [] -> true
      | keep ->
        let result =
          Exec.run coloring_db (Driver.compile Driver.Bucket_elimination coloring_db cq)
        in
        rows_on result keep = all_colorings g ~keep)

let prop_methods_widths_ordered =
  qtest ~count:50 "bucket elimination is never wider than straightforward"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      Plan.width (Driver.compile Driver.Bucket_elimination coloring_db cq)
      <= Plan.width (Driver.compile Driver.Straightforward coloring_db cq))

(* ------------------------------------------------------------------ *)
(* Early projection & reordering specifics                             *)

let test_live_after () =
  let cq = Cq.make ~atoms:[ edge 0 1; edge 1 2; edge 2 3 ] ~free:[ 3 ] in
  Alcotest.(check (list int)) "after atom 0" [ 1 ]
    (Ppr_core.Early_projection.live_after cq 0);
  Alcotest.(check (list int)) "after atom 1" [ 2 ]
    (Ppr_core.Early_projection.live_after cq 1);
  Alcotest.(check (list int)) "after last atom, free survives" [ 3 ]
    (Ppr_core.Early_projection.live_after cq 2)

let test_early_projection_on_path () =
  (* On a path listed in order, early projection keeps width 3: the new
     edge's two vars plus the chain variable. *)
  let cq = coloring_query (Graphlib.Generators.path 8) in
  let plan = Ppr_core.Early_projection.compile cq in
  check_bool "narrow plan" true (Plan.width plan <= 3);
  check_bool "straightforward is wide" true
    (Plan.width (Ppr_core.Straightforward.compile cq) = 9)

let test_reorder_permutation_greedy () =
  (* A variable occurring once should attract the greedy choice: the
     dangling edge (4,5) has two unique vars (4 occurs also in e1... build
     a shape where one atom has 2 unique vars). *)
  let cq =
    Cq.make
      ~atoms:[ edge 0 1; edge 1 2; edge 8 9 ]
      ~free:[]
  in
  let perm = Ppr_core.Reorder.permutation cq in
  (* edge(8,9) has two variables occurring nowhere else: picked first. *)
  check_int "most-unique atom first" 2 perm.(0)

let test_reorder_deterministic_without_rng () =
  let cq = coloring_query (random_graph ~seed:3 ~n:8 ~m:16) in
  let a = Ppr_core.Reorder.permutation cq in
  let b = Ppr_core.Reorder.permutation cq in
  Alcotest.(check (array int)) "deterministic" a b

(* ------------------------------------------------------------------ *)
(* Bucket elimination and Theorem 2                                    *)

let test_bucket_order_rejects_non_permutation () =
  Alcotest.check_raises "bad order"
    (Invalid_argument "Bucket: order is not a permutation of the query variables")
    (fun () -> ignore (Bucket.compile ~order:[| 0; 0 |] pentagon_cq))

let test_bucket_pentagon_width () =
  (* tw(C5) = 2: bucket elimination along a good order keeps plan width
     3 and induced width 2. *)
  let order = Bucket.variable_order pentagon_cq in
  check_int "induced width" 2 (Bucket.induced_width pentagon_cq order);
  check_int "plan width" 3 (Plan.width (Bucket.compile ~order pentagon_cq))

let prop_theorem2 =
  qtest ~count:30 "Theorem 2: optimal induced width = treewidth"
    (QCheck.map
       (fun (n, m, seed) ->
         let m = max 1 (min m (n * (n - 1) / 2)) in
         random_graph ~seed ~n ~m)
       QCheck.(triple (int_range 2 6) (int_range 1 12) (int_range 0 1000)))
    (fun g ->
      let cq = coloring_query g in
      let jg = Conjunctive.Joingraph.build cq in
      match Graphlib.Treewidth.exact jg.Conjunctive.Joingraph.graph with
      | None -> true
      | Some tw -> Bucket.optimal_induced_width cq = tw)

let prop_mcs_induced_width_at_least_treewidth =
  qtest ~count:50 "MCS induced width >= treewidth" tiny_graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let jg = Conjunctive.Joingraph.build cq in
      match Graphlib.Treewidth.exact jg.Conjunctive.Joingraph.graph with
      | None -> true
      | Some tw ->
        Bucket.induced_width cq (Bucket.variable_order cq) >= tw)

let prop_bucket_plan_width_is_induced_width_plus_one =
  qtest ~count:50 "plan width <= induced width + 1 (Boolean)" graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      let order = Bucket.variable_order cq in
      Plan.width (Bucket.compile ~order cq)
      <= Bucket.induced_width cq order + 1)

(* ------------------------------------------------------------------ *)
(* Mini-buckets                                                        *)

let test_minibucket_validation () =
  Alcotest.check_raises "i_bound < 1"
    (Invalid_argument "Minibucket.compile: i_bound < 1") (fun () ->
      ignore (Ppr_core.Minibucket.compile ~i_bound:0 pentagon_cq))

let test_minibucket_width_capped () =
  let g = random_graph ~seed:8 ~n:12 ~m:30 in
  let cq = coloring_query g in
  let plan = Ppr_core.Minibucket.compile ~i_bound:3 cq in
  check_bool "plan width bounded by i_bound + 1" true (Plan.width plan <= 4)

let prop_minibucket_sound_on_empty =
  qtest ~count:60 "Definitely_empty implies truly uncolorable" graph_arbitrary
    (fun g ->
      let cq = coloring_query g in
      List.for_all
        (fun i_bound ->
          match Ppr_core.Minibucket.evaluate ~i_bound coloring_db cq with
          | Ppr_core.Minibucket.Definitely_empty -> not (brute_force_colorable g)
          | Ppr_core.Minibucket.Maybe_nonempty _ -> true)
        [ 1; 2; 3; 5 ])

let prop_minibucket_exact_at_high_bound =
  qtest ~count:40 "mini-buckets converge to exact at high i-bound"
    tiny_graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let verdict =
        Ppr_core.Minibucket.evaluate ~i_bound:(Cq.var_count cq) coloring_db cq
      in
      match verdict with
      | Ppr_core.Minibucket.Definitely_empty -> not (brute_force_colorable g)
      | Ppr_core.Minibucket.Maybe_nonempty _ -> brute_force_colorable g)

(* ------------------------------------------------------------------ *)
(* Hybrid planner                                                      *)

let test_hybrid_candidates_sorted () =
  let cands = Ppr_core.Hybrid.candidates coloring_db pentagon_cq in
  check_bool "non-empty portfolio" true (List.length cands >= 5);
  let costs = List.map (fun c -> c.Ppr_core.Hybrid.estimated_cost) cands in
  check_bool "sorted ascending" true (List.sort compare costs = costs);
  List.iter
    (fun c ->
      check_bool
        (c.Ppr_core.Hybrid.label ^ " answers the query")
        true
        (Plan.answers_query pentagon_cq c.Ppr_core.Hybrid.plan))
    cands

let prop_hybrid_agrees =
  qtest ~count:40 "hybrid computes the same answers" graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.order g) g in
      Relation.equal_modulo_order
        (Exec.run coloring_db (Ppr_core.Hybrid.compile coloring_db cq))
        (Exec.run coloring_db (Bucket.compile cq)))

let prop_hybrid_no_wider_than_mcs_bucket =
  qtest ~count:40 "hybrid cost <= plain bucket elimination's"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let env = Cost.environment coloring_db cq in
      Cost.plan_cost env (Ppr_core.Hybrid.compile coloring_db cq)
      <= Cost.plan_cost env (Bucket.compile cq) +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Semijoin reduction                                                  *)

let prop_semijoin_useless_on_coloring =
  (* The paper's Section 2 claim, verified: projecting a column of the
     edge relation yields all colors, so the Wong-Youssefi pass never
     deletes a tuple on coloring queries. *)
  qtest ~count:50 "semijoin reduction removes nothing on 3-COLOR"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      Ppr_core.Semijoin_pass.tuples_removed coloring_db cq = 0)

let test_semijoin_helps_on_selective_instance () =
  (* A chain with a selective unary relation at one end: reduction
     propagates the restriction through the chain. *)
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "succ"
    (relation [ 0; 1 ] (List.init 9 (fun i -> [ i; i + 1 ])));
  Conjunctive.Database.add db "is_nine" (relation [ 0 ] [ [ 9 ] ]);
  let cq =
    Cq.make
      ~atoms:
        [
          { Cq.rel = "succ"; vars = [ 0; 1 ] };
          { Cq.rel = "succ"; vars = [ 1; 2 ] };
          { Cq.rel = "is_nine"; vars = [ 2 ] };
        ]
      ~free:[ 0 ]
  in
  check_bool "removes tuples" true
    (Ppr_core.Semijoin_pass.tuples_removed db cq > 0);
  let reduced_db, reduced_cq, changed =
    Ppr_core.Semijoin_pass.reduced_instance db cq
  in
  check_bool "reports change" true changed;
  (* Answer preserved: only x=7 reaches 9 in two steps. *)
  let result = Exec.run reduced_db (Bucket.compile reduced_cq) in
  check_int "single answer" 1 (Relation.cardinality result);
  check_bool "x = 7" true (Relation.mem result (Relalg.Tuple.of_list [ 7 ]))

let prop_semijoin_preserves_answers =
  qtest ~count:40 "reduced instance computes the same answer"
    graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.size g) g in
      let reduced_db, reduced_cq, _ =
        Ppr_core.Semijoin_pass.reduced_instance coloring_db cq
      in
      Relation.equal_modulo_order
        (Exec.run coloring_db (Bucket.compile cq))
        (Exec.run reduced_db (Bucket.compile reduced_cq)))

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)

let test_explain_pentagon () =
  let plan = Bucket.compile pentagon_cq in
  let node, result = Ppr_core.Explain.analyze coloring_db plan in
  check_int "result matches direct execution"
    (Relation.cardinality (Exec.run coloring_db plan))
    (Relation.cardinality result);
  check_int "root rows" (Relation.cardinality result)
    node.Ppr_core.Explain.actual_rows;
  let rendered = Ppr_core.Explain.render node in
  check_bool "mentions a scan" true
    (let rec contains i =
       i + 9 <= String.length rendered
       && (String.sub rendered i 9 = "scan edge" || contains (i + 1))
     in
     contains 0);
  (* The independence model is exact on the symmetric edge relation. *)
  Alcotest.(check (option (pair string (float 0.1)))) "no misestimate" None
    (Option.map
       (fun (n, r) -> (n.Ppr_core.Explain.description, r))
       (Ppr_core.Explain.largest_misestimate node))

let prop_explain_tree_mirrors_plan =
  qtest ~count:30 "explain mirrors the plan and returns Exec.run's relation"
    graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.5) ~seed:(G.size g) g in
      let plan = Bucket.compile cq in
      let node, rel = Ppr_core.Explain.analyze coloring_db plan in
      let rec mirrors (n : Ppr_core.Explain.node) p =
        n.plan = p
        &&
        match (p, n.children) with
        | Plan.Atom _, [] -> true
        | Plan.Project (sub, _), [ c ] -> mirrors c sub
        | Plan.Join (l, r), [ cl; cr ] -> mirrors cl l && mirrors cr r
        | _ -> false
      in
      mirrors node plan
      && node.actual_rows = Relation.cardinality rel
      && Relation.equal rel (Exec.run coloring_db plan))

let test_explain_detects_misestimates () =
  (* A skewed relation breaks independence: join of two copies of a
     relation concentrated on one value. *)
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "skew"
    (relation [ 0; 1 ] ([ [ 1; 1 ]; [ 2; 1 ]; [ 3; 1 ]; [ 4; 1 ] ] @ [ [ 5; 2 ] ]));
  let cq =
    Cq.make
      ~atoms:[ { Cq.rel = "skew"; vars = [ 0; 1 ] }; { Cq.rel = "skew"; vars = [ 2; 1 ] } ]
      ~free:[ 0; 2 ]
  in
  let node, _ = Ppr_core.Explain.analyze db (Ppr_core.Straightforward.compile cq) in
  check_bool "misestimate found" true
    (Ppr_core.Explain.largest_misestimate node <> None)

(* ------------------------------------------------------------------ *)
(* Weighted attributes                                                 *)

let mixed_domain_db =
  (* Two binary relations: a 3-color disequality and a 9-color one, so
     variables have very different widths. *)
  let db = Conjunctive.Database.create () in
  let pairs k =
    let rows = ref [] in
    for a = 1 to k do
      for b = 1 to k do
        if a <> b then rows := [ a; b ] :: !rows
      done
    done;
    relation [ 0; 1 ] !rows
  in
  Conjunctive.Database.add db "edge3" (pairs 3);
  Conjunctive.Database.add db "edge9" (pairs 9);
  db

let test_weights_from_database () =
  let cq =
    Cq.make
      ~atoms:[ { Cq.rel = "edge3"; vars = [ 0; 1 ] }; { Cq.rel = "edge9"; vars = [ 2; 3 ] } ]
      ~free:[]
  in
  let weight = Ppr_core.Weighted.weights_from_database mixed_domain_db cq in
  Alcotest.(check (float 1e-6)) "3-color var" (Float.log2 3.0) (weight 0);
  Alcotest.(check (float 1e-6)) "9-color var" (Float.log2 9.0) (weight 2)

let test_weighted_order_prefers_light_scopes () =
  (* A 4-clique where two opposite vertices are heavy: the weighted
     order should eliminate light vertices first (highest positions). *)
  let cq =
    Cq.make
      ~atoms:
        [
          { Cq.rel = "edge9"; vars = [ 0; 2 ] };
          { Cq.rel = "edge3"; vars = [ 0; 1 ] };
          { Cq.rel = "edge3"; vars = [ 1; 2 ] };
          { Cq.rel = "edge3"; vars = [ 1; 3 ] };
          { Cq.rel = "edge3"; vars = [ 2; 3 ] };
          { Cq.rel = "edge3"; vars = [ 0; 3 ] };
        ]
      ~free:[]
  in
  let weight = Ppr_core.Weighted.weights_from_database mixed_domain_db cq in
  let order = Ppr_core.Weighted.variable_order ~weight cq in
  (* On a clique every elimination sees all remaining vertices, so the
     width is fixed; just check the result is a usable order. *)
  Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3 ]
    (List.sort compare (Array.to_list order));
  let plan = Ppr_core.Weighted.compile ~weight cq in
  check_bool "plan answers query" true (Plan.answers_query cq plan);
  check_bool "weighted evaluation agrees with unweighted" true
    (Exec.nonempty mixed_domain_db plan
    = Exec.nonempty mixed_domain_db (Bucket.compile cq))

let prop_weighted_reduces_to_unweighted =
  (* With unit weights the weighted induced width equals the plain one. *)
  qtest ~count:40 "unit weights = plain induced width" graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let order = Bucket.variable_order cq in
      Float.abs
        (Ppr_core.Weighted.weighted_induced_width cq ~weight:(fun _ -> 1.0) order
        -. float_of_int (Bucket.induced_width cq order))
      < 1e-9)

let prop_weighted_width_bounds_cardinality =
  qtest ~count:40 "2^weighted-width bounds intermediate cardinality"
    graph_arbitrary (fun g ->
      let cq = coloring_query g in
      let weight = Ppr_core.Weighted.weights_from_database coloring_db cq in
      let order = Ppr_core.Weighted.variable_order ~weight cq in
      let bound =
        Float.pow 2.0 (Ppr_core.Weighted.weighted_induced_width cq ~weight order)
      in
      let stats = Relalg.Stats.create () in
      ignore
        (Exec.run
           ~ctx:(Relalg.Ctx.create ~stats ())
           coloring_db (Bucket.compile ~order cq));
      (* Bucket joins include the eliminated variable, hence one extra
         factor of its domain. *)
      float_of_int (Relalg.Stats.max_cardinality stats) <= (bound *. 3.0) +. 1e-9)

let prop_weighted_evaluation_agrees =
  qtest ~count:40 "weighted plan computes the same answer" graph_arbitrary
    (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:(G.order g) g in
      let weight = Ppr_core.Weighted.weights_from_database coloring_db cq in
      Relation.equal_modulo_order
        (Exec.run coloring_db (Ppr_core.Weighted.compile ~weight cq))
        (Exec.run coloring_db (Bucket.compile cq)))

(* ------------------------------------------------------------------ *)
(* Streaming: Exec.stream and the cursor-based Driver paths            *)

(* Rows as sorted (variable, value) assignment lists, so answers from
   routes whose output schemas order the free variables differently
   still compare equal. *)
let assignment_row schema tup =
  List.sort compare
    (List.map
       (fun v -> (v, Relalg.Tuple.get tup (Relalg.Schema.index schema v)))
       (Relalg.Schema.attrs schema))

let assignment_rows rel =
  let schema = Relation.schema rel in
  List.sort_uniq compare
    (List.map (assignment_row schema) (Relation.to_sorted_list rel))

let streamed_rows meth db cq =
  let compiled = Driver.prepare meth db cq in
  let cur = Exec.stream ~semijoin:(Driver.exact_method meth) db cq compiled in
  let schema = Relalg.Cursor.schema cur in
  let rows = ref [] in
  Relalg.Cursor.iter (fun t -> rows := assignment_row schema t :: !rows) cur;
  List.sort_uniq compare !rows

let stream_methods =
  Driver.all_paper_methods
  @ [ Driver.Minibucket 2; Driver.Hybrid; Driver.Wcoj; Driver.Ghd ]

(* The tentpole property: draining Exec.stream yields exactly the tuples
   the materialized evaluator produces, for every method (Minibucket
   streams without the exact-answer semijoin reroute so its plan stays
   faithfully approximate, matching what Driver.run materializes). *)
let prop_stream_drains_to_materialized =
  qtest ~count:12 "stream drained = materialized run (all methods)"
    graph_arbitrary (fun g ->
      let cq =
        coloring_query ~mode:(Encode.Fraction 0.5)
          ~seed:(G.order g + G.size g)
          g
      in
      List.for_all
        (fun meth ->
          let expected =
            match (Driver.run meth coloring_db cq).Driver.result with
            | Some r -> assignment_rows r
            | None ->
              QCheck.Test.fail_reportf "%s: materialized run failed"
                (Driver.method_name meth)
          in
          let got = streamed_rows meth coloring_db cq in
          got = expected
          || QCheck.Test.fail_reportf "%s: stream %d rows, materialized %d"
               (Driver.method_name meth) (List.length got)
               (List.length expected))
        stream_methods)

(* Limit-k prefix soundness: every streamed tuple is in the full answer,
   the page is as large as the answer allows, and [complete] never lies
   (it may be conservatively false when the page exactly exhausts the
   stream, but true always means nothing was left behind). *)
let prop_stream_limit_prefix =
  qtest ~count:30 "limit-k pages are sound prefixes"
    QCheck.(pair graph_arbitrary (int_range 0 5))
    (fun (g, k) ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.5) ~seed:3 g in
      List.for_all
        (fun meth ->
          let full = Driver.run meth coloring_db cq in
          let page = Driver.run ~limit:k meth coloring_db cq in
          match (full.Driver.result, page.Driver.result) with
          | Some fr, Some pr ->
            let frows = assignment_rows fr and prows = assignment_rows pr in
            List.length prows = min k (List.length frows)
            && List.for_all (fun r -> List.mem r frows) prows
            && (not page.Driver.complete || prows = frows)
            && (page.Driver.complete || List.length prows = k)
          | _ -> false)
        [ Driver.Bucket_elimination; Driver.Wcoj; Driver.Ghd ])

(* A streamed binary route runs the materialized executor: on a cyclic
   query (no semijoin reroute), and on mini-bucket's approximate plans
   (reroute off), a drained stream and a materialized run under the same
   limits trip the same guard, charge the same tuples and, when they
   complete, measure the same intermediates and answer the same set. *)
let stream_vs_run_methods =
  [
    Driver.Straightforward;
    Driver.Early_projection;
    Driver.Reorder;
    Driver.Bucket_elimination;
    Driver.Hybrid;
    Driver.Minibucket 2;
  ]

let cyclic_graph_arbitrary =
  (* At least as many edges as vertices: never a forest. *)
  QCheck.make
    ~print:(Format.asprintf "%a" G.pp)
    QCheck.Gen.(
      int_range 3 8 >>= fun n ->
      int_range n (n * (n - 1) / 2) >>= fun m ->
      int_range 0 10_000 >>= fun seed -> return (random_graph ~seed ~n ~m))

let stream_vs_run_mismatch meth cq ~max_tuples ~max_total =
  let measured limit =
    let limits = Relalg.Limits.create ~max_tuples ~max_total () in
    let o =
      Driver.run ?limit ~ctx:(Relalg.Ctx.create ~limits ()) meth coloring_db cq
    in
    (o, Relalg.Limits.total_charged limits)
  in
  let s, s_charged = measured (Some max_int) and m, m_charged = measured None in
  let reason o = Option.map Relalg.Limits.describe (Driver.abort_reason o) in
  let differ what show a b =
    if a = b then None
    else Some (Printf.sprintf "%s: stream %s, run %s" what (show a) (show b))
  in
  let opt = Option.value ~default:"completed" in
  List.find_map Fun.id
    [
      differ "abort" opt (reason s) (reason m);
      differ "charged" string_of_int s_charged m_charged;
      (match (s.Driver.result, m.Driver.result) with
      | Some sr, Some mr ->
        List.find_map Fun.id
          [
            differ "max_arity" string_of_int s.Driver.max_arity m.Driver.max_arity;
            differ "max_cardinality" string_of_int s.Driver.max_cardinality
              m.Driver.max_cardinality;
            differ "tuples_produced" string_of_int s.Driver.tuples_produced
              m.Driver.tuples_produced;
            (if assignment_rows sr = assignment_rows mr then None
             else Some "answer sets differ");
          ]
      | _ -> None);
    ]

let prop_stream_runs_materialized_executor =
  qtest ~count:40 "streamed = materialized on binary routes"
    QCheck.(
      quad cyclic_graph_arbitrary (int_range 0 1000) (int_range 6 200)
        (int_range 30 1500))
    (fun (g, seed, max_tuples, max_total) ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.4) ~seed g in
      QCheck.assume
        (Hypergraphs.Jointree.build (Hypergraphs.Hypergraph.of_query cq) = None);
      List.for_all
        (fun meth ->
          match stream_vs_run_mismatch meth cq ~max_tuples ~max_total with
          | None -> true
          | Some what ->
            QCheck.Test.fail_reportf "%s: %s" (Driver.method_name meth) what)
        stream_vs_run_methods)

let test_stream_abort_mid_stream () =
  let g = Graphlib.Generators.augmented_ladder 12 in
  let cq = coloring_query ~mode:(Encode.Fraction 0.5) ~seed:1 g in
  (* A tuple cap the 6-tuple base relations cannot trip during eager
     setup, so the abort necessarily fires from a streamed join output —
     i.e. out of a pull, not out of [Exec.stream] itself. *)
  let limits = Relalg.Limits.create ~max_tuples:50 () in
  let compiled = Driver.prepare Driver.Straightforward coloring_db cq in
  let cur =
    Exec.stream
      ~ctx:(Relalg.Ctx.create ~limits ())
      coloring_db cq compiled
  in
  let aborted =
    try
      Relalg.Cursor.iter (fun _ -> ()) cur;
      false
    with Relalg.Limits.Abort _ -> true
  in
  check_bool "abort propagates out of a pull" true aborted;
  check_bool "cursor closed itself before raising" true
    (Relalg.Cursor.closed cur);
  (* The same abort through the driver is caught and typed, never raised. *)
  let o =
    Driver.run
      ~ctx:(Relalg.Ctx.create ~limits:(Relalg.Limits.create ~max_total:200 ()) ())
      ~limit:5 Driver.Straightforward coloring_db cq
  in
  check_bool "driver reports the streamed abort" true
    (Driver.abort_reason o <> None);
  check_bool "no partial page leaks" true (o.Driver.result = None)

let test_driver_stream_outcome () =
  let cq =
    coloring_query ~mode:(Encode.Fraction 0.6) ~seed:7 Graphlib.Generators.pentagon
  in
  let o = Driver.run ~limit:2 Driver.Bucket_elimination coloring_db cq in
  check_bool "streamed page completed" true (o.Driver.status = Driver.Completed);
  check_bool "first answer timed" true (o.Driver.first_answer_seconds <> None);
  check_bool "time to k timed" true (o.Driver.time_to_k <> None);
  Alcotest.(check (option int)) "page cardinality" (Some 2)
    (Driver.result_cardinality o);
  (* limit 0 is a legal empty page *)
  let z = Driver.run ~limit:0 Driver.Bucket_elimination coloring_db cq in
  Alcotest.(check (option int)) "empty page" (Some 0)
    (Driver.result_cardinality z);
  check_bool "no first answer on an empty page" true
    (z.Driver.first_answer_seconds = None);
  Alcotest.check_raises "a negative limit names no page"
    (Invalid_argument "Driver.run: limit must be 0 or more") (fun () ->
      ignore (Driver.run ~limit:(-1) Driver.Bucket_elimination coloring_db cq));
  (* unstreamed runs never fill the streaming fields *)
  let m = Driver.run Driver.Bucket_elimination coloring_db cq in
  check_bool "materialized run is complete" true m.Driver.complete;
  check_bool "materialized run has no stream timings" true
    (m.Driver.first_answer_seconds = None && m.Driver.time_to_k = None)

let test_driver_rank_topk () =
  let cq =
    coloring_query ~mode:(Encode.Fraction 0.6) ~seed:7
      (Graphlib.Generators.cycle 5)
  in
  let cmp = Relalg.Tuple.compare in
  let all = Driver.run ~rank:cmp Driver.Bucket_elimination coloring_db cq in
  let top = Driver.run ~rank:cmp ~limit:3 Driver.Bucket_elimination coloring_db cq in
  match (all.Driver.result, top.Driver.result) with
  | Some ar, Some tr ->
    check_bool "ranked full drain is complete" true all.Driver.complete;
    let a_tups = Relation.to_sorted_list ar in
    let t_tups = Relation.to_sorted_list tr in
    check_int "top-k size" (min 3 (List.length a_tups)) (List.length t_tups);
    check_bool "top-k tuples come from the full answer" true
      (List.for_all
         (fun t -> List.exists (fun u -> cmp u t = 0) a_tups)
         t_tups);
    let discarded =
      List.filter
        (fun t -> not (List.exists (fun u -> cmp u t = 0) t_tups))
        a_tups
    in
    check_bool "every kept tuple ranks before every discarded one" true
      (List.for_all
         (fun kept -> List.for_all (fun d -> cmp kept d <= 0) discarded)
         t_tups)
  | _ -> Alcotest.fail "ranked runs failed"

(* A streamed page is in head order whatever column order its route
   emits (a cyclic binary plan emits its own schema's): a ranked page
   under the tuple order is the head-ordered answer's sorted prefix. *)
let test_driver_rank_head_order () =
  let cq =
    (Conjunctive.Parse.query_exn
       "q(D,B,A) :- edge(A,B), edge(B,C), edge(C,D), edge(D,A), edge(A,C).")
      .Conjunctive.Parse.query
  in
  let free = cq.Conjunctive.Cq.free in
  List.iter
    (fun meth ->
      let full =
        match (Driver.run meth coloring_db cq).Driver.result with
        | Some r -> Relation.to_sorted_list_in r free
        | None -> Alcotest.fail "materialized run failed"
      in
      let page =
        Driver.run ~rank:Relalg.Tuple.compare ~limit:4 meth coloring_db cq
      in
      match page.Driver.result with
      | Some r ->
        let name = Driver.method_name meth in
        check_bool (name ^ ": page schema is the head") true
          (Relalg.Schema.equal (Relation.schema r)
             (Relalg.Schema.of_list free));
        check_bool (name ^ ": the sorted answer's prefix") true
          (List.rev (Relation.fold List.cons r [])
          = List.filteri (fun i _ -> i < 4) full);
        check_bool (name ^ ": answers left behind") false page.Driver.complete
      | None -> Alcotest.fail "ranked page failed")
    [
      Driver.Straightforward; Driver.Bucket_elimination; Driver.Wcoj;
      Driver.Ghd;
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)

let test_driver_outcome_fields () =
  let o = Driver.run Driver.Bucket_elimination coloring_db pentagon_cq in
  check_bool "not aborted" true (Driver.abort_reason o = None);
  check_bool "completed status" true (o.Driver.status = Driver.Completed);
  Alcotest.(check (option bool)) "pentagon colorable" (Some true)
    (Driver.nonempty o);
  check_bool "measured within plan width" true
    (o.Driver.max_arity <= o.Driver.plan_width);
  check_bool "times nonnegative" true
    (o.Driver.compile_seconds >= 0. && o.Driver.exec_seconds >= 0.)

let test_driver_timeout_reported () =
  let g = Graphlib.Generators.augmented_ladder 12 in
  let cq = coloring_query g in
  let limits = Relalg.Limits.create ~max_tuples:100 ~max_total:1000 () in
  let o =
    Driver.run ~ctx:(Relalg.Ctx.create ~limits ()) Driver.Straightforward
      coloring_db cq
  in
  check_bool "aborted" true (Driver.abort_reason o <> None);
  (match Driver.abort_reason o with
  | Some (Relalg.Limits.Cardinality _ | Relalg.Limits.Tuple_budget) -> ()
  | other ->
    Alcotest.failf "expected a resource abort reason, got %s"
      (match other with
      | None -> "Completed"
      | Some r -> Relalg.Limits.describe r));
  Alcotest.(check (option bool)) "no verdict" None (Driver.nonempty o);
  Alcotest.(check (option int)) "no cardinality" None (Driver.result_cardinality o)

let test_method_names () =
  Alcotest.(check string) "bucket" "bucket-elimination"
    (Driver.method_name Driver.Bucket_elimination);
  Alcotest.(check string) "minibucket" "minibucket(3)"
    (Driver.method_name (Driver.Minibucket 3));
  List.iter
    (fun meth ->
      let name = Driver.method_name meth in
      check_bool (name ^ " round-trips") true
        (Driver.method_of_string name = Some meth))
    (Driver.all_paper_methods
    @ [
        Driver.Minibucket 1;
        Driver.Minibucket 3;
        Driver.Hybrid;
        Driver.Hybrid_rank 0;
        Driver.Hybrid_rank 4;
        Driver.Wcoj;
        Driver.Ghd;
      ]);
  check_bool "minibucket:I spelling" true
    (Driver.method_of_string "minibucket:2" = Some (Driver.Minibucket 2));
  List.iter
    (fun bad ->
      check_bool (bad ^ " refused") true (Driver.method_of_string bad = None))
    [ "quantum"; "minibucket:0"; "minibucket(-1)"; "minibucket:2x"; "hybrid#";
      "naive(dp)"; "" ];
  check_int "five paper methods" 5 (List.length Driver.all_paper_methods)

(* ------------------------------------------------------------------ *)
(* Every method against the coloring oracle, one case per family       *)

let oracle_methods =
  all_methods
  @ [
      Driver.Minibucket 2;
      Driver.Hybrid;
      Driver.Hybrid_rank 1;
      Driver.Wcoj;
      Driver.Ghd;
    ]

let oracle_families =
  let module Gen = Graphlib.Generators in
  [
    ("triangle", Gen.cycle 3);
    ("pentagon", Gen.pentagon);
    ("K4 (not 3-colorable)", Gen.clique 4);
    ("path 6", Gen.path 6);
    ("cycle 6", Gen.cycle 6);
    ("star 5", Gen.star 5);
    ("grid 2x3", Gen.grid 2 3);
    ("ladder 3", Gen.ladder 3);
    ("augmented path 2", Gen.augmented_path 2);
    ("random n=7 m=12", random_graph ~seed:21 ~n:7 ~m:12);
  ]

(* Boolean verdict and free-variable answers both match the brute-force
   colorings. Minibucket plans are approximate by design, so for them
   the check is soundness: no proper coloring is ever missing. *)
let method_oracle_case meth (family, g) =
  Alcotest.test_case (Driver.method_name meth ^ ": " ^ family) `Quick
    (fun () ->
      let exact = match meth with Driver.Minibucket _ -> false | _ -> true in
      let run cq =
        match (Driver.run ~rng:(rng 3) meth coloring_db cq).Driver.result with
        | Some r -> r
        | None -> Alcotest.fail "run aborted without limits"
      in
      let colorable = brute_force_colorable g in
      let verdict = Relation.cardinality (run (coloring_query g)) > 0 in
      if exact then check_bool "Boolean verdict" colorable verdict
      else check_bool "Boolean verdict sound" true (verdict || not colorable);
      let cq = coloring_query ~mode:(Encode.Fraction 0.5) ~seed:(G.order g) g in
      let keep = cq.Cq.free in
      let expected = all_colorings g ~keep and got = rows_on (run cq) keep in
      if exact then
        Alcotest.(check (list (list int))) "free-variable answers" expected got
      else
        check_bool "every coloring kept" true
          (List.for_all (fun row -> List.mem row got) expected))

let method_oracle_suite =
  ( "method = oracle",
    List.concat_map
      (fun meth -> List.map (method_oracle_case meth) oracle_families)
      oracle_methods )


(* ------------------------------------------------------------------ *)
(* The gate's attempt                                                  *)

module Limits = Relalg.Limits

(* A query's answers by backtracking over its atoms' base rows, binding
   one variable at a time — no relational operator, planner or gate
   involved. Rows in head order, sorted; a Boolean query's answer is
   [[[]]] or [[]]. *)
let brute_answers db (cq : Cq.t) =
  let n = 1 + List.fold_left max 0 (Cq.vars cq) in
  let value = Array.make n None in
  let out = ref [] in
  let rec go = function
    | [] -> out := List.map (fun v -> Option.get value.(v)) cq.Cq.free :: !out
    | (a : Cq.atom) :: rest ->
      let rows =
        List.map Relalg.Tuple.to_list
          (Relation.to_list (Conjunctive.Database.find db a.Cq.rel))
      in
      List.iter
        (fun row ->
          let saved = Array.copy value in
          let fits =
            List.for_all2
              (fun v x ->
                match value.(v) with
                | Some y -> x = y
                | None ->
                  value.(v) <- Some x;
                  true)
              a.Cq.vars row
          in
          if fits then go rest;
          Array.blit saved 0 value 0 n)
        rows
  in
  go cq.Cq.atoms;
  List.sort_uniq compare !out

let head_rows cq rel =
  List.map Relalg.Tuple.to_list (Relation.to_sorted_list_in rel cq.Cq.free)

(* [random_instance]'s shapes, Boolean 3-COLOR, and augmented paths, on
   which the attempt runs out (the fig6 cell spends 1704 bindings where
   its ghd route allows 2^2.6). *)
let attempt_instance seed =
  let r = rng seed in
  match Graphlib.Rng.int r 4 with
  | 0 ->
    let n = 2 + Graphlib.Rng.int r 8 in
    let m = 1 + Graphlib.Rng.int r (n * (n - 1) / 2) in
    (coloring_db, coloring_query ~seed (Graphlib.Generators.random ~rng:r ~n ~m))
  | 1 ->
    family_instance Graphlib.Generators.augmented_path
      (3 + Graphlib.Rng.int r 5)
      (if Graphlib.Rng.bool r then free else Encode.Fraction 0.5)
      seed
  | _ -> random_instance seed

let gated_methods = [ Driver.Wcoj; Driver.Ghd ]

let prop_attempt_matches_oracle =
  qtest ~count:150 "gated methods = oracle, attempt answered or run out"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let db, cq = attempt_instance seed in
      let expected = brute_answers db cq in
      List.for_all
        (fun meth ->
          let compiled = Driver.prepare ~rng:(rng seed) meth db cq in
          let ctx () = Relalg.Ctx.create ~limits:(Limits.create ()) () in
          head_rows cq (Exec.materialize ~ctx:(ctx ()) db cq compiled) = expected
          && head_rows cq
               (Relalg.Cursor.to_relation
                  (Exec.stream ~ctx:(ctx ()) db cq compiled))
             = expected)
        gated_methods)

(* Both outcomes occur on the benchmark's cells, and the attempt's work
   is bounded as promised. *)
let test_attempt_outcomes () =
  let outcome name meth =
    let db, cq = List.assoc name paper_batch_instances in
    let compiled = Driver.prepare ~rng:(rng 1000) meth db cq in
    match Exec.attempt db cq compiled with
    | Some { Exec.answer = Some _; bindings; allowance; _ } ->
      check_bool (name ^ ": within the allowance") true (bindings <= allowance);
      "answered"
    | Some { Exec.answer = None; bindings; allowance; _ } ->
      check_int (name ^ ": all of it spent") allowance bindings;
      "exhausted"
    | None -> "none"
  in
  List.iter
    (fun (name, meth, expected) ->
      Alcotest.(check string)
        (name ^ " " ^ Driver.method_name meth)
        expected (outcome name meth))
    [
      ("fig4", Driver.Ghd, "answered");
      ("fig4", Driver.Wcoj, "answered");
      ("fig6", Driver.Ghd, "exhausted");
      ("fig8", Driver.Wcoj, "exhausted");
    ];
  (* With a route forced, and on other methods, nothing is tried. *)
  let db, cq = List.assoc "fig4" paper_batch_instances in
  List.iter
    (fun route ->
      check_bool ("forced " ^ Ghd.decision_name route ^ ": no attempt") true
        (Exec.attempt db cq (Driver.prepare ~rng:(rng 1000) ~route Driver.Ghd db cq)
        = None))
    [ Ghd.Bucket; Ghd.Generic; Ghd.Ghd ];
  check_bool "bucket elimination: no attempt" true
    (Exec.attempt db cq (Driver.prepare Driver.Bucket_elimination db cq) = None);
  (* The allowance never exceeds half the tuple budget the scans leave,
     so even a budget too small to answer is not tripped by the attempt. *)
  let scans = 6 * List.length cq.Cq.atoms in
  let limits = Limits.create ~max_total:(scans + 300) () in
  match
    Exec.attempt ~ctx:(Relalg.Ctx.create ~limits ()) db cq
      (Driver.prepare ~rng:(rng 1000) Driver.Wcoj db cq)
  with
  | Some a ->
    check_int "allowance = (remaining - scans) / 2" 150 a.Exec.allowance;
    check_bool "not enough to answer" true (a.Exec.answer = None)
  | None -> Alcotest.fail "fig4: the wcoj method tries the generic join"

(* A route run on its own, with no attempt before it. *)
let run_route ~ctx db cq = function
  | Exec.Binary plan -> Exec.run ~ctx db plan
  | Exec.Generic order -> Wcoj.evaluate ~ctx ~order db cq
  | Exec.Decomposition prep -> Ghd.evaluate ~ctx ~prep db cq

(* An attempt that runs out costs its scans and exactly its allowance;
   the chosen route then charges what it charges alone. *)
let test_attempt_charge () =
  List.iter
    (fun (name, meth) ->
      let db, cq = List.assoc name paper_batch_instances in
      let compiled = Driver.prepare ~rng:(rng 1000) meth db cq in
      let charged f =
        let limits = Limits.create () in
        let r = f (Relalg.Ctx.create ~limits ()) in
        (r, Limits.total_charged limits)
      in
      let tried, alone = charged (fun ctx -> Exec.attempt ~ctx db cq compiled) in
      let scans = scan_charge db cq in
      match tried with
      | Some { Exec.answer = None; allowance; _ } ->
        check_int (name ^ ": attempt = scans + allowance") (scans + allowance)
          alone;
        (* The route alone, run directly. *)
        let route = Exec.route db cq compiled in
        let forced, own = charged (fun ctx -> run_route ~ctx db cq route) in
        let got, total =
          charged (fun ctx -> Exec.materialize ~ctx db cq compiled)
        in
        check_int (name ^ ": total = attempt + the route's own charge")
          (alone + own) total;
        check_bool (name ^ ": the route's answer") true (Relation.equal forced got)
      | _ -> Alcotest.failf "%s: the attempt should run out" name)
    [ ("fig6", Driver.Ghd); ("fig6", Driver.Wcoj); ("fig8", Driver.Ghd);
      ("fig8", Driver.Wcoj) ]

(* A pool changes neither the outcome nor a row of the answer, for the
   binary methods and the gated ones. Grain 1 splits every join's probe
   side, however small. Each run has an artifact of its own: a replay
   would skip an attempt that ran out on the first. *)
let test_attempt_jobs () =
  let pool = Parallel.Pool.create ~num_domains:2 ~grain:1 () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.shutdown pool) @@ fun () ->
  List.iter
    (fun (name, (db, cq)) ->
      List.iter
        (fun meth ->
          let run ?pool () =
            let compiled = Driver.prepare ~rng:(rng 1000) meth db cq in
            let limits = Limits.create ~max_tuples:300_000 ~max_total:3_000_000 () in
            let o =
              Driver.run ~compiled ~ctx:(Relalg.Ctx.create ?pool ~limits ()) meth db cq
            in
            ( Option.map Relation.to_list o.Driver.result,
              Driver.abort_reason o,
              Limits.total_charged limits )
          in
          let label = name ^ " " ^ Driver.method_name meth in
          check_bool (label ^ ": jobs=1 = jobs=2, row for row") true
            (run () = run ~pool ()))
        (Driver.[ Straightforward; Early_projection; Reorder; Bucket_elimination ]
        @ gated_methods))
    paper_batch_instances

(* The ghd method's deferred artifact: the attempt runs first, within the
   smaller of the analysis's two bounds, and the decomposition search only
   when it runs out. Whichever way the attempt goes, the answers are the
   oracle's, the charge is exact, and the artifact resolves to the route
   of the very prep [Ghd.prepare] computes for the same rng. *)
let charged f =
  let limits = Limits.create () in
  let r = f (Relalg.Ctx.create ~limits ()) in
  (r, Limits.total_charged limits)

(* Preps compared as the search computed them: the analysis's record of
   exhausted attempts is run state, so a fresh prep's is left out. *)
let same_prep (p : Ghd.prep) (q : Ghd.prep) =
  { p with analysis = { p.analysis with ran_out = q.analysis.ran_out } } = q

let deferred_attempt db cq compiled =
  match (compiled, Exec.attempt db cq compiled) with
  | Driver.Deferred _, Some a -> a
  | _ -> Alcotest.fail "the ghd method defers its search behind an attempt"

let prop_deferred_matches_oracle =
  qtest ~count:150 "deferred ghd artifact: oracle, exact charge, prep"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let db, cq = attempt_instance seed in
      let expected = brute_answers db cq in
      let compiled = Driver.prepare ~rng:(rng seed) Driver.Ghd db cq in
      let tried, attempt_charge =
        charged (fun ctx -> Exec.attempt ~ctx db cq compiled)
      in
      let answer, total =
        charged (fun ctx -> Exec.materialize ~ctx db cq compiled)
      in
      let streamed =
        Relalg.Cursor.to_relation
          (Exec.stream ~ctx:(Relalg.Ctx.create ~limits:(Limits.create ()) ())
             db cq compiled)
      in
      let route = Exec.route db cq compiled in
      let charge_ok =
        match tried with
        | Some { Exec.answer = Some _; _ } -> total = attempt_charge
        | Some { Exec.answer = None; allowance; _ } ->
          (* The route run directly: its own charge. *)
          let _, own = charged (fun ctx -> run_route ~ctx db cq route) in
          attempt_charge = scan_charge db cq + allowance
          && total = attempt_charge + own
        | None -> false
      in
      let prep_ok =
        let p = Ghd.prepare ~rng:(rng seed) db cq in
        match route with
        | Exec.Decomposition prep -> same_prep prep p
        | r -> Exec.decision r = p.Ghd.decision
      in
      (match compiled with Driver.Deferred _ -> true | _ -> false)
      && head_rows cq answer = expected
      && head_rows cq streamed = expected
      && charge_ok && prep_ok)

(* The property above sees both outcomes: the first seeds already hold
   an attempt that answers and one that runs out. *)
let test_deferred_outcomes () =
  let outcomes =
    List.init 40 (fun seed ->
        let db, cq = attempt_instance seed in
        let compiled = Driver.prepare ~rng:(rng seed) Driver.Ghd db cq in
        (deferred_attempt db cq compiled).Exec.answer = None)
  in
  check_bool "an attempt answers" true (List.mem false outcomes);
  check_bool "an attempt runs out" true (List.mem true outcomes)

(* Two domains running, and so resolving, one exhausted artifact at
   once: the same route and answer on both, and nothing raises. *)
let test_deferred_race () =
  let db, cq = List.assoc "fig6" paper_batch_instances in
  for round = 1 to 4 do
    let compiled = Driver.prepare ~rng:(rng 1000) Driver.Ghd db cq in
    check_bool "the attempt runs out" true
      ((deferred_attempt db cq compiled).Exec.answer = None);
    let run () =
      let answer = Exec.materialize db cq compiled in
      (Exec.route db cq compiled, head_rows cq answer)
    in
    let other = Domain.spawn run in
    let mine = run () in
    let theirs = Domain.join other in
    check_bool (Printf.sprintf "round %d: same route and answer" round) true
      (mine = theirs);
    check_bool (Printf.sprintf "round %d: the route's answer" round) true
      (snd mine = head_rows cq (Ghd.evaluate db cq))
  done

(* A replay of an artifact whose attempt ran out skips it: the same
   answer, no bindings, and a charge lower by exactly the attempt's
   (its scans and its allowance). A larger allowance tries again. *)
let test_attempt_skipped_on_replay () =
  List.iter
    (fun (name, meth) ->
      let db, cq = List.assoc name paper_batch_instances in
      let label what = Printf.sprintf "%s %s: %s" name (Driver.method_name meth) what in
      let run_twice compiled =
        let run () =
          let heard = ref None in
          let r, total =
            charged (fun ctx ->
                Exec.materialize ~ctx ~on_attempt:(fun a -> heard := Some a) db cq compiled)
          in
          (head_rows cq r, total, !heard)
        in
        let first = run () in
        (first, run ())
      in
      let compiled = Driver.prepare ~rng:(rng 1000) meth db cq in
      let _, attempt_charge = charged (fun ctx -> Exec.attempt ~ctx db cq compiled) in
      let (rows, total, first), (rows', total', second) = run_twice compiled in
      (match first with
      | Some { Exec.answer = None; skipped = false; bindings; allowance } ->
        check_int (label "the first attempt runs out") allowance bindings
      | _ -> Alcotest.fail (label "the first run's attempt should run out"));
      (match second with
      | Some { Exec.skipped = true; bindings; answer; _ } ->
        check_int (label "no bindings on the replay") 0 bindings;
        check_bool (label "no answer from it") true (answer = None)
      | _ -> Alcotest.fail (label "the replay's attempt should be skipped"));
      check_bool (label "the same answer") true (rows = rows');
      check_int (label "lower by exactly the attempt's charge") attempt_charge
        (total - total');
      (* A stream of the same artifact skips it too. *)
      let streamed = ref None in
      let cur =
        Exec.stream ~ctx:(Relalg.Ctx.create ~limits:(Limits.create ()) ())
          ~on_attempt:(fun a -> streamed := Some a.Exec.skipped) db cq compiled
      in
      check_bool (label "the stream's answer") true
        (head_rows cq (Relalg.Cursor.to_relation cur) = rows);
      check_bool (label "the stream skips it") true (!streamed = Some true);
      (* An allowance that grows tries again: a first run under a budget
         that halves it, then one under the default budget. *)
      let fresh = Driver.prepare ~rng:(rng 1000) meth db cq in
      let small = scan_charge db cq + 8 in
      let skipped limits =
        let heard = ref None in
        (try
           ignore
             (Exec.materialize ~ctx:(Relalg.Ctx.create ~limits ())
                ~on_attempt:(fun a -> heard := Some a.Exec.skipped) db cq fresh)
         with Limits.Abort _ -> ());
        !heard
      in
      check_bool (label "a small allowance runs out") true
        (skipped (Limits.create ~max_total:small ()) = Some false);
      check_bool (label "a larger one tries again") true
        (skipped (Limits.create ()) = Some false);
      check_bool (label "then a smaller one skips") true
        (skipped (Limits.create ~max_total:small ()) = Some true))
    [ ("fig6", Driver.Ghd); ("fig6", Driver.Wcoj); ("fig8", Driver.Ghd);
      ("fig8", Driver.Wcoj) ]

(* Driver.run names a skipped attempt on its exec span and counts it. *)
let test_attempt_skipped_label () =
  let db, cq = List.assoc "fig6" paper_batch_instances in
  let compiled = Driver.prepare ~rng:(rng 1000) Driver.Ghd db cq in
  let labels =
    List.init 2 (fun _ ->
        let sink, spans = Telemetry.Sink.memory () in
        let t = Telemetry.create sink in
        ignore (Driver.run ~compiled ~ctx:(Relalg.Ctx.create ~telemetry:t ()) Driver.Ghd db cq);
        Telemetry.close t;
        List.filter_map
          (fun s ->
            if Telemetry.Span.name s = "exec:ghd" then Telemetry.Span.attr s "gate.attempt"
            else None)
          (spans ()))
  in
  check_bool "exhausted, then skipped" true
    (labels
    = [ [ Telemetry.Attr.String "exhausted" ]; [ Telemetry.Attr.String "skipped" ] ])

(* The fused join-project kernel leaves [Exec.run] observing what the
   unfused evaluation does: every node, the join under a projection
   with the join's size, in post-order, and the same answer row for
   row. *)
let rec unfused_run ~observe db plan =
  let result =
    match plan with
    | Plan.Atom atom -> Conjunctive.Database.eval_atom db atom
    | Plan.Join (l, r) ->
      let rl = unfused_run ~observe db l in
      let rr = unfused_run ~observe db r in
      Relalg.Ops.natural_join rl rr
    | Plan.Project (sub, kept) ->
      let rs = unfused_run ~observe db sub in
      Relalg.Ops.project rs
        (Relalg.Schema.restrict (Relation.schema rs) ~keep:(fun v -> List.mem v kept))
  in
  observe plan (Relation.cardinality result);
  result

let binary_methods =
  Driver.
    [
      Naive Naive.default_search; Straightforward; Early_projection; Reorder;
      Bucket_elimination; Minibucket 2; Hybrid;
    ]

let prop_fused_observations =
  qtest ~count:100 "fused run observes as the unfused one"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))
    (fun seed ->
      let db, cq = random_instance seed in
      List.for_all
        (fun meth ->
          let plan = Driver.compile ~rng:(rng seed) meth db cq in
          let seen f =
            let acc = ref [] in
            let r = f (fun node n -> acc := (node, n) :: !acc) in
            (List.init (Relation.cardinality r) (Relalg.Arena.read (Relation.arena r)),
             List.rev !acc)
          in
          seen (fun observe -> Exec.run ~observe db plan)
          = seen (fun observe -> unfused_run ~observe db plan))
        binary_methods)

(* The harvest a run hands its observer equals the reference walk
   ([Reference_harvest]) over the node cardinalities the executor reports
   for the same plan under the same caps: the same keys in the same order
   and the same float bits, the prefix of an aborted run included, on
   acyclic and cyclic queries with random free sets. Under PPR_JOBS above
   1 the driver's runs go through a pool of that width. *)
let harvest_mismatch ?pool ~max_tuples ~max_total meth db cq compiled =
  let limits () = Relalg.Limits.create ~max_tuples ~max_total () in
  let harvested = ref [] in
  let o =
    Driver.run ~compiled
      ~observer:(fun obs -> harvested := !harvested @ obs)
      ~ctx:(Relalg.Ctx.create ?pool ~limits:(limits ()) ())
      meth db cq
  in
  let env = Cost.environment db cq in
  let nodes =
    match compiled with
    | Driver.Plan plan ->
      let cards = ref [] in
      (try
         ignore
           (Exec.run
              ~ctx:(Relalg.Ctx.create ~limits:(limits ()) ())
              ~observe:(fun _ n -> cards := n :: !cards)
              db plan)
       with Relalg.Limits.Abort _ -> ());
      Reference_harvest.node_observations ~env cq plan (Array.of_list (List.rev !cards))
    | _ -> []
  in
  let query =
    match (o.Driver.status, o.Driver.result) with
    | Driver.Completed, Some r -> Reference_harvest.query_observation ~env cq r
    | _ -> []
  in
  let bits { Cost.key; measured; estimated } =
    (key, Int64.bits_of_float measured, Int64.bits_of_float estimated)
  in
  if List.map bits !harvested = List.map bits (nodes @ query) then None
  else
    Some
      (Printf.sprintf "%d observations harvested, %d in the reference"
         (List.length !harvested)
         (List.length (nodes @ query)))

let harvest_arbitrary =
  QCheck.make
    ~print:(fun (g, seed, free, (max_tuples, max_total)) ->
      Format.asprintf "%a seed=%d free=%.2f max_tuples=%d max_total=%d" G.pp g seed
        free max_tuples max_total)
    QCheck.Gen.(
      int_range 3 8 >>= fun n ->
      int_range (n - 1) (n * (n - 1) / 2) >>= fun m ->
      int_range 0 10_000 >>= fun seed ->
      oneofl [ 0.; 0.25; 0.5; 1. ] >>= fun free ->
      int_range 6 400 >>= fun max_tuples ->
      int_range 20 4000 >>= fun max_total ->
      return (random_graph ~seed ~n ~m, seed, free, (max_tuples, max_total)))

let test_harvest_matches_reference () =
  let pool =
    match Option.bind (Sys.getenv_opt "PPR_JOBS") (fun s -> int_of_string_opt (String.trim s)) with
    | Some jobs when jobs > 1 -> Some (Parallel.Pool.create ~num_domains:jobs ~grain:1 ())
    | _ -> None
  in
  Fun.protect ~finally:(fun () -> Option.iter Parallel.Pool.shutdown pool)
  @@ fun () ->
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:150 ~name:"harvest = reference walk" harvest_arbitrary
       (fun (g, seed, free, (max_tuples, max_total)) ->
         let mode = if free = 0. then Encode.Boolean else Encode.Fraction free in
         let cq = coloring_query ~mode ~seed g in
         List.for_all
           (fun meth ->
             let compiled = Driver.prepare ~rng:(rng seed) meth coloring_db cq in
             match
               harvest_mismatch ?pool ~max_tuples ~max_total meth coloring_db cq compiled
             with
             | None -> true
             | Some what ->
               QCheck.Test.fail_reportf "%s: %s" (Driver.method_name meth) what)
           (binary_methods @ Driver.[ Wcoj; Ghd ])))

let () =
  Alcotest.run "core"
    [
      ( "plan",
        [
          Alcotest.test_case "schema" `Quick test_plan_schema;
          Alcotest.test_case "width and counts" `Quick test_plan_width_counts;
          Alcotest.test_case "helpers" `Quick test_plan_helpers;
          Alcotest.test_case "answers_query" `Quick test_answers_query;
        ] );
      ( "exec",
        [
          Alcotest.test_case "boolean result" `Quick test_exec_boolean_result;
          Alcotest.test_case "stats measure width" `Quick
            test_exec_stats_measure_width;
        ] );
      ( "cost",
        [
          Alcotest.test_case "environment" `Quick test_cost_environment;
          Alcotest.test_case "estimates" `Quick test_cost_estimates;
          Alcotest.test_case "order cost" `Quick test_order_cost_matches_plan_cost;
        ] );
      ( "naive",
        [
          Alcotest.test_case "dp quality" `Quick test_dp_beats_bad_orders;
          Alcotest.test_case "genetic validity" `Quick test_genetic_order_valid;
          Alcotest.test_case "genetic quality" `Quick
            test_genetic_improves_over_median_random;
          Alcotest.test_case "compile structure" `Quick
            test_naive_compile_structure;
          prop_bushy_never_beats_nothing;
          prop_bushy_correct;
          Alcotest.test_case "bushy cap" `Quick test_bushy_rejects_large;
          Alcotest.test_case "genetic parameter validation" `Quick
            test_genetic_rejects_bad_params;
          prop_worst_tree_matches_scan;
        ] );
      ( "plan identity",
        [
          prop_order_cost_bit_identical;
          Alcotest.test_case "paper-batch cells" `Quick
            (test_plan_identity paper_batch_instances);
          Alcotest.test_case "Figure 2 densities" `Quick
            (test_plan_identity figure2_instances);
          Alcotest.test_case "3-COLOR orders" `Quick
            (test_plan_identity coloring_order_instances);
          Alcotest.test_case "more than 62 variables" `Quick
            test_plan_identity_wide;
        ] );
      ( "gate attempt",
        [
          prop_attempt_matches_oracle;
          Alcotest.test_case "outcomes" `Quick test_attempt_outcomes;
          Alcotest.test_case "charge when it runs out" `Quick test_attempt_charge;
          Alcotest.test_case "jobs=1 = jobs=2" `Quick test_attempt_jobs;
          prop_deferred_matches_oracle;
          Alcotest.test_case "deferred: both outcomes" `Quick test_deferred_outcomes;
          Alcotest.test_case "deferred: racing domains" `Quick test_deferred_race;
          Alcotest.test_case "skipped on replay" `Quick test_attempt_skipped_on_replay;
          Alcotest.test_case "skipped: exec span label" `Quick test_attempt_skipped_label;
          prop_fused_observations;
        ] );
      ( "feedback harvest",
        [
          Alcotest.test_case "harvest = reference walk" `Quick
            test_harvest_matches_reference;
        ] );
      ( "method agreement",
        [
          prop_methods_agree_boolean;
          prop_methods_agree_non_boolean;
          prop_non_boolean_matches_oracle;
          prop_methods_widths_ordered;
        ] );
      ( "early projection & reordering",
        [
          Alcotest.test_case "live_after" `Quick test_live_after;
          Alcotest.test_case "path stays narrow" `Quick
            test_early_projection_on_path;
          Alcotest.test_case "greedy picks unique vars" `Quick
            test_reorder_permutation_greedy;
          Alcotest.test_case "deterministic" `Quick
            test_reorder_deterministic_without_rng;
        ] );
      ( "bucket elimination",
        [
          Alcotest.test_case "order validation" `Quick
            test_bucket_order_rejects_non_permutation;
          Alcotest.test_case "pentagon widths" `Quick test_bucket_pentagon_width;
          prop_theorem2;
          prop_mcs_induced_width_at_least_treewidth;
          prop_bucket_plan_width_is_induced_width_plus_one;
        ] );
      ( "mini-buckets",
        [
          Alcotest.test_case "validation" `Quick test_minibucket_validation;
          Alcotest.test_case "width capped" `Quick test_minibucket_width_capped;
          prop_minibucket_sound_on_empty;
          prop_minibucket_exact_at_high_bound;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "portfolio" `Quick test_hybrid_candidates_sorted;
          prop_hybrid_agrees;
          prop_hybrid_no_wider_than_mcs_bucket;
        ] );
      ( "semijoin reduction",
        [
          prop_semijoin_useless_on_coloring;
          Alcotest.test_case "selective chain" `Quick
            test_semijoin_helps_on_selective_instance;
          prop_semijoin_preserves_answers;
        ] );
      ( "explain",
        [
          Alcotest.test_case "pentagon" `Quick test_explain_pentagon;
          prop_explain_tree_mirrors_plan;
          Alcotest.test_case "misestimate detection" `Quick
            test_explain_detects_misestimates;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "weights from database" `Quick
            test_weights_from_database;
          Alcotest.test_case "mixed-domain order" `Quick
            test_weighted_order_prefers_light_scopes;
          prop_weighted_reduces_to_unweighted;
          prop_weighted_width_bounds_cardinality;
          prop_weighted_evaluation_agrees;
        ] );
      ( "stream",
        [
          prop_stream_drains_to_materialized;
          prop_stream_limit_prefix;
          prop_stream_runs_materialized_executor;
          Alcotest.test_case "abort propagates mid-stream" `Quick
            test_stream_abort_mid_stream;
          Alcotest.test_case "streamed outcome fields" `Quick
            test_driver_stream_outcome;
          Alcotest.test_case "rank top-k" `Quick test_driver_rank_topk;
          Alcotest.test_case "ranked page in head order" `Quick
            test_driver_rank_head_order;
        ] );
      ( "driver",
        [
          Alcotest.test_case "outcome fields" `Quick test_driver_outcome_fields;
          Alcotest.test_case "timeout reported" `Quick
            test_driver_timeout_reported;
          Alcotest.test_case "method names" `Quick test_method_names;
        ] );
      method_oracle_suite;
    ]
