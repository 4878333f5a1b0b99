(* Scientific regression tests: the paper's headline orderings, pinned
   on small deterministic instances so a refactor that silently breaks
   an optimization (rather than its correctness) still fails the suite.
   All quantities are tuple counts and widths — no wall-clock, so the
   assertions are machine-independent. *)

open Helpers
module Driver = Ppr_core.Driver
module Encode = Conjunctive.Encode

let produced ?limits meth cq =
  let ctx =
    match limits with
    | Some limits -> Relalg.Ctx.create ~limits ()
    | None -> Relalg.Ctx.null
  in
  (Driver.run ~ctx meth coloring_db cq).Driver.tuples_produced

(* plan_width is analytic, so a tight cap keeps this cheap even for the
   straightforward plans whose execution would materialize millions. *)
let width meth cq =
  (Driver.run
     ~ctx:
       (Relalg.Ctx.create
          ~limits:(Relalg.Limits.create ~max_tuples:10_000 ())
          ())
     meth coloring_db cq)
    .Driver.plan_width

let boolean_query g = coloring_query ~mode:Encode.Boolean g

(* ------------------------------------------------------------------ *)
(* Underconstrained random instances: every method strictly improves
   on the previous one (the low-density regime of Figure 3).           *)

let test_method_ladder_on_sparse_instances () =
  List.iter
    (fun seed ->
      let g = random_graph ~seed ~n:14 ~m:14 in
      let cq = boolean_query g in
      let sf = produced Driver.Straightforward cq in
      let ep = produced Driver.Early_projection cq in
      let be = produced Driver.Bucket_elimination cq in
      check_bool
        (Printf.sprintf "seed %d: early projection beats straightforward" seed)
        true (ep < sf);
      check_bool
        (Printf.sprintf "seed %d: bucket elimination beats early projection"
           seed)
        true (be < ep);
      (* A 10x gap at this size, not a marginal win. *)
      check_bool (Printf.sprintf "seed %d: the gap is large" seed) true
        (sf > 10 * be))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* The 3-colorability phase transition sits where it should.           *)

let test_phase_transition () =
  let colorable_at density =
    List.filter
      (fun seed ->
        let g = random_graph ~seed ~n:14 ~m:(int_of_float (14. *. density)) in
        brute_force_colorable g)
      [ 1; 2; 3; 4; 5 ]
    |> List.length
  in
  check_int "density 1.0: all colorable" 5 (colorable_at 1.0);
  check_int "density 5.0: none colorable" 0 (colorable_at 5.0)

(* ------------------------------------------------------------------ *)
(* Structured families: widths equal the theory's values and the
   straightforward blow-up is super-linear (Figures 6-9).              *)

let test_augmented_ladder_widths () =
  List.iter
    (fun n ->
      let cq = boolean_query (Graphlib.Generators.augmented_ladder n) in
      (* treewidth 2 => bucket elimination width 3. *)
      check_int
        (Printf.sprintf "order %d: bucket width = tw+1" n)
        3
        (width Driver.Bucket_elimination cq);
      check_int
        (Printf.sprintf "order %d: early projection width" n)
        4
        (width Driver.Early_projection cq);
      check_int
        (Printf.sprintf "order %d: straightforward width = all vars" n)
        (Conjunctive.Cq.var_count cq)
        (width Driver.Straightforward cq))
    [ 3; 4; 5; 6 ]

let test_augmented_path_widths () =
  let cq = boolean_query (Graphlib.Generators.augmented_path 10) in
  (* A tree: treewidth 1 => bucket elimination width 2. *)
  check_int "bucket width on a tree" 2 (width Driver.Bucket_elimination cq)

let test_straightforward_blowup_superlinear () =
  let limits () = Relalg.Limits.create ~max_tuples:2_000_000 () in
  let sf n =
    produced ~limits:(limits ())
      Driver.Straightforward
      (boolean_query (Graphlib.Generators.augmented_ladder n))
  in
  let be n =
    produced Driver.Bucket_elimination
      (boolean_query (Graphlib.Generators.augmented_ladder n))
  in
  check_bool "straightforward explodes from order 4 to 5" true
    (sf 5 > 10 * sf 4);
  check_bool "bucket elimination grows gently" true (be 5 < 2 * be 4)

(* ------------------------------------------------------------------ *)
(* Permutation invariance: answers don't depend on how the atoms are
   listed (only performance does).                                     *)

let test_atom_permutation_invariance () =
  let g = random_graph ~seed:7 ~n:10 ~m:15 in
  let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:7 g in
  let reference =
    Ppr_core.Exec.run coloring_db (Ppr_core.Bucket.compile cq)
  in
  let rng = rng 13 in
  for _ = 1 to 5 do
    let perm = Array.init (Conjunctive.Cq.atom_count cq) Fun.id in
    Graphlib.Rng.shuffle rng perm;
    let permuted = Conjunctive.Cq.permute_atoms cq perm in
    List.iter
      (fun meth ->
        let result =
          Ppr_core.Exec.run coloring_db (Driver.compile meth coloring_db permuted)
        in
        check_bool "same answers under permutation" true
          (Relalg.Relation.equal_modulo_order reference result))
      [ Driver.Straightforward; Driver.Early_projection; Driver.Bucket_elimination ]
  done

(* ------------------------------------------------------------------ *)
(* Width accounting is honest: the executor's measured arity never
   exceeds the plan's analytic width.                                  *)

let prop_measured_within_analytic =
  qtest ~count:50 "measured max arity <= plan width" graph_arbitrary (fun g ->
      let cq = coloring_query ~mode:(Encode.Fraction 0.2) ~seed:(G.size g) g in
      List.for_all
        (fun meth ->
          let o = Driver.run meth coloring_db cq in
          o.Driver.max_arity <= o.Driver.plan_width)
        [
          Driver.Straightforward; Driver.Early_projection; Driver.Reorder;
          Driver.Bucket_elimination; Driver.Hybrid; Driver.Wcoj; Driver.Ghd;
        ])

module G = Graphlib.Graph

let () =
  Alcotest.run "regression"
    [
      ( "figure shapes",
        [
          Alcotest.test_case "method ladder on sparse instances" `Quick
            test_method_ladder_on_sparse_instances;
          Alcotest.test_case "phase transition" `Quick test_phase_transition;
          Alcotest.test_case "augmented-ladder widths" `Quick
            test_augmented_ladder_widths;
          Alcotest.test_case "augmented-path widths" `Quick
            test_augmented_path_widths;
          Alcotest.test_case "straightforward blow-up" `Quick
            test_straightforward_blowup_superlinear;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "atom permutation invariance" `Quick
            test_atom_permutation_invariance;
          prop_measured_within_analytic;
        ] );
    ]
