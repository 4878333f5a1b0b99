(* Prints the naive planner's choices on Figure 2's instances — 3-SAT
   over 5 variables at densities 1..8, figure seeds 1000..1002 — with
   the cost model's textbook estimates and under a fixed synthetic
   feedback: exhaustive DP (left-deep up to Figure 2's 20-join cutoff,
   bushy up to 10), GEQO at its default sizing, and the gradient
   planner. Each line carries the chosen order (or bushy plan) and its
   estimated cost in hexadecimal float notation, so any change to the
   search or to the cost arithmetic shows up as a diff against
   [naive_plans.expected]. Density 4 is also perfbench's paper-batch
   fig2 cell, compiled with the default search. *)

module Cq = Conjunctive.Cq
module Encode = Conjunctive.Encode
module Cost = Ppr_core.Cost
module Naive = Ppr_core.Naive
module Plan = Ppr_core.Plan

(* Deterministic, key-dependent correction factors in [0.25, 4]: they
   make the domains unequal, so ties the textbook model leaves open are
   broken differently than without feedback. *)
let synthetic_feedback key = Some (0.25 *. float_of_int (1 + (Hashtbl.hash key mod 16)))

(* Figure 2's exhaustive-search cutoff. *)
let dp_atom_limit = 20

let ints a = String.concat " " (Array.to_list (Array.map string_of_int a))

let () =
  List.iter
    (fun density ->
      List.iter
        (fun seed ->
          let num_vars = 5 in
          let m = int_of_float (density *. float_of_int num_vars) in
          let cnf =
            Conjunctive.Cnf.random_ksat ~rng:(Graphlib.Rng.make seed) ~k:3
              ~num_vars ~num_clauses:m
          in
          let db = Encode.sat_database cnf in
          let cq = Encode.sat_query ~mode:Encode.Boolean cnf in
          let atoms = Array.of_list cq.Cq.atoms in
          List.iter
            (fun (fb_name, feedback) ->
              let env = Cost.environment ?feedback db cq in
              let line search detail cost =
                Printf.printf "d%g s%d %s %s cost=%h [%s]\n" density seed fb_name
                  search cost detail
              in
              let order name perm = line name (ints perm) (Cost.order_cost env atoms perm) in
              if m <= dp_atom_limit then order "dp" (Naive.dp_order env atoms);
              order "geqo"
                (Naive.genetic_order { Naive.default_genetic with seed } env atoms);
              order "grad" (Adapt.Grad.order env atoms);
              if m <= 10 then begin
                let plan = Naive.dp_bushy_plan env atoms in
                line "bushy" (Format.asprintf "%a" (Plan.pp ()) plan)
                  (Cost.plan_cost env plan)
              end;
              if density = 4. then begin
                let plan = Naive.compile ?feedback db cq in
                line "paper-batch" (Format.asprintf "%a" (Plan.pp ()) plan)
                  (Cost.plan_cost env plan)
              end)
            [ ("textbook", None); ("feedback", Some synthetic_feedback) ])
        [ 1000; 1001; 1002 ])
    [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ]
