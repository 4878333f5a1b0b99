(* The instances the gate goldens run: perfbench's paper-batch cells
   (one instance each, figure seed 1000) and paper-heavy-jobs2's cells
   (figure seeds 1000..1002), generated exactly as the figure harness
   does and prepared with [Rng.make fig_seed]; two cliques, where the
   generic join wins; and serve-cold-shaped queries (random 3-COLOR,
   order 12, 30 edges, two free variables, and two Boolean variants)
   canonicalized and prepared as the serving engine does. *)

module Encode = Conjunctive.Encode
module Rng = Graphlib.Rng
module Gen = Graphlib.Generators

let free = Encode.Fraction 0.2
let color_db = Encode.coloring_database ()

let random_color ~n ~density ~mode seed =
  let rng = Rng.make seed in
  let m =
    max 1
      (min (int_of_float (Float.round (density *. float_of_int n))) (n * (n - 1) / 2))
  in
  let g = Gen.random ~rng ~n ~m in
  (color_db, Encode.coloring_query_of_graph ~mode ~rng:(Rng.split rng) g)

let structured ~family ~n ~mode seed =
  (color_db, Encode.coloring_query_of_graph ~mode ~rng:(Rng.make seed) (family n))

let sat ~k ~num_vars ~density seed =
  let rng = Rng.make seed in
  let num_clauses = max 1 (int_of_float (density *. float_of_int num_vars)) in
  let cnf = Conjunctive.Cnf.random_ksat ~rng ~k ~num_vars ~num_clauses in
  (Encode.sat_database cnf, Encode.sat_query ~mode:Encode.Boolean cnf)

let paper_cells =
  [
    ("fig2/3-sat/v5/d4", [ 1000 ], sat ~k:3 ~num_vars:5 ~density:4.);
    ("fig3/random/n20/d1/bool", [ 1000 ], random_color ~n:20 ~density:1. ~mode:Encode.Boolean);
    ("fig4/random/n25/d3/free", [ 1000; 1001; 1002 ], random_color ~n:25 ~density:3. ~mode:free);
    ("fig4/random/n30/d3/free", [ 1000; 1001; 1002 ], random_color ~n:30 ~density:3. ~mode:free);
    ("fig5/random/n15/d6/bool", [ 1000 ], random_color ~n:15 ~density:6. ~mode:Encode.Boolean);
    ("fig6/aug-path/n10/free", [ 1000 ], structured ~family:Gen.augmented_path ~n:10 ~mode:free);
    ("fig7/ladder/n10/bool", [ 1000 ], structured ~family:Gen.ladder ~n:10 ~mode:Encode.Boolean);
    ("fig8/aug-ladder/n5/free", [ 1000 ], structured ~family:Gen.augmented_ladder ~n:5 ~mode:free);
    ( "fig9/aug-circ-ladder/n5/bool",
      [ 1000 ],
      structured ~family:Gen.augmented_circular_ladder ~n:5 ~mode:Encode.Boolean );
    ("sec7/3-sat/v20/d1", [ 1000 ], sat ~k:3 ~num_vars:20 ~density:1.);
    ("sec7/2-sat/v20/d2", [ 1000 ], sat ~k:2 ~num_vars:20 ~density:2.);
    (* Dense queries, where the AGM bound beats the binary plan's worst
       case and the generic join wins the gate. *)
    ("clique/n4/free", [ 1000 ], structured ~family:Gen.clique ~n:4 ~mode:(Encode.Fraction 0.5));
    ("clique/n5/bool", [ 1000 ], structured ~family:Gen.clique ~n:5 ~mode:Encode.Boolean);
  ]

(* serve-cold's request shape: the graph and head drawn as its generator
   draws them, the query canonicalized as the engine canonicalizes it. *)
let serve_cold ~boolean seed =
  let rng = Rng.make seed in
  let g = Gen.random ~rng ~n:12 ~m:30 in
  let used = List.filter (fun v -> Graphlib.Graph.degree g v > 0) (Graphlib.Graph.vertices g) in
  let head = List.filteri (fun i _ -> i < 2) (Rng.shuffle_list rng used) in
  let head = if boolean then [] else head in
  let name = Printf.sprintf "X%d" in
  let text =
    Printf.sprintf "q(%s) :- %s."
      (String.concat "," (List.map name head))
      (String.concat ", "
         (List.map
            (fun (a, b) -> Printf.sprintf "edge(%s,%s)" (name a) (name b))
            (Graphlib.Graph.edges g)))
  in
  let parsed = Conjunctive.Parse.query_exn text in
  (Hypergraphs.Canon.canonicalize parsed.Conjunctive.Parse.query).Hypergraphs.Canon.query

(* Every instance in print order: its name, the rng its methods are
   prepared with (a fresh one per call), its database and query. *)
let all =
  List.concat_map
    (fun (cell, seeds, make) ->
      List.map
        (fun seed ->
          let db, cq = make seed in
          (Printf.sprintf "%s/s%d" cell seed, (fun () -> Rng.make seed), db, cq))
        seeds)
    paper_cells
  @ List.map
      (fun (boolean, seed) ->
        ( Printf.sprintf "serve-cold/%s/s%d" (if boolean then "bool" else "free") seed,
          (fun () -> Rng.make 17),
          color_db,
          serve_cold ~boolean seed ))
      (List.init 8 (fun i -> (false, i + 1)) @ [ (true, 1); (true, 2) ])
