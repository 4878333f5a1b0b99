(* Decomposition gate ("ghd_comparison"): GHD-Yannakakis against bucket
   elimination. Two checks:

   - Speedup on the cyclic low-htw panel, enforced where it is promised:
     on the NxN grid the induced width grows like N while the hypertree
     width grows like N/2 — each bag's cover joins far fewer tuples than
     the bucket plan's widest intermediate — so the gate must route the
     grid to the decomposition and the decomposition must also be faster
     than the bucket plan (3x+ at N=6, 25x+ at N=7; below N=6 both run
     in microseconds and fixed overhead dominates, which is why the
     panel is N=6). The 1.1x threshold is only enforced when the gate
     actually picked Ghd on that panel.

   - Parallel sweep check: the gated evaluation of every sweep cell
     through Sweep.map_cells under a 4-domain pool must give the
     sequential cardinalities and must not be slower
     ([Harness.pooled_sweep]).

   That the forced decomposition evaluator, the three-bound gated path
   and bucket elimination produce the same tuples on these cells is a
   tier-1 test (test/test_ghd.ml, the "gate sweep" cases). *)

module Encode = Conjunctive.Encode
module Relation = Relalg.Relation
module Driver = Ppr_core.Driver
module Gen = Graphlib.Generators

let order = 6
let reps = 3
let threshold = 1.1

let rng seed = Graphlib.Rng.make seed

let coloring ~mode ~seed g =
  let db = Encode.coloring_database () in
  let cq = Encode.coloring_query_of_graph ~mode ~rng:(rng (seed + 71)) g in
  (db, cq)

(* Random densities 2/5/8 x seeds 1-3 x Boolean/30%-free at order 10,
   plus the structured Figure 1 families. *)
let cells =
  let modes = [ Encode.Boolean; Encode.Fraction 0.3 ] in
  List.concat_map
    (fun density ->
      List.concat_map
        (fun seed ->
          List.map
            (fun mode ->
              (mode, seed, Gen.random ~rng:(rng seed) ~n:10 ~m:(density * 5)))
            modes)
        [ 1; 2; 3 ])
    [ 2; 5; 8 ]
  @ [
      (Encode.Boolean, 1, Gen.path 8);
      (Encode.Fraction 0.3, 1, Gen.cycle 7);
      (Encode.Boolean, 1, Gen.ladder 4);
      (Encode.Fraction 0.3, 1, Gen.augmented_ladder 4);
      (Encode.Boolean, 1, Gen.clique 5);
    ]

(* The ghd method's artifact through the one materializing dispatcher
   (the generic join's attempt, then the three-bound gate's route when
   it runs out), as Driver.run takes it but with the relation back. *)
let gated_cardinality (mode, seed, g) =
  let db, cq = coloring ~mode ~seed g in
  Relation.cardinality
    (Ppr_core.Exec.materialize db cq
       (Driver.prepare ~rng:(rng 11) Driver.Ghd db cq))

let run r =
  let n = order in
  let panel = Gen.grid n n in
  let db, cq = coloring ~mode:Encode.Boolean ~seed:1 panel in
  let prep = Ghd.prepare ~rng:(rng 11) db cq in
  let decision = Ghd.decision_name prep.Ghd.decision in
  let analysis = prep.Ghd.analysis in
  let _, bucket_s =
    Harness.time_best ~reps (fun () ->
        Ppr_core.Exec.run db (Ppr_core.Bucket.compile ~rng:(rng 11) cq))
  in
  let _, ghd_s = Harness.time_best ~reps (fun () -> Ghd.evaluate ~prep db cq) in
  let speedup = bucket_s /. Float.max ghd_s 1e-12 in
  let enforced = prep.Ghd.decision = Ghd.Ghd in
  Printf.printf
    "low-htw panel (%dx%d grid): gate=%s  htw=%d  induced width=%d  \
     bucket=2^%.2f generic=2^%.2f ghd=2^%.2f\n%!"
    n n decision prep.Ghd.htw analysis.Ghd.induced_width
    analysis.Ghd.binary_bound_log2 analysis.Ghd.agm.Wcoj.Agm.bound_log2
    prep.Ghd.ghd_bound_log2;
  Printf.printf "  bucket: %.4fs   ghd: %.4fs   speedup: %.2fx\n%!" bucket_s
    ghd_s speedup;
  if enforced then
    Harness.check r (speedup >= threshold)
      "ghd speedup %.2fx < %.2fx on the low-htw panel" speedup threshold
  else Harness.note "speedup not enforced (gate picked %s)" decision;
  let seq_cards, par_cards, sweep_wall =
    Harness.pooled_sweep r
      ~name:(Printf.sprintf "ghd sweep (%d cells)" (List.length cells))
      (fun () -> Experiments.Sweep.map_cells gated_cardinality cells)
  in
  Harness.check r (seq_cards = par_cards)
    "pooled sweep cardinalities differ from sequential";
  let open Telemetry.Json in
  [
    ("order", Int n);
    ("reps", Int reps);
    ("panel_decision", String decision);
    ("panel_htw", Int prep.Ghd.htw);
    ("binary_bound_log2", Float analysis.Ghd.binary_bound_log2);
    ("agm_bound_log2", Float analysis.Ghd.agm.Wcoj.Agm.bound_log2);
    ("ghd_bound_log2", Float prep.Ghd.ghd_bound_log2);
    ("bucket_seconds", Float bucket_s);
    ("ghd_seconds", Float ghd_s);
    ("speedup", Float speedup);
    ("threshold", Float threshold);
    ("speedup_enforced", Bool enforced);
    ("sweep_cells", Int (List.length cells));
    ("sweep_wall", sweep_wall);
  ]
