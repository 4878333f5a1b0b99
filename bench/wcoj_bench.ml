(* Generic-join gate ("wcoj_comparison"): the dense 3-COLOR panel
   (order 10, 45 edges). There the AGM bound undercuts the binary worst
   case, the structural gate picks the generic join, and the generic
   join avoids the width-n intermediates. Two checks:

   - its measured max intermediate arity must not exceed bucket
     elimination's;
   - it must be >= 1.2x faster than the bucket plan, enforced only when
     the gate actually picked Generic on the panel.

   That the forced generic join, the gated driver path and bucket
   elimination produce the same tuples is a tier-1 test
   (test/test_wcoj.ml, the "gate sweep" cases). *)

module Encode = Conjunctive.Encode
module Driver = Ppr_core.Driver

let order = 10
let reps = 3
let threshold = 1.2

let rng seed = Graphlib.Rng.make seed

let run r =
  let n = order in
  let dense_m = 9 * n / 2 in
  let g = Graphlib.Generators.random ~rng:(rng 1) ~n ~m:dense_m in
  let db = Encode.coloring_database () in
  let cq =
    Encode.coloring_query_of_graph ~mode:Encode.Boolean ~rng:(rng 72) g
  in
  let analysis = Ghd.analyze ~rng:(rng 11) db cq in
  let gate = Ghd.decide analysis in
  let decision = Ghd.decision_name gate in
  let wcoj_outcome = Driver.run ~rng:(rng 11) Driver.Wcoj db cq in
  let bucket_outcome =
    Driver.run ~rng:(rng 11) Driver.Bucket_elimination db cq
  in
  let _, bucket_s =
    Harness.time_best ~reps (fun () ->
        Ppr_core.Exec.run db (Ppr_core.Bucket.compile ~rng:(rng 11) cq))
  in
  let _, wcoj_s = Harness.time_best ~reps (fun () -> Wcoj.evaluate db cq) in
  let speedup = bucket_s /. Float.max wcoj_s 1e-12 in
  let enforced = gate = Ghd.Generic in
  Printf.printf
    "dense panel (n=%d, m=%d): gate=%s  agm=2^%.2f binary=2^%.2f\n%!" n
    dense_m decision analysis.Ghd.agm.Wcoj.Agm.bound_log2
    analysis.Ghd.binary_bound_log2;
  Printf.printf
    "  arity: wcoj %d vs bucket %d   bucket: %.4fs   wcoj: %.4fs   \
     speedup: %.2fx\n%!"
    wcoj_outcome.Driver.max_arity bucket_outcome.Driver.max_arity bucket_s
    wcoj_s speedup;
  Harness.check r
    (wcoj_outcome.Driver.max_arity <= bucket_outcome.Driver.max_arity)
    "generic join max intermediate arity %d exceeds bucket elimination's %d \
     on the dense panel"
    wcoj_outcome.Driver.max_arity bucket_outcome.Driver.max_arity;
  if enforced then
    Harness.check r (speedup >= threshold)
      "generic join speedup %.2fx < %.2fx on the dense panel" speedup
      threshold
  else
    Harness.note "speedup not enforced (gate picked %s)" decision;
  let open Telemetry.Json in
  [
    ("order", Int n);
    ("reps", Int reps);
    ("dense_decision", String decision);
    ("agm_bound_log2", Float analysis.Ghd.agm.Wcoj.Agm.bound_log2);
    ("binary_bound_log2", Float analysis.Ghd.binary_bound_log2);
    ("wcoj_max_arity", Int wcoj_outcome.Driver.max_arity);
    ("bucket_max_arity", Int bucket_outcome.Driver.max_arity);
    ("bucket_seconds", Float bucket_s);
    ("wcoj_seconds", Float wcoj_s);
    ("speedup", Float speedup);
    ("threshold", Float threshold);
    ("speedup_enforced", Bool enforced);
  ]
