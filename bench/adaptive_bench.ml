(* Adaptive-planning gate ("adaptive_comparison"): run a skewed
   workload twice through the feedback loop and check that the second
   pass plans measurably better.

   The database is adversarial for the textbook independence model, in
   both directions at once:

   - g1(a,b) |><| g2(b,c): the b columns each hold 500 distinct values
     but overlap on only 10, so the domain-based estimate overstates
     the join by ~25x. The true intermediate is tiny.

   - h1(c,d) |><| h2(d,e): half of each d column is one hot value, the
     other half unique padding, so the estimate understates the join by
     ~75x. The true intermediate is the largest relation in the query.

   Against q(x1,x5) :- g1(x1,x2), g2(x2,x3), h1(x3,x4), h2(x4,x5) the
   exhaustive left-deep DP therefore starts from the h-side (cheap on
   paper, huge in fact). Pass 1 runs that plan with the driver's harvest
   observer feeding an Adapt.Store; pass 2 recompiles under the learned
   corrections and must flip to the g-side start.

   Checks:

   - Output identity: both passes produce exactly the same tuple set —
     feedback moves the plan inside the same plan space, never the
     answer.

   - Measured-work improvement: the corrected plan's total intermediate
     tuples must undercut the uncorrected plan's by 1.2x, and its
     execution must not be slower than 1.05x the uncorrected wall
     time. *)

let reps = 3
let threshold = 1.2

module Driver = Ppr_core.Driver
module Relation = Relalg.Relation
module Schema = Relalg.Schema

let pair_relation rows =
  Relation.of_list (Schema.of_list [ 0; 1 ]) rows

let database () =
  let db = Conjunctive.Database.create () in
  (* 500 distinct b values each side, overlapping on 490..499 only. *)
  Conjunctive.Database.add db "g1"
    (pair_relation (List.init 2000 (fun i -> [ i; i mod 500 ])));
  Conjunctive.Database.add db "g2"
    (pair_relation (List.init 2000 (fun i -> [ 490 + (i mod 500); i mod 1000 ])));
  (* d: 150 copies of the hot value 7, 150 unique padding values. *)
  Conjunctive.Database.add db "h1"
    (pair_relation
       (List.init 300 (fun i -> [ i; (if i < 150 then 7 else 10_000 + i) ])));
  Conjunctive.Database.add db "h2"
    (pair_relation
       (List.init 300 (fun i ->
            [ (if i < 150 then 7 else 20_000 + i); i mod 100 ])));
  db

let query () =
  Conjunctive.Cq.make
    ~atoms:
      [
        { Conjunctive.Cq.rel = "g1"; vars = [ 1; 2 ] };
        { Conjunctive.Cq.rel = "g2"; vars = [ 2; 3 ] };
        { Conjunctive.Cq.rel = "h1"; vars = [ 3; 4 ] };
        { Conjunctive.Cq.rel = "h2"; vars = [ 4; 5 ] };
      ]
    ~free:[ 1; 5 ]

(* Execute a plan counting every intermediate (and final) cardinality —
   the model-free cost the two passes are compared on. *)
let measured_work db plan =
  let total = ref 0 in
  let result =
    Ppr_core.Exec.run ~observe:(fun _ card -> total := !total + card) db plan
  in
  (result, !total)

let run r =
  let db = database () in
  let cq = query () in
  let meth = Driver.Naive Ppr_core.Naive.Dp in
  let store = Adapt.Store.create () in
  let observer obs = Adapt.Store.ingest store obs in
  (* Pass 1: plan cold, run, harvest measured cardinalities. *)
  let outcome1 = Driver.run ~observer meth db cq in
  let feedback = Adapt.Store.feedback store in
  (* Pass 2: same query, same method, corrected estimates. *)
  let outcome2 = Driver.run ~feedback meth db cq in
  let result_of label o =
    match (o.Driver.status, o.Driver.result) with
    | Driver.Completed, Some r -> r
    | _ -> failwith (label ^ " pass did not complete")
  in
  let r1 = result_of "first" outcome1 in
  let r2 = result_of "second" outcome2 in
  let identical = Relation.equal_modulo_order r1 r2 in
  Harness.check r identical "corrected plan changed the answer";
  (* Re-derive both plans deterministically (DP) for the comparison. *)
  let plan1 = Driver.compile meth db cq in
  let plan2 = Driver.compile ~feedback meth db cq in
  let rw1, work1 = measured_work db plan1 in
  let rw2, work2 = measured_work db plan2 in
  Harness.check r
    (Relation.equal_modulo_order rw1 r1 && Relation.equal_modulo_order rw2 r2)
    "a re-derived plan changed its pass's answer";
  let _, wall1 =
    Harness.time_best ~reps (fun () -> Ppr_core.Exec.run db plan1)
  in
  let _, wall2 =
    Harness.time_best ~reps (fun () -> Ppr_core.Exec.run db plan2)
  in
  let improvement = float_of_int work1 /. float_of_int (max 1 work2) in
  let env = Ppr_core.Cost.environment db cq in
  let corrected_env = Ppr_core.Cost.environment ~feedback db cq in
  let pp_plan plan = Format.asprintf "%a" (Ppr_core.Plan.pp ()) plan in
  Printf.printf "pass 1 (textbook):  work=%d tuples   est=%.0f   %.4fs\n%!"
    work1
    (Ppr_core.Cost.estimate env plan1)
    wall1;
  Printf.printf "pass 2 (corrected): work=%d tuples   est=%.0f   %.4fs\n%!"
    work2
    (Ppr_core.Cost.estimate corrected_env plan2)
    wall2;
  Printf.printf
    "improvement %.2fx (threshold %.2fx)   store %d keys / %d samples\n%!"
    improvement threshold (Adapt.Store.size store) (Adapt.Store.samples store);
  Harness.check r (improvement >= threshold)
    "corrected plan %.2fx cheaper, not %.2fx" improvement threshold;
  Harness.check r (wall2 <= wall1 *. 1.05)
    "corrected plan slower in wall time: %.4fs vs %.4fs" wall2 wall1;
  let open Telemetry.Json in
  [
    ("reps", Int reps);
    ("work_uncorrected", Int work1);
    ("work_corrected", Int work2);
    ("improvement", Float improvement);
    ("threshold", Float threshold);
    ("wall_uncorrected_seconds", Float wall1);
    ("wall_corrected_seconds", Float wall2);
    ("est_uncorrected", Float (Ppr_core.Cost.estimate env plan1));
    ("est_corrected", Float (Ppr_core.Cost.estimate corrected_env plan2));
    ("plan_uncorrected", String (pp_plan plan1));
    ("plan_corrected", String (pp_plan plan2));
    ("identity", Bool identical);
    ("feedback_keys", Int (Adapt.Store.size store));
    ("feedback_samples", Int (Adapt.Store.samples store));
  ]
