(* Tests for decomposition-based evaluation: GHD search validity, the
   three-bound gate, and — the load-bearing property — tuple-identical
   output against bucket elimination on acyclic AND cyclic instances,
   sequentially and across a domain pool. *)

open Helpers
module Cq = Conjunctive.Cq
module Encode = Conjunctive.Encode
module Relation = Relalg.Relation
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Gen = Graphlib.Generators
module Pool = Parallel.Pool
module Hypergraph = Hypergraphs.Hypergraph
module Hypertree = Hypergraphs.Hypertree
module Gyo = Hypergraphs.Gyo

let bucket_result ?ctx db cq =
  let plan = Ppr_core.Bucket.compile ~rng:(rng 11) cq in
  Ppr_core.Exec.run ?ctx db plan

let coloring ~mode g =
  (coloring_db, Encode.coloring_query_of_graph ~mode ~rng:(rng 7) g)

(* ------------------------------------------------------------------ *)
(* Decomposition search                                                 *)

let check_decomposition name g =
  let _db, cq = coloring ~mode:Encode.Boolean g in
  let hg = Hypergraph.of_query cq in
  let htd = Ghd.search ~rng:(rng 5) hg in
  check_bool (name ^ ": decomposition valid") true (Hypertree.is_valid hg htd);
  if Gyo.is_acyclic hg then
    check_int (name ^ ": acyclic width 1") 1 (Hypertree.width htd)
  else
    check_bool (name ^ ": cyclic width >= 2") true (Hypertree.width htd >= 2)

let test_search_fixed () =
  List.iter
    (fun (name, g) -> check_decomposition name g)
    [
      ("path", Gen.path 7);
      ("triangle", Gen.cycle 3);
      ("pentagon", Gen.cycle 5);
      ("ladder", Gen.ladder 4);
      ("augmented ladder", Gen.augmented_ladder 4);
      ("clique", Gen.clique 5);
      ("dense", random_graph ~seed:3 ~n:8 ~m:20);
      ("sparse", random_graph ~seed:4 ~n:9 ~m:9);
    ]

let prop_search_valid =
  qtest ~count:80 "search emits a valid GHD (random hypergraphs)"
    graph_arbitrary (fun g ->
      let _db, cq = coloring ~mode:Encode.Boolean g in
      let hg = Hypergraph.of_query cq in
      let htd = Ghd.search ~rng:(rng 5) hg in
      Hypertree.is_valid hg htd
      && (not (Gyo.is_acyclic hg) || Hypertree.width htd = 1))

(* ------------------------------------------------------------------ *)
(* The three-bound gate                                                 *)

let test_gate_routes () =
  (* Acyclic: every bag is one atom, so the ghd bound is log2 |edge| =
     log2 6 — under the bucket bound (induced_width+1) * log2 3. *)
  let db, path_cq = coloring ~mode:Encode.Boolean (Gen.path 8) in
  let prep = Ghd.prepare ~rng:(rng 1) db path_cq in
  check_bool "path -> ghd" true (prep.Ghd.decision = Ghd.Ghd);
  check_int "path htw 1" 1 prep.Ghd.htw;
  (* A long cycle: htw 2 costs two joined edge atoms (log2 36), while
     bucket's induced width 2 costs 3 * log2 3 — bucket wins. *)
  let db, cyc_cq = coloring ~mode:Encode.Boolean (Gen.cycle 8) in
  let prep = Ghd.prepare ~rng:(rng 1) db cyc_cq in
  check_bool "cycle -> bucket" true (prep.Ghd.decision = Ghd.Bucket);
  (* Dense: induced width near n and bags near the whole query push both
     structural bounds past the AGM bound — generic join wins. *)
  let db, dense_cq =
    coloring ~mode:Encode.Boolean (random_graph ~seed:5 ~n:10 ~m:45)
  in
  let prep = Ghd.prepare ~rng:(rng 1) db dense_cq in
  check_bool "dense -> generic" true (prep.Ghd.decision = Ghd.Generic);
  (* The decision is the argmin of the three bounds on one scale. *)
  let bounds (p : Ghd.prep) =
    ( p.Ghd.analysis.Ghd.binary_bound_log2,
      p.Ghd.analysis.Ghd.agm.Wcoj.Agm.bound_log2,
      p.Ghd.ghd_bound_log2 )
  in
  List.iter
    (fun (_db, cq) ->
      let p = Ghd.prepare ~rng:(rng 1) db cq in
      let b, g, h = bounds p in
      let expected =
        if b <= g && b <= h then Ghd.Bucket
        else if h < g then Ghd.Ghd
        else Ghd.Generic
      in
      check_bool "decision = argmin of the bounds" true
        (p.Ghd.decision = expected))
    [
      coloring ~mode:Encode.Boolean (Gen.path 8);
      coloring ~mode:Encode.Boolean (Gen.cycle 8);
      (db, dense_cq);
    ]

let test_gate_forced_route () =
  (* Each route forced on the ghd method: the whole prep, on that
     decision, with no attempt. *)
  let db, cq = coloring ~mode:Encode.Boolean (Gen.cycle 8) in
  List.iter
    (fun route ->
      let name = "--route " ^ Ghd.decision_name route in
      let compiled =
        Ppr_core.Driver.prepare ~rng:(rng 1) ~route Ppr_core.Driver.Ghd db cq
      in
      (match compiled with
      | Ppr_core.Driver.Decomposed (p, plan) ->
        check_bool (name ^ ": the decision") true (p.Ghd.decision = route);
        check_bool (name ^ ": the bucket plan iff bucket") (route = Ghd.Bucket)
          (plan <> None)
      | _ -> Alcotest.fail (name ^ ": a forced route prepares Decomposed"));
      check_bool (name ^ ": no attempt") true
        (Ppr_core.Exec.attempt db cq compiled = None))
    [ Ghd.Bucket; Ghd.Generic; Ghd.Ghd ];
  (* Only the ghd method takes a route. *)
  check_bool "the wcoj method refuses a route" true
    (match
       Ppr_core.Driver.prepare ~route:Ghd.Bucket Ppr_core.Driver.Wcoj db cq
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_gate_low_htw_panel () =
  (* Cyclic low-htw structure: augmented ladders have treewidth >= 3 but
     hypertree width 2 (each triangle-ish cluster is two edges), so the
     gate must route them to the decomposition. (The bench gate's timed
     panel uses grids, where the induced-width gap also grows.) *)
  let db, cq = coloring ~mode:Encode.Boolean (Gen.augmented_ladder 5) in
  let prep = Ghd.prepare ~rng:(rng 1) db cq in
  check_bool "augmented ladder htw 2" true (prep.Ghd.htw = 2);
  check_bool "augmented ladder -> ghd" true (prep.Ghd.decision = Ghd.Ghd);
  check_bool "ghd bound under bucket bound" true
    (prep.Ghd.ghd_bound_log2 < prep.Ghd.analysis.Ghd.binary_bound_log2)

(* ------------------------------------------------------------------ *)
(* Output identity vs bucket elimination                                *)

(* The forced decomposition evaluator and the three-bound gated path
   (the ghd method's artifact) against bucket elimination. *)
let check_same_answer name db cq =
  let expected = bucket_result db cq in
  check_bool (name ^ ": forced = bucket elimination") true
    (Relation.equal_modulo_order expected (Ghd.evaluate db cq));
  let gated =
    Ppr_core.Exec.materialize db cq
      (Ppr_core.Driver.prepare ~rng:(rng 11) Ppr_core.Driver.Ghd db cq)
  in
  check_bool (name ^ ": gated = bucket elimination") true
    (Relation.equal_modulo_order expected gated)

let test_fixed_instances () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (mname, mode) ->
          let db, cq = coloring ~mode g in
          check_same_answer (name ^ "/" ^ mname) db cq)
        [
          ("bool", Encode.Boolean);
          ("emulated", Encode.Emulated_boolean);
          ("free", Encode.Fraction 0.5);
        ])
    [
      ("triangle", Gen.cycle 3);
      ("pentagon", Gen.cycle 5);
      ("path", Gen.path 6);
      ("ladder", Gen.ladder 4);
      ("augmented ladder", Gen.augmented_ladder 4);
      ("dense", random_graph ~seed:9 ~n:8 ~m:22);
      ("sparse", random_graph ~seed:10 ~n:9 ~m:9);
      ("unsat clique", Gen.clique 5);
    ]

(* Random cells at order 10 (densities 2/5/8, seeds 1-3, Boolean and
   30%-free) and the structured Figure 1 families, each query drawn with
   rng (seed + 71); one case per cell. bench/ghd_bench.ml times its
   pooled sweep over the same cells. *)
let gate_sweep_cases =
  let random_cells =
    List.concat_map
      (fun density ->
        List.concat_map
          (fun seed ->
            List.map
              (fun (mname, mode) ->
                ( Printf.sprintf "random d=%d s=%d %s" density seed mname,
                  mode,
                  seed,
                  random_graph ~seed ~n:10 ~m:(density * 5) ))
              [ ("bool", Encode.Boolean); ("free30", Encode.Fraction 0.3) ])
          [ 1; 2; 3 ])
      [ 2; 5; 8 ]
  in
  let structured_cells =
    [
      ("path", Encode.Boolean, 1, Gen.path 8);
      ("cycle", Encode.Fraction 0.3, 1, Gen.cycle 7);
      ("ladder", Encode.Boolean, 1, Gen.ladder 4);
      ("augmented ladder", Encode.Fraction 0.3, 1, Gen.augmented_ladder 4);
      ("clique", Encode.Boolean, 1, Gen.clique 5);
    ]
  in
  List.map
    (fun (name, mode, seed, g) ->
      let name = "gate sweep " ^ name in
      Alcotest.test_case name `Quick (fun () ->
          check_same_answer name coloring_db
            (Encode.coloring_query_of_graph ~mode ~rng:(rng (seed + 71)) g)))
    (random_cells @ structured_cells)

let test_oracle_agreement () =
  (* Independent of the relational engine entirely: the free-variable
     tuples are exactly the proper colorings restricted to them. *)
  let g = random_graph ~seed:21 ~n:7 ~m:12 in
  let db, cq = coloring ~mode:(Encode.Fraction 1.0) g in
  let keep = cq.Cq.free in
  let expected = all_colorings g ~keep in
  (* Read columns in [keep] order — the decomposition's output schema
     orders them by the sweeps' join order, not the free list. *)
  let result = Ghd.evaluate db cq in
  let schema = Relation.schema result in
  let got =
    List.sort_uniq compare
      (List.map
         (fun tup ->
           List.map
             (fun v -> Relalg.Tuple.get tup (Relalg.Schema.index schema v))
             keep)
         (Relation.to_sorted_list result))
  in
  Alcotest.(check (list (list int))) "matches brute-force colorings"
    expected got

let prop_matches_bucket =
  qtest ~count:60 "ghd = bucket elimination (random CQs)" graph_arbitrary
    (fun g ->
      List.for_all
        (fun mode ->
          let db, cq = coloring ~mode g in
          let expected = bucket_result db cq in
          Relation.equal_modulo_order expected (Ghd.evaluate db cq)
          (* And through the gated driver: whatever route the gate picks,
             the answer cardinality must agree. *)
          &&
          let outcome =
            Ppr_core.Driver.run ~rng:(rng 3) Ppr_core.Driver.Ghd db cq
          in
          Ppr_core.Driver.result_cardinality outcome
          = Some (Relation.cardinality expected))
        [ Encode.Boolean; Encode.Fraction 0.4 ])

(* ------------------------------------------------------------------ *)
(* Parallel evaluation                                                  *)

let in_pool f =
  let p = Pool.create ~num_domains:4 ~grain:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_parallel_identity () =
  in_pool @@ fun p ->
  let ctx = Ctx.create ~pool:p () in
  List.iter
    (fun (name, mode, g) ->
      let db, cq = coloring ~mode g in
      let seq = Ghd.evaluate db cq in
      let par = Ghd.evaluate ~ctx db cq in
      check_bool (name ^ ": pool result identical") true
        (Relation.equal_modulo_order seq par))
    [
      ("free cyclic", Encode.Fraction 0.5, Gen.augmented_ladder 4);
      ("free acyclic", Encode.Fraction 0.5, Gen.path 8);
      ("bool dense", Encode.Boolean, random_graph ~seed:2 ~n:9 ~m:24);
      ("bool unsat", Encode.Boolean, random_graph ~seed:4 ~n:7 ~m:21);
    ]

let prop_parallel_matches_sequential =
  qtest ~count:25 "pool evaluation = sequential (random CQs)"
    graph_arbitrary (fun g ->
      in_pool @@ fun p ->
      let ctx = Ctx.create ~pool:p () in
      List.for_all
        (fun mode ->
          let db, cq = coloring ~mode g in
          Relation.equal_modulo_order (Ghd.evaluate db cq)
            (Ghd.evaluate ~ctx db cq))
        [ Encode.Boolean; Encode.Fraction 0.4 ])

(* ------------------------------------------------------------------ *)
(* Driver integration: prepared artifacts and the ladder                *)

let test_prepared_replay () =
  (* The serving layer's cache-hit path: prepare once, re-execute the
     compiled artifact many times. Every route must replay identically,
     and the artifact resolves to the route the three-way gate picks,
     after which a generic pick tries no attempt first. *)
  List.iter
    (fun (name, g) ->
      let db, cq = coloring ~mode:Encode.Boolean g in
      let expected = bucket_result db cq in
      let compiled =
        Ppr_core.Driver.prepare ~rng:(rng 2) Ppr_core.Driver.Ghd db cq
      in
      let check_resolved () =
        let decision = Ppr_core.Exec.decision (Ppr_core.Exec.route db cq compiled) in
        check_bool (name ^ ": resolves to the route Ghd.prepare decides") true
          (decision = (Ghd.prepare ~rng:(rng 2) db cq).Ghd.decision);
        check_bool (name ^ ": no attempt once the route is the generic join")
          (decision = Ghd.Generic)
          (Ppr_core.Exec.attempt db cq compiled = None)
      in
      (match compiled with
      | Ppr_core.Driver.Deferred _ -> ()
      | _ -> Alcotest.fail (name ^ ": Ghd prepare must return Deferred"));
      List.iter
        (fun i ->
          let outcome =
            Ppr_core.Driver.run ~rng:(rng (100 + i)) ~compiled
              Ppr_core.Driver.Ghd db cq
          in
          check_bool
            (Printf.sprintf "%s: replay %d same cardinality" name i)
            true
            (Ppr_core.Driver.result_cardinality outcome
            = Some (Relation.cardinality expected)))
        [ 0; 1 ];
      check_resolved ())
    [
      ("acyclic", Gen.path 8);
      ("cyclic low htw", Gen.augmented_ladder 4);
      ("dense", random_graph ~seed:5 ~n:10 ~m:45);
    ]

let test_forced_routes_agree () =
  (* All three forced gate routes compute the same answer. *)
  let db, cq = coloring ~mode:(Encode.Fraction 0.5) (Gen.augmented_ladder 4) in
  let expected = bucket_result db cq in
  List.iter
    (fun route ->
      let outcome =
        Ppr_core.Driver.run ~rng:(rng 3) ~route Ppr_core.Driver.Ghd db cq
      in
      check_bool (Ghd.decision_name route ^ " route same cardinality") true
        (Ppr_core.Driver.result_cardinality outcome
        = Some (Relation.cardinality expected)))
    [ Ghd.Bucket; Ghd.Generic; Ghd.Ghd ]

let test_supervised_ladder () =
  (* Ghd sits at the top of its own degradation ladder; a first attempt
     that aborts at its first operator must fall through to a completing
     rung. *)
  let db, cq = coloring ~mode:Encode.Boolean (Gen.augmented_ladder 3) in
  let report =
    Supervise.run ~rng:(rng 4)
      ~chaos:(Supervise.Chaos.at_operator ~attempts:[ 0 ] 1)
      Ppr_core.Driver.Ghd db cq
  in
  check_bool "ladder rescued the query" true
    (Option.is_some report.Supervise.result);
  check_bool "after the first attempt aborted" true report.Supervise.rescued

(* On the forced GHD route the run never materializes a relation wider
   than the predicted plan width. The route joins a bag's cover atoms
   before projecting, and joins a parent bag with a child in the
   join-project pass, so a prediction of the widest bag falls short. *)
let ghd_width_holds ?(seed = 3) db cq =
  let o =
    Ppr_core.Driver.run ~rng:(rng seed) ~route:Ghd.Ghd Ppr_core.Driver.Ghd db cq
  in
  o.Ppr_core.Driver.max_arity <= o.Ppr_core.Driver.plan_width

let prop_width_within_plan =
  qtest ~count:60 "forced ghd route: measured width <= plan width"
    graph_arbitrary (fun g ->
      List.for_all
        (fun mode ->
          let db, cq = coloring ~mode g in
          ghd_width_holds db cq)
        [ Encode.Boolean; Encode.Fraction 0.4 ])

let test_width_cli_instance () =
  (* The instance of [ppr run -f random -n 20 -d 3 --free 0.2 -m ghd -s 1],
     built as the CLI builds it: a bag-only prediction says 9 there while
     the route materializes arity 11. *)
  let g = Gen.random ~rng:(rng 1) ~n:20 ~m:60 in
  let cq =
    Encode.coloring_query_of_graph ~mode:(Encode.Fraction 0.2)
      ~rng:(rng (1 + 104729)) g
  in
  check_bool "measured width within plan width" true
    (ghd_width_holds ~seed:32 coloring_db cq)

(* ------------------------------------------------------------------ *)
(* Guards and validation                                                *)

let test_abort_propagates () =
  let db, cq =
    coloring ~mode:(Encode.Fraction 1.0) (random_graph ~seed:2 ~n:9 ~m:12)
  in
  let trip limits =
    try
      ignore (Ghd.evaluate ~ctx:(Ctx.create ~limits ()) db cq);
      Alcotest.fail "expected an abort"
    with Limits.Abort _ -> ()
  in
  trip (Limits.create ~max_total:10 ());
  trip (Limits.create ~max_tuples:3 ())

let test_prep_mismatch_rejected () =
  let db, small = coloring ~mode:Encode.Boolean (Gen.cycle 3) in
  let _, large = coloring ~mode:Encode.Boolean (Gen.cycle 5) in
  let prep = Ghd.prepare ~rng:(rng 1) db small in
  check_bool "mismatched prep rejected" true
    (try
       ignore (Ghd.evaluate ~prep db large);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "ghd"
    [
      ( "search",
        [
          Alcotest.test_case "fixed families" `Quick test_search_fixed;
          prop_search_valid;
        ] );
      ( "gate",
        [
          Alcotest.test_case "routes" `Quick test_gate_routes;
          Alcotest.test_case "forced route" `Quick test_gate_forced_route;
          Alcotest.test_case "cyclic low-htw panel" `Quick
            test_gate_low_htw_panel;
        ] );
      ( "identity",
        [
          Alcotest.test_case "fixed instances" `Quick test_fixed_instances;
          Alcotest.test_case "oracle agreement" `Quick
            test_oracle_agreement;
          prop_matches_bucket;
        ]
        @ gate_sweep_cases );
      ( "parallel",
        [
          Alcotest.test_case "pool identity" `Quick test_parallel_identity;
          prop_parallel_matches_sequential;
        ] );
      ( "driver",
        [
          Alcotest.test_case "prepared replay" `Quick test_prepared_replay;
          Alcotest.test_case "forced routes agree" `Quick
            test_forced_routes_agree;
          Alcotest.test_case "supervised ladder" `Quick
            test_supervised_ladder;
          Alcotest.test_case "width of the CLI instance" `Quick
            test_width_cli_instance;
          prop_width_within_plan;
        ] );
      ( "guards",
        [
          Alcotest.test_case "aborts propagate" `Quick
            test_abort_propagates;
          Alcotest.test_case "prep mismatch rejected" `Quick
            test_prep_mismatch_rejected;
        ] );
    ]
