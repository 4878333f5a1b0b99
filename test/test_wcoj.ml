(* Tests for the worst-case-optimal generic join: AGM cover soundness,
   the plan gate, and — the load-bearing property — tuple-identical
   output against bucket elimination on fixed and random instances,
   and the jobs=1 answer and charges with a domain pool in the
   context. *)

open Helpers
module Agm = Wcoj.Agm
module Cq = Conjunctive.Cq
module Encode = Conjunctive.Encode
module Relation = Relalg.Relation
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Gen = Graphlib.Generators
module Pool = Parallel.Pool

let bucket_result ?ctx db cq =
  let plan = Ppr_core.Bucket.compile ~rng:(rng 11) cq in
  Ppr_core.Exec.run ?ctx db plan

let coloring ~mode g =
  (coloring_db, Encode.coloring_query_of_graph ~mode ~rng:(rng 7) g)

(* ------------------------------------------------------------------ *)
(* AGM estimator                                                       *)

let cover_feasible cq (a : Agm.t) =
  let atoms = Array.of_list cq.Cq.atoms in
  List.for_all
    (fun v ->
      let coverage = ref 0.0 in
      Array.iteri
        (fun i atom ->
          if List.mem v (Cq.atom_vars atom) then
            coverage := !coverage +. a.Agm.weights.(i))
        atoms;
      !coverage >= 1.0 -. 1e-6)
    (Cq.vars cq)

let test_agm_feasible_and_sound () =
  let checks =
    [
      ("triangle", Gen.cycle 3);
      ("pentagon", Gen.cycle 5);
      ("dense", random_graph ~seed:3 ~n:8 ~m:20);
    ]
  in
  List.iter
    (fun (name, g) ->
      (* Free all variables so the output is the full solution set the
         AGM bound promises to dominate. *)
      let db, cq = coloring ~mode:(Encode.Fraction 1.0) g in
      let a = Agm.fractional_edge_cover db cq in
      check_bool (name ^ ": cover feasible") true (cover_feasible cq a);
      check_bool (name ^ ": weights in [0,1]") true
        (Array.for_all (fun w -> w >= 0.0 && w <= 1.0) a.Agm.weights);
      let actual =
        float_of_int (Relation.cardinality (bucket_result db cq))
      in
      check_bool
        (Printf.sprintf "%s: bound 2^%.2f >= %g tuples" name
           a.Agm.bound_log2 actual)
        true
        (Agm.bound_tuples a >= actual))
    checks

let test_gate_sanity () =
  (* The wcoj method's gate is the structural gate with the GHD route
     left out. A path has treewidth 1: the binary plan's bound is tiny
     while the AGM bound is ~|R|^(n/2) — the gate must keep the bucket
     plan. *)
  let is_generic db cq =
    match
      Ppr_core.Exec.route db cq
        (Ppr_core.Driver.prepare ~rng:(rng 1) Ppr_core.Driver.Wcoj db cq)
    with
    | Ppr_core.Exec.Generic _ -> true
    | _ -> false
  in
  let db, path_cq = coloring ~mode:Encode.Boolean (Gen.path 10) in
  let a = Ghd.analyze ~rng:(rng 1) db path_cq in
  check_bool "path -> bucket" true (Ghd.decide a = Ghd.Bucket);
  check_bool "path prepares the bucket plan" false (is_generic db path_cq);
  (match Ppr_core.Driver.prepare ~rng:(rng 1) Ppr_core.Driver.Wcoj db path_cq with
  | Ppr_core.Driver.Deferred d -> (
    check_bool "the bucket plan keeps its analysis" true
      (d.Ppr_core.Exec.analysis = a);
    match Atomic.get d.Ppr_core.Exec.resolved with
    | Some (Ppr_core.Exec.Binary _) -> ()
    | _ -> Alcotest.fail "path: the gate is resolved to the bucket plan at prepare")
  | _ -> Alcotest.fail "path: the wcoj method prepares a gated artifact");
  (* A dense graph has induced width near n: the AGM bound (~n/2 atoms
     of weight 1) undercuts the binary worst case — generic join wins. *)
  let db, dense_cq =
    coloring ~mode:Encode.Boolean (random_graph ~seed:5 ~n:10 ~m:45)
  in
  let a = Ghd.analyze ~rng:(rng 1) db dense_cq in
  check_bool "dense -> generic" true (Ghd.decide a = Ghd.Generic);
  check_bool "dense prepares the generic join" true (is_generic db dense_cq);
  check_bool "bound comparison agrees" true
    (a.Ghd.agm.Agm.bound_log2 < a.Ghd.binary_bound_log2);
  (* The order the gate hands out is usable as-is: a permutation with
     the free variables first. *)
  let db, free_cq =
    coloring ~mode:(Encode.Fraction 0.3) (random_graph ~seed:5 ~n:8 ~m:16)
  in
  let a = Ghd.analyze ~rng:(rng 1) db free_cq in
  check_bool "order is permutation" true
    (List.sort compare a.Ghd.var_order = Cq.vars free_cq);
  let prefix_len = List.length free_cq.Cq.free in
  check_bool "free vars first" true
    (List.filteri (fun i _ -> i < prefix_len) a.Ghd.var_order
    = free_cq.Cq.free)

(* ------------------------------------------------------------------ *)
(* Output identity vs bucket elimination                               *)

(* The forced generic join and the gated driver path (the structural
   gate with the GHD route left out) against bucket elimination. *)
let check_same_answer name db cq =
  let expected = bucket_result db cq in
  check_bool (name ^ ": forced = bucket elimination") true
    (Relation.equal_modulo_order expected (Wcoj.evaluate db cq));
  let gated =
    Ppr_core.Exec.materialize db cq
      (Ppr_core.Driver.prepare ~rng:(rng 11) Ppr_core.Driver.Wcoj db cq)
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
      ("dense", random_graph ~seed:9 ~n:8 ~m:22);
      ("sparse", random_graph ~seed:10 ~n:9 ~m:9);
    ]

(* Random cells at order 10: densities 2/5/8, seeds 1-3, Boolean and
   30%-free, each query drawn with rng (seed + 71); one case per cell. *)
let gate_sweep_cases =
  List.concat_map
    (fun density ->
      List.concat_map
        (fun seed ->
          List.map
            (fun (mname, mode) ->
              let name =
                Printf.sprintf "gate sweep d=%d s=%d %s" density seed mname
              in
              Alcotest.test_case name `Quick (fun () ->
                  let g = random_graph ~seed ~n:10 ~m:(density * 5) in
                  check_same_answer name coloring_db
                    (Encode.coloring_query_of_graph ~mode
                       ~rng:(rng (seed + 71)) g)))
            [ ("bool", Encode.Boolean); ("free30", Encode.Fraction 0.3) ])
        [ 1; 2; 3 ])
    [ 2; 5; 8 ]

let test_oracle_agreement () =
  (* Independent of the relational engine entirely: the generic join's
     free-variable tuples are exactly the proper colorings restricted to
     the free variables. *)
  let g = random_graph ~seed:21 ~n:7 ~m:12 in
  let db, cq = coloring ~mode:(Encode.Fraction 1.0) g in
  let keep = cq.Cq.free in
  let expected = all_colorings g ~keep in
  let got =
    List.sort_uniq compare
      (List.map Relalg.Tuple.to_list
         (Relation.to_sorted_list (Wcoj.evaluate db cq)))
  in
  Alcotest.(check (list (list int))) "matches brute-force colorings"
    expected got

let prop_matches_bucket =
  qtest ~count:60 "wcoj = bucket elimination (random CQs)" graph_arbitrary
    (fun g ->
      List.for_all
        (fun mode ->
          let db, cq = coloring ~mode g in
          let expected = bucket_result db cq in
          Relation.equal_modulo_order expected (Wcoj.evaluate db cq)
          (* And through the gated driver: whatever side the gate picks,
             the answer cardinality must agree. *)
          &&
          let outcome =
            Ppr_core.Driver.run ~rng:(rng 3) Ppr_core.Driver.Wcoj db cq
          in
          Ppr_core.Driver.result_cardinality outcome
          = Some (Relation.cardinality expected))
        [ Encode.Boolean; Encode.Fraction 0.4 ])

(* ------------------------------------------------------------------ *)
(* A pool in the context                                               *)

(* The generic join runs on the calling domain whatever the context
   carries: with a pool it must deliver the jobs=1 rows in the jobs=1
   order, charge the same total and trip the same guard. *)
let pool = Pool.create ~num_domains:4 ~grain:1 ()

let run_with ?pool ~max_tuples ~max_total db cq =
  let limits = Limits.create ~max_tuples ~max_total () in
  let result =
    match Wcoj.evaluate ~ctx:(Ctx.create ?pool ~limits ()) db cq with
    | r ->
      let rows = ref [] in
      Relation.iter (fun t -> rows := t :: !rows) r;
      Ok (r, List.rev !rows)
    | exception Limits.Abort reason -> Error reason
  in
  (result, Limits.total_charged limits)

let same_as_jobs1 ~max_tuples ~max_total db cq =
  let seq, seq_charged = run_with ~max_tuples ~max_total db cq in
  let par, par_charged = run_with ~pool ~max_tuples ~max_total db cq in
  seq_charged = par_charged
  &&
  match (seq, par) with
  | Ok (r, rows), Ok (r', rows') -> Relation.equal r r' && rows = rows'
  | Error reason, Error reason' -> reason = reason'
  | _ -> false

let figures_max_tuples = 300_000
let figures_max_total = 3_000_000

let prop_pool_matches_jobs1 =
  (* Caps small enough to trip, the figures' caps and the defaults. *)
  let caps =
    QCheck.Gen.(
      pair
        (oneof
           [ int_range 1 64; return figures_max_tuples; return 2_000_000 ])
        (oneof
           [
             int_range 0 600; return figures_max_total; return 20_000_000;
           ]))
  in
  qtest ~count:60 "pool = jobs=1: rows, order, charge, abort (random CQs)"
    QCheck.(pair graph_arbitrary (make caps))
    (fun (g, (max_tuples, max_total)) ->
      List.for_all
        (fun mode ->
          let db, cq = coloring ~mode g in
          same_as_jobs1 ~max_tuples ~max_total db cq)
        [ Encode.Boolean; Encode.Fraction 0.4; Encode.Fraction 1.0 ])

(* The cells where the pooled shard search disagreed with jobs=1: the
   ladder of 12 rungs with half its variables free ([ppr run -f ladder
   -n 12 --free 0.5 -s 3]), whose bindings pass the figures'
   cardinality cap though its rows do not, and the Boolean ladder of 16
   rungs, whose shards each searched for their own witness. *)
let test_pool_ladders () =
  List.iter
    (fun (name, mode, rungs) ->
      let edges = Graphlib.Graph.edges (Gen.ladder rungs) in
      let cq =
        Encode.coloring_query ~mode ~rng:(rng (3 + 104729)) ~edges ()
      in
      check_bool (name ^ ": pool = jobs=1") true
        (same_as_jobs1 ~max_tuples:figures_max_tuples
           ~max_total:figures_max_total coloring_db cq))
    [
      ("ladder 12, 50% free", Encode.Fraction 0.5, 12);
      ("Boolean ladder 16", Encode.Boolean, 16);
    ]

(* ------------------------------------------------------------------ *)
(* The allowance                                                       *)

let test_allowance () =
  List.iter
    (fun (name, mode, g) ->
      let db, cq = coloring ~mode g in
      let scans = scan_charge db cq in
      let run ?pool ?allowance () =
        let limits = Limits.create () in
        let r = Wcoj.evaluate ~ctx:(Ctx.create ?pool ~limits ()) ?allowance db cq in
        (r, Limits.total_charged limits)
      in
      let unbounded, total = run () in
      let bindings = total - scans in
      check_bool (name ^ ": the search binds") true (bindings > 0);
      (* Enough allowance: the same relation and charge, with a pool
         too, and the rest left over. *)
      List.iter
        (fun (extra, pool) ->
          let left = ref (bindings + extra) in
          let r, charged = run ?pool ~allowance:left () in
          check_bool (name ^ ": same relation") true (Relation.equal unbounded r);
          check_int (name ^ ": same charge") total charged;
          check_int (name ^ ": the rest left over") extra !left)
        [ (0, None); (1, None); (100, None); (0, Some pool) ];
      (* One binding short or less: Exhausted, with exactly the allowance
         charged on top of the scans. *)
      List.iter
        (fun allowance ->
          let limits = Limits.create () in
          let left = ref allowance in
          match
            Wcoj.evaluate ~ctx:(Ctx.create ~limits ()) ~allowance:left db cq
          with
          | _ -> Alcotest.failf "%s: allowance %d should run out" name allowance
          | exception Wcoj.Exhausted ->
            check_int
              (Printf.sprintf "%s: %d bindings charged" name allowance)
              (scans + allowance) (Limits.total_charged limits);
            check_int (name ^ ": allowance spent") 0 !left)
        (List.sort_uniq compare [ 0; bindings / 2; bindings - 1 ]))
    [
      ("free dense", Encode.Fraction 0.5, random_graph ~seed:2 ~n:9 ~m:24);
      ("free sparse", Encode.Fraction 0.5, Gen.path 8);
      ("bool dense", Encode.Boolean, random_graph ~seed:2 ~n:9 ~m:24);
      ("bool unsat", Encode.Boolean, random_graph ~seed:4 ~n:7 ~m:21);
    ]

(* ------------------------------------------------------------------ *)
(* Limits and validation                                               *)

let test_abort_propagates () =
  let db, cq =
    coloring ~mode:(Encode.Fraction 1.0) (random_graph ~seed:2 ~n:9 ~m:12)
  in
  let trip limits =
    try
      ignore (Wcoj.evaluate ~ctx:(Ctx.create ~limits ()) db cq);
      Alcotest.fail "expected an abort"
    with Limits.Abort _ -> ()
  in
  trip (Limits.create ~max_total:10 ());
  trip (Limits.create ~max_tuples:3 ())

let test_order_validation () =
  let db, cq = coloring ~mode:Encode.Boolean (Gen.cycle 3) in
  let invalid order =
    try
      ignore (Wcoj.evaluate ~order db cq);
      false
    with Invalid_argument _ -> true
  in
  check_bool "non-permutation rejected" true (invalid [ 0; 1 ]);
  check_bool "unknown variable rejected" true (invalid [ 0; 1; 7 ]);
  let db, free_cq =
    coloring ~mode:(Encode.Fraction 0.5) (random_graph ~seed:8 ~n:6 ~m:8)
  in
  (match free_cq.Cq.free with
  | [] -> ()
  | _ ->
    let reversed = List.rev (Cq.vars free_cq) in
    let misordered =
      (* Some permutation that does not start with the free prefix. *)
      if
        List.filteri
          (fun i _ -> i < List.length free_cq.Cq.free)
          reversed
        = free_cq.Cq.free
      then List.tl reversed @ [ List.hd reversed ]
      else reversed
    in
    check_bool "free vars must come first" true
      (try
         ignore (Wcoj.evaluate ~order:misordered db free_cq);
         false
       with Invalid_argument _ -> true))

let () =
  Alcotest.run "wcoj"
    [
      ( "agm",
        [
          Alcotest.test_case "feasible and sound" `Quick
            test_agm_feasible_and_sound;
          Alcotest.test_case "gate sanity" `Quick test_gate_sanity;
        ] );
      ( "identity",
        [
          Alcotest.test_case "fixed instances" `Quick test_fixed_instances;
          Alcotest.test_case "oracle agreement" `Quick
            test_oracle_agreement;
          prop_matches_bucket;
        ]
        @ gate_sweep_cases );
      ( "pool",
        [
          prop_pool_matches_jobs1;
          Alcotest.test_case "ladder cells" `Quick test_pool_ladders;
        ] );
      ( "guards",
        [
          Alcotest.test_case "allowance" `Quick test_allowance;
          Alcotest.test_case "aborts propagate" `Quick
            test_abort_propagates;
          Alcotest.test_case "order validation" `Quick
            test_order_validation;
        ] );
    ]
