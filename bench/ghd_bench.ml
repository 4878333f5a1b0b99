(* Decomposition gate: check GHD-Yannakakis against bucket elimination
   and append the verdict to BENCH_results.json under "ghd_comparison".

     dune exec bench/ghd_bench.exe -- [--order N] [--seeds K] [--reps K]
         [--json FILE]

   Three obligations:

   - Output identity, enforced always: over a sweep of 3-COLOR instances
     (random densities x seeds x encoding modes, plus the structured
     Figure 1 families), the forced decomposition evaluator, the
     three-bound gated driver path, and the bucket-elimination plan must
     produce exactly the same tuple sets.

   - Speedup on the cyclic low-htw panel, enforced where it is promised:
     on the NxN grid the induced width grows like N while the hypertree
     width grows like N/2 — each bag's cover joins far fewer tuples than
     the bucket plan's widest intermediate — so the gate must route the
     grid to the decomposition and the decomposition must also be faster
     than the bucket plan (3x+ at N=6, 25x+ at N=7; below N=6 both run
     in microseconds and fixed overhead dominates, which is why the
     default panel is N=6). The threshold (default 1.1x, override with
     PPR_GHD_GATE_MIN; 0 disables) is only enforced when the gate
     actually picked Ghd on that panel.

   - Parallel sweep check: the gated evaluation of every identity cell
     through Sweep.map_cells under a 4-domain pool must not be slower
     than sequential (1.05x tolerance, override with
     PPR_GHD_PAR_GATE_MAX; 0 disables). On runners with at least 4
     recommended domains a regression fails the gate; below that it
     degrades to a warning, since time-sliced domains legitimately slow
     the pool down. *)

let order = ref 6
let seeds = ref 3
let reps = ref 3
let json_path = ref "BENCH_results.json"

let usage () =
  prerr_endline
    "usage: ghd_bench.exe [--order N] [--seeds K] [--reps K] [--json FILE]";
  exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--order" :: v :: rest ->
      (try order := int_of_string v with _ -> usage ());
      go rest
    | "--seeds" :: v :: rest ->
      (try seeds := int_of_string v with _ -> usage ());
      go rest
    | "--reps" :: v :: rest ->
      (try reps := int_of_string v with _ -> usage ());
      go rest
    | "--json" :: v :: rest ->
      json_path := v;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

module Encode = Conjunctive.Encode
module Relation = Relalg.Relation
module Driver = Ppr_core.Driver
module Gen = Graphlib.Generators

let rng seed = Graphlib.Rng.make seed

let coloring ~mode ~seed g =
  let db = Encode.coloring_database () in
  let cq = Encode.coloring_query_of_graph ~mode ~rng:(rng (seed + 71)) g in
  (db, cq)

let bucket_result ?ctx db cq =
  Ppr_core.Exec.run ?ctx db (Ppr_core.Bucket.compile ~rng:(rng 11) cq)

(* The gated path as Driver.run takes it, but with the relation back:
   the ghd method's artifact through the one materializing dispatcher
   (the generic join's attempt, then the three-bound gate's route when
   it runs out). *)
let gated_result ?ctx db cq =
  let compiled = Driver.prepare ~rng:(rng 11) Driver.Ghd db cq in
  (compiled, Ppr_core.Exec.materialize ?ctx db cq compiled)

(* The gate's decision for that artifact, resolving it if the run did
   not. *)
let resolved_prep db cq compiled =
  match Ppr_core.Exec.resolve db cq compiled with
  | Driver.Decomposed (prep, _) -> prep
  | _ -> invalid_arg "ghd_bench: the ghd method resolves to a decomposition"

let time_best ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let () =
  parse_args ();
  let n = !order in
  let threshold =
    match Sys.getenv_opt "PPR_GHD_GATE_MIN" with
    | Some s -> ( try float_of_string (String.trim s) with _ -> 1.1)
    | None -> 1.1
  in
  (* ---------------------------------------------------------------- *)
  (* Identity sweep: every cell must agree with bucket elimination.    *)
  let modes = [ ("bool", Encode.Boolean); ("free30", Encode.Fraction 0.3) ] in
  let random_cells =
    List.concat_map
      (fun density ->
        List.concat_map
          (fun seed ->
            List.map
              (fun (mname, mode) ->
                let g = Gen.random ~rng:(rng seed) ~n:10 ~m:(density * 5) in
                (Printf.sprintf "random d=%d s=%d %s" density seed mname,
                 mode, seed, g))
              modes)
          (List.init !seeds (fun i -> i + 1)))
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
  let cells = random_cells @ structured_cells in
  let failures = ref 0 in
  let check_cell ?ctx (name, mode, seed, g) =
    let db, cq = coloring ~mode ~seed g in
    let expected = bucket_result ?ctx db cq in
    let forced = Ghd.evaluate ?ctx db cq in
    let compiled, gated = gated_result ?ctx db cq in
    let ok =
      Relation.equal_modulo_order expected forced
      && Relation.equal_modulo_order expected gated
    in
    if not ok then begin
      incr failures;
      let prep = resolved_prep db cq compiled in
      Printf.eprintf
        "IDENTITY FAIL: %s decision=%s htw=%d bucket=%d forced=%d gated=%d\n%!"
        name
        (Ghd.decision_name prep.Ghd.decision)
        prep.Ghd.htw
        (Relation.cardinality expected)
        (Relation.cardinality forced)
        (Relation.cardinality gated)
    end;
    ok
  in
  List.iter (fun cell -> ignore (check_cell cell)) cells;
  let identical = !failures = 0 in
  Printf.printf "ghd identity sweep: %d cells, %d failures\n%!"
    (List.length cells) !failures;
  (* ---------------------------------------------------------------- *)
  (* Cyclic low-htw panel: the NxN grid, decision and timing.          *)
  let panel = Gen.grid n n in
  let db, cq = coloring ~mode:Encode.Boolean ~seed:1 panel in
  let prep = Ghd.prepare ~rng:(rng 11) db cq in
  let decision = Ghd.decision_name prep.Ghd.decision in
  let analysis = prep.Ghd.analysis in
  let _, bucket_s = time_best ~reps:!reps (fun () -> bucket_result db cq) in
  let _, ghd_s =
    time_best ~reps:!reps (fun () -> Ghd.evaluate ~prep db cq)
  in
  let speedup = bucket_s /. Float.max ghd_s 1e-12 in
  let enforced = prep.Ghd.decision = Ghd.Ghd && threshold > 0.0 in
  Printf.printf
    "low-htw panel (%dx%d grid): gate=%s  htw=%d  induced width=%d  \
     bucket=2^%.2f generic=2^%.2f ghd=2^%.2f\n%!"
    n n decision prep.Ghd.htw analysis.Ghd.induced_width
    analysis.Ghd.binary_bound_log2 analysis.Ghd.agm.Wcoj.Agm.bound_log2
    prep.Ghd.ghd_bound_log2;
  Printf.printf "  bucket: %.4fs   ghd: %.4fs   speedup: %.2fx\n%!" bucket_s
    ghd_s speedup;
  let speedup_ok = (not enforced) || speedup >= threshold in
  (* ---------------------------------------------------------------- *)
  (* Warn-only parallel sweep check: gated evaluation of every identity
     cell through the adaptive sweep fan-out, 1 domain vs 4.           *)
  let eval_cell (_, mode, seed, g) =
    let db, cq = coloring ~mode ~seed g in
    Relation.cardinality (snd (gated_result db cq))
  in
  let sweep_once () = Experiments.Sweep.map_cells eval_cell cells in
  let seq_cards, jobs1_s = time_best ~reps:!reps sweep_once in
  let pool = Parallel.Pool.create ~num_domains:4 () in
  Experiments.Sweep.set_pool (Some pool);
  let par_cards, jobs4_s = time_best ~reps:!reps sweep_once in
  Experiments.Sweep.set_pool None;
  Parallel.Pool.shutdown pool;
  let sweep_identical = seq_cards = par_cards in
  let par_threshold =
    match Sys.getenv_opt "PPR_GHD_PAR_GATE_MAX" with
    | Some s -> ( try float_of_string (String.trim s) with _ -> 1.05)
    | None -> 1.05
  in
  (* The jobs=4 wall-time check is a hard gate only where it can be
     meaningful: a runner with fewer than 4 cores time-slices the pool's
     domains and the sweep legitimately slows down, so there it stays a
     warning. PPR_GHD_PAR_GATE_MAX=0 disables the gate everywhere. *)
  let par_enforced =
    par_threshold > 0. && Domain.recommended_domain_count () >= 4
  in
  let sweep_parallel_ok =
    par_threshold <= 0. || jobs4_s <= jobs1_s *. par_threshold
  in
  Printf.printf "sweep wall: jobs=1 %.4fs   jobs=4 %.4fs%s\n%!" jobs1_s
    jobs4_s
    (if sweep_parallel_ok then ""
     else if par_enforced then "   FAIL: jobs=4 slower (gate)"
     else "   WARNING: jobs=4 slower (warn-only: <4 cores)");
  let pass =
    identical && speedup_ok && sweep_identical
    && ((not par_enforced) || sweep_parallel_ok)
  in
  let verdict =
    let open Telemetry.Json in
    Obj
      [
        ("order", Int n);
        ("seeds", Int !seeds);
        ("reps", Int !reps);
        ("identity_cases", Int (List.length cells));
        ("identity_failures", Int !failures);
        ("identical_output", Bool identical);
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
        ("sweep_jobs1_seconds", Float jobs1_s);
        ("sweep_jobs4_seconds", Float jobs4_s);
        ("sweep_parallel_ok", Bool sweep_parallel_ok);
        ("sweep_parallel_enforced", Bool par_enforced);
        ("pass", Bool pass);
      ]
  in
  (if Sys.file_exists !json_path then
     Bench_json.update_file !json_path ~key:"ghd_comparison" ~value:verdict
   else begin
     let oc = open_out !json_path in
     Telemetry.Json.to_channel oc
       (Telemetry.Json.Obj [ ("ghd_comparison", verdict) ]);
     output_char oc '\n';
     close_out oc
   end);
  Printf.printf "updated %s with ghd_comparison\n%!" !json_path;
  if not identical then begin
    Printf.eprintf
      "FAIL: decomposition output differs from bucket elimination\n";
    exit 1
  end;
  if not sweep_identical then begin
    Printf.eprintf "FAIL: parallel sweep cardinalities differ\n";
    exit 1
  end;
  if not speedup_ok then begin
    Printf.eprintf
      "FAIL: ghd speedup %.2fx < %.2fx on the low-htw panel (gate picked %s)\n"
      speedup threshold decision;
    exit 1
  end;
  if not enforced then
    Printf.printf
      "note: speedup threshold not enforced (gate picked %s or threshold \
       disabled); gate passed on output identity\n%!"
      decision
