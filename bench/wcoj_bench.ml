(* Generic-join gate: check the worst-case-optimal evaluator against
   bucket elimination and append the verdict to BENCH_results.json under
   "wcoj_comparison".

     dune exec bench/wcoj_bench.exe -- [--order N] [--seeds K] [--reps K]
         [--json FILE]

   Two obligations, mirroring the parallel gate:

   - Output identity, enforced always: over a sweep of 3-COLOR instances
     (densities x seeds x encoding modes), the forced generic join, the
     gated driver path (the structural gate with the GHD route left out),
     and the bucket-elimination plan must produce exactly the same tuple
     sets.

   - Speedup on the high-density panel, enforced only where it is
     promised: on a dense instance the AGM bound undercuts the binary
     worst case, the gate picks Generic, and the generic join avoids the
     width-n intermediates — so it should also be faster. The threshold
     (default 1.2x, override with PPR_WCOJ_GATE_MIN; 0 disables) is only
     enforced when the gate actually picked Generic on that panel; on the
     sparse panels bucket elimination wins by design and only identity is
     checked. The measured max intermediate arity of the generic join
     must never exceed bucket elimination's on the dense panel. *)

let order = ref 10
let seeds = ref 3
let reps = ref 3
let json_path = ref "BENCH_results.json"

let usage () =
  prerr_endline
    "usage: wcoj_bench.exe [--order N] [--seeds K] [--reps K] [--json FILE]";
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

let rng seed = Graphlib.Rng.make seed

let instance ~seed ~n ~m ~mode =
  let g = Graphlib.Generators.random ~rng:(rng seed) ~n ~m in
  let db = Encode.coloring_database () in
  let cq = Encode.coloring_query_of_graph ~mode ~rng:(rng (seed + 71)) g in
  (db, cq)

let bucket_result db cq =
  Ppr_core.Exec.run db (Ppr_core.Bucket.compile ~rng:(rng 11) cq)

(* The gated path as Driver.run takes it, but with the relation back
   (Driver.run only reports the cardinality): the structural gate with
   the GHD route left out, then the one materializing dispatcher. *)
let gated_result db cq =
  let decision = Ghd.decide (Ghd.analyze ~rng:(rng 11) db cq) in
  ( decision,
    Ppr_core.Exec.materialize db cq
      (Driver.prepare ~rng:(rng 11) Driver.Wcoj db cq) )

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
    match Sys.getenv_opt "PPR_WCOJ_GATE_MIN" with
    | Some s -> ( try float_of_string (String.trim s) with _ -> 1.2)
    | None -> 1.2
  in
  (* ---------------------------------------------------------------- *)
  (* Identity sweep: every (density, seed, mode) cell must agree.      *)
  let densities = [ 2; 5; 8 ] in
  let modes = [ ("bool", Encode.Boolean); ("free30", Encode.Fraction 0.3) ] in
  let cases = ref 0 in
  let failures = ref 0 in
  List.iter
    (fun density ->
      List.iter
        (fun seed ->
          List.iter
            (fun (mname, mode) ->
              let m = density * n / 2 in
              let db, cq = instance ~seed ~n ~m ~mode in
              let expected = bucket_result db cq in
              let forced = Wcoj.evaluate db cq in
              let decision, gated = gated_result db cq in
              incr cases;
              let ok =
                Relation.equal_modulo_order expected forced
                && Relation.equal_modulo_order expected gated
              in
              if not ok then begin
                incr failures;
                Printf.eprintf
                  "IDENTITY FAIL: density=%d seed=%d mode=%s decision=%s \
                   bucket=%d forced=%d gated=%d\n%!"
                  density seed mname
                  (Ghd.decision_name decision)
                  (Relation.cardinality expected)
                  (Relation.cardinality forced)
                  (Relation.cardinality gated)
              end)
            modes)
        (List.init !seeds (fun i -> i + 1)))
    densities;
  let identical = !failures = 0 in
  Printf.printf "wcoj identity sweep: %d cells, %d failures\n%!" !cases
    !failures;
  (* ---------------------------------------------------------------- *)
  (* High-density panel: decision, measured widths, and timing.        *)
  let dense_m = 9 * n / 2 in
  let db, cq = instance ~seed:1 ~n ~m:dense_m ~mode:Encode.Boolean in
  let analysis = Ghd.analyze ~rng:(rng 11) db cq in
  let gate = Ghd.decide analysis in
  let decision = Ghd.decision_name gate in
  let wcoj_outcome = Driver.run ~rng:(rng 11) Driver.Wcoj db cq in
  let bucket_outcome = Driver.run ~rng:(rng 11) Driver.Bucket_elimination db cq in
  let arity_ok = wcoj_outcome.Driver.max_arity <= bucket_outcome.Driver.max_arity in
  let _, bucket_s = time_best ~reps:!reps (fun () -> bucket_result db cq) in
  let _, wcoj_s = time_best ~reps:!reps (fun () -> Wcoj.evaluate db cq) in
  let speedup = bucket_s /. Float.max wcoj_s 1e-12 in
  let enforced = gate = Ghd.Generic && threshold > 0.0 in
  Printf.printf
    "dense panel (n=%d, m=%d): gate=%s  agm=2^%.2f binary=2^%.2f\n%!" n
    dense_m decision analysis.Ghd.agm.Wcoj.Agm.bound_log2
    analysis.Ghd.binary_bound_log2;
  Printf.printf
    "  arity: wcoj %d vs bucket %d   bucket: %.4fs   wcoj: %.4fs   \
     speedup: %.2fx\n%!"
    wcoj_outcome.Driver.max_arity bucket_outcome.Driver.max_arity bucket_s
    wcoj_s speedup;
  let speedup_ok = (not enforced) || speedup >= threshold in
  let pass = identical && arity_ok && speedup_ok in
  let verdict =
    let open Telemetry.Json in
    Obj
      [
        ("order", Int n);
        ("seeds", Int !seeds);
        ("reps", Int !reps);
        ("identity_cases", Int !cases);
        ("identity_failures", Int !failures);
        ("identical_output", Bool identical);
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
        ("pass", Bool pass);
      ]
  in
  (if Sys.file_exists !json_path then
     Bench_json.update_file !json_path ~key:"wcoj_comparison" ~value:verdict
   else begin
     let oc = open_out !json_path in
     Telemetry.Json.to_channel oc
       (Telemetry.Json.Obj [ ("wcoj_comparison", verdict) ]);
     output_char oc '\n';
     close_out oc
   end);
  Printf.printf "updated %s with wcoj_comparison\n%!" !json_path;
  if not identical then begin
    Printf.eprintf "FAIL: generic join output differs from bucket elimination\n";
    exit 1
  end;
  if not arity_ok then begin
    Printf.eprintf
      "FAIL: generic join max intermediate arity %d exceeds bucket \
       elimination's %d on the dense panel\n"
      wcoj_outcome.Driver.max_arity bucket_outcome.Driver.max_arity;
    exit 1
  end;
  if not speedup_ok then begin
    Printf.eprintf
      "FAIL: generic join speedup %.2fx < %.2fx on the dense panel (gate \
       picked %s)\n"
      speedup threshold decision;
    exit 1
  end;
  if not enforced then
    Printf.printf
      "note: speedup threshold not enforced (gate picked %s or threshold \
       disabled); gate passed on output identity and arity\n%!"
      decision
