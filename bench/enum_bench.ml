(* Enumeration gate ("enumeration_comparison"): time-to-first-answer
   through the streaming result surface against the
   materialize-everything path, on a large-output acyclic panel.

   The panel is the 3-coloring of the path P_16 with every variable
   free: acyclic, width 2, and 3*2^15 answers, so the answer set dwarfs
   every intermediate. The materializing path must pay for all of it
   before the first tuple is visible; the streaming path (Exec.stream
   routes the acyclic plan through the semijoin reduction and enumerates
   constant-delay from the reduced bag tree) must produce its first
   tuple after setup that is linear in the input, not the output.

   Two checks:

   - Output identity: draining the stream must yield exactly the tuple
     set the materialized evaluator produces, on the bucket-elimination
     plan and on the GHD route.

   - Time-to-first speedup: first-tuple latency must beat the full
     materialization by 5x. The --limit 10 page shape (stream + take 10)
     is timed and reported alongside. *)

let order = 16
let reps = 5
let threshold = 5.0

module Encode = Conjunctive.Encode
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Tuple = Relalg.Tuple
module Cursor = Relalg.Cursor
module Driver = Ppr_core.Driver
module Exec = Ppr_core.Exec

let rng seed = Graphlib.Rng.make seed

(* Streamed and materialized routes may order the free variables
   differently in their output schemas; identity is on assignment sets. *)
let assignment_rows_of_relation rel =
  let schema = Relation.schema rel in
  let attrs = Schema.attrs schema in
  List.sort_uniq compare
    (List.map
       (fun tup ->
         List.sort compare
           (List.map (fun v -> (v, Tuple.get tup (Schema.index schema v))) attrs))
       (Relation.to_sorted_list rel))

let drain_assignment_rows cur =
  let schema = Cursor.schema cur in
  let attrs = Schema.attrs schema in
  let rows = ref [] in
  Cursor.iter
    (fun tup ->
      rows :=
        List.sort compare
          (List.map (fun v -> (v, Tuple.get tup (Schema.index schema v))) attrs)
        :: !rows)
    cur;
  List.sort_uniq compare !rows

let run r =
  let n = order in
  let db = Encode.coloring_database () in
  let cq =
    Encode.coloring_query_of_graph ~mode:(Encode.Fraction 1.0)
      ~rng:(rng 71) (Graphlib.Generators.path n)
  in
  let compiled = Driver.prepare Driver.Bucket_elimination db cq in
  (* ---------------------------------------------------------------- *)
  (* Identity: the drained stream is the materialized answer.          *)
  let materialized, full_s =
    Harness.time_best ~reps (fun () ->
        match (Driver.run ~compiled Driver.Bucket_elimination db cq).Driver.result with
        | Some r -> r
        | None -> failwith "materialized run failed")
  in
  let expected = assignment_rows_of_relation materialized in
  let answers = List.length expected in
  let drained = drain_assignment_rows (Exec.stream db cq compiled) in
  let ghd_compiled = Driver.prepare Driver.Ghd db cq in
  let ghd_drained = drain_assignment_rows (Exec.stream db cq ghd_compiled) in
  let identical = drained = expected && ghd_drained = expected in
  Harness.check r identical
    "streamed answers differ from the materialized path: materialized=%d \
     streamed(plan)=%d streamed(ghd)=%d"
    answers (List.length drained)
    (List.length ghd_drained);
  (* ---------------------------------------------------------------- *)
  (* Latency: first tuple, and the --limit 10 page shape.              *)
  let first, first_s =
    Harness.time_best ~reps (fun () ->
        let cur = Exec.stream db cq compiled in
        let t = Cursor.next cur in
        Cursor.close cur;
        t)
  in
  Harness.check r (first <> None) "streamed route produced no first tuple";
  let page10, page10_s =
    Harness.time_best ~reps (fun () ->
        let cur = Exec.stream db cq compiled in
        let page = Cursor.take cur 10 in
        Cursor.close cur;
        page)
  in
  Harness.check r (List.length page10 = 10)
    "streamed route produced a short --limit 10 page";
  let ratio = full_s /. Float.max first_s 1e-12 in
  Printf.printf
    "enum panel (path P_%d, all %d vars free): %d answers\n\
    \  materialize-everything: %.4fs\n\
    \  stream first answer:    %.6fs   (%.1fx faster)\n\
    \  stream --limit 10 page: %.6fs\n%!"
    n n answers full_s first_s ratio page10_s;
  Harness.check r (ratio >= threshold)
    "time-to-first speedup %.2fx < %.2fx on the enumeration panel" ratio
    threshold;
  let open Telemetry.Json in
  [
    ("order", Int n);
    ("reps", Int reps);
    ("answers", Int answers);
    ("full_seconds", Float full_s);
    ("first_answer_seconds", Float first_s);
    ("page10_seconds", Float page10_s);
    ("first_answer_speedup", Float ratio);
    ("threshold", Float threshold);
    ("identical_output", Bool identical);
  ]
