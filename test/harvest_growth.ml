(* How the feedback harvest grows with the plan. [Driver.run ~observer]
   walks the executed plan once to turn node cardinalities into
   observations; that walk must stay linear in the plan. This check runs
   bucket elimination on two Boolean 3-COLOR queries over a one-row edge
   relation, on one fixed random graph's 24 vertices with 64 and then 128
   edges, and measures the minor-heap words a run with an observer
   allocates beyond the same run without one. The vertex set stays put,
   so the plans' schemas stay as wide and only the number of nodes
   doubles. Doubling the atoms may at most multiply the extra words by
   [bound]: a linear harvest about doubles them (2.16 when the check was
   written), while a walk that recomputes each subtree's schema at every
   join and rescans every atom for each join variable quadruples them
   (4.33).

   [Gc.minor_words] counts only the calling domain and does not vary
   from run to run, so the runs take no pool and one sample each. Prints
   both sizes' extra words and the ratio; exits 1 when the ratio passes
   [bound]. *)

module Driver = Ppr_core.Driver

let bound = 3.0

(* A Boolean 3-COLOR query with [atoms] edges over 24 vertices. *)
let query atoms =
  let g = Graphlib.Generators.random ~rng:(Graphlib.Rng.make 7) ~n:24 ~m:atoms in
  Conjunctive.Encode.coloring_query_of_graph ~mode:Conjunctive.Encode.Boolean g

let db =
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "edge"
    (Relalg.Relation.of_list (Relalg.Schema.of_list [ 0; 1 ]) [ [ 0; 0 ] ]);
  db

(* Minor words [Driver.run] allocates with an observer, beyond the same
   run without one; the artifact is prepared once, outside both. *)
let harvest_words atoms =
  let cq = query atoms in
  let compiled = Driver.prepare Driver.Bucket_elimination db cq in
  let words observer =
    let before = Gc.minor_words () in
    let o = Driver.run ?observer ~compiled Driver.Bucket_elimination db cq in
    let after = Gc.minor_words () in
    if o.Driver.status <> Driver.Completed then failwith "harvest_growth: run aborted";
    after -. before
  in
  let harvested = ref 0 in
  let with_observer = words (Some (fun obs -> harvested := List.length obs)) in
  if !harvested = 0 then failwith "harvest_growth: nothing harvested";
  with_observer -. words None

let () =
  let small = harvest_words 64 and large = harvest_words 128 in
  let ratio = large /. small in
  Printf.printf "harvest minor words: 64 atoms %.0f, 128 atoms %.0f, ratio %.2f (bound %.2f)\n"
    small large ratio bound;
  if ratio > bound then begin
    Printf.printf "the harvest grows faster than the plan\n";
    exit 1
  end
