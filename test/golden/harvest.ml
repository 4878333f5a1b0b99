(* Prints every cardinality observation [Driver.run ~observer] harvests on
   the instances the benchmark runs ({!Gate_instances}), for the paper's
   four binary methods, hybrid, mini-buckets at i-bound 2, and the two
   gated methods. Each run is under the figures' caps (300k tuples per
   relation, 3M in all); a run that aborts harvests the prefix of its
   plan that completed, so the prefix is pinned too. One line per
   observation: its key, then the measured and estimated values in
   hexadecimal float notation, in emission order. Any change to a key,
   a float bit or the order shows up as a diff against
   [harvest.expected]. *)

module Driver = Ppr_core.Driver
module Cost = Ppr_core.Cost

let methods =
  Driver.
    [
      Straightforward;
      Early_projection;
      Reorder;
      Bucket_elimination;
      Hybrid;
      Minibucket 2;
      Wcoj;
      Ghd;
    ]

let run name ~rng meth db cq =
  let limits = Relalg.Limits.create ~max_tuples:300_000 ~max_total:3_000_000 () in
  let harvested = ref [] in
  let observer obs = harvested := !harvested @ obs in
  let o =
    Driver.run ~rng:(rng ()) ~observer ~ctx:(Relalg.Ctx.create ~limits ()) meth db cq
  in
  Printf.printf "%s %s: %d observations, abort=%s\n" name (Driver.method_name meth)
    (List.length !harvested)
    (match Driver.abort_reason o with
    | None -> "-"
    | Some r -> Relalg.Limits.reason_label r);
  List.iter
    (fun { Cost.key; measured; estimated } ->
      Printf.printf "  %s %h %h\n" key measured estimated)
    !harvested

let () =
  List.iter
    (fun (name, rng, db, cq) -> List.iter (fun meth -> run name ~rng meth db cq) methods)
    Gate_instances.all
