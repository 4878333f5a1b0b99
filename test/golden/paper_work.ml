(* Prints the paper's own measurements on the instances the benchmark runs
   ({!Gate_instances}): for each of the four binary methods the figures
   compare (straightforward, early projection, reordering and bucket
   elimination), the tuples produced, the largest intermediate
   cardinality and arity, the tuples charged to the budget, the abort
   reason ([-] when the run completed) and a digest of the answer. Each
   run is under the figures' caps (300k tuples per relation, 3M in all),
   so any change to what a kernel counts, charges or records shows up as
   a diff against [paper_work.expected]. *)

module Driver = Ppr_core.Driver
module Relation = Relalg.Relation
module Schema = Relalg.Schema

let methods =
  Driver.[ Straightforward; Early_projection; Reorder; Bucket_elimination ]

(* An answer set up to column order: columns sorted by variable, rows
   sorted, then digested. *)
let digest rel =
  let attrs = Schema.attrs (Relation.schema rel) in
  let cols =
    List.mapi (fun i a -> (a, i)) attrs
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let rows =
    Relation.fold (fun t acc -> Array.map (fun i -> t.(i)) cols :: acc) rel []
    |> List.sort compare
  in
  Digest.to_hex (Digest.string (Marshal.to_string rows []))

let run ~rng meth db cq =
  let limits = Relalg.Limits.create ~max_tuples:300_000 ~max_total:3_000_000 () in
  let o = Driver.run ~rng:(rng ()) ~ctx:(Relalg.Ctx.create ~limits ()) meth db cq in
  Printf.sprintf "%s: produced=%d max_card=%d max_arity=%d charged=%d abort=%s answer=%s"
    (Driver.method_name meth) o.Driver.tuples_produced o.Driver.max_cardinality
    o.Driver.max_arity
    (Relalg.Limits.total_charged limits)
    (match Driver.abort_reason o with
    | None -> "-"
    | Some (Relalg.Limits.Cardinality n) -> Printf.sprintf "cardinality:%d" n
    | Some r -> Relalg.Limits.reason_label r)
    (match o.Driver.result with None -> "-" | Some r -> digest r)

let () =
  List.iter
    (fun (name, rng, db, cq) ->
      List.iter (fun meth -> Printf.printf "%s %s\n" name (run ~rng meth db cq)) methods)
    Gate_instances.all
