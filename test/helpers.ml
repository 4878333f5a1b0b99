(* Shared helpers for the test suites: deterministic instance generators,
   QCheck arbitraries, and independent brute-force oracles that don't go
   through any of the code under test. *)

module G = Graphlib.Graph

let rng seed = Graphlib.Rng.make seed

(* ------------------------------------------------------------------ *)
(* Independent oracles.                                                *)

(* 3-colorability by backtracking directly on the graph — shares no code
   with the relational engine or the planners. *)
let brute_force_colorable ?(colors = 3) g =
  let n = G.order g in
  let assignment = Array.make (max n 1) 0 in
  let ok v c =
    G.Iset.for_all
      (fun w -> w >= v || assignment.(w) <> c)
      (G.neighbors g v)
  in
  let rec color v =
    v >= n
    || List.exists
         (fun c ->
           ok v c
           && (assignment.(v) <- c;
               color (v + 1)))
         (List.init colors (fun c -> c + 1))
  in
  color 0

(* All proper colorings of the graph restricted to the given variables,
   as sorted value lists — an oracle for non-Boolean query answers. *)
let all_colorings ?(colors = 3) g ~keep =
  let n = G.order g in
  let assignment = Array.make (max n 1) 0 in
  let results = ref [] in
  let ok v c =
    G.Iset.for_all (fun w -> w >= v || assignment.(w) <> c) (G.neighbors g v)
  in
  let rec color v =
    if v >= n then
      results := List.map (fun u -> assignment.(u)) keep :: !results
    else
      List.iter
        (fun c ->
          if ok v c then begin
            assignment.(v) <- c;
            color (v + 1)
          end)
        (List.init colors (fun c -> c + 1))
  in
  color 0;
  List.sort_uniq Stdlib.compare !results

(* ------------------------------------------------------------------ *)
(* Instance generators.                                                *)

let random_graph ~seed ~n ~m = Graphlib.Generators.random ~rng:(rng seed) ~n ~m

(* QCheck arbitrary for small random graphs (2..9 vertices). *)
let graph_arbitrary =
  let gen =
    QCheck.Gen.(
      int_range 2 9 >>= fun n ->
      int_range 1 (max 1 (n * (n - 1) / 2)) >>= fun m ->
      int_range 0 10_000 >>= fun seed ->
      return (random_graph ~seed ~n ~m))
  in
  let print g =
    Format.asprintf "%a" G.pp g
  in
  QCheck.make ~print gen

(* Small graphs whose exact treewidth is still cheap to compute. *)
let tiny_graph_arbitrary =
  let gen =
    QCheck.Gen.(
      int_range 2 7 >>= fun n ->
      int_range 1 (max 1 (n * (n - 1) / 2)) >>= fun m ->
      int_range 0 10_000 >>= fun seed ->
      return (random_graph ~seed ~n ~m))
  in
  QCheck.make ~print:(fun g -> Format.asprintf "%a" G.pp g) gen

let coloring_query ?(mode = Conjunctive.Encode.Boolean) ?seed g =
  let rng = Option.map rng seed in
  Conjunctive.Encode.coloring_query_of_graph ~mode ?rng g

let coloring_db = Conjunctive.Encode.coloring_database ()

(* Relations for engine tests. *)
let relation schema rows =
  Relalg.Relation.of_list (Relalg.Schema.of_list schema) rows

let sorted_rows rel =
  List.map Relalg.Tuple.to_list (Relalg.Relation.to_sorted_list rel)

(* Alcotest shortcuts. *)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_rows msg expected rel =
  Alcotest.(check (list (list int))) msg (List.sort compare expected) (sorted_rows rel)

let qtest ?(count = 100) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arbitrary prop)

(* What a query's atom scans charge: every evaluation pays it before it
   joins anything. *)
let scan_charge db (cq : Conjunctive.Cq.t) =
  List.fold_left
    (fun acc a ->
      acc + Relalg.Relation.cardinality (Conjunctive.Database.eval_atom db a))
    0 cq.Conjunctive.Cq.atoms

(* ------------------------------------------------------------------ *)
(* Nested-loop relational oracle.                                      *)

(* A relation as plain lists — attribute names and sorted rows, distinct
   except in a kernel's result read by [of_relation] —
   evaluated by nested loops over association lists. Only [of_relation]
   touches the engine, to read a kernel's result; the evaluation shares
   no code with [Ops], [Relation] or [Arena]. *)
module Oracle = struct
  type t = { attrs : int list; rows : int list list }

  let make attrs rows = { attrs; rows = List.sort_uniq compare rows }

  (* A kernel's result read with its multiplicity: rows are sorted but
     not deduplicated, so a kernel that stores a row twice cannot equal
     an oracle result, whose rows [make] keeps distinct. *)
  let of_relation rel =
    {
      attrs = Relalg.Schema.attrs (Relalg.Relation.schema rel);
      rows =
        List.sort compare
          (List.map Relalg.Tuple.to_list (Relalg.Relation.to_list rel));
    }

  let value attrs row a = List.assoc a (List.combine attrs row)

  (* Rows [x] of [r] and [y] of [s] agree on every shared attribute. *)
  let agree r s x y =
    List.for_all
      (fun a ->
        (not (List.mem a s.attrs)) || value r.attrs x a = value s.attrs y a)
      r.attrs

  let join r s =
    let rest = List.filter (fun a -> not (List.mem a r.attrs)) s.attrs in
    make (r.attrs @ rest)
      (List.concat_map
         (fun x ->
           List.filter_map
             (fun y ->
               if agree r s x y then Some (x @ List.map (value s.attrs y) rest)
               else None)
             s.rows)
         r.rows)

  let project r attrs =
    make attrs (List.map (fun x -> List.map (value r.attrs x) attrs) r.rows)

  let semijoin r s =
    make r.attrs
      (List.filter (fun x -> List.exists (agree r s x) s.rows) r.rows)

  let antijoin r s =
    make r.attrs
      (List.filter (fun x -> not (List.exists (agree r s x) s.rows)) r.rows)

  let rename r mapping =
    let fresh a = Option.value ~default:a (List.assoc_opt a mapping) in
    { r with attrs = List.map fresh r.attrs }

  let union r s = make r.attrs (r.rows @ (project s r.attrs).rows)
end
