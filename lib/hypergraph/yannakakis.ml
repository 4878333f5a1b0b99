module Iset = Graphlib.Graph.Iset
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Ops = Relalg.Ops
module Cq = Conjunctive.Cq
module Database = Conjunctive.Database

let is_acyclic_query cq = Gyo.is_acyclic (Hypergraph.of_query cq)

(* The three sweeps, abstracted over what a tree node holds: [vars.(i)]
   is node i's variable set (a hyperedge for the classic algorithm, a
   decomposition bag for GHD evaluation) and [rels.(i)] its materialized
   relation. [order] lists every node bottom-up (children before their
   parents); roots have [parent.(i) = -1], one per connected component. *)
let sweeps ?ctx ~parent ~order ~vars ~free rels =
  let rels = Array.copy rels in
  (* Upward semijoin pass: parents reduced by children, bottom-up. *)
  List.iter
    (fun i ->
      let p = parent.(i) in
      if p >= 0 then rels.(p) <- Ops.semijoin ?ctx rels.(p) rels.(i))
    order;
  (* Downward pass: children reduced by parents, top-down. *)
  List.iter
    (fun i ->
      let p = parent.(i) in
      if p >= 0 then rels.(i) <- Ops.semijoin ?ctx rels.(i) rels.(p))
    (List.rev order);
  (* Join-project pass: merge children into parents, keeping only
     variables still needed by unmerged nodes or the target schema. *)
  let m = Array.length vars in
  let live = Array.make m true in
  let free = Iset.of_list free in
  let needed_later () =
    let acc = ref free in
    for j = 0 to m - 1 do
      if live.(j) then acc := Iset.union !acc vars.(j)
    done;
    !acc
  in
  let components = ref [] in
  List.iter
    (fun i ->
      live.(i) <- false;
      let p = parent.(i) in
      if p < 0 then components := rels.(i) :: !components
      else begin
        let keep = needed_later () in
        let target =
          Schema.restrict
            (Schema.union (Relation.schema rels.(p)) (Relation.schema rels.(i)))
            ~keep:(fun v -> Iset.mem v keep)
        in
        rels.(p) <- Ops.join_project ?ctx rels.(p) rels.(i) target
      end)
    order;
  let project_free rel =
    let target =
      Schema.restrict (Relation.schema rel) ~keep:(fun v -> Iset.mem v free)
    in
    Ops.project ?ctx rel target
  in
  match List.map project_free !components with
  | [] -> invalid_arg "Yannakakis.sweeps: no tree nodes"
  | first :: rest ->
    List.fold_left (fun acc r -> Ops.natural_join ?ctx acc r) first rest

module Tbl = Hashtbl.Make (struct
  type t = Relalg.Tuple.t

  let equal = Relalg.Tuple.equal
  let hash = Relalg.Tuple.hash
end)

(* How a node's candidate tuples are found during enumeration: roots list
   all their tuples; every other node is indexed by its key — the
   projection onto the attributes shared with its parent (possibly the
   empty tuple, when a decomposition chains disconnected components into
   one tree, which correctly degenerates to a cross product). *)
type source =
  | Root of Relalg.Tuple.t list
  | Keyed of Relalg.Tuple.t list Tbl.t * int * int array
      (* index, parent's pre-order slot, key positions in the parent *)

(* Enumeration with bounded delay from the reduced tree: run only the
   two semijoin sweeps (no join-project pass), index each node on its
   key with the parent, and backtrack over nodes in pre-order. Full
   reduction makes the tree globally consistent, so within a connected
   component every partial assignment extends to a full one — the
   search never dead-ends and the delay between answers is bounded by
   the number of nodes, not by the data. Answers are projections onto
   [free] and may repeat when [free] misses join attributes; set
   semantics is the consumer's (deduplicating cursor's) business. *)
let enumerate ?ctx ~parent ~order ~free rels =
  let rels = Array.copy rels in
  List.iter
    (fun i ->
      let p = parent.(i) in
      if p >= 0 then rels.(p) <- Ops.semijoin ?ctx rels.(p) rels.(i))
    order;
  List.iter
    (fun i ->
      let p = parent.(i) in
      if p >= 0 then rels.(i) <- Ops.semijoin ?ctx rels.(i) rels.(p))
    (List.rev order);
  (* Pre-order: the reversed bottom-up order lists every parent before
     its children, which is all the backtracking search needs. *)
  let pre = Array.of_list (List.rev order) in
  let n = Array.length pre in
  let slot_of = Array.make n 0 in
  Array.iteri (fun j i -> slot_of.(i) <- j) pre;
  let sources =
    Array.init n (fun j ->
        let i = pre.(j) in
        let p = parent.(i) in
        if p < 0 then Root (Relation.to_list rels.(i))
        else begin
          let shared =
            Schema.inter (Relation.schema rels.(i)) (Relation.schema rels.(p))
          in
          let child_pos = Schema.positions shared (Relation.schema rels.(i)) in
          let parent_pos =
            Schema.positions shared (Relation.schema rels.(p))
          in
          let tbl = Tbl.create (max 16 (Relation.cardinality rels.(i))) in
          Relation.iter
            (fun tup ->
              let key = Relalg.Tuple.project tup child_pos in
              let prev = try Tbl.find tbl key with Not_found -> [] in
              Tbl.replace tbl key (tup :: prev))
            rels.(i);
          Keyed (tbl, slot_of.(p), parent_pos)
        end)
  in
  (* Where each free variable's value lives: any node containing it — all
     nodes are bound when an answer is emitted. *)
  let emit_src =
    List.map
      (fun v ->
        let found = ref None in
        Array.iteri
          (fun j i ->
            if !found = None then
              let s = Relation.schema rels.(i) in
              if Schema.mem s v then found := Some (j, Schema.index s v))
          pre;
        match !found with
        | Some loc -> loc
        | None ->
          invalid_arg "Yannakakis.enumerate: free variable in no tree node")
      free
  in
  let schema = Schema.of_list free in
  let limits = Option.bind ctx Relalg.Ctx.limits in
  let charge () =
    match limits with Some l -> Relalg.Limits.charge l 1 | None -> ()
  in
  let iter emit =
    if free = [] then begin
      (* Boolean answer: global consistency makes nonemptiness of every
         node equivalent to satisfiability — no search needed, and no
         walk over the full join just to emit one 0-ary tuple. *)
      if Array.for_all (fun r -> not (Relation.is_empty r)) rels then begin
        charge ();
        emit [||]
      end
    end
    else begin
      let chosen = Array.make n [||] in
      let answer () =
        Array.of_list
          (List.map (fun (j, col) -> Relalg.Tuple.get chosen.(j) col) emit_src)
      in
      let rec go j =
        if j = n then begin
          charge ();
          emit (answer ())
        end
        else
          let candidates =
            match sources.(j) with
            | Root l -> l
            | Keyed (tbl, pslot, parent_pos) -> (
              let key = Relalg.Tuple.project chosen.(pslot) parent_pos in
              try Tbl.find tbl key with Not_found -> [])
          in
          List.iter
            (fun tup ->
              chosen.(j) <- tup;
              go (j + 1))
            candidates
      in
      go 0
    end
  in
  (schema, iter)

let evaluate ?ctx db cq =
  let hg = Hypergraph.of_query cq in
  match Jointree.build hg with
  | None -> None
  | Some jt ->
    let atoms = Array.of_list cq.Cq.atoms in
    let rels =
      Array.map (fun atom -> Database.eval_atom ?ctx db atom) atoms
    in
    let vars = Array.init (Array.length atoms) (Hypergraph.edge hg) in
    Some
      (sweeps ?ctx ~parent:jt.Jointree.parent ~order:jt.Jointree.order ~vars
         ~free:cq.Cq.free rels)
