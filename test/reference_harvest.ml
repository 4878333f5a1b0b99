(* Reference implementation of the driver's cardinality harvest, as it
   stood before the one-pass walk: every join recomputes both children's
   schemas with [Plan.schema], finds its shared variables with
   [List.mem], and rebuilds each shared variable's signature with
   [Cost.variable_signature], a scan of every atom. Quadratic in the
   plan, but it shares no walk, merge or signature table with
   [Driver]; the harvest tests hold the driver's observations to its
   output, down to the bits of every float. *)

module Cq = Conjunctive.Cq
module Cost = Ppr_core.Cost
module Plan = Ppr_core.Plan

(* The observations for a binary plan's nodes, from the post-order
   cardinalities of the nodes that finished. *)
let node_observations ~env cq plan cards =
  let n = Array.length cards in
  let idx = ref 0 in
  let obs = ref [] in
  let emit key measured estimated =
    obs := { Cost.key; measured; estimated } :: !obs
  in
  let take () =
    if !idx >= n then None
    else begin
      let c = float_of_int cards.(!idx) in
      incr idx;
      Some c
    end
  in
  let rec walk node =
    match node with
    | Plan.Atom atom ->
      let m = take () in
      (match m with
      | Some measured ->
        let est = Cost.atom_cardinality env atom in
        emit (Cost.atom_signature atom) (measured +. 1.) (est +. 1.)
      | None -> ());
      m
    | Plan.Join (l, r) -> (
      match walk l with
      | None -> None
      | Some ml -> (
        match walk r with
        | None -> None
        | Some mr -> (
          match take () with
          | None -> None
          | Some measured ->
            (match
               List.filter (fun v -> List.mem v (Plan.schema r)) (Plan.schema l)
             with
            | [] -> ()
            | shared ->
              let denom =
                List.fold_left (fun acc v -> acc *. Cost.domain_size env v) 1.0 shared
              in
              let est = ml *. mr /. denom in
              let ratio = Cost.clamp_factor ((measured +. 1.) /. (est +. 1.)) in
              let per_var = ratio ** (1. /. float_of_int (List.length shared)) in
              List.iter (fun v -> emit (Cost.variable_signature cq v) per_var 1.0) shared);
            Some measured)))
    | Plan.Project (sub, _) -> (
      match walk sub with None -> None | Some _ -> take ())
  in
  ignore (walk plan);
  List.rev !obs

(* The whole answer against the textbook estimate of the reference
   left-deep plan, under the query signature. *)
let query_observation ~env cq result =
  match cq.Cq.atoms with
  | [] -> []
  | atoms ->
    let reference =
      Plan.project_to (Plan.left_deep (List.map (fun a -> Plan.Atom a) atoms)) cq.Cq.free
    in
    [
      {
        Cost.key = Cost.query_signature cq;
        measured = float_of_int (Relalg.Relation.cardinality result) +. 1.;
        estimated = Cost.estimate env reference +. 1.;
      };
    ]
