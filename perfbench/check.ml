(* Independent reference answers: a backtracking search that decides the
   instance directly from its graph or formula, never through the query
   encoding the program evaluates. *)

(* Is the graph 3-colorable? Vertices are colored highest degree first;
   a color is tried only when no colored neighbor already holds it. *)
let colorable ?(k = 3) g =
  let n = Graphlib.Graph.order g in
  let adj =
    Array.init n (fun v ->
        Graphlib.Graph.Iset.elements (Graphlib.Graph.neighbors g v))
  in
  let order =
    List.sort
      (fun a b -> compare (List.length adj.(b)) (List.length adj.(a)))
      (List.init n Fun.id)
    |> Array.of_list
  in
  let color = Array.make n (-1) in
  let rec go i =
    i = n
    ||
    let v = order.(i) in
    let rec try_color c =
      c < k
      && ((List.for_all (fun u -> color.(u) <> c) adj.(v)
          && begin
               color.(v) <- c;
               go (i + 1) || begin color.(v) <- -1; false end
             end)
         || try_color (c + 1))
    in
    try_color 0
  in
  go 0

(* Is the CNF satisfiable? Variables are assigned in index order; a
   clause whose literals are all assigned false prunes the branch. *)
let satisfiable (cnf : Conjunctive.Cnf.t) =
  let open Conjunctive.Cnf in
  let n = cnf.num_vars in
  let value = Array.make n 0 (* 0 unassigned, 1 true, -1 false *) in
  let by_last = Array.make (max n 1) [] in
  List.iter
    (fun clause ->
      let last = List.fold_left (fun m l -> max m l.var) 0 clause in
      by_last.(last) <- clause :: by_last.(last))
    cnf.clauses;
  let holds clause =
    List.exists
      (fun l -> value.(l.var) = if l.positive then 1 else -1)
      clause
  in
  let rec go v =
    v = n
    || List.exists
         (fun b ->
           value.(v) <- b;
           let ok = List.for_all holds by_last.(v) && go (v + 1) in
           value.(v) <- 0;
           ok)
         [ 1; -1 ]
  in
  go 0

