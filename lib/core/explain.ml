module Cq = Conjunctive.Cq

type node = {
  plan : Plan.t;
  description : string;
  schema : int list;
  estimated_rows : float;
  actual_rows : int;
  children : node list;
}

let describe ~namer = function
  | Plan.Atom atom ->
    Format.asprintf "scan %s(%a)" atom.Cq.rel
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf v -> Format.pp_print_string ppf (namer v)))
      atom.Cq.vars
  | Plan.Join _ -> "join"
  | Plan.Project (_, kept) ->
    Format.asprintf "project [%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         (fun ppf v -> Format.pp_print_string ppf (namer v)))
      (List.sort_uniq Stdlib.compare kept)

let analyze ?ctx ?feedback db plan =
  let env =
    Cost.environment ?feedback db
      (Cq.make ~atoms:(Plan.atoms plan) ~free:(Plan.schema plan))
  in
  let default_namer v = Printf.sprintf "v%d" v in
  (* [Exec.run] observes nodes in post-order, so when a node completes
     its children are the topmost finished nodes, rightmost first. *)
  let finished = ref [] in
  let observe plan actual_rows =
    let rec pop n children stack =
      if n = 0 then (children, stack)
      else
        match stack with
        | node :: rest -> pop (n - 1) (node :: children) rest
        | [] -> invalid_arg "Explain.analyze: observation out of post-order"
    in
    let arity =
      match plan with Plan.Atom _ -> 0 | Plan.Project _ -> 1 | Plan.Join _ -> 2
    in
    let children, rest = pop arity [] !finished in
    finished :=
      {
        plan;
        description = describe ~namer:default_namer plan;
        schema = Plan.schema plan;
        estimated_rows = Cost.estimate env plan;
        actual_rows;
        children;
      }
      :: rest
  in
  let rel = Exec.run ?ctx ~observe db plan in
  match !finished with
  | [ root ] -> (root, rel)
  | _ -> invalid_arg "Explain.analyze: observation out of post-order"

let render ?(namer = fun v -> Printf.sprintf "v%d" v) root =
  let buf = Buffer.create 256 in
  let rec go depth node =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf
      (Printf.sprintf "%s [%s]  est=%.1f rows=%d\n"
         (describe ~namer node.plan)
         (String.concat "," (List.map namer node.schema))
         node.estimated_rows node.actual_rows);
    List.iter (go (depth + 1)) node.children
  in
  go 0 root;
  Buffer.contents buf

let misestimate_ratio node =
  let est = Float.max node.estimated_rows 1e-9 in
  let actual = Float.max (float_of_int node.actual_rows) 1e-9 in
  Float.max (est /. actual) (actual /. est)

let largest_misestimate root =
  let rec worst node =
    let here = (node, misestimate_ratio node) in
    List.fold_left
      (fun ((_, best_ratio) as best) child ->
        let ((_, ratio) as candidate) = worst child in
        if ratio > best_ratio then candidate else best)
      here node.children
  in
  let node, ratio = worst root in
  if ratio <= 1.0 +. 1e-9 then None else Some (node, ratio)
