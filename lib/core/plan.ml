module Cq = Conjunctive.Cq

type t = Atom of Cq.atom | Join of t * t | Project of t * int list

(* One bottom-up pass: each node's sorted schema from its children's,
   with the widest schema seen so far. *)
let rec measure = function
  | Atom atom ->
    let s = List.sort_uniq Stdlib.compare (Cq.atom_vars atom) in
    (s, List.length s)
  | Join (l, r) ->
    let sl, wl = measure l and sr, wr = measure r in
    let s = List.sort_uniq Stdlib.compare (sl @ sr) in
    (s, max (List.length s) (max wl wr))
  | Project (sub, kept) ->
    let inner, w = measure sub in
    List.iter
      (fun v ->
        if not (List.mem v inner) then
          invalid_arg
            (Printf.sprintf "Plan: projection keeps v%d, absent from input" v))
      kept;
    let s = List.sort_uniq Stdlib.compare kept in
    (s, max (List.length s) w)

let schema_set plan = fst (measure plan)
let schema = schema_set
let width plan = snd (measure plan)

let rec join_count = function
  | Atom _ -> 0
  | Join (l, r) -> 1 + join_count l + join_count r
  | Project (sub, _) -> join_count sub

let rec projection_count = function
  | Atom _ -> 0
  | Join (l, r) -> projection_count l + projection_count r
  | Project (sub, _) -> 1 + projection_count sub

let rec node_count = function
  | Atom _ -> 1
  | Join (l, r) -> 1 + node_count l + node_count r
  | Project (sub, _) -> 1 + node_count sub

let left_deep = function
  | [] -> invalid_arg "Plan.left_deep: empty"
  | first :: rest -> List.fold_left (fun acc p -> Join (acc, p)) first rest

let project_to plan kept =
  if schema_set plan = List.sort_uniq Stdlib.compare kept then plan
  else Project (plan, kept)

let rec atoms = function
  | Atom atom -> [ atom ]
  | Join (l, r) -> atoms l @ atoms r
  | Project (sub, _) -> atoms sub

let answers_query cq plan =
  let sort_atoms l =
    List.sort Stdlib.compare (List.map (fun a -> (a.Cq.rel, a.Cq.vars)) l)
  in
  sort_atoms (atoms plan) = sort_atoms cq.Cq.atoms
  && schema_set plan = List.sort_uniq Stdlib.compare cq.Cq.free

let pp ?(namer = fun v -> Printf.sprintf "v%d" v) () ppf plan =
  let pp_vars ppf vs =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
      (fun ppf v -> Format.pp_print_string ppf (namer v))
      ppf vs
  in
  let rec go ppf = function
    | Atom atom ->
      Format.fprintf ppf "%s(%a)" atom.Cq.rel pp_vars atom.Cq.vars
    | Join (l, r) -> Format.fprintf ppf "(%a |><| %a)" go l go r
    | Project (sub, kept) ->
      Format.fprintf ppf "pi_{%a}%a" pp_vars kept go sub
  in
  go ppf plan
