module Cq = Conjunctive.Cq
module Database = Conjunctive.Database
module Relation = Relalg.Relation
module Iset = Set.Make (Int)

type feedback = string -> float option

type observation = { key : string; measured : float; estimated : float }

(* Correction factors are ratios of measured to estimated cardinalities;
   a single wild sample (an empty intermediate, a pathological skew hit)
   must not be able to push an estimate to zero or infinity. *)
let clamp_factor f =
  if Float.is_nan f then 1.0 else Float.max 1e-3 (Float.min 1e3 f)

(* ------------------------------------------------------------------ *)
(* Signature keys.

   Feedback is keyed by *structural* signatures, not by variable ids or
   query text, so a correction learned on one query transfers to any
   renaming of it and to structurally similar queries over the same
   relations:

   - a variable's signature is the sorted multiset of (relation, column)
     positions where it occurs — the join key "edge.1 = edge.0" has the
     same signature whatever the variables are called;
   - an atom's signature is its relation plus the repeated-variable
     pattern (the equality constraints the scan enforces);
   - the query-level signature serializes the canonicalized query
     ({!Hypergraphs.Canon}), so isomorphic queries share one key. *)

let add_str buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let signature_of_occurrences occs =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "var";
  List.iter
    (fun (rel, col) ->
      Buffer.add_char buf '|';
      add_str buf rel;
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int col))
    (List.sort
       (fun (r, c) (r', c') ->
         match String.compare r r' with 0 -> Int.compare c c' | o -> o)
       occs);
  Buffer.contents buf

let variable_signature cq v =
  let occs = ref [] in
  List.iter
    (fun atom ->
      List.iteri
        (fun col v' -> if v' = v then occs := (atom.Cq.rel, col) :: !occs)
        atom.Cq.vars)
    cq.Cq.atoms;
  signature_of_occurrences !occs

(* Every variable's occurrences from one pass over the atoms; a
   signature is built the first time it is asked for and kept. *)
let variable_signatures cq =
  let occs : (int, (string * int) list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun atom ->
      List.iteri
        (fun col v ->
          let seen = Option.value (Hashtbl.find_opt occs v) ~default:[] in
          Hashtbl.replace occs v ((atom.Cq.rel, col) :: seen))
        atom.Cq.vars)
    cq.Cq.atoms;
  let built : (int, string) Hashtbl.t = Hashtbl.create 32 in
  fun v ->
    match Hashtbl.find_opt built v with
    | Some s -> s
    | None ->
      let s =
        signature_of_occurrences
          (Option.value (Hashtbl.find_opt occs v) ~default:[])
      in
      Hashtbl.add built v s;
      s

let atom_signature atom =
  let buf = Buffer.create 32 in
  Buffer.add_string buf "atom|";
  add_str buf atom.Cq.rel;
  Buffer.add_char buf '|';
  (* Repeated-variable pattern: each position maps to the index of the
     variable's first occurrence within the atom, so edge(X,X) and
     edge(Y,Y) share a signature while edge(X,Y) does not. *)
  let arr = Array.of_list atom.Cq.vars in
  Array.iteri
    (fun i v ->
      let rec first j = if arr.(j) = v then j else first (j + 1) in
      Buffer.add_string buf (string_of_int (first 0));
      ignore i;
      Buffer.add_char buf ',')
    arr;
  Buffer.contents buf

let query_signature cq =
  let canon = Hypergraphs.Canon.canonicalize cq in
  let cq = canon.Hypergraphs.Canon.query in
  let buf = Buffer.create 64 in
  Buffer.add_string buf "query|";
  let ints vs =
    Buffer.add_char buf '(';
    List.iter
      (fun v ->
        Buffer.add_string buf (string_of_int v);
        Buffer.add_char buf ',')
      vs;
    Buffer.add_char buf ')'
  in
  ints cq.Cq.free;
  List.iter
    (fun a ->
      add_str buf a.Cq.rel;
      ints a.Cq.vars)
    cq.Cq.atoms;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The environment.                                                    *)

type env = {
  atom_card : (string, float) Hashtbl.t;
  domains : (int, float) Hashtbl.t;  (* effective: feedback applied *)
  default_domain : float;
      (* the largest observed domain: the least dangerous default for a
         variable the scan never saw (1.0 would make joining on it free) *)
  atom_corr : (Cq.atom, float) Hashtbl.t;
  query_corr : float;
  feedback_hits : int;
}

(* Distinct values a variable can take: the union of the distinct values
   in every base-relation column where the variable occurs. *)
let environment ?feedback db cq =
  let atom_card = Hashtbl.create 16 in
  let domains = Hashtbl.create 64 in
  let values_per_var : (int, Iset.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun atom ->
      let rel = Database.find db atom.Cq.rel in
      if not (Hashtbl.mem atom_card atom.Cq.rel) then
        Hashtbl.add atom_card atom.Cq.rel
          (float_of_int (Relation.cardinality rel));
      List.iteri
        (fun col v ->
          let seen =
            Option.value ~default:Iset.empty (Hashtbl.find_opt values_per_var v)
          in
          let seen =
            Relation.fold
              (fun tup acc -> Iset.add (Relalg.Tuple.get tup col) acc)
              rel seen
          in
          Hashtbl.replace values_per_var v seen)
        atom.Cq.vars)
    cq.Cq.atoms;
  Hashtbl.iter
    (fun v seen ->
      Hashtbl.replace domains v (float_of_int (max 1 (Iset.cardinal seen))))
    values_per_var;
  let default_domain =
    Hashtbl.fold (fun _ d acc -> Float.max d acc) domains 1.0
  in
  let atom_corr = Hashtbl.create 4 in
  let hits = ref 0 in
  let query_corr = ref 1.0 in
  (match feedback with
  | None -> ()
  | Some lookup ->
    (* Corrections are folded in once at build time, so the compiled
       model ({!Model}) reads corrected numbers and pays nothing extra
       per estimate. A variable factor f = measured/estimated divides
       the effective domain: joins on an underestimated key (f > 1) get
       costlier, overestimated ones (f < 1) cheaper. *)
    Hashtbl.iter
      (fun v d ->
        match lookup (variable_signature cq v) with
        | Some f ->
          incr hits;
          Hashtbl.replace domains v (Float.max 1e-3 (d /. clamp_factor f))
        | None -> ())
      (Hashtbl.copy domains);
    List.iter
      (fun atom ->
        if not (Hashtbl.mem atom_corr atom) then
          match lookup (atom_signature atom) with
          | Some f ->
            incr hits;
            Hashtbl.add atom_corr atom (clamp_factor f)
          | None -> ())
      cq.Cq.atoms;
    (match lookup (query_signature cq) with
    | Some f ->
      incr hits;
      query_corr := clamp_factor f
    | None -> ()));
  {
    atom_card;
    domains;
    default_domain;
    atom_corr;
    query_corr = !query_corr;
    feedback_hits = !hits;
  }

let corrected env = env.feedback_hits > 0
let query_correction env = env.query_corr

let atom_cardinality env atom =
  let base =
    Option.value ~default:1.0 (Hashtbl.find_opt env.atom_card atom.Cq.rel)
  in
  match Hashtbl.find_opt env.atom_corr atom with
  | Some f -> base *. f
  | None -> base

let domain_size env v =
  Option.value ~default:env.default_domain (Hashtbl.find_opt env.domains v)

(* ------------------------------------------------------------------ *)
(* The compiled model.

   Every estimate is a product of atom cardinalities and quotients by
   variable domains. Floating-point products are not associative, so
   the arithmetic order is part of the model's contract: a join divides
   [card_l *. card_r] by the product of the shared variables' domains,
   taken in increasing variable id and starting from [1.0]. The model
   numbers the variables densely in that order (bit [b] is the [b]-th
   smallest id), so walking a mask from its lowest bit up reproduces
   it. Masks take [word_bits] bits per int; a query with more variables
   spreads each mask over several words, read in the same order. *)

(* OCaml ints carry 63 bits; 62 keeps every mask word non-negative. *)
let word_bits = 62

module Model = struct
  type t = {
    ids : int array;  (* variable ids, increasing: bit [b] is [ids.(b)] *)
    words : int;  (* ints per variable mask *)
    dom : float array;  (* effective domain, by variable bit *)
    card : float array;  (* corrected cardinality, by atom *)
    mask : int array;  (* atom [a]'s variables: words [a * words ..] *)
    vstart : int array;
    vbits : int array;
        (* atom [a]'s variable bits, increasing, are
           [vbits.(vstart.(a) .. vstart.(a + 1) - 1)] *)
    var_atoms : int array;
        (* by variable bit: the atoms containing it, as a mask over atom
           indices; empty beyond [word_bits] atoms *)
  }

  (* The bit of variable [v]: its index in the increasing [ids]. *)
  let bit ids v =
    let rec search lo hi =
      assert (lo <= hi);
      let mid = (lo + hi) / 2 in
      if ids.(mid) < v then search (mid + 1) hi
      else if ids.(mid) > v then search lo (mid - 1)
      else mid
    in
    search 0 (Array.length ids - 1)

  let set_bit mask base b =
    let w = base + (b / word_bits) in
    mask.(w) <- mask.(w) lor (1 lsl (b mod word_bits))

  (* The model over [atoms] and any [extra] variables (a plan's
     projection lists). *)
  let build env atoms extra =
    let ids =
      Array.fold_left (fun acc atom -> List.rev_append atom.Cq.vars acc) extra atoms
      |> List.sort_uniq Int.compare |> Array.of_list
    in
    let bits =
      Array.map
        (fun atom ->
          Array.of_list (List.map (bit ids) (List.sort_uniq Int.compare atom.Cq.vars)))
        atoms
    in
    let nvars = Array.length ids and m = Array.length atoms in
    let words = max 1 ((nvars + word_bits - 1) / word_bits) in
    let mask = Array.make (m * words) 0 in
    let vstart = Array.make (m + 1) 0 in
    let var_atoms = Array.make (if m <= word_bits then nvars else 0) 0 in
    Array.iteri
      (fun a bs ->
        vstart.(a + 1) <- vstart.(a) + Array.length bs;
        Array.iter
          (fun b ->
            set_bit mask (a * words) b;
            if m <= word_bits then var_atoms.(b) <- var_atoms.(b) lor (1 lsl a))
          bs)
      bits;
    {
      ids;
      words;
      dom = Array.map (domain_size env) ids;
      card = Array.map (atom_cardinality env) atoms;
      mask;
      vstart;
      vbits = Array.concat (Array.to_list bits);
      var_atoms;
    }

  let make env atoms = build env atoms []

  let order_cost t perm =
    let n = Array.length perm in
    if n = 0 then 0.0
    else begin
      let words = t.words in
      let seen = Array.sub t.mask (perm.(0) * words) words in
      let card = ref t.card.(perm.(0)) in
      let cost = ref 0.0 in
      for i = 1 to n - 1 do
        let a = perm.(i) in
        let divisor = ref 1.0 in
        for k = t.vstart.(a) to t.vstart.(a + 1) - 1 do
          let b = t.vbits.(k) in
          if seen.(b / word_bits) land (1 lsl (b mod word_bits)) <> 0 then
            divisor := !divisor *. t.dom.(b)
        done;
        card := !card *. t.card.(a) /. !divisor;
        for w = 0 to words - 1 do
          seen.(w) <- seen.(w) lor t.mask.((a * words) + w)
        done;
        cost := !cost +. !card
      done;
      !cost
    end

  let join_cardinality t atoms =
    let m = Array.length t.card in
    if m > word_bits then
      invalid_arg "Cost.Model.join_cardinality: more atoms than mask bits";
    let card = ref 1.0 in
    for a = 0 to m - 1 do
      if atoms land (1 lsl a) <> 0 then card := !card *. t.card.(a)
    done;
    for b = 0 to Array.length t.dom - 1 do
      (* One division per occurrence beyond the first. *)
      let rest = ref (atoms land t.var_atoms.(b)) in
      if !rest <> 0 then begin
        rest := !rest land (!rest - 1);
        while !rest <> 0 do
          card := !card /. t.dom.(b);
          rest := !rest land (!rest - 1)
        done
      end
    done;
    !card

  (* Product of the domains of the variables in [vars] (a mask of
     [t.words] ints), lowest bit first. *)
  let domain_product t vars =
    let acc = ref 1.0 in
    for w = 0 to t.words - 1 do
      let s = ref vars.(w) and b = ref (w * word_bits) in
      while !s <> 0 do
        if !s land 1 <> 0 then acc := !acc *. t.dom.(!b);
        s := !s lsr 1;
        incr b
      done
    done;
    !acc

  (* (cardinality, cost) of a plan whose atoms, in {!Plan.atoms} order,
     are the model's. *)
  let analyze t plan =
    let words = t.words in
    let next = ref 0 in
    let rec go = function
      | Plan.Atom _ ->
        let a = !next in
        incr next;
        (t.card.(a), Array.sub t.mask (a * words) words, 0.0)
      | Plan.Join (l, r) ->
        let cl, vl, kl = go l in
        let cr, vr, kr = go r in
        let card = cl *. cr /. domain_product t (Array.map2 ( land ) vl vr) in
        (card, Array.map2 ( lor ) vl vr, kl +. kr +. card)
      | Plan.Project (sub, kept) ->
        let c, _, k = go sub in
        let vars = Array.make words 0 in
        List.iter (fun v -> set_bit vars 0 (bit t.ids v)) kept;
        (* Projection can only shrink; bound by the product of the kept
           variables' domains. *)
        let card = Float.min c (domain_product t vars) in
        (card, vars, k +. card)
    in
    let card, _, cost = go plan in
    (card, cost)
end

let analyze env plan =
  let rec kept acc = function
    | Plan.Atom _ -> acc
    | Plan.Join (l, r) -> kept (kept acc l) r
    | Plan.Project (sub, vs) -> kept (List.rev_append vs acc) sub
  in
  Model.analyze
    (Model.build env (Array.of_list (Plan.atoms plan)) (kept [] plan))
    plan

let estimate env plan = fst (analyze env plan) *. env.query_corr
let plan_cost env plan = snd (analyze env plan)
let order_cost env atoms perm = Model.order_cost (Model.make env atoms) perm
