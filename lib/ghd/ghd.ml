module Iset = Graphlib.Graph.Iset
module G = Graphlib.Graph
module Hypergraph = Hypergraphs.Hypergraph
module Hypertree = Hypergraphs.Hypertree
module Jointree = Hypergraphs.Jointree
module Yannakakis = Hypergraphs.Yannakakis
module Cq = Conjunctive.Cq
module Database = Conjunctive.Database
module Joingraph = Conjunctive.Joingraph
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Ops = Relalg.Ops
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Agm = Wcoj.Agm

type decision = Bucket | Generic | Ghd

let decision_name = function
  | Bucket -> "bucket"
  | Generic -> "generic"
  | Ghd -> "ghd"

type analysis = {
  var_order : int list;
  agm : Agm.t;
  induced_width : int;
  domain_estimate : int;
  binary_bound_log2 : float;
  ran_out : int Atomic.t;
}

type prep = {
  analysis : analysis;
  decomposition : Hypertree.t;
  htw : int;
  parent : int array;
  order : int list;
  assignment : int array;
  ghd_bound_log2 : float;
  decision : decision;
}

(* ------------------------------------------------------------------ *)
(* The GHD search.                                                     *)

(* Width-1 fast path: a GYO join tree IS a width-1 decomposition — each
   hyperedge becomes a bag covered by itself. The join tree of a
   disconnected hypergraph is a forest, so the component roots are
   chained: variables never span components, hence every variable's bags
   stay connected and [Hypertree.is_valid]'s single-tree requirement is
   met. *)
let acyclic_decomposition hg =
  match Jointree.build hg with
  | None -> None
  | Some jt ->
    let m = Hypergraph.edge_count hg in
    let tree = G.create m in
    Array.iteri
      (fun i p -> if p >= 0 then ignore (G.add_edge tree i p))
      jt.Jointree.parent;
    let rec chain = function
      | a :: (b :: _ as rest) ->
        ignore (G.add_edge tree a b);
        chain rest
      | _ -> ()
    in
    chain (Jointree.roots jt);
    let chi = Array.init m (Hypergraph.edge hg) in
    let lambda = Array.init m (fun i -> [ i ]) in
    Some { Hypertree.tree; chi; lambda }

let default_restarts = 3

(* Bounded-width elimination search for the cyclic case: decompose along
   the ordered (MCS) and greedy (min-degree, min-fill) heuristic orders,
   plus rng-seeded MCS restarts, validate each candidate, keep the
   smallest width, and stop as soon as the cyclic optimum (width 2) is
   reached. *)
let cyclic_decomposition ?rng hg =
  let primal, _, of_vertex = Hypergraph.primal_graph hg in
  let heuristics =
    [
      (fun () -> Graphlib.Order.mcs primal);
      (fun () -> Graphlib.Order.min_degree primal);
      (fun () -> Graphlib.Order.min_fill primal);
    ]
    @
    match rng with
    | None -> []
    | Some rng ->
      List.init default_restarts (fun _ () -> Graphlib.Order.mcs ~rng primal)
  in
  let best = ref None in
  let rec go = function
    | [] -> ()
    | mk :: rest ->
      let htd =
        Hypertree.of_tree_decomposition hg
          (Graphlib.Treedec.of_elimination_order primal (mk ()))
          ~of_vertex
      in
      if Hypertree.is_valid hg htd then begin
        let w = Hypertree.width htd in
        (match !best with
        | Some (bw, _) when bw <= w -> ()
        | _ -> best := Some (w, htd))
      end;
      (match !best with
      | Some (2, _) -> () (* a cyclic hypergraph cannot do better *)
      | _ -> go rest)
  in
  go heuristics;
  match !best with
  | Some (_, htd) -> htd
  | None ->
    (* Unreachable in practice — elimination-order decompositions are
       valid by construction — but fall back rather than fail. *)
    snd (Hypertree.ghw_upper_bound hg)

let search ?rng hg =
  match acyclic_decomposition hg with
  | Some htd -> htd
  | None -> cyclic_decomposition ?rng hg

(* Root the decomposition tree: BFS from the lowest node of each
   component, children attached to their discoverer; the reversed visit
   order lists children before parents, as the sweeps require. *)
let root_tree tree =
  let n = G.order tree in
  let parent = Array.make n (-1) in
  let visited = Array.make n false in
  let order = ref [] in
  for s = 0 to n - 1 do
    if not visited.(s) then begin
      visited.(s) <- true;
      let q = Queue.create () in
      Queue.push s q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        order := u :: !order;
        Iset.iter
          (fun v ->
            if not visited.(v) then begin
              visited.(v) <- true;
              parent.(v) <- u;
              Queue.push v q
            end)
          (G.neighbors tree u)
      done
    end
  done;
  (parent, !order)

(* Every atom must be enforced inside a bag CONTAINING its whole edge
   (projecting a partially-covered atom would leak tuples). Prefer a bag
   whose cover already joins the atom — enforcement is then free. *)
let assign_atoms hg htd =
  let nb = Array.length htd.Hypertree.chi in
  Array.init (Hypergraph.edge_count hg) (fun j ->
      let e = Hypergraph.edge hg j in
      let in_lambda = ref (-1) and anywhere = ref (-1) in
      for b = nb - 1 downto 0 do
        if Iset.subset e htd.Hypertree.chi.(b) then begin
          anywhere := b;
          if List.mem j htd.Hypertree.lambda.(b) then in_lambda := b
        end
      done;
      if !in_lambda >= 0 then !in_lambda
      else if !anywhere >= 0 then !anywhere
      else invalid_arg "Ghd: hyperedge contained in no bag")

(* ------------------------------------------------------------------ *)
(* The structural gate.                                                *)

(* The binary-plan side of the gate needs a per-variable domain size; the
   largest distinct-value count of any base-relation column is a sound,
   cheap stand-in (base relations are small — the data complexity setting
   of the paper). *)
let domain_estimate db cq =
  let seen = Hashtbl.create 7 in
  let best = ref 1 in
  List.iter
    (fun a ->
      if not (Hashtbl.mem seen a.Cq.rel) then begin
        Hashtbl.replace seen a.Cq.rel ();
        let rel = Database.find db a.Cq.rel in
        let arity = Relation.arity rel in
        if arity > 0 then begin
          let cols = Array.init arity (fun _ -> Hashtbl.create 16) in
          Relation.iter
            (fun tup ->
              Array.iteri
                (fun c h -> Hashtbl.replace h (Relalg.Tuple.get tup c) ())
                cols)
            rel;
          Array.iter (fun h -> best := max !best (Hashtbl.length h)) cols
        end
      end)
    cq.Cq.atoms;
  !best

let analyze ?rng ?agm db cq =
  let jg = Joingraph.build cq in
  let initial = List.map (Hashtbl.find jg.Joingraph.to_vertex) cq.Cq.free in
  let ord = Graphlib.Order.mcs ~initial ?rng jg.Joingraph.graph in
  let induced_width = Graphlib.Order.induced_width jg.Joingraph.graph ord in
  let d = domain_estimate db cq in
  {
    var_order = Array.to_list (Joingraph.variable_order_of jg ord);
    agm =
      (match agm with
      | Some a -> a
      | None -> Agm.fractional_edge_cover db cq);
    induced_width;
    domain_estimate = d;
    binary_bound_log2 =
      float_of_int (induced_width + 1) *. Float.log2 (float_of_int (max 2 d));
    ran_out = Atomic.make (-1);
  }

(* fhtw-scale cost: the largest bag materialization, bounded per bag by
   the fractional edge cover of its lambda atoms (the exact subquery
   the evaluator joins). *)
let bag_bound_log2 db cq decomposition =
  let atoms = Array.of_list cq.Cq.atoms in
  Array.fold_left
    (fun acc cover ->
      let sub = List.map (fun e -> atoms.(e)) cover in
      let bag = Agm.fractional_edge_cover db (Cq.make ~atoms:sub ~free:[]) in
      Float.max acc bag.Agm.bound_log2)
    0.0 decomposition.Hypertree.lambda

(* One cost scale — log2 tuples of the worst intermediate each route can
   materialize. Ties prefer the cheapest machinery (bucket), then the
   generic join: when the best bag costs as much as the whole-query AGM
   bound (dense queries collapse to one bag), the variable-at-a-time join
   prunes within that bound while the bag would materialize its full
   cover join first. Without a decomposition the GHD route is out of the
   running. *)
let decide ?bag_log2 a =
  let b = a.binary_bound_log2 in
  let g = a.agm.Agm.bound_log2 in
  let h = Option.value bag_log2 ~default:Float.infinity in
  if b <= g && b <= h then Bucket else if h < g then Ghd else Generic

let decompose ?rng db cq analysis =
  let hg = Hypergraph.of_query cq in
  let decomposition = search ?rng hg in
  let parent, order = root_tree decomposition.Hypertree.tree in
  let ghd_bound_log2 = bag_bound_log2 db cq decomposition in
  {
    analysis;
    decomposition;
    htw = Hypertree.width decomposition;
    parent;
    order;
    assignment = assign_atoms hg decomposition;
    ghd_bound_log2;
    decision = decide ~bag_log2:ghd_bound_log2 analysis;
  }

(* The analysis draws its MCS tie-breaks from [rng] before the search
   draws its restarts, so its variable order is the one [analyze ?rng]
   alone returns. *)
let prepare ?rng ?agm ?route db cq =
  let prep = decompose ?rng db cq (analyze ?rng ?agm db cq) in
  match route with Some decision -> { prep with decision } | None -> prep

(* ------------------------------------------------------------------ *)
(* The evaluator: materialize bags, run the Yannakakis sweeps.          *)

let materialize_bag ~ctx ~rels ~assignment htd b =
  let lambda = htd.Hypertree.lambda.(b) in
  let chi = htd.Hypertree.chi.(b) in
  let target schema = Schema.restrict schema ~keep:(fun v -> Iset.mem v chi) in
  (* The assigned atoms that are not already join factors: their
     variables all lie inside the joined schema, so a semijoin filters
     exactly the tuples violating them. Without this, the projected bag
     is a superset and the sweeps would overcount. *)
  let filters =
    List.filter_map
      (fun (j, b') -> if b' = b && not (List.mem j lambda) then Some rels.(j) else None)
      (List.mapi (fun j b' -> (j, b')) (Array.to_list assignment))
  in
  let join_all = function
    | [] -> invalid_arg "Ghd: bag with an empty cover"
    | e0 :: rest ->
      List.fold_left (fun acc e -> Ops.natural_join ~ctx acc rels.(e)) rels.(e0) rest
  in
  match (List.rev lambda, filters) with
  | last :: (_ :: _ as before), [] ->
    (* No filter between the last cover join and the projection: fuse
       them, so the bag's full join is never written. *)
    let left = join_all (List.rev before) and right = rels.(last) in
    Ops.join_project ~ctx left right
      (target (Schema.union (Relation.schema left) (Relation.schema right)))
  | _ ->
    let joined =
      List.fold_left (fun acc f -> Ops.semijoin ~ctx acc f) (join_all lambda) filters
    in
    Ops.project ~ctx joined (target (Relation.schema joined))

(* Shared front half of both evaluation modes: validate the prep, tick
   fuel, and materialize every bag (inside the given [span]). *)
let prepared_bags ~ctx ~span ~prep db cq =
  let atoms = Array.of_list cq.Cq.atoms in
  if Array.length prep.assignment <> Array.length atoms then
    invalid_arg "Ghd: prep does not match the query";
  (match Ctx.limits ctx with
  | Some l -> Limits.tick_operator l
  | None -> ());
  let htd = prep.decomposition in
  let nb = Array.length htd.Hypertree.chi in
  let rels = Array.map (fun a -> Database.eval_atom ~ctx db a) atoms in
  Array.init nb (fun b ->
      span "op.ghd.bag"
        [
          ("bag", Telemetry.Attr.Int b);
          ("cover", Telemetry.Attr.Int (List.length htd.Hypertree.lambda.(b)));
        ]
        (fun () -> materialize_bag ~ctx ~rels ~assignment:prep.assignment htd b))

let span_of_ctx ctx =
  match Ctx.telemetry ctx with
  | None -> fun _name _attrs f -> f ()
  | Some t -> fun name attrs f -> Telemetry.with_span ~attrs t name (fun _ -> f ())

let eval_attrs ~prep ~cq nb =
  [
    ("bags", Telemetry.Attr.Int nb);
    ("htw", Telemetry.Attr.Int prep.htw);
    ("atoms", Telemetry.Attr.Int (List.length cq.Cq.atoms));
    ("free", Telemetry.Attr.Int (List.length cq.Cq.free));
  ]

let incr_counter ctx name =
  match Ctx.telemetry ctx with
  | Some t ->
    Telemetry.Metrics.incr (Telemetry.Metrics.counter (Telemetry.metrics t) name)
  | None -> ()

let evaluate ?(ctx = Ctx.null) ?prep db cq =
  let prep = match prep with Some p -> p | None -> prepare db cq in
  let nb = Array.length prep.decomposition.Hypertree.chi in
  span_of_ctx ctx "op.ghd.eval" (eval_attrs ~prep ~cq nb) @@ fun () ->
  incr_counter ctx "ops.ghd";
  let bags = prepared_bags ~ctx ~span:(span_of_ctx ctx) ~prep db cq in
  Yannakakis.sweeps ~ctx ~parent:prep.parent ~order:prep.order
    ~vars:prep.decomposition.Hypertree.chi ~free:cq.Cq.free bags

let enumerate ?(ctx = Ctx.null) ?prep db cq =
  let prep = match prep with Some p -> p | None -> prepare db cq in
  let nb = Array.length prep.decomposition.Hypertree.chi in
  (* Setup — bag materialization, the two semijoin sweeps and the
     per-node index build — runs inside the span and completes before
     this returns; the iterator it yields touches only the prebuilt
     indexes, so no span is left open across consumer pulls (cursors
     outlive any span scope). *)
  span_of_ctx ctx "op.ghd.enumerate" (eval_attrs ~prep ~cq nb) @@ fun () ->
  incr_counter ctx "ops.ghd";
  let bags = prepared_bags ~ctx ~span:(span_of_ctx ctx) ~prep db cq in
  Yannakakis.enumerate ~ctx ~parent:prep.parent ~order:prep.order
    ~free:cq.Cq.free bags
