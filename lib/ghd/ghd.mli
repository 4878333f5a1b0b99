(** Decomposition-based evaluation: generalized hypertree decompositions
    plus full Yannakakis, and the one structural gate that routes a query
    among bucket elimination, the generic join and this evaluator.

    This is the "Structure-Guided Query Evaluation" pipeline over the
    existing machinery: {!search} finds a generalized hypertree
    decomposition (the GYO join tree directly for acyclic queries, a
    bounded-width elimination search otherwise), {!evaluate} materializes
    each bag by joining its covering [lambda] atoms through the execution
    context, enforces every remaining atom with a semijoin inside a bag
    containing it, and runs the {!Hypergraphs.Yannakakis.sweeps} over the
    bag tree — making Yannakakis total on cyclic queries.

    The gate compares, on one log2-tuples cost scale, the bucket-
    elimination worst case (induced width), the AGM fractional-cover
    bound (generic join) and the fractional-hypertree-scale bag bound.
    {!analyze} computes the first two, which every gated method and
    cost-aware admission share; only {!decompose} (and {!prepare}, which
    is {!analyze} then {!decompose}) adds the decomposition search and
    the bag bound. The [ghd] method defers that half: it runs it only
    when the generic join, tried first, runs out. *)

type decision = Bucket | Generic | Ghd

val decision_name : decision -> string

type analysis = {
  var_order : int list;  (** MCS variable order, free variables first *)
  agm : Wcoj.Agm.t;  (** fractional edge cover of the whole query *)
  induced_width : int;  (** induced width of [var_order] on the join graph *)
  domain_estimate : int;  (** max per-column distinct values over atoms *)
  binary_bound_log2 : float;
      (** bucket-elimination worst case, [(induced_width + 1) * log2 d] *)
  ran_out : int Atomic.t;
      (** the largest allowance within which the generic join along
          [var_order] has run out on an artifact carrying this analysis,
          [-1] until one has. The search is deterministic, so it runs
          out again within any allowance up to this one: a replay of the
          artifact skips its attempt then (see [Exec.attempt]). The
          one field that is run state, not analysis: a [Deferred]
          artifact's resolved prep shares it, and two analyses compared
          with [=] compare it too. An [Atomic.t], not a closure, so an
          artifact still Marshals *)
}
(** The gate's shared analysis: everything but the decomposition. *)

val analyze :
  ?rng:Graphlib.Rng.t ->
  ?agm:Wcoj.Agm.t ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  analysis
(** MCS order (ties broken by [rng]), induced width, domain estimate, AGM
    cover and binary bound, with nothing yet run out. Pure — touches only
    relation contents, never runs a join — and far cheaper than
    {!search}. [agm], when given, is
    the query's cover already computed against the same database (the
    serving layer's admission pricing computes it first); it is used
    as-is instead of being computed again. *)

val decide : ?bag_log2:float -> analysis -> decision
(** The gate: the smallest of [binary_bound_log2], [agm.bound_log2] and
    [bag_log2], ties preferring bucket, then the generic join. Without
    [bag_log2] the GHD route is left out, so the answer is [Bucket] or
    [Generic] (the [wcoj] method's gate). *)

type prep = {
  analysis : analysis;
  decomposition : Hypergraphs.Hypertree.t;
      (** validated GHD of the query hypergraph *)
  htw : int;  (** its generalized hypertree width (largest cover) *)
  parent : int array;  (** rooted bag tree: parent of each bag, -1 at roots *)
  order : int list;  (** bags bottom-up (children before parents) *)
  assignment : int array;
      (** atom index -> bag whose chi contains the whole atom; the
          evaluator enforces the atom there *)
  ghd_bound_log2 : float;
      (** largest per-bag fractional-cover bound — the fhtw cost scale *)
  decision : decision;
      (** [decide ~bag_log2:ghd_bound_log2 analysis], or the route
          {!prepare} was given *)
}

val bag_bound_log2 :
  Conjunctive.Database.t -> Conjunctive.Cq.t -> Hypergraphs.Hypertree.t -> float
(** The largest per-bag fractional-cover bound of a decomposition of the
    query: each bag is bounded by the AGM bound of its [lambda] atoms. *)

val search :
  ?rng:Graphlib.Rng.t -> Hypergraphs.Hypergraph.t -> Hypergraphs.Hypertree.t
(** Find a generalized hypertree decomposition: GYO fast path (width 1,
    with forest roots chained into a single valid tree) when the
    hypergraph is acyclic, otherwise the best of the MCS / min-degree /
    min-fill elimination decompositions plus rng-seeded MCS restarts,
    each checked with {!Hypergraphs.Hypertree.is_valid}, stopping early
    at the cyclic optimum (width 2). *)

val decompose :
  ?rng:Graphlib.Rng.t ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  analysis ->
  prep
(** The rest of {!prepare} after its analysis: the decomposition, rooted
    bag tree, atom assignment, bag bound and the three-way {!decide}.
    [rng] feeds the search's restarts. *)

val prepare :
  ?rng:Graphlib.Rng.t ->
  ?agm:Wcoj.Agm.t ->
  ?route:decision ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  prep
(** The planning half, every bound and decision at once:
    [decompose ?rng db cq (analyze ?rng ?agm db cq)]. The analysis is the
    one [analyze ?rng ?agm] returns on its own: it draws from [rng]
    before the search does. So a caller that keeps the rng's state from
    right after {!analyze} can run {!decompose} later and get this very
    prep (the [ghd] method's deferred artifact does). [route], when
    given, replaces the comparison's decision: the prep then runs that
    route, whatever the bounds say (the [ghd] method's forced routes).
    Admission, explain and the forced routes use it whole. *)

val evaluate :
  ?ctx:Relalg.Ctx.t ->
  ?prep:prep ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  Relalg.Relation.t
(** Run Yannakakis over the decomposition (unconditionally — gating is
    the caller's business, see {!prepare}). [prep] defaults to a fresh
    {!prepare} and must describe the {e same} query against the same
    database (the serving layer's plan cache replays stored preps so
    hits skip the GHD search). Tuple-identical to any correct plan:
    each bag joins its cover atoms, every other atom is semijoin-enforced
    in a bag containing it, and the three sweeps assemble the projected
    answer. Everything flows through the context — [op.ghd.eval] span
    with per-bag [op.ghd.bag] spans, the [ops.ghd] counter, limits,
    stats and pool apply to every operator.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Invalid_argument when [prep] does not match the query.
    @raise Not_found if an atom names an unregistered relation. *)

val enumerate :
  ?ctx:Relalg.Ctx.t ->
  ?prep:prep ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  Relalg.Schema.t * ((Relalg.Tuple.t -> unit) -> unit)
(** The streaming counterpart of {!evaluate}: materialize the bags
    exactly as {!evaluate} does, then hand them to
    {!Hypergraphs.Yannakakis.enumerate} — semijoin reduction and index
    build up front (inside an [op.ghd.enumerate] span), followed by
    constant-delay backtracking enumeration from the reduced bag tree
    with {e no} final join materialization. Returns the answer schema
    (the query's free variables, in order) and the iterator. Emitted
    projections may repeat when the free variables omit bag-join
    attributes; wrap in a deduplicating {!Relalg.Cursor}.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Invalid_argument when [prep] does not match the query.
    @raise Not_found if an atom names an unregistered relation. *)
