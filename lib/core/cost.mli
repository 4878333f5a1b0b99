(** Cardinality estimation, for the cost-based (naive) planner.

    The model is the textbook one — System-R style independence and
    uniformity: joining on a shared variable divides the product of the
    input cardinalities by the variable's domain size. With the paper's
    tiny databases this information is nearly useless, which is the
    point of the experimental setup; the model exists so the plan-space
    search has something to optimize, as PostgreSQL's planner did.

    The adaptive layer ({!Adapt}) closes the loop the paper leaves open:
    a [feedback] function maps structural {e signature keys} to learned
    correction factors (measured/estimated ratios harvested from earlier
    executions), and an environment built with one folds those factors
    into its per-variable domains, per-atom cardinalities and
    query-level estimate — so every estimator below ({!estimate},
    {!plan_cost}, {!order_cost}) is corrected with zero extra cost on
    the hot path. Corrections never change {e results}, only the cost
    model; a plan chosen under a corrected environment answers the same
    query. *)

type feedback = string -> float option
(** Learned correction factors by signature key: [Some f] multiplies the
    textbook estimate for that signature by [f] ([f > 1]: the textbook
    underestimated), [None] falls back to the textbook number. Factors
    are clamped to [[1e-3, 1e3]] (see {!clamp_factor}). *)

type observation = { key : string; measured : float; estimated : float }
(** One harvested ground-truth sample: for signature [key] the textbook
    model said [estimated] and execution measured [measured]. Emitted by
    {!Driver.run}'s observer hook, blended by [Adapt.Store]. *)

val clamp_factor : float -> float
(** Clamp a correction factor to [[1e-3, 1e3]] (NaN maps to [1.0]). *)

val variable_signature : Conjunctive.Cq.t -> int -> string
(** The variable's join-key signature: the sorted multiset of
    (relation, column) positions where it occurs. Renaming-invariant, so
    corrections transfer across queries joining the same columns. *)

val variable_signatures : Conjunctive.Cq.t -> int -> string
(** [variable_signatures cq] is {!variable_signature}[ cq] for many
    variables: one pass over the atoms collects every variable's
    positions, and each signature is built on first use and kept, so
    asking for every variable costs one scan of the query, not one
    scan per variable. *)

val atom_signature : Conjunctive.Cq.atom -> string
(** The atom's scan signature: relation name plus the repeated-variable
    pattern (which positions are forced equal). *)

val query_signature : Conjunctive.Cq.t -> string
(** Whole-query signature via {!Hypergraphs.Canon}: isomorphic queries
    share one key. *)

type env

val environment :
  ?feedback:feedback -> Conjunctive.Database.t -> Conjunctive.Cq.t -> env
(** Precompute per-atom cardinalities and per-variable domain sizes.
    With [feedback], look up each variable's, atom's and the query's
    signature once and fold any hit into the environment: a variable
    factor [f] divides its effective domain (so joins on underestimated
    keys get costlier), an atom factor multiplies its cardinality, and
    the query factor scales {!estimate}. *)

val corrected : env -> bool
(** Whether any feedback signature hit while building this environment. *)

val query_correction : env -> float
(** The query-level blend factor ([1.0] without a hit). *)

val atom_cardinality : env -> Conjunctive.Cq.atom -> float
val domain_size : env -> int -> float
(** Distinct values observed for the variable across the base-relation
    columns where it occurs. For a variable the environment never saw,
    the {e largest} observed domain — the conservative default: [1.0]
    (the old behavior) made joins on unseen variables look free, which
    feedback corrections would then amplify. *)

val estimate : env -> Plan.t -> float
(** Estimated cardinality of the plan's result, times the environment's
    query-level correction factor. Runs on a {!Model} built from the
    plan's atoms and projection lists: a join is
    [card_l *. card_r /. d], where [d] is the product of the shared
    variables' domains in increasing variable id, starting from [1.0];
    a projection is capped by the product of its kept variables'
    domains, in the same order. *)

val plan_cost : env -> Plan.t -> float
(** Total estimated tuples materialized across all operators — the
    quantity the search minimizes. Same arithmetic as {!estimate}. *)

val order_cost : env -> Conjunctive.Cq.atom array -> int array -> float
(** [order_cost env atoms perm]: cost of the left-deep join that scans
    [atoms.(perm.(0)), atoms.(perm.(1)), ...] without projection. It
    builds a {!Model} for the one call; a search scoring many orders
    builds the model once and calls {!Model.order_cost}. Bit-identical
    to {!plan_cost} of the same left-deep plan. *)

(** The cost model compiled for one atom array: per-atom cardinalities
    (feedback applied), per-atom variable bitmasks and a per-variable
    domain array, so scoring an order or a subset is a loop over ints
    and floats — no sets, no hashing.

    The query's variables get dense bit indices in increasing variable
    id, and every product of domains walks the bits from the lowest up.
    That fixes the floating-point arithmetic order to the one the
    estimators above define, so a model's numbers are bit-identical to
    theirs. A mask takes 62 bits per int; with more than 62 variables
    it spans several ints, read in the same order, with the same
    results. A model is immutable and may be shared between domains. *)
module Model : sig
  type t

  val make : env -> Conjunctive.Cq.atom array -> t
  (** Compile the model for these atoms, reading cardinalities and
      domains from the environment. Atom [i] of the array is atom [i]
      of the model. *)

  val order_cost : t -> int array -> float
  (** As {!Cost.order_cost} on the atoms the model was built from. *)

  val join_cardinality : t -> int -> float
  (** [join_cardinality t s]: estimated cardinality of the join of the
      atoms whose indices are set in the bitmask [s]. Under the
      independence model it is order-independent: the product of the
      atoms' cardinalities in index order, then one division by a
      variable's domain per occurrence beyond its first, variables in
      increasing id. Used by the DP planners.
      @raise Invalid_argument if the model has more than 62 atoms. *)
end
