(** Plan execution and the streaming result front.

    Two ways to consume an answer: {!run} (and its method-specific
    siblings) materializes the full relation, as the paper's experiments
    require; {!stream} opens a pull {!Relalg.Cursor} over the same
    answer set, so a consumer that wants ten tuples — or one — pays for
    ten, not for everything. *)

type compiled =
  | Plan of Plan.t  (** a binary join/project tree from any compiler *)
  | Generic_join of Wcoj.prep  (** worst-case-optimal variable-at-a-time *)
  | Decomposed of Ghd.prep * Plan.t option
      (** three-way structural gate; the plan is the pre-compiled bucket
          fallback when the gate picks [Bucket] *)
(** The artifact a compilation step produces and both consumption modes
    accept — see {!Driver.compile} for the per-method mapping. *)

val run :
  ?ctx:Relalg.Ctx.t -> ?observe:(Plan.t -> int -> unit) ->
  Conjunctive.Database.t -> Plan.t -> Relalg.Relation.t
(** Execute a plan under the given execution context (default
    {!Relalg.Ctx.null}: no instrumentation), materializing every node
    bottom-up over hash joins (the paper forced hash joins in
    PostgreSQL). [observe] is called once per plan node as it completes
    — children before parents, left subtree first, i.e. post-order —
    with the node and its measured output cardinality; {!Driver.run}
    uses it to harvest cardinality observations for the adaptive
    feedback store, and {!Explain.analyze} rebuilds its annotated tree
    from them. With telemetry in the context, every plan node opens a
    [plan.join]/[plan.project] span and every operator a nested [op.*]
    span, so the resulting trace mirrors the plan tree (see
    {!Telemetry}). Boolean plans (empty schema) evaluate to the
    0-ary relation containing the empty tuple when the join is nonempty
    and to the empty relation otherwise.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Not_found if an atom names an unregistered relation. *)

val nonempty : ?ctx:Relalg.Ctx.t -> Conjunctive.Database.t -> Plan.t -> bool
(** The Boolean answer: whether the plan's result is nonempty, decided
    by pulling a single tuple from the plan's own root-operator stream
    (no semijoin reroute — faithful to the plan even when the plan is
    deliberately approximate). Never materializes the answer above the
    plan's build sides, so existence checks on huge results stay cheap. *)

val run_generic :
  ?ctx:Relalg.Ctx.t ->
  ?order:int list ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  Relalg.Relation.t
(** Execute a whole conjunctive query with the worst-case-optimal generic
    join instead of a binary plan — a thin front for {!Wcoj.evaluate}
    with the same context contract as {!run} (spans, stats, limits, pool).
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Not_found if an atom names an unregistered relation. *)

val run_ghd :
  ?ctx:Relalg.Ctx.t ->
  ?prep:Ghd.prep ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  Relalg.Relation.t
(** Execute a whole conjunctive query as Yannakakis over a generalized
    hypertree decomposition — a thin front for {!Ghd.evaluate} with the
    same context contract as {!run}. Total on cyclic queries. [prep]
    (a {!Ghd.prepare} artifact for the same query and database) skips
    the decomposition search.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Not_found if an atom names an unregistered relation. *)

val stream :
  ?ctx:Relalg.Ctx.t ->
  ?semijoin:bool ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  compiled ->
  Relalg.Cursor.t
(** Open a pull cursor over the query's answers. The tuple {e set}
    equals what the corresponding materializing evaluator returns (same
    schema, possibly different column and tuple order); only delivery
    differs.

    Routing: [Generic_join] streams the leapfrog search directly
    (distinct, lexicographic — no dedup state). [Decomposed] follows the
    prep's gate — GHD bag setup plus constant-delay enumeration from the
    reduced bag tree, the generic join, or the bucket-fallback plan. A
    [Plan] over an acyclic query is rerouted (when [semijoin], the
    default) through the join-tree semijoin reduction, giving
    constant-delay enumeration after a linear-time reduction; otherwise
    — cyclic query, or [~semijoin:false] — the plan streams from its
    root operator: atoms and join build sides materialize exactly as
    {!run} would, but join probe pipelines and projections are lazy, so
    abandoning the cursor skips the unconsumed work. Pass
    [~semijoin:false] when the plan is deliberately {e not} equivalent
    to the query (mini-bucket approximations): the reroute answers the
    exact query and would mask the approximation.

    Setup runs when the first tuple is pulled, never at cursor
    construction, and every telemetry span closes before the first
    emission — a parked cursor holds indexes, not open spans. Each
    opened cursor counts on [ops.stream] (and [ops.stream.<route>]);
    the delay from construction to the first answer lands in the
    [answers.first_delay] histogram.
    @raise Relalg.Limits.Abort out of a pull when a guard trips.
    @raise Not_found if an atom names an unregistered relation. *)
