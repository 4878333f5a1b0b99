(** Plan execution and the streaming result front.

    Two ways to consume an answer: {!materialize} (over a binary plan,
    {!run}) computes the full relation, as the paper's experiments
    require; {!stream} opens a pull {!Relalg.Cursor} over the same
    answer set, so on the streaming routes (acyclic, generic join,
    decomposition) a consumer that wants ten tuples — or one — pays for
    ten, not for everything. *)

type route =
  | Binary of Plan.t  (** a binary join/project plan *)
  | Generic of int list  (** the generic join along this variable order *)
  | Decomposition of Ghd.prep  (** Yannakakis over the decomposition *)
(** What a compiled artifact runs. *)

type compiled =
  | Plan of Plan.t  (** a binary join/project tree from any compiler *)
  | Deferred of deferred
      (** a gated method's artifact: the structural gate's analysis, and
          the route it resolves to. The generic join's {!attempt} runs
          first, unless that is the route; the route runs only when the
          attempt runs out *)
  | Decomposed of Ghd.prep * Plan.t option
      (** a route forced on the three-way gate: the whole prep, run on
          its decision with no attempt; the plan is the bucket route,
          present exactly when the decision is [Bucket] *)
(** The artifact a compilation step produces and both consumption modes
    accept — see {!Driver.prepare} for the per-method mapping. Every
    form is plain data (no closure), so the serving layer's plan cache
    can Marshal it. *)

and deferred = private {
  analysis : Ghd.analysis;
  rng : Graphlib.Rng.t option;
      (** the rng's state right after {!Ghd.analyze}, where
          {!Ghd.prepare}'s search would start drawing; [None] without
          an rng or the GHD route *)
  resolved : route option Atomic.t;
      (** the route the gate picked; set once, by the first resolution,
          or when the artifact is made if the GHD route is left out *)
}

val defer :
  ?rng:Graphlib.Rng.t -> ghd_route:bool -> Conjunctive.Cq.t -> Ghd.analysis ->
  compiled
(** A [Deferred] artifact over the analysis. Without the GHD route
    ([ghd_route = false], the [wcoj] method) it is resolved at once, to
    the two-way {!Ghd.decide}'s route, since that decision needs no
    search. With it (the [ghd] method) it is resolved later, by {!route};
    [rng] (copied) is the generator {!Ghd.analyze} drew from, in the
    state it left it. *)

val bucket_fallback : Ghd.analysis -> Conjunctive.Cq.t -> Plan.t
(** The gated methods' bucket route: bucket elimination along the
    analysis's variable order. *)

val decision : route -> Ghd.decision
(** The gate decision a gated artifact's route carries out: [Bucket] for
    a binary plan, [Generic] for the generic join, [Ghd] for the
    decomposition. *)

val route :
  ?ctx:Relalg.Ctx.t -> Conjunctive.Database.t -> Conjunctive.Cq.t ->
  compiled -> route
(** What a compiled artifact runs: the one reading of the gate's
    decision that {!materialize}, {!stream} and {!Driver.run} share. An
    unresolved [Deferred] artifact resolves here: {!Ghd.decompose} from
    the stored analysis and rng state — so the decomposition is exactly
    the one {!Ghd.prepare} returns for that rng — then the three-way
    decision's route. That runs at most once per artifact (inside a
    [ghd.resolve] span, with the decision, bag bound and htw, when the
    context has telemetry) and is replayed after, also on other domains:
    the route is published with one compare-and-set, and two racing
    resolutions compute the same value.
    @raise Invalid_argument on a [Decomposed] bucket decision without its
    plan (never produced by {!Driver.prepare}). *)

type attempt = {
  allowance : int;
      (** [min ⌈2^bound⌉ ((remaining - scans) / 2) cap] bindings:
          [bound] is the smaller of the analysis's binary and AGM
          bounds, [remaining] the tuple
          budget left, [scans] the base relations' tuples its atoms read,
          [cap] the per-relation cardinality cap *)
  bindings : int;  (** bindings the generic join charged *)
  answer : Relalg.Relation.t option;
      (** the answer, over the free variables in head order; [None] when
          the allowance ran out, or the attempt was skipped *)
  skipped : bool;
      (** the attempt did not run: an earlier run of the same artifact
          ran out within at least this allowance (then [bindings] is 0
          and [answer] [None]) *)
}
(** The gate's attempt. A [Deferred] artifact runs the generic join
    first along the analysis's order, allowed as many bindings as the
    smaller of [binary_bound_log2] and the AGM bound admits intermediate
    tuples, and never more than half the tuple budget its atom scans
    leave. Only when it runs out does the artifact resolve and its route
    run. An artifact whose route is the generic join has no attempt: the
    route would try the same search. Nor has a [Plan] or a [Decomposed]
    artifact. The a-priori bounds cannot see the search's early stop
    (free variables bound first, one witness per existence search), so
    it often answers far below them; when it runs out, the route runs
    unchanged, with at least half of that budget left. The attempt can
    trip the tuple budget or the cardinality cap only in its scans,
    which every route makes (its answer has no more rows than it made
    bindings). An exhausted attempt has charged its scans and exactly
    [allowance] bindings.

    {!materialize} and {!stream} record the largest allowance the
    attempt ran out within in the artifact's analysis
    ({!Ghd.analysis.ran_out}); the search is deterministic, so a later
    run whose allowance is no larger skips the attempt — charging
    nothing for it — and runs the route at once. *)

val attempt :
  ?ctx:Relalg.Ctx.t -> Conjunctive.Database.t -> Conjunctive.Cq.t ->
  compiled -> attempt option
(** Run the artifact's attempt alone under the context; [None] when it
    has none. It always runs, whatever earlier runs recorded, and
    records nothing. {!materialize} and {!stream} run it before their
    route, unless it is skipped. *)

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
    {!Telemetry}). A projection of a join runs as one fused kernel,
    {!Relalg.Ops.join_project}, which never writes the join: the join
    node is still observed, with the join's size, before its projection,
    and its [plan.join] span, inside [plan.project], holds the kernel's
    [op.join.project] span. That kernel runs sequentially under a pool;
    the other joins may split their probe side across it. Boolean plans
    (empty schema) evaluate to the 0-ary relation containing the empty
    tuple when the join is nonempty and to the empty relation otherwise.

    The executor frees its intermediates: every relation a node reads is
    its own (a kernel's fresh output, or an atom's copy of the stored
    relation), and the node releases it ({!Relalg.Arena.release}) as
    soon as its kernel has returned or raised, so a run holds the
    inputs and output of its current step, not every intermediate it
    made. Each [plan.join]/[plan.project] span carries [cells.freed],
    the cells of the inputs that node released. The returned relation
    is the caller's and is never released; on an abort, every relation
    already computed has been released.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Not_found if an atom names an unregistered relation. *)

val nonempty : ?ctx:Relalg.Ctx.t -> Conjunctive.Database.t -> Plan.t -> bool
(** The paper's Boolean question: whether [run plan] is nonempty. It
    runs the plan itself (no semijoin reroute — faithful to the plan
    even when the plan is deliberately approximate), under {!run}'s
    context contract.
    @raise Relalg.Limits.Abort when a resource guard trips. *)

val materialize :
  ?ctx:Relalg.Ctx.t -> ?observe:(Plan.t -> int -> unit) ->
  ?on_attempt:(attempt -> unit) -> ?on_route:(route -> unit) ->
  Conjunctive.Database.t -> Conjunctive.Cq.t -> compiled -> Relalg.Relation.t
(** Compute the full answer: the artifact's {!attempt}, if it has one
    and it answers, else its {!route} — {!run}
    for a binary plan ([observe] applies there only), {!Wcoj.evaluate}
    for the generic join, {!Ghd.evaluate} for the decomposition. Each
    keeps {!run}'s context contract (spans, stats, limits, pool).
    [on_attempt] hears the attempt's outcome, and [on_route] the route,
    just before the route runs (never when the attempt answered). The
    materializing counterpart of {!stream}.
    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Not_found if an atom names an unregistered relation. *)

val stream :
  ?ctx:Relalg.Ctx.t ->
  ?semijoin:bool ->
  ?on_attempt:(attempt -> unit) ->
  ?on_route:(route -> unit) ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  compiled ->
  Relalg.Cursor.t
(** Open a pull cursor over the query's answers. The tuple {e set}
    equals what the corresponding materializing evaluator returns (same
    schema, possibly different column and tuple order); only delivery
    differs.

    An artifact with an {!attempt} runs it on the first pull (telling
    [on_attempt]) and streams its answer; when it runs out, the artifact
    resolves ({!route}), the route's own cursor opens (telling
    [on_route]) and its tuples stream in head order. An artifact with no
    attempt resolves when the cursor is built.

    Routing follows {!route}: the generic join streams the leapfrog
    search directly (distinct, lexicographic — no dedup state); the
    decomposition runs GHD bag setup plus constant-delay enumeration
    from the reduced bag tree. A binary plan over an acyclic query is
    rerouted (when [semijoin], the default) through the join-tree
    semijoin reduction, giving
    constant-delay enumeration after a linear-time reduction; otherwise
    — cyclic query, or [~semijoin:false] — the first pull runs the plan
    through {!run} (same kernels, spans, stats and limit charges as a
    materialized run) and the cursor emits that relation's rows: such a
    route carries no delay guarantee. Pass [~semijoin:false] when the
    plan is deliberately {e not} equivalent to the query (mini-bucket
    approximations, see {!Driver.exact_method}): the reroute answers the
    exact query and would mask the approximation.

    Setup — every atom scan, semijoin sweep, plan run and index —
    runs when the first tuple is pulled, never at cursor construction
    (which reads only the query's structure), so a cursor closed unpulled
    ran no operator; and every telemetry span closes before the first
    emission — a parked cursor holds indexes, not open spans. Each
    opened cursor counts on [ops.stream] (and [ops.stream.<route>],
    [wcoj] when an attempt answers);
    the delay from construction to the first answer lands in the
    [answers.first_delay] histogram.
    @raise Relalg.Limits.Abort out of a pull when a guard trips.
    @raise Not_found if an atom names an unregistered relation. *)
