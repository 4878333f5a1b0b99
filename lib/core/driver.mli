(** Running one method on one query, with the measurements the paper
    reports: compile (plan construction) time, execution time, and the
    size/width of intermediate results — plus the streaming delivery
    policies ([limit], [rank]) the result-API layer adds on top. *)

type meth =
  | Naive of Naive.search
  | Straightforward
  | Early_projection
  | Reorder
  | Bucket_elimination
  | Minibucket of int  (** i-bound *)
  | Hybrid  (** cost-scored portfolio of structural plans *)
  | Hybrid_rank of int
      (** the portfolio's n-th cheapest candidate (0 = {!Hybrid});
          the degradation ladder walks down these ranks *)
  | Wcoj
      (** worst-case-optimal generic join, behind the structural gate
          with the GHD route left out ({!Ghd.decide} without a bag
          bound): when the AGM bound beats the binary plan's worst case
          the query runs variable-at-a-time (see {!Wcoj}), otherwise the
          bucket-elimination plan along the same variable order is the
          route — tried after the generic join's {!Exec.attempt} within
          the plan's own bound. No decomposition search runs *)
  | Ghd
      (** Yannakakis over a generalized hypertree decomposition, behind
          the three-way structural gate of {!Ghd.prepare}: each query is
          routed among bucket elimination, the generic join and
          GHD-Yannakakis by comparing induced width, the AGM bound and
          the fractional-hypertree bag bound on one log2-tuples cost
          scale; the bounds, and the decision once made, land as
          exec-span attributes. The generic join's {!Exec.attempt} runs
          first, within the smaller of the binary and AGM bounds; only
          when it runs out do the decomposition search and the decision
          run, and then the route they pick. {!prepare}'s [route] forces
          one of the three *)

val all_paper_methods : meth list
(** The five methods of the paper's experiments, naive first. *)

val method_name : meth -> string

val method_of_string : string -> meth option
(** The one parser of method names, for the CLI's [--method] and the
    wire's [method]: the inverse of {!method_name}
    ([method_of_string (method_name m) = Some m]) on every method but
    the naive method's explicit searches — those are a planner setting
    ({!apply_planner}), and exhaustive DP is exponential in the atom
    count, so no request names one. [naive] is {!Naive.default_search};
    mini-bucket also reads as [minibucket:I]. [None] on anything else,
    an i-bound below 1 included. *)

val apply_planner : string option -> meth -> meth
(** Substitute a named order search ({!Naive.register_order_search}) for
    the genetic one in the naive method's default DP/genetic split,
    keeping its DP threshold. ["genetic"] (the built-in) and [None]
    substitute nothing, and an explicitly chosen naive search is left
    as it is. *)

val exact_method : meth -> bool
(** Whether the method's plans answer the query exactly: every method
    but {!Minibucket}, whose plans are deliberately approximate. Only an
    exact method's stream may take {!Exec.stream}'s semijoin reroute,
    which answers the exact query. *)

type abort = {
  reason : Relalg.Limits.reason;  (** why the run died *)
  partial_stats : Relalg.Stats.t;
      (** snapshot of the execution statistics at the moment of abort *)
}

type status = Completed | Aborted of abort

type outcome = {
  meth : meth;
  compile_seconds : float;
  exec_seconds : float;
      (** the run alone: neither the width nor the feedback harvest *)
  plan_width : int;
      (** analytic, of the route that ran: largest node schema in the
          plan; on the generic join (also a gated method's attempt that
          answered), the widest atom or the head; on the GHD-Yannakakis
          route, the widest cover-atom join or parent-child bag join,
          free variables included *)
  max_arity : int;       (** measured: widest intermediate relation *)
  max_cardinality : int; (** measured: largest intermediate relation *)
  tuples_produced : int;
  result : Relalg.Relation.t option;
      (** the materialized answer — full under the default policy, the
          delivered page under [limit]/[rank]; [None] when resources ran
          out. Derived facts (cardinality, nonemptiness) come from the
          {!result_cardinality} and {!nonempty} accessors, which read
          this one field *)
  complete : bool;
      (** whether [result] holds {e every} answer: always under the
          default policy; under [rank] exactly when the answer fits the
          page; under [limit] alone when the stream ends with the page,
          which one pull past the page tells (a guard that trips on that
          pull reads [false] and the page stands). [true] always means
          nothing was left behind. [false] on abort *)
  first_answer_seconds : float option;
      (** streamed runs only: delay from opening the cursor to the first
          answer tuple; [None] on materialized runs and empty results *)
  time_to_k : float option;
      (** streamed runs only: delay from opening the cursor to the
          moment the delivery policy was satisfied *)
  status : status;  (** typed abort taxonomy; [Completed] on success *)
}

val abort_reason : outcome -> Relalg.Limits.reason option

val result_cardinality : outcome -> int option
(** Tuples in [result] ([None] when resources ran out). Under a
    [limit]/[rank] policy this counts the delivered page — check
    {!outcome.complete} before reading it as the query's answer count. *)

val nonempty : outcome -> bool option
(** Whether [result] is nonempty; same caveats as {!result_cardinality}. *)

val compile :
  ?rng:Graphlib.Rng.t -> ?feedback:Cost.feedback ->
  meth -> Conjunctive.Database.t -> Conjunctive.Cq.t ->
  Plan.t
(** [feedback] corrects the cost model for the cost-based methods
    ({!Naive}, {!Hybrid}, {!Hybrid_rank}) — see {!Cost.environment};
    purely structural methods ignore it. Corrections change which plan
    is chosen, never what it answers. For {!Wcoj} and {!Ghd} this is the
    bucket fallback along {!Ghd.analyze}'s order, the plan their gate
    runs when it picks bucket; no decomposition search runs. *)

type compiled = Exec.compiled =
  | Plan of Plan.t  (** a binary project-join plan *)
  | Deferred of Exec.deferred
      (** a gated method's artifact: the gate's analysis (order and
          bounds), the rng state the decomposition search would start
          from, and the route once the gate has picked it — at prepare
          time for {!Wcoj}, when the generic join's attempt first runs
          out for {!Ghd}, once per artifact, so a cache hit replays it *)
  | Decomposed of Ghd.prep * Plan.t option
      (** a {!Ghd.prepare} artifact with its route forced ({!prepare}'s
          [route]) — decomposition, rooted bag tree, atom assignment and
          the three gate bounds; the bucket plan rides along exactly when
          the route is bucket, so a cache hit replays without re-running
          the GHD search or the bucket compiler. It has no attempt *)
(** Re-export of {!Exec.compiled}: the same artifact drives {!run},
    {!Exec.stream} and the serving layer's plan cache. *)

val prepare :
  ?rng:Graphlib.Rng.t -> ?feedback:Cost.feedback -> ?agm:Wcoj.Agm.t ->
  ?route:Ghd.decision ->
  meth -> Conjunctive.Database.t -> Conjunctive.Cq.t ->
  compiled
(** The planning phase of {!run} as a reusable artifact: for {!Wcoj} and
    {!Ghd} the [Deferred] artifact (the {!Wcoj} one already resolved to
    its two-way decision), for every other method its compiled plan.
    [route] forces the {!Ghd} method's gate: the artifact is then the
    [Decomposed] one, on that route, with no attempt ([Bucket] and
    [Generic] run along the same analysis order as the {!Wcoj} method's
    routes, and give the same answer). The artifact is
    valid for re-execution of the same query against the same database
    — the serving layer's plan cache stores these so isomorphic template
    queries skip MCS ordering, AGM estimation and bucket construction
    entirely. [agm], the query's cover already computed against the same
    database, spares the gated methods' analysis computing it again
    ({!Ghd.analyze}); other methods ignore it.
    @raise Invalid_argument when [route] is given with any method but
    {!Ghd}. *)

val run :
  ?rng:Graphlib.Rng.t -> ?feedback:Cost.feedback ->
  ?observer:(Cost.observation list -> unit) ->
  ?compiled:compiled -> ?route:Ghd.decision ->
  ?limit:int -> ?rank:(Relalg.Tuple.t -> Relalg.Tuple.t -> int) ->
  ?ctx:Relalg.Ctx.t ->
  meth -> Conjunctive.Database.t -> Conjunctive.Cq.t -> outcome
(** Compile, execute, and measure. A {!Relalg.Limits.Abort} is caught and
    reported as [Aborted] (with the typed reason and the stats gathered up
    to that point) rather than raised. The execution context supplies
    limits (a fresh unlimited {!Relalg.Limits.t} is created when absent),
    telemetry and pool; the context's stats field is ignored — each run
    measures into its own private {!Relalg.Stats.t} so outcomes never mix
    across runs. With telemetry, the two phases run
    in [compile:<method>] / [exec:<method>] spans, operators record their
    own [op.*] spans underneath, and the registry tallies [driver.runs]
    plus one [driver.aborts.<reason>] counter per typed abort. The exec
    span carries the gate's {!Exec.attempt}: [gate.attempt]
    ([answered], [exhausted], [skipped] — an earlier run of the same
    artifact ran out within at least this allowance — or [none]) and, when there was one,
    [gate.attempt_bindings] and [gate.allowance]; the registry counts
    [driver.gate.attempt.answered], [driver.gate.attempt.exhausted] and
    [driver.gate.attempt.skipped].
    It also carries [plan.width] and, on a gated method's run, the gate
    under one attribute set: [ghd.binary_bound_log2],
    [ghd.agm_bound_log2] and [ghd.induced_width], plus [ghd.decision]
    once the artifact has its route, with [ghd.ghd_bound_log2] and
    [ghd.htw] when that route is the decomposition or forced (a
    resolution runs in a [ghd.resolve] span, on the first run past the
    attempt only, which names the decision, bag bound and htw whatever
    the route).

    [compiled] (a {!prepare} artifact for the {e same} method, query and
    database — the caller's contract) skips the compile phase entirely:
    [compile_seconds] then measures only the (near-zero) reuse cost.
    Otherwise [route] is handed to {!prepare}.

    With neither [limit] nor [rank] the run materializes the full answer
    through {!Exec.materialize}, along the artifact's route. Either
    option switches execution to {!Exec.stream}, and the delivered page
    is in head order (the query's free variables, in order): [limit]
    pulls at most that many tuples in stream order and stops — on
    streaming routes the work is O(setup + k), not O(answer) — while
    [rank] (a total order over head-order tuples; include a tuple
    tiebreak for determinism) drains the stream through a bounded heap
    and delivers the [limit] least tuples ascending (the full sorted
    answer when [limit] is absent). The page's relation lists its
    tuples in delivery order ({!Relalg.Relation.iter}). Streamed
    outcomes fill [first_answer_seconds]/[time_to_k] and [complete]; the
    semijoin reroute is disabled for {!Minibucket} so its plans stay
    faithfully approximate. This is the one delivery policy: the CLI's
    [query --limit/--rank/--page] is this call plus page arithmetic.
    @raise Invalid_argument when [limit] is negative.

    [feedback] corrects the cost model during the compile phase (see
    {!compile}); it is unused when [compiled] is supplied. [observer]
    receives harvested {!Cost.observation}s after the run: per-node
    measured cardinalities vs the uncorrected textbook model for binary-
    plan executions (atom scans under atom signatures, join selectivity
    errors split per shared-variable signature — a post-order prefix
    survives an abort), plus a query-level observation under the query
    signature when the run completed with the full answer. Streamed
    ([limit]/[rank]) runs harvest only the query-level observation,
    since partial pulls measure delivery, not selectivity. The per-node
    harvest is one post-order pass over the plan, linear in it: each
    node hands its parent its cardinality and sorted schema, and each
    variable's signature is built at most once. With telemetry, the
    time to build a run's observations (the observer's own work not
    included) lands in the [driver.feedback.harvest_seconds] histogram,
    and each nonempty emission counts on [driver.feedback.harvests]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One line per run; an incomplete (page-limited) result cardinality is
    suffixed with [+]. *)
