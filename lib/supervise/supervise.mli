(** Resilient execution supervisor.

    Wraps the compilation and execution of any {!Ppr_core.Driver.meth} in
    a supervised run: a {!Budget} bounds wall clock, materialized tuples,
    intermediate cardinality and operator fuel; aborts carry a typed
    {!Relalg.Limits.reason}; and instead of returning nothing, the
    supervisor retries down a {e degradation ladder} of structurally
    cheaper (or safer) methods, each rung under a fresh copy of the same
    budget, at once. Every attempt is recorded in the
    {!report} so experiments can count rescues, not just failures.

    This is the "robust plans under uncertainty" concern of
    structure-guided evaluation: a width-blown bucket elimination should
    degrade to a mini-bucket bound, a greedy reordering, or the
    straightforward plan — never into silence. *)

module Budget = Budget
module Chaos = Chaos

type attempt = {
  rung : int;  (** 0-based position in the ladder *)
  meth : Ppr_core.Driver.meth;
  budget : Budget.t;
      (** the budget this attempt ran under: the caller's, its deadline
          clamped to what remains of the overall deadline *)
  outcome : Ppr_core.Driver.outcome;
  approximate : bool;
      (** true when the rung's method only guarantees an upper bound
          (mini-bucket): a rescue here trades exactness for an answer *)
  replanned : bool;
      (** true for the inserted re-plan rung: same method, recompiled
          under the cardinalities observed in the aborted attempts *)
}

type report = {
  attempts : attempt list;  (** in execution order; never empty *)
  result : Ppr_core.Driver.outcome option;
      (** the completed attempt's outcome, [None] when every rung died *)
  rescued : bool;
      (** completed only after at least one aborted attempt *)
  total_seconds : float;  (** compile + exec over all attempts *)
}

val is_approximate : Ppr_core.Driver.meth -> bool
(** Methods whose results are upper bounds rather than exact answers. *)

val default_ladder : Ppr_core.Driver.meth -> Ppr_core.Driver.meth list
(** The configurable cascade's default, starting from the given method:
    bucket elimination degrades through mini-bucket and reordering to the
    straightforward plan; {!Ppr_core.Driver.Hybrid} walks its portfolio's
    next-best candidates; methods with nothing cheaper below them retry
    alone. The first element is always the method itself. *)

val run :
  ?rng:Graphlib.Rng.t ->
  ?feedback:Ppr_core.Cost.feedback ->
  ?observer:(Ppr_core.Cost.observation list -> unit) ->
  ?replan:bool ->
  ?budget:Budget.t ->
  ?ladder:Ppr_core.Driver.meth list ->
  ?chaos:Chaos.t ->
  ?clock:(unit -> float) ->
  ?compiled:Ppr_core.Driver.compiled ->
  ?overall_deadline_seconds:float ->
  ?ctx:Relalg.Ctx.t ->
  Ppr_core.Driver.meth ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  report
(** Run [meth] under [budget] (default {!Budget.default}); on a typed
    abort, walk the [ladder] (default {!default_ladder}). Every rung runs
    at once, under fresh limits from the same budget: a retry is a
    synchronous recomputation by a cheaper method, not a wait for a
    transient fault. [rng] is handed to every rung's {!Ppr_core.Driver.run}.
    [chaos] arms a fault on the attempts in its scope. [clock]
    is forwarded to the budget's limits. [ctx] supplies telemetry and
    pool to every rung; each rung's limits come from the budget,
    overriding any limits in [ctx]. With telemetry, every rung runs in a
    [supervise.rung] span (attributes: rung index, method, completion
    status or abort reason), rung wall time feeds the
    [supervise.rung_seconds] histogram, and the registry counts
    [supervise.runs], [supervise.rescues] and [supervise.exhausted].

    [compiled] (a {!Ppr_core.Driver.prepare} artifact for [meth] on this
    query and database — a plan-cache hit) is handed to rung 0 when that
    rung runs the requested method, skipping its compile phase; deeper
    rungs run different methods and always recompile.

    [overall_deadline_seconds] bounds the {e whole} supervised run, not
    one rung: each rung's budget deadline is clamped to the remainder
    of it, and once
    the remainder reaches zero the ladder stops walking — the serving
    layer's per-request deadline lands here, turning the ladder into
    bounded load-shedding.

    [feedback] corrects the cost model in every rung's compile phase
    (see {!Ppr_core.Driver.run}); [observer] receives each rung's
    harvested observations. [replan] (default false) arms the adaptive
    rung: when an attempt of a cost-based method ({!Ppr_core.Driver.Naive},
    [Hybrid], [Hybrid_rank]) aborts after harvesting at least one
    observation, the {e same} method is retried once, recompiled under a
    feedback that layers the aborted attempts' measured intermediate
    cardinalities over [feedback] — the observed blow-up steers the new
    plan away from the order that caused it — before the ladder sheds to
    weaker methods. At most one re-plan per ladder; each counts on
    [supervise.replans], and the attempt is flagged [replanned]. *)

val pp_report : Format.formatter -> report -> unit
