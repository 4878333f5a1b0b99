(** Worst-case-optimal generic join.

    The paper's five methods all build binary join trees, whose
    intermediate sizes are governed by join width (treewidth + 1). The
    generic join evaluates the whole query variable-at-a-time instead: it
    picks a global variable order, indexes every atom as a sorted trie in
    that order ({!Trie}), and at each depth intersects the candidate
    values of all atoms containing the variable by leapfrogging galloping
    searches. Its enumeration work is bounded by the AGM fractional-edge-
    cover bound ({!Agm}), which can be polynomially smaller than any
    binary plan's worst-case intermediate — but also polynomially larger
    on sparse, low-treewidth queries (a path of n vertices has AGM bound
    ~|R|^(n/2) against a binary plan's |R|^2). Choosing between them is
    the structural gate's job ([Ghd.decide]); this module only
    evaluates.

    Projections are pushed to the limit: the variable order binds the
    free variables first, so once a free prefix is bound the evaluator
    only searches for {e one} extension to the remaining variables and
    then backtracks — Boolean queries run as pure satisfiability
    searches with no output materialization beyond the 0-ary answer. *)

module Agm = Agm
module Trie = Trie

exception Exhausted
(** Raised by {!evaluate} when its [allowance] runs out. *)

val evaluate :
  ?ctx:Relalg.Ctx.t ->
  ?order:int list ->
  ?allowance:int ref ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  Relalg.Relation.t
(** Run the generic join (unconditionally — gating is the caller's
    business). The result's schema is the query's free
    variable list; tuple-identical to executing any correct plan.

    [allowance] caps the search: each charged binding spends one unit
    of it, and the binding that would overdraw it raises {!Exhausted}
    instead, uncharged — so an exhausted run has charged exactly the
    allowance's initial value in bindings (atom scans are charged as
    always, outside it) and leaves it at [0]. On return it holds what
    was left. With the allowance to spare, the answer and the charges
    are those of a run without one.

    [order] defaults to {!Conjunctive.Joingraph.mcs_variable_order} and
    must list every query variable exactly once with the free variables
    first, in their declared order.

    Threads the context like every other operator: atoms materialize
    through [Database.eval_atom] (scan spans, stats, limits), each
    accepted value binding and emitted row charges the context's limits,
    and the whole join runs in an [op.wcoj.join] span with the index
    build in a nested [op.wcoj.index] span. The search runs on the
    calling domain, as {!iter}'s does: a pool in the context is not
    used, so the rows, their order, the charges and any abort are those
    of a run without one.

    @raise Relalg.Limits.Abort when a resource guard trips.
    @raise Exhausted when the [allowance] runs out.
    @raise Invalid_argument on a malformed [order].
    @raise Not_found if an atom names an unregistered relation. *)

val iter :
  ?ctx:Relalg.Ctx.t ->
  ?order:int list ->
  Conjunctive.Database.t ->
  Conjunctive.Cq.t ->
  (Relalg.Tuple.t -> unit) ->
  unit
(** Streaming evaluation: run the same generic-join search as
    {!evaluate} but hand each answer tuple (the free-variable prefix,
    freshly copied) to the callback instead of materializing a result.
    Emissions are duplicate-free and lexicographically ordered along the
    free prefix of [order] — the leapfrog scan visits each depth's
    values strictly increasing — so no dedup state is needed downstream.
    Sequential, like {!evaluate}. Setup (atom scans,
    trie index) runs inside an [op.wcoj.stream] span; enumeration runs
    outside any span so a consumer suspending mid-stream cannot hold a
    span open. Each accepted binding charges the context's limits and
    each emission counts toward the cardinality cap, exactly like the
    materializing path.
    @raise Relalg.Limits.Abort when a resource guard trips (possibly
    mid-stream, out of a cursor pull).
    @raise Invalid_argument on a malformed [order].
    @raise Not_found if an atom names an unregistered relation. *)
