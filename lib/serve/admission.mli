(** Structural cost estimation for cost-aware admission control.

    Prices a query {e before} it is queued, from the three analytic
    bounds the structural gate already trusts (the bucket-elimination
    worst case, the AGM fractional-cover bound, and the largest per-bag
    cover bound), all on one log2-tuples scale. The estimate is the
    cheapest route's bound with the output term folded in (a
    materializing query pays for its answer on every route; Boolean
    queries pay no output term) — a {e lower} bound on the work any
    route will do, so shedding a query whose estimate exceeds a ceiling
    never sheds one that could have run cheaply. With free variables
    that is exactly the AGM bound; only Boolean queries run the rest of
    {!Ghd.analyze} and the decomposition search for the bag bound.

    Estimates are memoized per canonical structure in a bounded FIFO
    table, so floods of isomorphic instantiations price their shared
    structure once. Thread-safe; the bound computation runs outside the
    lock. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the memo table (default 4096).
    @raise Invalid_argument when [capacity < 1]. *)

val estimate : t -> Conjunctive.Database.t -> key:string -> Conjunctive.Cq.t -> float
(** The log2-tuples estimate of [cq] (its canonical form) against [db]:
    min over routes, output term included. Memoized under [key] — the
    method-independent canonical-structure key. Never runs a join. *)

val estimate_cover :
  t -> Conjunctive.Database.t -> key:string -> Conjunctive.Cq.t ->
  float * Wcoj.Agm.t option
(** {!estimate}, plus the query's AGM fractional edge cover when this
    call computed it (a memo miss; [None] on a hit), so a compile of the
    same query can reuse it ([Driver.prepare ?agm]) instead of computing
    it again. *)

val hits : t -> int
val misses : t -> int

val units_of_log2 : float -> float
(** [2 ** min(max c 0, 120)]: a query's contribution to the backlog's
    aggregate cost, kept in linear space so dequeue-time subtraction is
    exact. The cap keeps one infinite bound from saturating the sum. *)

val log2_of_units : float -> float
(** Back to the log2 scale for comparison against a ceiling ([0] for an
    empty backlog). *)
