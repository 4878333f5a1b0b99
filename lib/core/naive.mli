(** The "naive" method: cost-based join-order search, no projection
    pushing (Section 3).

    The paper submits the query with all join conditions in the WHERE
    clause and lets PostgreSQL's planner — exhaustive for few relations,
    genetic (GEQO) beyond a threshold — pick a join order, observing
    exponential compile times and no use of projection pushing. This
    module reproduces that planner: a dynamic-programming search over
    left-deep orders below a threshold, and a GEQO-style genetic search
    above it. The produced plan joins all atoms in the chosen order and
    projects only at the very end. *)

type genetic_params = {
  pool_size : int option;
      (** [None]: GEQO's historical sizing, [2^(m+1)] clamped to
          [128, 8192] for [m] relations *)
  generations : int option;  (** [None]: same number as the pool size *)
  seed : int;
}

val default_genetic : genetic_params

type search =
  | Dp                        (** exhaustive DP over left-deep orders *)
  | Dp_bushy                  (** exhaustive DP over all join trees *)
  | Genetic of genetic_params
  | Auto of int * genetic_params
      (** DP up to the given atom count (PostgreSQL's [geqo_threshold]),
          genetic beyond *)
  | Plugin of string * int
      (** a {!register_order_search}-registered planner above the given
          DP threshold (the gradient planner rides in this way: the
          name stays plain data, so {!Driver.meth} values remain
          structurally comparable) *)

val default_search : search
(** [Auto (12, default_genetic)]. *)

val register_order_search :
  string -> (Cost.env -> Conjunctive.Cq.atom array -> int array) -> unit
(** Register (or replace) a named order search for {!search.Plugin}.
    The function must return a valid permutation of the atom indices —
    the same plan space as the genetic search. Thread-safe. *)

val order_search :
  string -> (Cost.env -> Conjunctive.Cq.atom array -> int array) option
(** Look up a registered planner by name. *)

val dp_order : Cost.env -> Conjunctive.Cq.atom array -> int array
(** Minimum-cost left-deep order, by dynamic programming over atom
    subsets. Exponential: [O(2^m * m^2)]. Each subset's cardinality is
    {!Cost.Model.join_cardinality} on one model compiled per call. *)

val dp_bushy_plan : Cost.env -> Conjunctive.Cq.atom array -> Plan.t
(** Minimum-cost {e bushy} join tree, by dynamic programming over every
    binary partition of every subset: [O(3^m)]. Never costlier than the
    best left-deep order under the same model.
    @raise Invalid_argument beyond 15 atoms or on an empty array. *)

val genetic_order :
  genetic_params -> Cost.env -> Conjunctive.Cq.atom array -> int array
(** GEQO-style search: a pool of random orders evolved by order
    crossover, swap mutation, and elitist replacement of the pool's
    worst member ({!Worst}). Fitness is {!Cost.Model.order_cost} on one
    model compiled per call.
    @raise Invalid_argument if [pool_size] is [Some p] with [p <= 0] or
    [generations] is negative. *)

(** The genetic search's worst-member lookup: a tournament tree over a
    fitness array. *)
module Worst : sig
  type t

  val create : float array -> t
  (** A tree over the array, which it shares: update it only through
      {!set}. [O(n)]. *)

  val index : t -> int
  (** The lowest index among the maxima — exactly what a left-to-right
      scan with strict [>] returns (NaN entries never win, and a NaN at
      index 0 answers 0, as the scan does). [O(1)].
      @raise Invalid_argument on an empty array. *)

  val set : t -> int -> float -> unit
  (** [set t i f] writes [f] at index [i] and repairs the tree.
      [O(log n)]. *)
end

val compile :
  ?search:search -> ?feedback:Cost.feedback ->
  Conjunctive.Database.t -> Conjunctive.Cq.t -> Plan.t
(** Search for an order and build the plan (joins only, one final
    projection). Compile time is the caller-measured cost of this
    function — the quantity of the paper's Figure 2. [feedback] builds
    the cost environment with learned corrections (see
    {!Cost.environment}); it changes which order wins, never the
    answer.
    @raise Failure if a [Plugin] search names an unregistered planner. *)
