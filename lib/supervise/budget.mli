(** A declarative resource budget for one supervised attempt.

    A [Budget.t] is the policy-level description of how much a run may
    cost; {!to_limits} compiles it into the mechanism-level
    {!Relalg.Limits.t} that the operators tick. Keeping the two separate
    lets the supervisor re-issue fresh limits for every rung of the
    degradation ladder from one immutable spec. *)

type t = {
  deadline_seconds : float option;  (** wall clock per attempt; [None] = no deadline *)
  max_total_tuples : int;  (** whole-run materialized-tuple budget *)
  max_cardinality : int;  (** per-intermediate-relation cap *)
  fuel : int;  (** operator-count budget; [max_int] = unlimited *)
}

val default : t
(** No deadline, the historical tuple caps (2M per relation, 20M total),
    unlimited fuel. *)

val unlimited : t

val with_deadline : float -> t -> t
val with_fuel : int -> t -> t
val with_max_total : int -> t -> t
val with_max_cardinality : int -> t -> t

val to_limits : ?clock:(unit -> float) -> t -> Relalg.Limits.t
(** Fresh limits enforcing this budget; the deadline starts counting
    now. [clock] is forwarded to {!Relalg.Limits.create} (tests inject
    fake clocks). *)

val pp : Format.formatter -> t -> unit
