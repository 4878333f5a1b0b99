(** Unified resource budgets with typed abort reasons.

    The paper's experiments time out slow methods; in this reproduction a
    run is aborted instead when any component of a budget is exhausted: a
    per-relation cardinality cap, a whole-run tuple budget, a wall-clock
    deadline, or an operator-count fuel. Each guard trips with a typed
    {!reason} so callers (the supervisor, the sweeps, the CLI) can tell
    {e why} a run died and react differently — retry down a degradation
    ladder on a deadline, but not on an injected fault, say.

    Deadlines are polled inside operator inner loops (every
    [check_interval] charged tuples, and every 1024 rows while a kernel
    fills an output it settled with {!charge_rows}) and at every
    operator boundary, so they fire mid-join rather than only between
    operators. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Tuple_budget  (** the whole-run tuple budget is exhausted *)
  | Cardinality of int
      (** an intermediate relation reached this many tuples, over the cap *)
  | Fuel  (** the operator-count fuel is spent *)
  | Injected of string  (** a fault injected by {!val:set_hook} (chaos) *)

exception Abort of reason
(** Raised by the engine when a guard trips. *)

type t

type hook = ops:int -> total:int -> unit
(** Called with the running operator count and charged-tuple total after
    every {!charge} call and at every operator boundary; may raise
    {!Abort} to inject a fault (see [Supervise.Chaos]). *)

val create :
  ?max_tuples:int ->
  ?max_total:int ->
  ?fuel:int ->
  ?deadline_seconds:float ->
  ?clock:(unit -> float) ->
  ?check_interval:int ->
  unit ->
  t
(** [max_tuples] caps the cardinality of any single intermediate relation
    (default [2_000_000]); [max_total] caps the total number of tuples
    materialized over the whole run (default [20_000_000]); [fuel] caps
    the number of operators executed (default unlimited);
    [deadline_seconds] bounds wall-clock time from now (default none).
    [clock] supplies the time in seconds (default {!Unix.gettimeofday};
    tests inject fake clocks). [check_interval] is how many charged
    tuples may pass between deadline polls inside an operator (default
    [512]; operator boundaries always poll). *)

val unlimited : unit -> t
(** Guards that never trip. *)

val charge : t -> int -> unit
(** Account for [n] freshly materialized tuples. Check-then-commit: when
    the budget would be exceeded the total is left untouched, so
    {!total_charged} and {!remaining} stay meaningful after an abort.
    @raise Abort with [Tuple_budget] when the budget runs out, [Deadline]
    when a poll finds the deadline passed, or whatever the hook raises. *)

val check_cardinality : t -> int -> unit
(** @raise Abort with [Cardinality n] when a single relation passes the
    per-relation cap. *)

val tick_operator : t -> unit
(** Called once at the start of every operator: spends one unit of fuel
    and polls the deadline and hook. Check-then-commit like {!charge}.
    @raise Abort with [Fuel] when the fuel is spent. *)

val check_deadline : t -> unit
(** Poll the clock now, regardless of the check interval.
    @raise Abort with [Deadline] when the deadline has passed. *)

val set_hook : t -> hook option -> unit
(** Install (or clear) the fault-injection hook. The hook runs after
    each {!charge} call, not after each tuple. The natural join,
    semijoin, antijoin, selections and projections settle their whole
    output with {!charge_rows}, in at most two calls, before writing a
    row; so a hook that fires once [k] tuples are charged, with [k]
    inside one such operator's output, fires before that operator writes
    a row, and {!total_charged} may then exceed [k]. Union and the
    explicit equijoin still charge each kept row in its own call. *)

val total_charged : t -> int
(** Tuples charged so far (never exceeds the budget, even after a trip). *)

val remaining : t -> int
(** Tuple budget left: [max_total - total_charged]. *)

val charge_rows : t -> int -> unit
(** [charge_rows t n] settles [n] rows kept in one fresh operator output
    at once, before any of them is written. It commits the same
    {!total_charged} and raises the same reason as [n] rounds of
    [charge t 1; check_cardinality t i] for [i = 1 .. n]: [Tuple_budget]
    at row [remaining t + 1], else [Cardinality (max_tuples + 1)] at row
    [max_tuples + 1], the budget winning a tie; nothing when all [n] fit.
    It does so in at most two {!charge} calls, so the hook runs (and the
    deadline may be polled) after each of those, not once per row.
    @raise Abort as {!charge} and {!check_cardinality}. *)

val max_tuples : t -> int
(** The per-relation cardinality cap. *)

val operators_run : t -> int
val remaining_fuel : t -> int

(** [t] is single-domain (plain mutable fields on the hot path): a
    pooled kernel counts its work on the workers and settles it once,
    with {!charge_rows}, on the submitting domain. *)

val describe : reason -> string
(** Human-readable diagnostic, e.g. ["wall-clock deadline exceeded"]. *)

val reason_label : reason -> string
(** Short stable label for aggregation and CSV output: one of
    ["deadline"], ["tuple-budget"], ["cardinality"], ["fuel"],
    ["injected"]. *)

val pp_reason : Format.formatter -> reason -> unit
