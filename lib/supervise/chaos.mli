(** Deterministic fault injection.

    A chaos fault arms the {!Relalg.Limits} hook so a run misbehaves at a
    precisely reproducible point — when the N-th operator starts, or once
    K tuples have been charged. Two fault shapes exist: an {e abort}
    raises a chosen typed reason (proving the degradation ladder and the
    abort taxonomy under every failure mode), and a {e stall} injects a
    latency bubble — it sleeps (or advances a fake clock) at the trigger
    point, so deadline enforcement under slow operators is testable
    without real slow inputs. *)

type trigger =
  | At_operator of int
      (** fire when the [n]-th operator (1-based) begins executing *)
  | After_tuples of int
      (** fire once at least [k] tuples have been charged, on the
          {!Relalg.Limits} hook — which runs after each charge call, not
          after each tuple (see {!Relalg.Limits.set_hook}) *)

type fault =
  | Abort of Relalg.Limits.reason
      (** raise this typed reason at the trigger; defaults to
          [Injected label], but a fault can impersonate e.g. [Deadline]
          to exercise that path deterministically *)
  | Stall of float
      (** at the trigger, call the fault's sleeper with this many
          seconds — once per arming — and continue; with a wall-clock
          deadline in force the next poll then trips [Deadline] *)

type t = {
  label : string;
  trigger : trigger;
  fault : fault;
  attempts : int list option;
      (** ladder attempt indices (0-based) the fault arms on; [None] hits
          every attempt. Faults restricted to early attempts let tests
          prove a rescue. *)
  sleeper : float -> unit;
      (** how a [Stall] spends its seconds; defaults to [Unix.sleepf].
          Tests inject a function advancing the same fake clock the
          limits read, making stall-then-deadline fully deterministic. *)
}

val at_operator :
  ?label:string -> ?reason:Relalg.Limits.reason -> ?attempts:int list ->
  int -> t

val after_tuples :
  ?label:string -> ?reason:Relalg.Limits.reason -> ?attempts:int list ->
  int -> t
(** A fault that fires once [k] tuples are charged. The hook runs after
    each [charge] call, and an operator's output is charged in at most
    two calls (the join, semijoin, antijoin and selections settle it
    with {!Relalg.Limits.charge_rows}; projection and union still charge
    per row). So a [k] that falls inside one such operator's output
    fires before that operator writes a row, and
    {!Relalg.Limits.total_charged} may then exceed [k].
    @raise Invalid_argument on a negative [k]. *)

val stall_at_operator :
  ?label:string -> ?attempts:int list -> ?sleeper:(float -> unit) ->
  seconds:float -> int -> t
(** A latency fault: when the [n]-th operator starts, sleep [seconds]
    (through [sleeper]) exactly once, then let the run continue into the
    deadline checks. *)

val stall_after_tuples :
  ?label:string -> ?attempts:int list -> ?sleeper:(float -> unit) ->
  seconds:float -> int -> t
(** As {!stall_at_operator}, but triggered after [k] charged tuples. *)

val seeded :
  ?label:string -> ?reason:Relalg.Limits.reason -> ?attempts:int list ->
  seed:int -> max_operator:int -> unit -> t
(** An [At_operator] fault whose position is drawn uniformly from
    [1, max_operator] by a {!Graphlib.Rng} seeded with [seed] — the same
    seed always yields the same fault. *)

val arm : t -> attempt:int -> Relalg.Limits.t -> unit
(** Install the fault's hook on the limits if this attempt index is in
    its scope; otherwise leave the limits untouched. A [Stall] fires at
    most once per [arm]; an [Abort] raises on every hook call at or past
    the trigger (the first one ends the run). *)
