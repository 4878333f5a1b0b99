(** Unified execution context.

    Everything cross-cutting that used to travel through separate
    [?stats ?limits ?telemetry] optionals — plus the domain pool —
    bundled into one value that every operator, {!Exec.run},
    [Driver.run] and [Supervise.run] accept as a single [?ctx].
    [Ctx.null] (the default everywhere) disables all instrumentation. *)

type t

val null : t
(** No stats, no limits, no telemetry, no pool. *)

val create :
  ?stats:Stats.t ->
  ?limits:Limits.t ->
  ?telemetry:Telemetry.t ->
  ?pool:Parallel.Pool.t ->
  unit ->
  t

val stats : t -> Stats.t option
val limits : t -> Limits.t option
val telemetry : t -> Telemetry.t option

val pool : t -> Parallel.Pool.t option
(** The domain pool that the natural join ([Ops.natural_join]) and the
    sweeps fan work out on; every other operator, the generic join
    included, runs on the calling domain. [None] (the default) means
    strictly sequential execution. Carried in the context so one
    [--jobs N] at the entry point reaches every join and sweep. *)

val with_stats : t -> Stats.t -> t
val with_limits : t -> Limits.t -> t
val with_telemetry : t -> Telemetry.t -> t
