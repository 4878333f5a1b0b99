(** Plan explanation: per-node estimated and measured statistics.

    [EXPLAIN ANALYZE] for this engine — runs a plan and annotates every
    node with its estimated cardinality (the {!Cost} model the naive
    planner optimizes) and the measured cardinality and width, making
    mis-estimates and blow-up points visible. Used by the CLI's
    [explain] subcommand and handy when debugging new strategies. *)

type node = {
  plan : Plan.t;             (** the subplan rooted here *)
  description : string;      (** one-line operator description *)
  schema : int list;
  estimated_rows : float;
  actual_rows : int;
  children : node list;
}

val analyze :
  ?ctx:Relalg.Ctx.t -> ?feedback:Cost.feedback ->
  Conjunctive.Database.t -> Plan.t -> node * Relalg.Relation.t
(** Execute the plan with {!Exec.run}, collecting one annotated node per
    operator from its post-order observations; the relation returned is
    exactly [Exec.run]'s. The context supplies limits, stats, telemetry
    and pool; [feedback] annotates with {e corrected} estimates (see
    {!Cost.environment}), so the explain view shows what an adaptive
    planner would believe.
    @raise Relalg.Limits.Abort as {!Exec.run} does (partial output is
    lost; use generous limits when explaining). *)

val render : ?namer:(int -> string) -> node -> string
(** An indented tree, one operator per line:
    [operator [schema]  est=... rows=...]. *)

val largest_misestimate : node -> (node * float) option
(** The node with the largest ratio between estimated and actual rows
    (in either direction); [None] for a plan whose estimates are all
    exact. Useful for spotting where the independence assumption breaks. *)
