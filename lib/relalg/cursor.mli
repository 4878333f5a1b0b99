(** Pull-based answer cursors: the streaming half of the result API.

    A cursor is an explicit [next : t -> Tuple.t option] handle over a
    lazy {!Seq.t} of tuples, carrying the output schema, a {!close}, and
    optional dedup state (projection streams may produce duplicates; a
    deduplicating cursor yields each distinct tuple once, in first-seen
    order). Evaluators hand back cursors instead of materialized
    relations so consumers that stop pulling — existence checks,
    [--limit k], a paginated serving client — never pay for the full
    result.

    Cursors are single-consumer and not domain-safe: exactly one thread
    of control may pull at a time (the serving layer checks a parked
    cursor out of its store before pulling for precisely this reason).
    An abort raised by the producer mid-stream ({!Limits.Abort})
    propagates out of {!next} after the cursor closes itself. *)

type t

val of_seq :
  ?dedup:bool -> ?on_close:(unit -> unit) -> schema:Schema.t ->
  Tuple.t Seq.t -> t
(** Wrap a lazy tuple sequence. [dedup] (default [false]) filters the
    stream through a seen-set so each distinct tuple is yielded once.
    [on_close] runs exactly once — at {!close}, at exhaustion, or when
    the producer raises. *)

val of_iter :
  ?dedup:bool -> ?on_close:(unit -> unit) -> schema:Schema.t ->
  ((Tuple.t -> unit) -> unit) -> t
(** Invert a push-style producer into a pull cursor using an effect
    handler: [of_iter ~schema produce] runs [produce emit] as a fiber
    that suspends at every [emit tup] and resumes on the next {!next}.
    The producer starts on the first pull, so building the cursor is
    free; abandoning the cursor (close before exhaustion) abandons the
    suspended fiber. *)

val schema : t -> Schema.t
val next : t -> Tuple.t option
(** The next answer tuple, or [None] once the stream is exhausted (the
    cursor closes itself on exhaustion; later calls keep returning
    [None]).
    @raise Limits.Abort when the producer trips a resource guard — the
    cursor closes first, so a caught abort cannot leak a half-open
    stream. *)

val close : t -> unit
(** Release the cursor: subsequent {!next} calls return [None].
    Idempotent; runs the [on_close] hook the first time only. *)

val closed : t -> bool
val yielded : t -> int
(** Tuples handed out by {!next} so far. *)

val iter : (Tuple.t -> unit) -> t -> unit
(** Drain the remainder of the stream. *)

val take : t -> int -> Tuple.t list
(** Up to [k] further tuples, in stream order. The cursor remains open
    (unless the stream ended) so a later {!take} continues where this
    one stopped — the pagination primitive. *)

val to_relation : t -> Relation.t
(** Drain the whole stream into a materialized relation over the
    cursor's schema. *)

val top_k :
  compare:(Tuple.t -> Tuple.t -> int) -> t -> int -> Tuple.t list
(** The [k] least tuples under [compare], in ascending order, from a
    full drain of the stream via a bounded max-heap ([O(n log k)]
    comparisons, [O(min(k, n))] space: the heap grows with the answer,
    so [k = max_int] is a full sort). [compare] must be total — include a
    tuple tiebreak for deterministic output. *)
