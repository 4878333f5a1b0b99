(** Relations: a schema plus a duplicate-free set of tuples.

    Relations follow set semantics ([SELECT DISTINCT] throughout, as in the
    paper); inserting a tuple twice is a no-op.

    Tuples live in a flat columnar {!Arena} with open-addressing dedup:
    cache-friendly scans and allocation-free join kernels (see {!Ops}). *)

type t

val create : ?size_hint:int -> Schema.t -> t
(** An empty relation over the given schema. *)

val arena : t -> Arena.t
(** The underlying arena, read by the specialized kernels in {!Ops}. *)

val schema : t -> Schema.t
val arity : t -> int
val cardinality : t -> int
val is_empty : t -> bool

val add : t -> Tuple.t -> bool
(** Insert a tuple; returns [true] if it was new. The tuple is hashed
    exactly once (combined membership test and insert).
    @raise Invalid_argument if the tuple's arity differs from the schema's. *)

val mem : t -> Tuple.t -> bool
val iter : (Tuple.t -> unit) -> t -> unit
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> Tuple.t list
(** Tuples in an unspecified order. *)

val to_sorted_list : t -> Tuple.t list
(** Tuples in lexicographic order — stable across hash layouts, for
    tests and golden output. *)

val to_sorted_list_in : t -> Schema.attr list -> Tuple.t list
(** Tuples with their columns put in the given order, then sorted
    lexicographically: an answer listed in head order, the same whatever
    column order the route that computed it produced.
    @raise Invalid_argument if the list is not a permutation of the
    schema. *)

val to_seq : t -> Tuple.t Seq.t
(** Lazily stream the tuples in an unspecified order. The relation must
    not be mutated while the sequence is being consumed. *)

val of_list : Schema.t -> int list list -> t
(** Build a relation from row lists. Duplicates are merged.
    @raise Invalid_argument on an arity mismatch. *)

val of_tuples : Schema.t -> Tuple.t list -> t

val copy : ?schema:Schema.t -> t -> t
(** A copy; [schema] renames its columns.
    @raise Invalid_argument if [schema]'s arity differs. *)

val equal : t -> t -> bool
(** Same schema (ordered) and same tuple set. *)

val equal_modulo_order : t -> t -> bool
(** Equal after aligning both relations on a canonical column order; the
    right notion for comparing results of different evaluation strategies,
    which may emit columns in different orders. *)

val reorder : t -> Schema.t -> t
(** [reorder r s] is [r] with columns permuted to schema [s].
    @raise Invalid_argument if [s] is not a permutation of [r]'s
    schema. *)

val pp : ?namer:(Schema.attr -> string) -> ?max_rows:int -> unit ->
  Format.formatter -> t -> unit
