(** Columnar tuple arena: the storage behind every {!Relation}.

    All tuples of a relation are stored contiguously in one flat
    [int array] (row-major: row [i] occupies cells [i*arity] through
    [i*arity + arity - 1]) and are addressed by row number. Duplicate
    elimination uses an open-addressing, linear-probing hash index over
    row numbers — each slot holds [row + 1], with [0] marking an empty
    slot — whose keys are re-read from the arena, so an insert hashes its
    candidate tuple exactly once and allocates nothing.

    The hash function is FNV-1a over the columns, identical to
    {!Tuple.hash}, so a tuple hashes the same in and out of an arena. The
    index doubles (rehashing from the arena) at 50% load; the data array
    doubles when full. Zero-arity relations work: the data array stays
    empty and the index holds at most the single empty tuple. *)

type t

val create : ?size_hint:int -> int -> t
(** [create ?size_hint arity] — an empty arena for tuples of the given
    arity. @raise Invalid_argument on a negative arity. *)

val arity : t -> int
val count : t -> int
(** Number of (distinct) rows stored. *)

val add : t -> int array -> bool
(** Insert a tuple by copying it into the arena; [true] if it was new.
    The tuple is hashed once; membership probing and insertion share the
    same probe sequence. @raise Invalid_argument on an arity mismatch. *)

val mem : t -> int array -> bool
val get : t -> int -> int -> int
(** [get t row j] — column [j] of row [row]. Bounds-checked. *)

val read : t -> int -> int array
(** Materialize row [row] as a fresh tuple. *)

val iter : (int array -> unit) -> t -> unit
(** Iterate rows in insertion order, materializing each. *)

val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a
val copy : t -> t

(** {2 Kernel interface}

    Join and projection kernels read columns straight out of {!data} and
    build candidate output rows in place with {!stage}/{!commit_staged},
    avoiding any per-tuple allocation. *)

val data : t -> int array
(** The raw row-major storage. Only cells of rows [0 .. count - 1] are
    meaningful; treat as read-only. The array is replaced wholesale when
    the arena grows, so re-fetch it after any insert. *)

val stage : t -> int
(** Reserve space for one candidate row and return its base offset into
    {!data}. The caller writes the [arity] cells at that offset, then
    calls {!commit_staged}. Staging again without committing simply
    overwrites the candidate. *)

val commit_staged : t -> bool
(** Dedup-insert the staged row: hashes it in place, returns [true] (and
    keeps the row) if it was new, [false] (row space is reused) if an
    equal row already exists. *)

val absorb : t -> t -> unit
(** [absorb dst src] adds every row of [src] to [dst] (deduplicating, in
    [src]'s row order) without materializing tuples: the merge step of
    the hash-partitioned parallel join, which joins each shard into a
    private arena and folds the shards back in shard order.
    @raise Invalid_argument on an arity mismatch. *)
