(** Columnar tuple arena: the storage behind every {!Relation}.

    All tuples of a relation are stored contiguously in one flat
    off-heap Bigarray of ints, {!data} (row-major: row [i] occupies
    cells [i*arity] through [i*arity + arity - 1]), and are addressed by
    row number. Duplicate elimination uses an open-addressing,
    linear-probing hash index over row numbers — each slot holds
    [row + 1], with [0] marking an empty slot — whose keys are re-read
    from the arena, so an insert hashes its candidate tuple exactly once
    and allocates nothing.

    The index is built lazily. Rows claimed with {!extend} and filled in
    place are not hashed at all; the first {!add} or {!mem} allocates
    the index (sized from the data capacity,
    so filling an arena through {!add} rehashes no more often than its
    data grows), and every later one first indexes the rows filled
    since. An arena that is only ever extended and filled never pays
    for an index. Because of this catch-up, {!mem} may write to the
    arena: concurrent readers on several domains must not call it on an
    arena that has unindexed rows.

    The hash function is FNV-1a over the columns, identical to
    {!Tuple.hash}, so a tuple hashes the same in and out of an arena. The
    index doubles (rehashing from the arena) at 50% load; the storage
    doubles when full. Zero-arity relations work: the storage stays
    empty and the arena holds at most the single empty tuple.

    Storage is allocated uninitialised and lives outside the OCaml heap:
    no cell is zero-filled, and the major GC does not scan it. Only the
    cells of rows [0 .. count - 1] are specified; the spare capacity
    that [create]'s [size_hint] and [add]'s doubling leave past them
    holds unspecified values until a row is claimed there. {!release}
    frees an arena's storage at once; an arena never released has its
    storage freed when the GC finalises it.

    {b Ownership.} An arena has one owner: the code that created it, or
    the caller a function handed a fresh arena to (every kernel in
    [Ops] returns a fresh output, and [Database.eval_atom] a fresh copy
    of the stored relation).
    - Only the owner releases an arena, and only once nothing else will
      read it.
    - No raw {!data} value outlives the kernel call that fetched it: a
      kernel reads and writes it during the call and keeps nothing. A
      pooled kernel keeps the rule because [Pool.run] returns only
      after every task has ended, aborts included.

    So once a kernel has returned or raised, its owner may release its
    inputs: the binary-plan executor ([Exec.run]) releases each
    intermediate as soon as its consumer's kernel is done with it. *)

type t

type data = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Row-major tuple storage. Name this type at every access site
    ([(d : data)]): an access whose element kind the compiler cannot see
    is a C call per cell instead of one load or store. *)

(** The allocator policy this module sets as it initialises. Each
    arena's {!data} is a malloc chunk, and so is every kernel's scratch
    array over 256 words, which OCaml 5 allocates with [malloc]. glibc's
    dynamic thresholds hand such chunks back to the kernel when they are
    freed, and the next output then faults its pages in and has the
    kernel zero them again. On glibc the library pins
    [M_MMAP_THRESHOLD] at 32 MiB, sets [M_MMAP_MAX] to 0 so that no
    chunk, however large, is served by [mmap], and pins
    [M_TRIM_THRESHOLD] at 256 MiB. Freed storage then stays in the heap
    and the next allocation of its size reuses it, faulting nothing in;
    the price is that up to 256 MiB of freed heap stays resident in a
    long-lived process. Nothing reads the environment and there is no
    option. *)
type malloc_policy =
  | Pinned  (** All three settings are made. *)
  | Unsupported  (** Not glibc: the allocator's own policy stands. *)
  | Refused  (** glibc's [mallopt] refused a value. *)

val malloc_policy : malloc_policy

val create : ?size_hint:int -> int -> t
(** [create ?size_hint arity] — an empty arena for tuples of the given
    arity, with room for [size_hint] rows (default 16, at least 8). A
    [size_hint] of 0 allocates no storage: the first {!extend} sizes it
    exactly, the first {!add} to 8 rows. The storage is uninitialised.
    @raise Invalid_argument on a negative arity. *)

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
(** An arena with the same rows and index, over storage of its own that
    holds exactly those rows: only the [count * arity] live cells are
    copied, with one [memcpy]. *)

(** {2 Kernel interface}

    Join, semijoin, selection and projection kernels read columns
    straight out of {!data} and write output rows in place, avoiding any
    per-tuple allocation. A read or write of a cell whose array the
    compiler knows is a {!data} is one load or store: no bounds check
    with [unsafe_get]/[unsafe_set], no write barrier, no C call.

    Operators that cannot produce a duplicate from duplicate-free inputs
    count their output first, claim it with {!extend} and fill it. A
    natural join emits each matching pair of an [r] row and an [s] row
    once; two different pairs differ in their [r] columns or, agreeing
    on the shared columns, in [s]'s remaining ones. A semijoin, an
    antijoin and a selection each keep a subset of the rows of one
    relation. Projection can collapse rows, so it finds its distinct
    rows first, with a dedup of its own over its input's columns
    ([Ops.dedup]), and then extends and fills exactly those; union goes
    through {!add}. *)

val data : t -> data
(** The raw row-major storage. Only cells of rows [0 .. count - 1] are
    specified; treat as read-only. Its length is the capacity times the
    arity. It is replaced wholesale when the arena grows, so re-fetch it
    after any insert, and freed by {!release}. *)

val extend : t -> int -> int
(** [extend t n] adds [n] rows to {!count} at once and returns the base
    offset into {!data} of the first; row [count t - n + i] starts at
    [base + i * arity t]. When the storage holds fewer than
    [count t + n] rows it is first replaced by one of exactly that size,
    with no doubling slack: the caller knows how many rows are coming.
    The caller must fill every cell of the new rows before anything
    reads them — until then they hold unspecified values. The storage
    is not replaced again until the arena next grows, so disjoint
    row ranges of the new rows may be filled concurrently from several
    domains: a pooled join fills one probe range's output per range.
    The new rows are left out of the dedup index until the next {!add}
    or {!mem} catches it up.

    Precondition: the filled rows are pairwise distinct and equal no row
    already stored. Nothing checks this; breaking it leaves a duplicate
    row that {!count}, {!iter} and every later operator will see.
    @raise Invalid_argument on a negative [n]. *)

val release : t -> int
(** [release t] frees [t]'s storage at once, leaves [t] empty (no rows,
    no index) and returns the live cells it held, [count * arity].
    Releasing again frees nothing and returns 0, and a later {!extend}
    or {!add} allocates fresh storage. A {!data} value fetched before
    the release must not be read or written afterwards; it is then a
    zero-length array. (The arena makes no view of its storage; if a
    caller made one, the storage is shared with the view and is left to
    the GC.) Only [t]'s owner may release it (see {b Ownership} above). *)
