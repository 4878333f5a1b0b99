(** Relational-algebra operators.

    Every operator materializes its result (set semantics). All operators
    accept a single optional execution context ({!Ctx.t}) bundling the
    stats, limits, telemetry and domain pool. With stats, callers can
    measure the quantities the paper studies — maximum intermediate arity
    and cardinality; with limits, bound runaway evaluations; with
    telemetry, each operator runs inside a span named [op.*] carrying
    input/output cardinality, output arity and (for hash joins) probe
    counts, and joins observe their fan-out ratio in the
    [ops.join_fanout] histogram. [Ctx.null] (the default) disables all of
    it.

    Each operator spends one unit of {!Limits} fuel on entry and charges
    every materialized tuple, so budgets fire mid-plan and deadlines
    mid-operator.

    The natural join, semijoin, antijoin and projection run specialized
    kernels that read columns directly out of the tuple arenas and never
    allocate per probe. Operators that cannot produce a duplicate — the
    natural join, semijoin, antijoin and every selection ([select],
    [inter], [diff]) — count the rows they keep, settle their charges
    with one {!Limits.charge_rows}, claim them with one {!Arena.extend}
    and fill them with plain loops over the arenas' storage, with no
    dedup probe. Projection
    and the fused {!join_project} count too: they record each candidate
    row as its pair of input rows and a hash of its kept columns, find
    each distinct row's first occurrence with {!dedup}, then settle and
    fill the distinct rows the same way. Projection records every row;
    the fused kernel records only the matches that can equal another
    (see {!join_project}) and writes the rest straight out. The settle
    commits the same total and raises the same reason as charging each
    row as it is kept would, before the output is sized or a row
    written; the {!Limits} hook runs after each of its (at most two)
    charges, and fills poll the deadline every 1024 rows. Union, rename
    and the explicit equijoin deduplicate row by row, charging each kept
    row.

    @raise Limits.Abort when a guard trips (see {!Limits.reason}). *)

val natural_join : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** [natural_join r s] joins on all attributes the schemas share; the
    result schema is [r]'s schema followed by [s]'s remaining attributes.
    Implemented as a hash join, building on the smaller input; the index
    is built directly over the join-key columns of the build arena
    (single-attribute keys take a further specialized path). Degenerates
    to the cartesian product when the schemas are disjoint.

    The join counts, settles, then fills: a count pass over the probe
    side sums the exact output size from per-key row counts kept by the
    build loop, {!Limits.charge_rows} settles that many rows (a doomed
    join raises here, before its output is sized or written), the
    result is extended once by exactly that size, and a fill pass writes
    the matches.

    With a pool in the context ([Ctx.create ~pool]) and operands at least
    [Pool.grain] rows big, the probe side is split into up to
    [Pool.size] contiguous ranges that count and then fill in parallel,
    each range's output rows right after the earlier ranges'. The result
    is the sequential join's, row for row, and a guard trips with the
    same {!Limits.reason}: [Tuple_budget] when the run budget is the
    lower threshold, else [Cardinality (max_tuples + 1)]. *)

val product : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** Cartesian product. @raise Invalid_argument if schemas intersect. *)

val equijoin :
  ?ctx:Ctx.t -> on:(Schema.attr * Schema.attr) list ->
  Relation.t -> Relation.t -> Relation.t
(** [equijoin ~on r s] joins on the explicit attribute pairs (left
    attribute from [r], right from [s]); both columns are kept, as SQL
    does. The schemas must be disjoint (qualified column names from
    different aliases). An empty [on] is the cartesian product.
    @raise Not_found if a pair names an absent attribute. *)

val project : ?ctx:Ctx.t -> Relation.t -> Schema.t -> Relation.t
(** [project r s] keeps the columns of [s] (in [s]'s order), eliminating
    duplicates; rows come out in the order of their first occurrence in
    [r]. The kernel counts, settles, then fills: it hashes each row's
    kept columns in place in [r]'s arena, {!dedup} finds each distinct
    row's first occurrence, {!Limits.charge_rows} settles the distinct
    count, the output is extended once by exactly that many rows, and a
    gather writes them. Traced as [op.project].
    @raise Not_found if [s] is not a subset of [r]'s schema. *)

val join_project :
  ?ctx:Ctx.t -> ?on_join:(int -> unit) -> Relation.t -> Relation.t ->
  Schema.t -> Relation.t
(** [join_project r s sub] is [project (natural_join r s) sub], row for
    row and in the same order as with no pool, without writing the
    join. {!natural_join}'s build index and count pass give the join's
    exact size [n]; the kernel then settles the join as the unfused pair
    would — a fuel tick, {!Limits.charge_rows} [n] (a doomed join raises
    here), one {!Stats.record_join} and a {!Stats.record_relation} of
    arity [|r ∪ s|] and cardinality [n] — and calls [on_join n]. Then,
    as the projection, it ticks again and records a projection.

    When every column the probe side drops is a join key (the build
    side is the smaller input, [r] on a tie), two different matches can project onto one row only through
    two different build rows that agree on every kept build column: a
    build row's twins. The kernel then indexes the build side's kept
    columns, and only the twin matches — those of a build row with a
    twin — are candidates. In three cases every match is a candidate:
    the probe side drops a column that is not a join key, every build
    row has a twin, or the join has at most 2048 matches. The kernel
    walks the join's matches once, recording each candidate as its pair
    of [r] and [s] rows with a hash of its kept columns (each input
    row's kept columns are hashed once, not each match's), and the core
    of {!dedup} marks the candidates that repeat an earlier one. It
    settles the distinct rows, then one fill pass writes, in match
    order, every match but the marked candidates, each from its two
    input rows. So the stats, charges, fuel and abort reason are the
    unfused pair's, though the join's [n] rows are charged and recorded
    but never materialized. It runs sequentially whatever pool the
    context holds. Traced as [op.join.project], with the join's size as
    [rows.join] and the candidates as [rows.dedup].
    @raise Not_found if [sub] is not a subset of [r]'s and [s]'s
    attributes. *)

val dedup :
  ?limits:Limits.t -> da:Arena.data -> wa:int -> ka:int array ->
  db:Arena.data -> wb:int -> kb:int array ->
  a:int array -> b:int array -> h:int array -> int -> int
(** The duplicate elimination under {!project} and {!join_project}
    (which skips the duplicates as it fills instead of compacting
    them), exposed for its tests. [dedup ~da ~wa ~ka ~db ~wb ~kb ~a ~b ~h n]
    takes [n] candidate rows: candidate [i] is the [ka] columns of row
    [a.(i)] of the row-major arena storage [da] (width [wa]) followed by
    the [kb] columns of row [b.(i)] of [db] (width [wb]); [b] and [db]
    are not read when [kb] is empty. [h.(i)] is its hash: nonnegative, and equal for
    equal candidates. It keeps the first occurrence of each distinct
    candidate, compacts their pairs to the front of [a] and [b] in
    candidate order, and returns how many it kept; [h] is overwritten.
    So it returns what one hash table over every candidate, probed in
    order, would: the semantics of the single-table dedup it replaced.

    The candidates are scattered into [2^p] partitions by the hash's top
    [p] bits, [p] chosen from [n] so a partition holds at most 2048 on
    average ([p = 0] up to 2048), and each partition is deduplicated in
    an open-addressing table sized from its own count, whose slots pack
    the hash's low bits with the candidate's index: a table of one
    partition stays in cache. Candidates are compared column by column
    only when those bits match. Every pass polls [limits]' deadline every
    1024 candidates; nothing is charged.
    @raise Invalid_argument when [a], [b] or [h] holds fewer than [n]
    candidates, a hash is negative, or a kept column or row is out of
    range. *)

val project_away : ?ctx:Ctx.t -> Relation.t -> Schema.attr list -> Relation.t
(** Drop the listed attributes, keeping the rest in relation order.
    Attributes not present are ignored. *)

val select : ?ctx:Ctx.t -> Relation.t -> (Tuple.t -> bool) -> Relation.t
(** Generic selection; the schema is unchanged. *)

val select_eq : ?ctx:Ctx.t -> Relation.t -> Schema.attr -> int -> Relation.t
(** Rows whose attribute equals a constant. *)

val select_attr_eq :
  ?ctx:Ctx.t -> Relation.t -> Schema.attr -> Schema.attr -> Relation.t
(** Rows where two attributes agree. *)

val rename : Relation.t -> (Schema.attr * Schema.attr) list -> Relation.t
(** [rename r mapping] renames attributes per the association list
    (attributes absent from the list keep their names).
    @raise Invalid_argument if renaming creates duplicates. *)

val union : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** Set union. The second relation is reordered to the first's schema.
    @raise Invalid_argument if the schemas are not permutations. *)

val inter : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
val diff : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t

val semijoin : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** [semijoin r s] keeps the rows of [r] that join with some row of [s]
    (the Wong–Youssefi reducer; see also {!antijoin}). The kernel indexes
    [s]'s join-key columns in place with the hash join's build loop,
    probes it with each row of [r]'s key columns, records the kept rows
    of [r], then settles and copies them into the result: no per-row key
    tuple is allocated. With
    no shared attributes it keeps all of [r] when [s] is nonempty and
    nothing otherwise. Traced as [op.semijoin]. *)

val antijoin : ?ctx:Ctx.t -> Relation.t -> Relation.t -> Relation.t
(** Rows of [r] that join with no row of [s]: the same kernel as
    {!semijoin} with the test inverted. Traced as [op.antijoin]. *)
