module Key_table = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

(* Every operator spends one unit of fuel up front; the tick also polls
   the deadline and chaos hook so aborts land at operator boundaries even
   when the operator itself produces nothing. *)
let tick = function Some l -> Limits.tick_operator l | None -> ()

let note_result stats limits rel =
  (match limits with
  | Some l -> Limits.check_cardinality l (Relation.cardinality rel)
  | None -> ());
  match stats with
  | Some st ->
    Stats.record_relation st ~arity:(Relation.arity rel)
      ~cardinality:(Relation.cardinality rel)
  | None -> ()

(* Charge limits for one freshly materialized tuple. *)
let charge_new limits rel =
  match limits with
  | Some l ->
    Limits.charge l 1;
    Limits.check_cardinality l (Relation.cardinality rel)
  | None -> ()

let guarded_add limits rel tup =
  if Relation.add rel tup then charge_new limits rel

(* A cell of an arena's storage. Every kernel reads and writes arenas
   through these two: the type they name lets the compiler emit one
   load or store, where an access to a Bigarray of unknown kind is a C
   call per cell. *)
let[@inline] get_d (d : Arena.data) i = Bigarray.Array1.unsafe_get d i
let[@inline] set_d (d : Arena.data) i v = Bigarray.Array1.unsafe_set d i v

(* The [b] side of a dedup that keeps no column of one. *)
let no_rows : Arena.data = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout 0

(* Kernels whose output rows are copies of input rows (joins, semijoins,
   selections) count what they keep, then settle and fill it: one
   [Limits.charge_rows] for the whole output, one [Arena.extend], and
   plain copy loops over the arenas' storage. The settle commits the
   same total and raises the same reason as charging row by row, and
   raises before the output is sized or written, so a doomed output
   costs nothing. Fills poll the deadline every [fill_poll_rows] rows. *)

(* Rows a fill writes between deadline polls; a power of two. *)
let fill_poll_rows = 1024

(* Poll after filling output row [row] (counted from the fill's first). *)
let poll_fill limits row =
  if (row + 1) land (fill_poll_rows - 1) = 0 then
    Option.iter Limits.check_deadline limits

(* Settle [n] rows kept in the fresh output [aout] and claim them;
   returns the first one's base cell. *)
let settle limits aout n =
  Option.iter (fun l -> Limits.charge_rows l n) limits;
  Arena.extend aout n

(* Keep rows [ids.(0 .. n - 1)] of [src], in that order, in the fresh
   output [aout] of the same arity: for operators whose output is a
   subset of one duplicate-free input. *)
let keep_rows limits aout src ids n =
  let base = settle limits aout n in
  let od = Arena.data aout and d = Arena.data src and w = Arena.arity src in
  for i = 0 to n - 1 do
    let cell = base + (i * w) and sbase = Array.unsafe_get ids i * w in
    for k = 0 to w - 1 do
      set_d od (cell + k) (get_d d (sbase + k))
    done;
    poll_fill limits i
  done

(* Telemetry is threaded as an option so the disabled path is one match
   on [None]: no span, no attribute list, no clock read. An operator
   that aborts mid-loop leaves its span open; the enclosing span's stop
   closes it (marked [unwound]), so traces stay well-formed. *)
let span telemetry name =
  match telemetry with
  | None -> None
  | Some t -> Some (t, Telemetry.start t name)

let fanout_bounds = [| 0.05; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 32.0; 128.0 |]

(* [fused]: the join's size and the matches sent to the dedup, when a
   fused kernel projected the join without writing it; [out] is then
   the projection. *)
let finish_join ?fused sp r s out =
  match sp with
  | None -> ()
  | Some (t, sp) ->
    let left = Relation.cardinality r and right = Relation.cardinality s in
    let produced = Relation.cardinality out in
    Telemetry.Span.add_attrs sp
      ([
         ("rows.left", Telemetry.Attr.Int left);
         ("rows.right", Telemetry.Attr.Int right);
         ("rows.out", Telemetry.Attr.Int produced);
         ("arity.out", Telemetry.Attr.Int (Relation.arity out));
         ("hash.probes", Telemetry.Attr.Int (max left right));
       ]
      @
      match fused with
      | None -> []
      | Some (joined, deduped) ->
        [ ("rows.join", Telemetry.Attr.Int joined); ("rows.dedup", Telemetry.Attr.Int deduped) ]);
    Telemetry.Metrics.observe
      (Telemetry.Metrics.histogram ~bounds:fanout_bounds (Telemetry.metrics t)
         "ops.join_fanout")
      (float_of_int (match fused with Some (joined, _) -> joined | None -> produced)
      /. float_of_int (max 1 (max left right)));
    Telemetry.stop t sp

let finish_unary sp r out =
  match sp with
  | None -> ()
  | Some (t, sp) ->
    Telemetry.Span.add_attrs sp
      [
        ("rows.in", Telemetry.Attr.Int (Relation.cardinality r));
        ("rows.out", Telemetry.Attr.Int (Relation.cardinality out));
        ("arity.out", Telemetry.Attr.Int (Relation.arity out));
      ];
    Telemetry.stop t sp

(* ------------------------------------------------------------------ *)
(* Columnar hash-join kernel: count, then fill.

   The join never materializes a tuple: the build index hashes the key
   columns straight out of the build arena (slots hold [row + 1]; rows
   with equal keys are chained through [next]), and probes hash the
   probe arena's key columns in place. The build loop also keeps, at
   the head of each chain, its key's row count, so one count pass over
   the probe side records every probe row's chain head and sums the
   exact output size without walking a chain. The output is settled
   and extended once at that size, and the fill pass follows the
   recorded heads — no second hash or probe — writing each match in
   place with [fill_row], with no dedup probe: a join of two sets cannot
   produce the same row twice. The single-attribute key case — the
   common one for the paper's coloring queries — gets its own loops
   with the FNV step inlined on one value. *)

let fnv_seed = 0x1000193
let fnv_prime = 0x100000001b3
let hash1 v = ((fnv_seed lxor v) * fnv_prime) land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* FNV-1a over the key columns [cols] of the row at [base] in [d]. *)
let hash_key d base cols =
  let h = ref fnv_seed in
  for k = 0 to Array.length cols - 1 do
    h :=
      (!h lxor get_d d (base + Array.unsafe_get cols k)) * fnv_prime
  done;
  !h land max_int

(* The rows at [b1] in [d1] and [b2] in [d2] agree on the key columns
   [k1] and [k2] respectively. *)
let rec keys_equal_from k d1 b1 k1 d2 b2 k2 =
  k >= Array.length k1
  || get_d d1 (b1 + Array.unsafe_get k1 k)
     = get_d d2 (b2 + Array.unsafe_get k2 k)
     && keys_equal_from (k + 1) d1 b1 k1 d2 b2 k2

let keys_equal d1 b1 k1 d2 b2 k2 = keys_equal_from 0 d1 b1 k1 d2 b2 k2

(* Open-addressing index over the key columns [key] of rows [0 .. n - 1]
   of the row-major array [d] (row width [w]): a slot holds [row + 1] of
   the latest row of one distinct key, and [next] chains each row to the
   previous row with the same key ([-1] ends a chain). With
   [~chain_lengths:true], [lens.(row)] is the length of the chain from
   [row] down — at a chain head, its key's row count; otherwise [lens]
   is empty. Returns [(slots, mask, next, lens)]. *)
let build_key_index ?(chain_lengths = false) d w key n =
  let slot_len = pow2_at_least (max 16 (2 * n)) 16 in
  let mask = slot_len - 1 in
  let slots = Array.make slot_len 0 in
  let next = Array.make (max 1 n) (-1) in
  let lens = if chain_lengths then Array.make (max 1 n) 1 else [||] in
  if Array.length key = 1 then begin
    let k0 = key.(0) in
    for row = 0 to n - 1 do
      let v = get_d d ((row * w) + k0) in
      let i = ref (hash1 v land mask) in
      let placing = ref true in
      while !placing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then begin
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else if get_d d (((s - 1) * w) + k0) = v then begin
          Array.unsafe_set next row (s - 1);
          if chain_lengths then
            Array.unsafe_set lens row (Array.unsafe_get lens (s - 1) + 1);
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else i := (!i + 1) land mask
      done
    done
  end
  else
    for row = 0 to n - 1 do
      let base = row * w in
      let i = ref (hash_key d base key land mask) in
      let placing = ref true in
      while !placing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then begin
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else if keys_equal d ((s - 1) * w) key d base key then begin
          Array.unsafe_set next row (s - 1);
          if chain_lengths then
            Array.unsafe_set lens row (Array.unsafe_get lens (s - 1) + 1);
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else i := (!i + 1) land mask
      done
    done;
  (slots, mask, next, lens)

(* Where a join fill writes — output row [i] starts at cell
   [base + i * wout] of [od] — and what it copies: all of an [r] row,
   then the [rest_s] columns of an [s] row. *)
type join_fill = {
  od : Arena.data;
  base : int;
  wout : int;
  dr : Arena.data;
  wr : int;
  ds : Arena.data;
  ws : int;
  rest_s : int array;
  limits : Limits.t option;
}

(* Settle [n] join rows into the fresh output [aout] and describe their
   fill. *)
let join_fill limits aout ~ar ~as_ ~rest_s n =
  let base = settle limits aout n in
  {
    od = Arena.data aout;
    base;
    wout = Arena.arity aout;
    dr = Arena.data ar;
    wr = Arena.arity ar;
    ds = Arena.data as_;
    ws = Arena.arity as_;
    rest_s;
    limits;
  }

(* The one row-copy helper of both join fills: write the match of
   [r_row] and [s_row] as output row [row]. *)
let fill_row f row r_row s_row =
  let od = f.od and dr = f.dr and ds = f.ds and rest_s = f.rest_s in
  let cell = f.base + (row * f.wout) and rbase = r_row * f.wr in
  for k = 0 to f.wr - 1 do
    set_d od (cell + k) (get_d dr (rbase + k))
  done;
  let cell = cell + f.wr and sbase = s_row * f.ws in
  for k = 0 to Array.length rest_s - 1 do
    set_d od (cell + k) (get_d ds (sbase + Array.unsafe_get rest_s k))
  done;
  poll_fill f.limits row

(* A join's build index, before its count pass: the key index over the
   smaller side's rows ([build_on_r]: they are [r]'s), the probe side's
   key columns, and [heads], where the count pass records probe row
   [prow]'s chain head in [next] ([-1]: no match). *)
type join_index = {
  build_on_r : bool;
  db : Arena.data; wb : int; key_b : int array; (* build side *)
  dp : Arena.data; wp : int; key_p : int array; (* probe side *)
  slots : int array; mask : int; next : int array; lens : int array;
  heads : int array;
}

let index_join ~ar ~as_ ~key_r ~key_s =
  let build_on_r = Arena.count ar <= Arena.count as_ in
  let ab, key_b = if build_on_r then (ar, key_r) else (as_, key_s) in
  let ap, key_p = if build_on_r then (as_, key_s) else (ar, key_r) in
  let db = Arena.data ab and wb = Arena.arity ab in
  let slots, mask, next, lens =
    build_key_index ~chain_lengths:true db wb key_b (Arena.count ab)
  in
  { build_on_r; db; wb; key_b; dp = Arena.data ap; wp = Arena.arity ap; key_p;
    slots; mask; next; lens; heads = Array.make (Arena.count ap) (-1) }

(* The count pass over probe rows [lo, hi): record each one's chain head
   and return the rows they match, summed from the matched keys' row
   counts without walking a chain. Ranges write disjoint slices of
   [heads], so they may run on several domains at once. *)
let count_range j lo hi =
  let db = j.db and wb = j.wb and key_b = j.key_b in
  let dp = j.dp and wp = j.wp and key_p = j.key_p in
  let slots = j.slots and mask = j.mask and lens = j.lens and heads = j.heads in
  let size = ref 0 in
  if Array.length key_b = 1 then begin
    let kb0 = key_b.(0) and kp0 = key_p.(0) in
    for prow = lo to hi - 1 do
      let v = get_d dp ((prow * wp) + kp0) in
      let i = ref (hash1 v land mask) in
      let probing = ref true in
      while !probing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then probing := false
        else if get_d db (((s - 1) * wb) + kb0) = v then begin
          Array.unsafe_set heads prow (s - 1);
          size := !size + Array.unsafe_get lens (s - 1);
          probing := false
        end
        else i := (!i + 1) land mask
      done
    done
  end
  else
    for prow = lo to hi - 1 do
      let pbase = prow * wp in
      let i = ref (hash_key dp pbase key_p land mask) in
      let probing = ref true in
      while !probing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then probing := false
        else if keys_equal db ((s - 1) * wb) key_b dp pbase key_p then begin
          Array.unsafe_set heads prow (s - 1);
          size := !size + Array.unsafe_get lens (s - 1);
          probing := false
        end
        else i := (!i + 1) land mask
      done
    done;
  !size

(* The fill pass over probe rows [lo, hi): follow the recorded heads and
   write their matches in probe order, from output row [first] on. *)
let fill_range j f first lo hi =
  let build_on_r = j.build_on_r and next = j.next and heads = j.heads in
  let row = ref first in
  let rec fill_chain brow prow =
    if brow >= 0 then begin
      if build_on_r then fill_row f !row brow prow
      else fill_row f !row prow brow;
      incr row;
      fill_chain (Array.unsafe_get next brow) prow
    end
  in
  for prow = lo to hi - 1 do
    fill_chain (Array.unsafe_get heads prow) prow
  done

module Pool = Parallel.Pool

(* The join kernel, for every pool size: index, count, settle, fill.
   Without a pool the probe side is one range. With one, it is split
   into up to [Pool.size] contiguous ranges that count in parallel over
   the shared, read-only index; the submitting domain sums their counts
   and settles once, and range [i] fills the output rows right after
   ranges [0 .. i - 1]'s. Either way the rows come out in probe order,
   the same relation row for row at every pool size. Workers never
   write the caller's [Limits.t]: while filling they only poll its
   deadline ([Limits.check_deadline] reads no mutable state), and
   [Pool.run] re-raises the abort on the submitting domain. Returns the
   number of ranges. *)
let columnar_join pool limits aout ~ar ~as_ ~key_r ~key_s ~rest_s =
  let j = index_join ~ar ~as_ ~key_r ~key_s in
  let np = Array.length j.heads in
  match pool with
  | None ->
    let f = join_fill limits aout ~ar ~as_ ~rest_s (count_range j 0 np) in
    fill_range j f 0 0 np;
    1
  | Some pool ->
    let p = min (Pool.size pool) np in
    let ranges = List.init p (fun i -> (i * np / p, (i + 1) * np / p)) in
    let counts = Pool.map pool (fun (lo, hi) -> count_range j lo hi) ranges in
    let f = join_fill limits aout ~ar ~as_ ~rest_s (List.fold_left ( + ) 0 counts) in
    let _, fills =
      List.fold_left_map
        (fun first ((lo, hi), n) -> (first + n, fun () -> fill_range j f first lo hi))
        0 (List.combine ranges counts)
    in
    ignore (Pool.run pool fills);
    p

(* Hash join. The build side is the smaller input; the probe side streams.
   Output columns are always [r] then [s \ r], regardless of which side was
   built on, so the operator is deterministic for callers. *)
let natural_join ?(ctx = Ctx.null) r s =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.join.hash" in
  tick limits;
  Option.iter Stats.record_join stats;
  let sr = Relation.schema r and ss = Relation.schema s in
  let common = Schema.inter sr ss in
  let out_schema = Schema.union sr ss in
  let key_r = Schema.positions common sr in
  let key_s = Schema.positions common ss in
  let rest_s = Schema.positions (Schema.diff ss sr) ss in
  (* No size hint: the kernel sizes the output exactly once counted. *)
  let out = Relation.create ~size_hint:0 out_schema in
  let ar = Relation.arena r and as_ = Relation.arena s in
  let pool =
    match Ctx.pool ctx with
    | Some p as pool
      when Pool.size p > 1 && Arena.count ar + Arena.count as_ >= Pool.grain p ->
      pool
    | _ -> None
  in
  let ranges =
    columnar_join pool limits (Relation.arena out) ~ar ~as_ ~key_r ~key_s ~rest_s
  in
  (match (pool, sp) with
  | Some _, Some (_, sp) ->
    Telemetry.Span.set_attr sp "parallel.ranges" (Telemetry.Attr.Int ranges)
  | _ -> ());
  note_result stats limits out;
  finish_join sp r s out;
  out

let product ?ctx r s =
  if not (Schema.is_disjoint (Relation.schema r) (Relation.schema s)) then
    invalid_arg "Ops.product: schemas intersect";
  natural_join ?ctx r s

let equijoin ?(ctx = Ctx.null) ~on r s =
  if not (Schema.is_disjoint (Relation.schema r) (Relation.schema s)) then
    invalid_arg "Ops.equijoin: schemas intersect";
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.join.equi" in
  tick limits;
  Option.iter Stats.record_join stats;
  let sr = Relation.schema r and ss = Relation.schema s in
  let key_r = Array.of_list (List.map (fun (a, _) -> Schema.index sr a) on) in
  let key_s = Array.of_list (List.map (fun (_, b) -> Schema.index ss b) on) in
  let out =
    Relation.create ~size_hint:(max 16 (Relation.cardinality r))
      (Schema.union sr ss)
  in
  let table = Key_table.create (max 16 (Relation.cardinality s)) in
  Relation.iter
    (fun tup ->
      let key = Tuple.project tup key_s in
      let bucket = try Key_table.find table key with Not_found -> [] in
      Key_table.replace table key (tup :: bucket))
    s;
  Relation.iter
    (fun tup ->
      match Key_table.find_opt table (Tuple.project tup key_r) with
      | None -> ()
      | Some bucket ->
        List.iter (fun mate -> guarded_add limits out (Tuple.concat tup mate)) bucket)
    r;
  note_result stats limits out;
  finish_join sp r s out;
  out

(* ------------------------------------------------------------------ *)
(* Dedup kernel: record, partition, link, verify; then settle, fill.

   Projection collapses rows, so its output size is known only once
   duplicates are found. A candidate row is named by a pair of input
   rows, [a] of [da] and [b] of [db] (widths [wa], [wb]); its columns
   are the [ka] columns of the [a] row and the [kb] columns of the [b]
   row. An operator records every candidate's pair and hash in match
   order; the hash is [pair_hash] of the two sides' FNV-1a hashes, so a
   fused join hashes each input row's kept columns once, not each
   match's. [dedup] then scatters the candidates into [2^p] partitions
   by the hash's top [p] bits, [p] chosen from the candidate count so a
   partition holds about [partition_rows]. Each partition gets an
   open-addressing table sized from its own count, small enough to stay
   in cache (one table over every candidate took about one cache miss
   per probe). A slot packs the hash's low bits (a tag) with the
   candidate's index, and a candidate whose tag an earlier one already
   holds is linked to it, without reading a row. Equal candidates hash
   alike, so they share a partition, where they stay in match order:
   the first of them is never linked and each later one is. A pass in
   match order then compares each linked candidate with its link,
   reading the candidate's rows in the order the operator walked them,
   and marks the duplicates. [project] then compacts the pairs of the
   other candidates, in match order, and gathers them; [join_project]
   walks its matches again and skips the marked ones. So the distinct
   rows come out in first-occurrence order, and nothing is written
   until every duplicate is dropped. Every pass polls the deadline
   every [fill_poll_rows] candidates. *)

(* Candidates a partition aims to hold: at most this many on average,
   so its table has at most 4096 slots, 32 KB. *)
let partition_rows = 2048

(* The least [p] that leaves at most [partition_rows] of [n] candidates
   per partition on average. *)
let partition_bits n =
  let rec go p = if n <= partition_rows lsl p then p else go (p + 1) in
  go 0

let rec bit_length n = if n = 0 then 0 else 1 + bit_length (n lsr 1)

(* A candidate's hash from [hash_key] over its [a] row's and its [b]
   row's kept columns: one multiply and xorshift, so both the top bits
   (the partition) and the low bits (the tag and the slot) depend on
   every kept column. Nonnegative and below [2^62]. *)
let pair_hash ha hb =
  let h = ((ha * fnv_prime) lxor hb) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* [dedup] without its argument checks and its compaction (the
   operators' own candidates are valid by construction): marks each
   duplicate candidate [i] with [h.(i) < 0], leaves [h.(i) >= 0] on
   each kept one, and returns how many it kept. *)
let partitioned_dedup limits ~da ~wa ~ka ~db ~wb ~kb ~a ~b ~h n =
  let bits = partition_bits n in
  let shift = 62 - bits and parts = 1 lsl bits in
  (* Count each partition's candidates (one partition holds them all)
     and sum them: [start.(q)] is where partition [q] ends in the
     scatter. Scattering from the last candidate down then leaves it
     where partition [q] begins, and each partition in match order. *)
  let start = Array.make (parts + 1) n in
  if bits > 0 then begin
    Array.fill start 0 parts 0;
    for i = 0 to n - 1 do
      let q = Array.unsafe_get h i lsr shift in
      Array.unsafe_set start q (Array.unsafe_get start q + 1);
      poll_fill limits i
    done
  end;
  let largest = ref start.(0) in
  for q = 1 to parts - 1 do
    largest := max !largest start.(q);
    start.(q) <- start.(q) + start.(q - 1)
  done;
  (* A scattered candidate is the table slot it would fill: its tag, the
     hash's low [62 - index_bits] bits, above its index plus one. At
     [p = 0] the scatter is the identity, so it is not run: the [k]-th
     scattered candidate is candidate [k], whose slot the link pass
     reads off [h.(k)] before it links [k]. *)
  let index_bits = bit_length n in
  let index_mask = (1 lsl index_bits) - 1 in
  let tag_mask = (1 lsl (62 - index_bits)) - 1 in
  let slot_of hi i = ((hi land tag_mask) lsl index_bits) lor (i + 1) in
  let scattered =
    if bits = 0 then begin
      start.(0) <- 0;
      [||]
    end
    else begin
      let scattered = Array.make n 0 in
      for i = n - 1 downto 0 do
        let hi = Array.unsafe_get h i in
        let q = hi lsr shift in
        let at = Array.unsafe_get start q - 1 in
        Array.unsafe_set scattered at (slot_of hi i);
        Array.unsafe_set start q at;
        poll_fill limits (n - 1 - i)
      done;
      scattered
    end
  in
  let scattered_at k =
    if bits = 0 then slot_of (Array.unsafe_get h k) k else Array.unsafe_get scattered k
  in
  let index_at k =
    if bits = 0 then k else (Array.unsafe_get scattered k land index_mask) - 1
  in
  (* Link each candidate whose tag an earlier candidate [j] of its
     partition already holds to [j]: [h.(i)] becomes [-(j + 1)]. One
     table for the call, cleared between partitions; partition [q]
     uses its first [pow2_at_least (2 * count) 16] slots. *)
  let table = Array.make (pow2_at_least (2 * !largest) 16) 0 in
  let rec probe mask c tag s =
    let slot = Array.unsafe_get table s in
    if slot = 0 then Array.unsafe_set table s c
    else if slot lsr index_bits = tag then
      Array.unsafe_set h ((c land index_mask) - 1) (-(slot land index_mask))
    else probe mask c tag ((s + 1) land mask)
  in
  for q = 0 to parts - 1 do
    let lo = start.(q) and hi = start.(q + 1) in
    if hi > lo then begin
      let len = pow2_at_least (2 * (hi - lo)) 16 in
      let mask = len - 1 in
      for k = lo to hi - 1 do
        let c = scattered_at k in
        let tag = c lsr index_bits in
        probe mask c tag (tag land mask);
        poll_fill limits k
      done;
      if q + 1 < parts then Array.fill table 0 len 0
    end
  done;
  (* Verify the links in match order: a linked candidate equal to its
     link is a duplicate ([h.(i)] becomes [-1]). One that is not shares
     only a tag, and is a duplicate iff it equals an earlier candidate
     of its partition; otherwise it is kept ([h.(i)] becomes [0]). A
     link's target is never linked, so its hash names the partition. *)
  let keep_b = Array.length kb > 0 in
  let same i j =
    keys_equal da (Array.unsafe_get a i * wa) ka da (Array.unsafe_get a j * wa) ka
    && ((not keep_b)
       || keys_equal db (Array.unsafe_get b i * wb) kb db (Array.unsafe_get b j * wb) kb)
  in
  let rec equals_earlier i k hi =
    k < hi
    && (let e = index_at k in
        (e < i && same i e) || equals_earlier i (k + 1) hi)
  in
  let dups = ref 0 in
  for i = 0 to n - 1 do
    let link = Array.unsafe_get h i in
    if link < 0 then begin
      let j = -link - 1 in
      let dup =
        same i j
        || (let q = Array.unsafe_get h j lsr shift in
            equals_earlier i start.(q) start.(q + 1))
      in
      if dup then incr dups;
      Array.unsafe_set h i (if dup then -1 else 0)
    end;
    poll_fill limits i
  done;
  n - !dups

(* Compact the pairs of the candidates [partitioned_dedup] kept to the
   front of [a] (and of [b] with [keep_b]), in match order. *)
let compact limits ~keep_b ~a ~b ~h n =
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get h i >= 0 then begin
      Array.unsafe_set a !kept (Array.unsafe_get a i);
      if keep_b then Array.unsafe_set b !kept (Array.unsafe_get b i);
      incr kept
    end;
    poll_fill limits i
  done

let dedup ?limits ~da ~wa ~ka ~db ~wb ~kb ~a ~b ~h n =
  let row_ok d w cols row =
    Array.for_all
      (fun c -> c >= 0 && c < w && row >= 0 && (row * w) + c < Bigarray.Array1.dim d)
      cols
  in
  if Array.length a < n || Array.length h < n || (Array.length kb > 0 && Array.length b < n)
  then invalid_arg "Ops.dedup: fewer than n candidates";
  for i = 0 to n - 1 do
    if h.(i) < 0 || not (row_ok da wa ka a.(i) && (kb = [||] || row_ok db wb kb b.(i))) then
      invalid_arg "Ops.dedup: candidate out of range"
  done;
  let kept = partitioned_dedup limits ~da ~wa ~ka ~db ~wb ~kb ~a ~b ~h n in
  compact limits ~keep_b:(Array.length kb > 0) ~a ~b ~h n;
  kept

(* Settle the [kept] distinct rows [a.(0 .. kept - 1)] of [da] (width
   [wa]) into the fresh output [aout] and gather their [cols]. *)
let gather limits aout ~da ~wa cols a kept =
  let base = settle limits aout kept in
  let od = Arena.data aout and w = Arena.arity aout in
  for i = 0 to kept - 1 do
    let cell = base + (i * w) and abase = Array.unsafe_get a i * wa in
    for j = 0 to w - 1 do
      set_d od (cell + j) (get_d da (abase + Array.unsafe_get cols j))
    done;
    poll_fill limits i
  done

let project ?(ctx = Ctx.null) r sub =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.project" in
  tick limits;
  Option.iter Stats.record_projection stats;
  let positions = Schema.positions sub (Relation.schema r) in
  let ain = Relation.arena r in
  let da = Arena.data ain and wa = Arena.arity ain and n = Arena.count ain in
  let a = Array.make n 0 and h = Array.make n 0 in
  for row = 0 to n - 1 do
    Array.unsafe_set a row row;
    Array.unsafe_set h row (pair_hash (hash_key da (row * wa) positions) fnv_seed);
    poll_fill limits row
  done;
  let kept =
    partitioned_dedup limits ~da ~wa ~ka:positions ~db:no_rows ~wb:0 ~kb:[||] ~a ~b:[||] ~h n
  in
  compact limits ~keep_b:false ~a ~b:[||] ~h n;
  let out = Relation.create ~size_hint:0 sub in
  gather limits (Relation.arena out) ~da ~wa positions a kept;
  note_result stats limits out;
  finish_unary sp r out;
  out

(* ------------------------------------------------------------------ *)
(* Fused join and projection: index, count, settle the join; analyse
   twins, record, dedup; settle, fill.

   Only a match that can collide with another needs the dedup. When
   every column the probe side drops is a join key, two different
   matches with equal projected rows use two different build rows that
   agree on every kept build column. Say matches [(b1, p1)] and
   [(b2, p2)] (build row, probe row) project alike. Every kept build
   column is a column of the projection, so [b1] and [b2] agree on it.
   If [b1 = b2], then [p1] and [p2] agree on every probe column: on a
   kept one through the projection, and on a dropped one, a join key,
   because both equal the one build row there. A relation holds no row
   twice, so then [p1 = p2], and the two matches are one. So a build
   row with no twin — no other build row equal on every kept build
   column — has matches that equal no other match: the kernel writes
   them straight out. Only the twin matches, those of build rows with a
   twin, are recorded and deduplicated; one fill pass then walks every
   match in match order, writing each from its two input rows and
   skipping the twin matches the dedup marked.

   Every match is a twin match, and the passes are a plain record and
   dedup, in three cases:
   - the probe side drops a column that is not a join key, where the
     argument fails: [s = {(k 1, z 7)}] and [r = {(x 1, k 1), (x 2, k 1)}]
     project onto [z] as one row, from two matches of one build row;
   - every build row has a twin, so there is nothing to prune;
   - the call has at most [partition_rows] matches, where one
     cache-resident table costs less than the analysis. *)

(* Every build row counts as a twin: [first.(brow) = brow]. *)
let all_twins nbuild =
  let first = Array.make (max 1 nbuild) 0 in
  for brow = 0 to nbuild - 1 do
    Array.unsafe_set first brow brow
  done;
  first

(* The twin analysis over the [nbuild] build rows, with [key] the build
   side's kept columns and [n] the join's matches: [first.(brow)] is the
   first build row at or after [brow] on its join chain ([j.next]) that
   has a twin ([-1]: none), so [first.(brow) = brow] iff [brow] has one.
   Returns [first] and the number of twin matches. The count pass is
   done with [j.lens], which is reused. *)
let twin_matches j ~key ~nbuild ~n =
  (* [first] starts as the twin index's chains, [-1] ending each: a row
     with no twin is on no other row's chain and ends its own. *)
  let _, _, first, _ = build_key_index j.db j.wb key nbuild in
  for brow = 0 to nbuild - 1 do
    let t = Array.unsafe_get first brow in
    if t >= 0 then begin
      Array.unsafe_set first brow brow;
      Array.unsafe_set first t t
    end
  done;
  (* A join chain links each row to an earlier one, so an ascending pass
     sees a row's successor first. [tail.(brow)]: the twin rows on the
     join chain from [brow] down. *)
  let tail = j.lens and twins = ref 0 in
  for brow = 0 to nbuild - 1 do
    let nx = Array.unsafe_get j.next brow in
    let rest = if nx >= 0 then Array.unsafe_get tail nx else 0 in
    if Array.unsafe_get first brow = brow then begin
      incr twins;
      Array.unsafe_set tail brow (rest + 1)
    end
    else begin
      Array.unsafe_set first brow (if nx >= 0 then Array.unsafe_get first nx else -1);
      Array.unsafe_set tail brow rest
    end
  done;
  if !twins = nbuild then (first, n)
  else begin
    let m = ref 0 in
    for prow = 0 to Array.length j.heads - 1 do
      let head = Array.unsafe_get j.heads prow in
      if head >= 0 then m := !m + Array.unsafe_get tail head
    done;
    (first, !m)
  end

(* The record pass: walk the join's recorded chains in the sequential
   join's order and record each of the [m] twin matches' [r] row in [a],
   [s] row in [b] (only when [kb] keeps a column of [s]) and [pair_hash]
   in [h]. A twin build row's kept columns are hashed once, a probe
   row's once if it has a twin match. *)
let record_matches limits j ~first ~ka ~kb ~nbuild m =
  let build_on_r = j.build_on_r and next = j.next and heads = j.heads in
  let k_build, k_probe = if build_on_r then (ka, kb) else (kb, ka) in
  let build_hash = Array.make (max 1 nbuild) 0 in
  for brow = 0 to nbuild - 1 do
    if Array.unsafe_get first brow = brow then
      Array.unsafe_set build_hash brow (hash_key j.db (brow * j.wb) k_build);
    poll_fill limits brow
  done;
  let keep_b = Array.length kb > 0 in
  let a = Array.make m 0 and h = Array.make m 0 in
  let b = if keep_b then Array.make m 0 else [||] in
  let i = ref 0 in
  for prow = 0 to Array.length heads - 1 do
    let head = Array.unsafe_get heads prow in
    let brow = ref (if head >= 0 then Array.unsafe_get first head else -1) in
    if !brow >= 0 then begin
      let hp = hash_key j.dp (prow * j.wp) k_probe in
      while !brow >= 0 do
        let hb = Array.unsafe_get build_hash !brow in
        if build_on_r then begin
          Array.unsafe_set a !i !brow;
          if keep_b then Array.unsafe_set b !i prow;
          Array.unsafe_set h !i (pair_hash hb hp)
        end
        else begin
          Array.unsafe_set a !i prow;
          if keep_b then Array.unsafe_set b !i !brow;
          Array.unsafe_set h !i (pair_hash hp hb)
        end;
        poll_fill limits !i;
        incr i;
        let nx = Array.unsafe_get next !brow in
        brow := if nx >= 0 then Array.unsafe_get first nx else -1
      done
    end
  done;
  (a, b, h)

(* Where the fused kernel's fill writes — output row [i] starts at cell
   [base + i * w] of [od] — and what it copies: output column [c] is
   column [cols.(c)] of an [r] row of [dr], or column [-cols.(c) - 1] of
   an [s] row of [ds] when negative. *)
type projection_fill = {
  od : Arena.data;
  base : int;
  w : int;
  cols : int array;
  dr : Arena.data;
  wr : int;
  ds : Arena.data;
  ws : int;
  limits : Limits.t option;
}

(* Write the projected match of [r_row] and [s_row] as output row
   [row]: [fill_row]'s counterpart. *)
let project_row (f : projection_fill) row r_row s_row =
  let od = f.od and dr = f.dr and ds = f.ds and cols = f.cols in
  let cell = f.base + (row * f.w) and rbase = r_row * f.wr and sbase = s_row * f.ws in
  for k = 0 to f.w - 1 do
    let c = Array.unsafe_get cols k in
    set_d od (cell + k) (if c >= 0 then get_d dr (rbase + c) else get_d ds (sbase - c - 1))
  done;
  poll_fill f.limits row

(* The fill pass: walk the join's chains in the sequential join's order
   again and write every match but the twin matches the dedup marked
   ([h.(t) < 0] for the [t]-th), each straight from its two input
   rows. *)
let fill_projection f j ~first ~h =
  let build_on_r = j.build_on_r and next = j.next and heads = j.heads in
  let row = ref 0 and t = ref 0 in
  for prow = 0 to Array.length heads - 1 do
    let brow = ref (Array.unsafe_get heads prow) in
    while !brow >= 0 do
      let b = !brow in
      let keep =
        Array.unsafe_get first b <> b
        || begin
          let verdict = Array.unsafe_get h !t in
          incr t;
          verdict >= 0
        end
      in
      if keep then begin
        if build_on_r then project_row f !row b prow else project_row f !row prow b;
        incr row
      end;
      brow := Array.unsafe_get next b
    done
  done

(* The fused join and projection: [natural_join]'s build index and count
   pass give the join's exact size, which is settled, recorded and
   reported as the unfused join would be; then the twin matches are
   recorded and deduplicated, and only the distinct projected rows are
   written. Sequential under any pool: the probe side is one range. *)
let join_project ?(ctx = Ctx.null) ?(on_join = ignore) r s sub =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.join.project" in
  tick limits;
  Option.iter Stats.record_join stats;
  let sr = Relation.schema r and ss = Relation.schema s in
  let common = Schema.inter sr ss in
  let ar = Relation.arena r and as_ = Relation.arena s in
  let j =
    index_join ~ar ~as_ ~key_r:(Schema.positions common sr)
      ~key_s:(Schema.positions common ss)
  in
  let n = count_range j 0 (Array.length j.heads) in
  Option.iter (fun l -> Limits.charge_rows l n) limits;
  Option.iter
    (fun st ->
      Stats.record_relation st ~arity:(Schema.arity (Schema.union sr ss)) ~cardinality:n)
    stats;
  on_join n;
  tick limits;
  Option.iter Stats.record_projection stats;
  let da = Arena.data ar and wa = Arena.arity ar in
  let db = Arena.data as_ and wb = Arena.arity as_ in
  let ka = Schema.positions (Schema.restrict sub ~keep:(Schema.mem sr)) sr in
  let kb = Schema.positions (Schema.diff sub sr) ss in
  let nbuild = Arena.count (if j.build_on_r then ar else as_) in
  let sbuild, sprobe = if j.build_on_r then (sr, ss) else (ss, sr) in
  let first, m =
    if n <= partition_rows || not (Schema.subset (Schema.diff sprobe sub) common) then
      (all_twins nbuild, n)
    else
      twin_matches j ~nbuild ~n
        ~key:(Schema.positions (Schema.restrict sbuild ~keep:(Schema.mem sub)) sbuild)
  in
  let a, b, h = record_matches limits j ~first ~ka ~kb ~nbuild m in
  let kept = partitioned_dedup limits ~da ~wa ~ka ~db ~wb ~kb ~a ~b ~h m in
  let cols =
    Array.map
      (fun a -> if Schema.mem sr a then Schema.index sr a else -Schema.index ss a - 1)
      (Schema.to_array sub)
  in
  let out = Relation.create ~size_hint:0 sub in
  let aout = Relation.arena out in
  let base = settle limits aout (n - m + kept) in
  let f =
    { od = Arena.data aout; base; w = Arena.arity aout; cols; dr = da; wr = wa; ds = db;
      ws = wb; limits }
  in
  fill_projection f j ~first ~h;
  note_result stats limits out;
  finish_join ~fused:(n, m) sp r s out;
  out

let project_away ?ctx r dropped =
  let keep a = not (List.mem a dropped) in
  let sub = Schema.restrict (Relation.schema r) ~keep in
  project ?ctx r sub

let select_named name ?(ctx = Ctx.null) r pred =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) name in
  tick limits;
  Option.iter Stats.record_selection stats;
  let ain = Relation.arena r in
  let n = Arena.count ain in
  let ids = Array.make (max 1 n) 0 and kept = ref 0 in
  for row = 0 to n - 1 do
    if pred (Arena.read ain row) then begin
      Array.unsafe_set ids !kept row;
      incr kept
    end
  done;
  let out = Relation.create ~size_hint:0 (Relation.schema r) in
  keep_rows limits (Relation.arena out) ain ids !kept;
  note_result stats limits out;
  finish_unary sp r out;
  out

let select ?ctx r pred = select_named "op.select" ?ctx r pred

let select_eq ?ctx r attr value =
  let i = Schema.index (Relation.schema r) attr in
  select ?ctx r (fun tup -> Tuple.get tup i = value)

let select_attr_eq ?ctx r a b =
  let ia = Schema.index (Relation.schema r) a in
  let ib = Schema.index (Relation.schema r) b in
  select ?ctx r (fun tup -> Tuple.get tup ia = Tuple.get tup ib)

let rename r mapping =
  let fresh =
    Array.map
      (fun a -> match List.assoc_opt a mapping with Some b -> b | None -> a)
      (Schema.to_array (Relation.schema r))
  in
  let out =
    Relation.create ~size_hint:(Relation.cardinality r) (Schema.of_array fresh)
  in
  Relation.iter (fun tup -> ignore (Relation.add out tup)) r;
  out

let aligned name r s =
  if not (Schema.equal_as_set (Relation.schema r) (Relation.schema s)) then
    invalid_arg (name ^ ": schemas are not permutations of each other");
  Relation.reorder s (Relation.schema r)

let union ?(ctx = Ctx.null) r s =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.union" in
  tick limits;
  let s = aligned "Ops.union" r s in
  let out = Relation.copy r in
  Relation.iter (fun tup -> guarded_add limits out tup) s;
  note_result stats limits out;
  finish_unary sp r out;
  out

let inter ?ctx r s =
  let s = aligned "Ops.inter" r s in
  select_named "op.inter" ?ctx r (fun tup -> Relation.mem s tup)

let diff ?ctx r s =
  let s = aligned "Ops.diff" r s in
  select_named "op.diff" ?ctx r (fun tup -> not (Relation.mem s tup))

(* Semi/antijoin kernel: index [s]'s join-key columns in place with the
   join's build-side loop, probe it with each row of [r]'s key columns,
   and keep the rows of [r] whose probe outcome is [keep_matches]. *)
let filter_by_keys name ~keep_matches ?(ctx = Ctx.null) r s =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) name in
  tick limits;
  Option.iter Stats.record_selection stats;
  let sr = Relation.schema r and ss = Relation.schema s in
  let common = Schema.inter sr ss in
  let key_r = Schema.positions common sr in
  let key_s = Schema.positions common ss in
  let ar = Relation.arena r and as_ = Relation.arena s in
  let dr = Arena.data ar and wr = Arena.arity ar in
  let ds = Arena.data as_ and ws = Arena.arity as_ in
  let slots, mask, _, _ = build_key_index ds ws key_s (Arena.count as_) in
  let nr = Arena.count ar in
  let ids = Array.make (max 1 nr) 0 and kept = ref 0 in
  for row = 0 to nr - 1 do
    let base = row * wr in
    let i = ref (hash_key dr base key_r land mask) in
    let probing = ref true and found = ref false in
    while !probing do
      let s = Array.unsafe_get slots !i in
      if s = 0 then probing := false
      else if keys_equal ds ((s - 1) * ws) key_s dr base key_r then begin
        found := true;
        probing := false
      end
      else i := (!i + 1) land mask
    done;
    if !found = keep_matches then begin
      Array.unsafe_set ids !kept row;
      incr kept
    end
  done;
  let out = Relation.create ~size_hint:0 sr in
  keep_rows limits (Relation.arena out) ar ids !kept;
  note_result stats limits out;
  finish_unary sp r out;
  out

let semijoin ?ctx r s =
  filter_by_keys "op.semijoin" ~keep_matches:true ?ctx r s

let antijoin ?ctx r s =
  filter_by_keys "op.antijoin" ~keep_matches:false ?ctx r s
