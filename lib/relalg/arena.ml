(* Columnar tuple arena: every tuple of a relation lives in one flat
   [int array], row-major — row [i] occupies cells
   [data.(i*arity) .. data.(i*arity + arity - 1)] — so scans touch memory
   sequentially and a tuple is named by its row number, not by a boxed
   array. Dedup is an open-addressing (linear-probing) index whose slots
   hold [row + 1] (0 = empty); keys are re-read from the arena itself, so
   inserting hashes a candidate exactly once and stores nothing but the
   row number.

   The index is lazy. Kernels [extend] the arena and fill rows without
   hashing them (projection dedups before it writes, in its own index);
   the index is allocated on the first [add] or [mem] and caught up
   incrementally from row [indexed] on every later one.

   Cells are copied with plain [int array] loops, never blits: on OCaml 5
   a blit into a major-heap array runs the write barrier on every cell,
   while a loop over an array the compiler knows holds ints is a plain
   store (docs/INTERNALS.md, "Storage layer").

   Every arena's data is a malloc chunk, so the layer that owns it sets
   the process's allocator policy, once, as this module initialises
   ([arena_stubs.c]; docs/INTERNALS.md, "Memory policy"). *)

type malloc_policy = Pinned | Unsupported | Refused

external set_malloc_policy : unit -> int = "ppr_arena_malloc_policy" [@@noalloc]

let malloc_policy =
  match set_malloc_policy () with 1 -> Pinned | 0 -> Unsupported | _ -> Refused

type t = {
  arity : int;
  mutable data : int array; (* row-major tuple storage, capacity*arity cells *)
  mutable count : int; (* rows in use *)
  mutable slots : int array; (* row + 1, 0 = empty; [||] until first needed *)
  mutable mask : int; (* Array.length slots - 1 *)
  mutable indexed : int; (* rows [0 .. indexed - 1] are in [slots] *)
}

let arity t = t.arity
let count t = t.count
let data t = t.data

(* Must agree with [Tuple.hash] (FNV-1a over the columns) so a tuple
   hashes identically in a [Tuple]-keyed table and in an arena. *)
let fnv_seed = 0x1000193
let fnv_prime = 0x100000001b3

let hash_tuple (tup : int array) =
  let h = ref fnv_seed in
  for j = 0 to Array.length tup - 1 do
    h := (!h lxor Array.unsafe_get tup j) * fnv_prime
  done;
  !h land max_int

let hash_row t row =
  let base = row * t.arity in
  let h = ref fnv_seed in
  for j = 0 to t.arity - 1 do
    h := (!h lxor Array.unsafe_get t.data (base + j)) * fnv_prime
  done;
  !h land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* A [size_hint] of 0 allocates no data: kernels size their output with
   one [extend] once they know it. *)
let create ?(size_hint = 16) arity =
  if arity < 0 then invalid_arg "Arena.create: negative arity";
  let cap = if size_hint <= 0 then 0 else max 8 size_hint in
  {
    arity;
    data = Array.make (cap * arity) 0;
    count = 0;
    slots = [||];
    mask = -1;
    indexed = 0;
  }

(* Rows the data array holds without growing; a zero-arity arena stores
   at most the empty tuple. *)
let capacity t = if t.arity = 0 then 1 else Array.length t.data / t.arity

let row_equals_tuple t row (tup : int array) =
  let base = row * t.arity in
  let rec go j =
    j >= t.arity
    || Array.unsafe_get t.data (base + j) = Array.unsafe_get tup j && go (j + 1)
  in
  go 0

(* Put rows [from .. count - 1] into the index. Stored rows are pairwise
   distinct, so each only needs the first empty slot on its probe
   sequence. *)
let place_rows t from =
  for row = from to t.count - 1 do
    let rec place i =
      if Array.unsafe_get t.slots i = 0 then t.slots.(i) <- row + 1
      else place ((i + 1) land t.mask)
    in
    place (hash_row t row land t.mask)
  done;
  t.indexed <- t.count

(* Make the index cover every stored row with room for [rows] at 50%
   load. The first index is sized from the data capacity, so an arena
   filled through [add] rehashes no more often than its data grows. *)
let sync_index t rows =
  if Array.length t.slots = 0 || 2 * rows > t.mask + 1 then begin
    let wanted =
      if Array.length t.slots = 0 then max rows (capacity t) else rows
    in
    let slot_len = pow2_at_least (2 * wanted) (max 16 (2 * (t.mask + 1))) in
    t.slots <- Array.make slot_len 0;
    t.mask <- slot_len - 1;
    place_rows t 0
  end
  else if t.indexed < t.count then place_rows t t.indexed

(* Slot where [tup] lives, or the empty slot where it would be inserted. *)
let find_slot t tup h =
  let rec go i =
    let s = Array.unsafe_get t.slots i in
    if s = 0 || row_equals_tuple t (s - 1) tup then i
    else go ((i + 1) land t.mask)
  in
  go (h land t.mask)

let mem t tup =
  Array.length tup = t.arity
  && begin
    sync_index t t.count;
    t.slots.(find_slot t tup (hash_tuple tup)) <> 0
  end

(* Replace [data] by a zeroed array of [cells] cells holding the stored
   rows. *)
let resize t cells =
  let old = t.data and data = Array.make cells 0 in
  for i = 0 to (t.count * t.arity) - 1 do
    Array.unsafe_set data i (Array.unsafe_get old i)
  done;
  t.data <- data

(* Make room in [data] for [rows] rows, at least doubling it and at
   least 8 rows. *)
let grow_data t rows =
  if t.arity > 0 && rows * t.arity > Array.length t.data then
    resize t (max (max rows 8 * t.arity) (2 * Array.length t.data))

let add t (tup : int array) =
  if Array.length tup <> t.arity then
    invalid_arg
      (Printf.sprintf "Arena.add: tuple arity %d, arena arity %d"
         (Array.length tup) t.arity);
  grow_data t (t.count + 1);
  sync_index t (t.count + 1);
  let i = find_slot t tup (hash_tuple tup) in
  if t.slots.(i) <> 0 then false
  else begin
    let row = t.count in
    let data = t.data and base = row * t.arity in
    for j = 0 to t.arity - 1 do
      Array.unsafe_set data (base + j) (Array.unsafe_get tup j)
    done;
    t.count <- row + 1;
    t.slots.(i) <- row + 1;
    t.indexed <- t.count;
    true
  end

(* Claim [n] rows at once for the caller to fill in place, resizing
   [data] to exactly [count + n] rows when it holds fewer (no doubling
   slack: the caller knows how many rows are coming). The rows stay
   unindexed until the next probe catches the index up. *)
let extend t n =
  if n < 0 then invalid_arg "Arena.extend: negative row count";
  let rows = t.count + n in
  if t.arity > 0 && rows * t.arity > Array.length t.data then
    resize t (rows * t.arity);
  let base = t.count * t.arity in
  t.count <- t.count + n;
  base

let get t row j = t.data.((row * t.arity) + j)
let read t row = Array.sub t.data (row * t.arity) t.arity

let iter f t =
  for row = 0 to t.count - 1 do
    f (read t row)
  done

let fold f t init =
  let acc = ref init in
  for row = 0 to t.count - 1 do
    acc := f (read t row) !acc
  done;
  !acc

let copy t =
  {
    arity = t.arity;
    data = Array.copy t.data;
    count = t.count;
    slots = Array.copy t.slots;
    mask = t.mask;
    indexed = t.indexed;
  }
