(* Columnar tuple arena: every tuple of a relation lives in one flat
   off-heap Bigarray of ints, row-major — row [i] occupies cells
   [i*arity .. i*arity + arity - 1] — so scans touch memory sequentially
   and a tuple is named by its row number, not by a boxed array. Dedup
   is an open-addressing (linear-probing) index whose slots hold
   [row + 1] (0 = empty); keys are re-read from the arena itself, so
   inserting hashes a candidate exactly once and stores nothing but the
   row number.

   The index is lazy. Kernels [extend] the arena and fill rows without
   hashing them (projection dedups before it writes, in its own index);
   the index is allocated on the first [add] or [mem] and caught up
   incrementally from row [indexed] on every later one.

   Storage is allocated uninitialised ([Bigarray.Array1.create]): the
   kernels overwrite every cell they claim, so zero-filling it first is
   wasted work, and the major GC never scans it. Growing and copying move
   the live prefix with one memcpy ([blit_cells]), never through a
   [Bigarray.Array1.sub] view: a view gives the storage a proxy, and
   proxied storage cannot be freed by hand. Cells past the live rows
   hold whatever the allocator left there (docs/INTERNALS.md, "Storage
   layer"). Every access site names the type [data], so the compiler
   emits a plain load or store rather than a generic Bigarray call.

   Every arena's data is a malloc chunk, so the layer that owns it sets
   the process's allocator policy, once, as this module initialises,
   and [release] frees a chunk as soon as its owner is done with it
   ([arena_stubs.c]; docs/INTERNALS.md, "Memory policy"). *)

type malloc_policy = Pinned | Unsupported | Refused

external set_malloc_policy : unit -> int = "ppr_arena_malloc_policy" [@@noalloc]

let malloc_policy =
  match set_malloc_policy () with 1 -> Pinned | 0 -> Unsupported | _ -> Refused

type data = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] get_d (d : data) i = Bigarray.Array1.unsafe_get d i
let[@inline] set_d (d : data) i v = Bigarray.Array1.unsafe_set d i v

(* Uninitialised storage of [cells] cells. *)
let alloc cells : data = Bigarray.Array1.create Bigarray.Int Bigarray.C_layout cells

(* Every arena without storage shares one: it has no cell to write, and
   is replaced wholesale when the arena grows. *)
let empty = alloc 0

type t = {
  arity : int;
  mutable data : data; (* row-major tuple storage, capacity*arity cells *)
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
    h := (!h lxor get_d t.data (base + j)) * fnv_prime
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
    data = (if cap * arity = 0 then empty else alloc (cap * arity));
    count = 0;
    slots = [||];
    mask = -1;
    indexed = 0;
  }

(* Rows the data array holds without growing; a zero-arity arena stores
   at most the empty tuple. *)
let capacity t =
  if t.arity = 0 then 1 else Bigarray.Array1.dim t.data / t.arity

let row_equals_tuple t row (tup : int array) =
  let base = row * t.arity in
  let rec go j =
    j >= t.arity
    || get_d t.data (base + j) = Array.unsafe_get tup j && go (j + 1)
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

(* [blit_cells src dst n] copies the first [n] cells of [src] to the
   front of [dst]; both hold at least [n]. *)
external blit_cells : data -> data -> int -> unit = "ppr_arena_blit" [@@noalloc]

(* Frees a storage's cells now and leaves it zero-length (arena_stubs.c). *)
external free_data : data -> unit = "ppr_arena_free" [@@noalloc]

(* The live prefix of [t]'s storage copied to the front of [data]. A
   kernel's output is empty when [extend] first sizes it, so that
   resize copies nothing. *)
let blit_live t data =
  let live = t.count * t.arity in
  if live > 0 then blit_cells t.data data live;
  data

(* Replace [data] by [cells] uninitialised cells holding the stored
   rows. *)
let resize t cells = t.data <- blit_live t (alloc cells)

(* Make room in [data] for [rows] rows, at least doubling it and at
   least 8 rows. *)
let grow_data t rows =
  let cells = Bigarray.Array1.dim t.data in
  if t.arity > 0 && rows * t.arity > cells then
    resize t (max (max rows 8 * t.arity) (2 * cells))

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
      set_d data (base + j) (Array.unsafe_get tup j)
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
  if t.arity > 0 && rows * t.arity > Bigarray.Array1.dim t.data then
    resize t (rows * t.arity);
  let base = t.count * t.arity in
  t.count <- t.count + n;
  base

let get t row j = Bigarray.Array1.get t.data ((row * t.arity) + j)

let read t row =
  let d = t.data and base = row * t.arity in
  let tup = Array.make t.arity 0 in
  for j = 0 to t.arity - 1 do
    Array.unsafe_set tup j (get_d d (base + j))
  done;
  tup

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

(* The copy's storage holds exactly the live rows: a scan copies a
   stored relation per atom, and its next [add], if any, doubles it. *)
let copy t =
  let live = t.count * t.arity in
  {
    t with
    data = (if live = 0 then empty else blit_live t (alloc live));
    slots = Array.copy t.slots;
  }

(* The shared [empty] storage is never freed: every arena without
   storage of its own holds it. *)
let release t =
  let live = t.count * t.arity in
  if t.data != empty then free_data t.data;
  t.data <- empty;
  t.count <- 0;
  t.slots <- [||];
  t.mask <- -1;
  t.indexed <- 0;
  live
