(* Columnar tuple arena: every tuple of a relation lives in one flat
   [int array], row-major — row [i] occupies cells
   [data.(i*arity) .. data.(i*arity + arity - 1)] — so scans touch memory
   sequentially and a tuple is named by its row number, not by a boxed
   array. Dedup is an open-addressing (linear-probing) index whose slots
   hold [row + 1] (0 = empty); keys are re-read from the arena itself, so
   inserting hashes a candidate exactly once and stores nothing but the
   row number. *)

type t = {
  arity : int;
  mutable data : int array; (* row-major tuple storage, capacity*arity cells *)
  mutable count : int; (* rows in use *)
  mutable slots : int array; (* row + 1, 0 = empty; power-of-two length *)
  mutable mask : int; (* Array.length slots - 1 *)
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

let create ?(size_hint = 16) arity =
  if arity < 0 then invalid_arg "Arena.create: negative arity";
  let cap = max 8 size_hint in
  let slot_len = pow2_at_least (2 * cap) 16 in
  {
    arity;
    data = Array.make (cap * arity) 0;
    count = 0;
    slots = Array.make slot_len 0;
    mask = slot_len - 1;
  }

let row_equals_tuple t row (tup : int array) =
  let base = row * t.arity in
  let rec go j =
    j >= t.arity
    || Array.unsafe_get t.data (base + j) = Array.unsafe_get tup j && go (j + 1)
  in
  go 0

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
  && t.slots.(find_slot t tup (hash_tuple tup)) <> 0

(* Grow the index at 50% load. Rows are pairwise distinct, so rehashing
   only needs the first empty slot per row. *)
let rehash t =
  let slot_len = 2 * (t.mask + 1) in
  t.slots <- Array.make slot_len 0;
  t.mask <- slot_len - 1;
  for row = 0 to t.count - 1 do
    let rec place i =
      if Array.unsafe_get t.slots i = 0 then t.slots.(i) <- row + 1
      else place ((i + 1) land t.mask)
    in
    place (hash_row t row land t.mask)
  done

let reserve t =
  if t.arity > 0 && (t.count + 1) * t.arity > Array.length t.data then begin
    let data = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 data 0 (t.count * t.arity);
    t.data <- data
  end;
  if 2 * (t.count + 1) > t.mask + 1 then rehash t

let add t (tup : int array) =
  if Array.length tup <> t.arity then
    invalid_arg
      (Printf.sprintf "Arena.add: tuple arity %d, arena arity %d"
         (Array.length tup) t.arity);
  reserve t;
  let i = find_slot t tup (hash_tuple tup) in
  if t.slots.(i) <> 0 then false
  else begin
    let row = t.count in
    Array.blit tup 0 t.data (row * t.arity) t.arity;
    t.count <- row + 1;
    t.slots.(i) <- row + 1;
    true
  end

(* Reserve room for one row and return its base offset; the caller fills
   data.(base..base+arity-1) then calls [commit_staged]. Lets join/project
   kernels build candidate tuples in place with zero scratch copies. *)
let stage t =
  reserve t;
  t.count * t.arity

let commit_staged t =
  let row = t.count in
  let base = row * t.arity in
  let h =
    let h = ref fnv_seed in
    for j = 0 to t.arity - 1 do
      h := (!h lxor Array.unsafe_get t.data (base + j)) * fnv_prime
    done;
    !h land max_int
  in
  let rec go i =
    let s = Array.unsafe_get t.slots i in
    if s = 0 then begin
      t.slots.(i) <- row + 1;
      t.count <- row + 1;
      true
    end
    else if
      (* compare staged row against resident row s-1, both in the arena *)
      let rbase = (s - 1) * t.arity in
      let rec eq j =
        j >= t.arity
        || Array.unsafe_get t.data (rbase + j)
           = Array.unsafe_get t.data (base + j)
           && eq (j + 1)
      in
      eq 0
    then false
    else go ((i + 1) land t.mask)
  in
  go (h land t.mask)

(* Fold every row of [src] into [dst], keeping [dst]'s dedup index
   consistent: one blit plus one [commit_staged] per row, no boxed tuple.
   The parallel join kernel merges its per-shard staging arenas through
   this; shards are disjoint by construction there, so the dedup probe
   always lands on an empty slot, but the check keeps [absorb] correct
   for arbitrary inputs. *)
let absorb dst src =
  if src.arity <> dst.arity then
    invalid_arg
      (Printf.sprintf "Arena.absorb: source arity %d, destination arity %d"
         src.arity dst.arity);
  for row = 0 to src.count - 1 do
    let base = stage dst in
    Array.blit src.data (row * src.arity) dst.data base dst.arity;
    ignore (commit_staged dst)
  done

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
  }
