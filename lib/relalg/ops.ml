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

(* Copy row [row] of [src] to the end of [rel] without a dedup probe: for
   operators whose output is a subset of one duplicate-free input. *)
let append_row limits rel src row =
  let aout = Relation.arena rel in
  let w = Arena.arity src in
  let base = Arena.stage aout in
  Array.blit (Arena.data src) (row * w) (Arena.data aout) base w;
  Arena.append_staged aout;
  charge_new limits rel

(* Telemetry is threaded as an option so the disabled path is one match
   on [None]: no span, no attribute list, no clock read. An operator
   that aborts mid-loop leaves its span open; the enclosing span's stop
   closes it (marked [unwound]), so traces stay well-formed. *)
let span telemetry name =
  match telemetry with
  | None -> None
  | Some t -> Some (t, Telemetry.start t name)

let fanout_bounds = [| 0.05; 0.25; 0.5; 1.0; 2.0; 4.0; 8.0; 32.0; 128.0 |]

let finish_join sp r s out =
  match sp with
  | None -> ()
  | Some (t, sp) ->
    let left = Relation.cardinality r and right = Relation.cardinality s in
    let produced = Relation.cardinality out in
    Telemetry.Span.add_attrs sp
      [
        ("rows.left", Telemetry.Attr.Int left);
        ("rows.right", Telemetry.Attr.Int right);
        ("rows.out", Telemetry.Attr.Int produced);
        ("arity.out", Telemetry.Attr.Int (Relation.arity out));
        ("hash.probes", Telemetry.Attr.Int (max left right));
      ];
    Telemetry.Metrics.observe
      (Telemetry.Metrics.histogram ~bounds:fanout_bounds (Telemetry.metrics t)
         "ops.join_fanout")
      (float_of_int produced /. float_of_int (max 1 (max left right)));
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
(* Columnar hash-join kernel.

   The join never materializes a tuple: the build index hashes the key
   columns straight out of the build arena (slots hold [row + 1]; rows
   with equal keys are chained through [next]), probes hash the probe
   arena's key columns in place, and matches are written cell-by-cell
   into staged rows of the output arena and appended without a dedup
   probe: a join of two sets cannot produce the same row twice. The
   single-attribute key case — the common one for the paper's coloring
   queries — gets its own loops with the FNV step inlined on one
   value. *)

let fnv_seed = 0x1000193
let fnv_prime = 0x100000001b3
let hash1 v = ((fnv_seed lxor v) * fnv_prime) land max_int

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* FNV-1a over the key columns [cols] of the row at [base] in [d]. *)
let hash_key d base cols =
  let h = ref fnv_seed in
  for k = 0 to Array.length cols - 1 do
    h :=
      (!h lxor Array.unsafe_get d (base + Array.unsafe_get cols k)) * fnv_prime
  done;
  !h land max_int

(* The rows at [b1] in [d1] and [b2] in [d2] agree on the key columns
   [k1] and [k2] respectively. *)
let rec keys_equal_from k d1 b1 k1 d2 b2 k2 =
  k >= Array.length k1
  || Array.unsafe_get d1 (b1 + Array.unsafe_get k1 k)
     = Array.unsafe_get d2 (b2 + Array.unsafe_get k2 k)
     && keys_equal_from (k + 1) d1 b1 k1 d2 b2 k2

let keys_equal d1 b1 k1 d2 b2 k2 = keys_equal_from 0 d1 b1 k1 d2 b2 k2

(* Open-addressing index over the key columns [key] of rows [0 .. n - 1]
   of the row-major array [d] (row width [w]): a slot holds [row + 1] of
   the latest row of one distinct key, and [next] chains each row to the
   previous row with the same key ([-1] ends a chain). Returns
   [(slots, mask, next)]. *)
let build_key_index d w key n =
  let slot_len = pow2_at_least (max 16 (2 * n)) 16 in
  let mask = slot_len - 1 in
  let slots = Array.make slot_len 0 in
  let next = Array.make (max 1 n) (-1) in
  if Array.length key = 1 then begin
    let k0 = key.(0) in
    for row = 0 to n - 1 do
      let v = Array.unsafe_get d ((row * w) + k0) in
      let i = ref (hash1 v land mask) in
      let placing = ref true in
      while !placing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then begin
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else if Array.unsafe_get d (((s - 1) * w) + k0) = v then begin
          Array.unsafe_set next row (s - 1);
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
          Array.unsafe_set slots !i (row + 1);
          placing := false
        end
        else i := (!i + 1) land mask
      done
    done;
  (slots, mask, next)

let columnar_join limits out aout ~ar ~as_ ~key_r ~key_s ~rest_s =
  let build_on_r = Arena.count ar <= Arena.count as_ in
  let ab, key_b = if build_on_r then (ar, key_r) else (as_, key_s) in
  let ap, key_p = if build_on_r then (as_, key_s) else (ar, key_r) in
  let nb = Arena.count ab and np = Arena.count ap in
  let db = Arena.data ab and dp = Arena.data ap in
  let wb = Arena.arity ab and wp = Arena.arity ap in
  let dr = Arena.data ar and wr = Arena.arity ar in
  let ds = Arena.data as_ and ws = Arena.arity as_ in
  let nrest = Array.length rest_s in
  let slots, mask, next = build_key_index db wb key_b nb in
  let emit r_row s_row =
    let base = Arena.stage aout in
    let od = Arena.data aout in
    Array.blit dr (r_row * wr) od base wr;
    for k = 0 to nrest - 1 do
      Array.unsafe_set od (base + wr + k)
        (Array.unsafe_get ds ((s_row * ws) + Array.unsafe_get rest_s k))
    done;
    Arena.append_staged aout;
    charge_new limits out
  in
  let rec emit_chain brow prow =
    if brow >= 0 then begin
      if build_on_r then emit brow prow else emit prow brow;
      emit_chain (Array.unsafe_get next brow) prow
    end
  in
  if Array.length key_b = 1 then begin
    let kb0 = key_b.(0) and kp0 = key_p.(0) in
    for prow = 0 to np - 1 do
      let v = Array.unsafe_get dp ((prow * wp) + kp0) in
      let i = ref (hash1 v land mask) in
      let probing = ref true in
      while !probing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then probing := false
        else if Array.unsafe_get db (((s - 1) * wb) + kb0) = v then begin
          emit_chain (s - 1) prow;
          probing := false
        end
        else i := (!i + 1) land mask
      done
    done
  end
  else
    for prow = 0 to np - 1 do
      let pbase = prow * wp in
      let i = ref (hash_key dp pbase key_p land mask) in
      let probing = ref true in
      while !probing do
        let s = Array.unsafe_get slots !i in
        if s = 0 then probing := false
        else if keys_equal db ((s - 1) * wb) key_b dp pbase key_p then begin
          emit_chain (s - 1) prow;
          probing := false
        end
        else i := (!i + 1) land mask
      done
    done

(* ------------------------------------------------------------------ *)
(* Hash-partitioned parallel join.

   Radix-partition both sides by join-key hash into one shard per pool
   domain, join each shard independently into a private staging arena,
   then append the shards to the output arena in shard order.
   Equal keys hash equally, so matching rows always land in the same
   shard and the union of the shard joins is exactly the sequential
   join's tuple set; within a shard the kernel is the same
   build-on-smaller chained-bucket hash join as [columnar_join].

   Sharding uses a Fibonacci remix of the key hash's high bits while the
   in-shard table indexes with the low bits ([land mask]), so the two
   hash uses stay independent and shard tables don't degenerate.

   Budget cooperation: workers never touch the caller's [Limits.t];
   they charge a [Limits.Shared] guard (atomic counter + write-once
   failure cell) every [check_interval] tuples and bail out as soon as
   any domain trips it. The submitting domain settles the guard after
   the fan-in, re-raising the first failure as the usual typed abort. *)

module Pool = Parallel.Pool

let shard_of h p = ((h * 0x9e3779b97f4a7c1) land max_int) lsr 30 mod p

exception Shard_cut

let parallel_columnar_join pool limits aout ~ar ~as_ ~key_r ~key_s ~rest_s =
  let nr = Arena.count ar and ns = Arena.count as_ in
  let dr = Arena.data ar and wr = Arena.arity ar in
  let ds = Arena.data as_ and ws = Arena.arity as_ in
  let klen = Array.length key_r in
  let nrest = Array.length rest_s in
  let p = Pool.size pool in
  let guard = Option.map Limits.Shared.make limits in
  let interval =
    match guard with
    | Some g -> Limits.Shared.check_interval g
    | None -> max_int
  in
  (* Pass 1: key hash of every row of both sides, in parallel by range.
     The hashes drive the shard split and are reused by the in-shard
     tables, so each key is hashed exactly once, as in the sequential
     kernel. *)
  let hash_r = Array.make (max 1 nr) 0 in
  let hash_s = Array.make (max 1 ns) 0 in
  let hash_range d w key target lo hi =
    if klen = 1 then begin
      let k0 = key.(0) in
      for row = lo to hi - 1 do
        Array.unsafe_set target row
          (hash1 (Array.unsafe_get d ((row * w) + k0)))
      done
    end
    else
      for row = lo to hi - 1 do
        Array.unsafe_set target row (hash_key d (row * w) key)
      done
  in
  let ranges n =
    List.filter
      (fun (lo, hi) -> hi > lo)
      (List.init p (fun i -> (i * n / p, (i + 1) * n / p)))
  in
  ignore
    (Pool.run pool
       (List.map
          (fun (lo, hi) () -> hash_range dr wr key_r hash_r lo hi)
          (ranges nr)
       @ List.map
           (fun (lo, hi) () -> hash_range ds ws key_s hash_s lo hi)
           (ranges ns)));
  (* Pass 2: one task per shard — gather the shard's row ids on both
     sides, hash-join them, stage matches into a private arena. *)
  let gather hashes n shard =
    let count = ref 0 in
    for row = 0 to n - 1 do
      if shard_of (Array.unsafe_get hashes row) p = shard then incr count
    done;
    let rows = Array.make (max 1 !count) 0 in
    let fill = ref 0 in
    for row = 0 to n - 1 do
      if shard_of (Array.unsafe_get hashes row) p = shard then begin
        Array.unsafe_set rows !fill row;
        incr fill
      end
    done;
    (rows, !count)
  in
  let join_shard shard =
    let rrows, crp = gather hash_r nr shard in
    let srows, csp = gather hash_s ns shard in
    let ao = Arena.create ~size_hint:(max 16 (max crp csp)) (Arena.arity aout) in
    if crp > 0 && csp > 0 then begin
      let build_on_r = crp <= csp in
      let brows, nb, bhash, db, wb, key_b =
        if build_on_r then (rrows, crp, hash_r, dr, wr, key_r)
        else (srows, csp, hash_s, ds, ws, key_s)
      in
      let prows, np, phash, dp, wp, key_p =
        if build_on_r then (srows, csp, hash_s, ds, ws, key_s)
        else (rrows, crp, hash_r, dr, wr, key_r)
      in
      let slot_len = pow2_at_least (max 16 (2 * nb)) 16 in
      let mask = slot_len - 1 in
      let slots = Array.make slot_len 0 in
      let next = Array.make nb (-1) in
      for i = 0 to nb - 1 do
        let row = Array.unsafe_get brows i in
        let base = row * wb in
        let j = ref (Array.unsafe_get bhash row land mask) in
        let placing = ref true in
        while !placing do
          let s = Array.unsafe_get slots !j in
          if s = 0 then begin
            Array.unsafe_set slots !j (i + 1);
            placing := false
          end
          else if
            keys_equal db
              (Array.unsafe_get brows (s - 1) * wb)
              key_b db base key_b
          then begin
            Array.unsafe_set next i (s - 1);
            Array.unsafe_set slots !j (i + 1);
            placing := false
          end
          else j := (!j + 1) land mask
        done
      done;
      (* Rows appended since the last guard charge; also used as the
         cadence for noticing that another domain already failed. *)
      let unflushed = ref 0 in
      let flush () =
        match guard with
        | Some g ->
          if not (Limits.Shared.charge g !unflushed) then raise Shard_cut;
          unflushed := 0
        | None -> unflushed := 0
      in
      let emit r_row s_row =
        let base = Arena.stage ao in
        let od = Arena.data ao in
        Array.blit dr (r_row * wr) od base wr;
        for k = 0 to nrest - 1 do
          Array.unsafe_set od (base + wr + k)
            (Array.unsafe_get ds ((s_row * ws) + Array.unsafe_get rest_s k))
        done;
        Arena.append_staged ao;
        incr unflushed;
        if !unflushed >= interval then flush ()
      in
      let rec emit_chain i prow =
        if i >= 0 then begin
          let brow = Array.unsafe_get brows i in
          if build_on_r then emit brow prow else emit prow brow;
          emit_chain (Array.unsafe_get next i) prow
        end
      in
      (try
         for i = 0 to np - 1 do
           let prow = Array.unsafe_get prows i in
           let pbase = prow * wp in
           let j = ref (Array.unsafe_get phash prow land mask) in
           let probing = ref true in
           while !probing do
             let s = Array.unsafe_get slots !j in
             if s = 0 then probing := false
             else if
               keys_equal db
                 (Array.unsafe_get brows (s - 1) * wb)
                 key_b dp pbase key_p
             then begin
               emit_chain (s - 1) prow;
               probing := false
             end
             else j := (!j + 1) land mask
           done;
           if
             i land 1023 = 1023
             && (match guard with
                | Some g -> Limits.Shared.should_stop g
                | None -> false)
           then raise Shard_cut
         done;
         flush ()
       with Shard_cut -> ())
    end;
    ao
  in
  let shard_arenas = Pool.run pool (List.init p (fun i () -> join_shard i)) in
  (* Fan-in on the submitting domain: first surface any typed abort, then
     append the shards to the output in shard order, one blit each —
     deterministic, and duplicate-free by construction since a tuple's
     shard is a function of its key. *)
  (match guard with Some g -> Limits.Shared.settle g | None -> ());
  List.iter (fun a -> Arena.append aout a) shard_arenas

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
  let out =
    Relation.create
      ~size_hint:(max 16 (max (Relation.cardinality r) (Relation.cardinality s)))
      out_schema
  in
  let ar = Relation.arena r and as_ = Relation.arena s in
  let aout = Relation.arena out in
  (match Ctx.pool ctx with
  | Some pool
    when Pool.size pool > 1
         && Array.length key_r > 0
         && Arena.count ar + Arena.count as_ >= Pool.grain pool ->
    parallel_columnar_join pool limits aout ~ar ~as_ ~key_r ~key_s ~rest_s;
    (match sp with
    | Some (_, sp) ->
      Telemetry.Span.set_attr sp "parallel.shards"
        (Telemetry.Attr.Int (Pool.size pool))
    | None -> ())
  | _ -> columnar_join limits out aout ~ar ~as_ ~key_r ~key_s ~rest_s);
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

let project ?(ctx = Ctx.null) r sub =
  let stats = Ctx.stats ctx and limits = Ctx.limits ctx in
  let sp = span (Ctx.telemetry ctx) "op.project" in
  tick limits;
  Option.iter Stats.record_projection stats;
  let positions = Schema.positions sub (Relation.schema r) in
  let out = Relation.create ~size_hint:(max 16 (Relation.cardinality r)) sub in
  (* Gather the kept columns of each row straight into a staged output
     row — no intermediate tuple. *)
  let ain = Relation.arena r and aout = Relation.arena out in
  let d = Arena.data ain and w = Arena.arity ain in
  let np = Array.length positions in
  for row = 0 to Arena.count ain - 1 do
    let base = row * w in
    let obase = Arena.stage aout in
    let od = Arena.data aout in
    for k = 0 to np - 1 do
      Array.unsafe_set od (obase + k)
        (Array.unsafe_get d (base + Array.unsafe_get positions k))
    done;
    if Arena.commit_staged aout then charge_new limits out
  done;
  note_result stats limits out;
  finish_unary sp r out;
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
  let out =
    Relation.create ~size_hint:(max 16 (Relation.cardinality r))
      (Relation.schema r)
  in
  let ain = Relation.arena r in
  for row = 0 to Arena.count ain - 1 do
    if pred (Arena.read ain row) then append_row limits out ain row
  done;
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
   and append the rows of [r] whose probe outcome is [keep_matches]. *)
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
  let slots, mask, _ = build_key_index ds ws key_s (Arena.count as_) in
  let out = Relation.create ~size_hint:(max 16 (Relation.cardinality r)) sr in
  for row = 0 to Arena.count ar - 1 do
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
    if !found = keep_matches then append_row limits out ar row
  done;
  note_result stats limits out;
  finish_unary sp r out;
  out

let semijoin ?ctx r s =
  filter_by_keys "op.semijoin" ~keep_matches:true ?ctx r s

let antijoin ?ctx r s =
  filter_by_keys "op.antijoin" ~keep_matches:false ?ctx r s
