(* Cost-aware admission: structural cost estimation for queries BEFORE
   they are queued, built from the same analytic bounds the three-way
   structural gate trusts (bucket worst case, AGM fractional cover,
   largest per-bag cover).

   The estimate is the cheapest route's bound, with the output term
   folded in: a materializing session must pay for its answer no matter
   which route runs, so each route's cost is max'ed with the AGM bound
   of the whole query (which bounds the full join, hence any projection
   of it) whenever the query has free variables. Boolean queries pay no
   output term. Taking the min over routes makes the estimate a LOWER
   bound on what the daemon will spend — shedding on "lower bound
   exceeds the ceiling" never sheds a query that could have been cheap.

   With free variables every route costs at least the AGM bound and the
   generic join costs exactly that, so the estimate IS the AGM bound:
   the rest of the gate's analysis and the decomposition search are
   skipped. Only a Boolean query, whose estimate the binary or bag bound
   can decide, pays for them.

   Estimates are memoized by the query's canonical structure (the
   method-independent part of the plan-cache key), so a flood of
   isomorphic instantiations prices the structure once. The memo is a
   bounded FIFO — admission-path state must not grow with query
   diversity. *)

type t = {
  lock : Mutex.t;
  capacity : int;
  tbl : (string, float) Hashtbl.t;
  fifo : string Queue.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
  {
    lock = Mutex.create ();
    capacity;
    tbl = Hashtbl.create 64;
    fifo = Queue.create ();
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses

(* The estimate and the AGM cover it computed on the way. *)
let price db (cq : Conjunctive.Cq.t) =
  if cq.Conjunctive.Cq.free <> [] then
    let agm = Wcoj.Agm.fractional_edge_cover db cq in
    (agm.Wcoj.Agm.bound_log2, agm)
  else
    let a = Ghd.analyze db cq in
    let bag =
      Ghd.bag_bound_log2 db cq
        (Ghd.search (Hypergraphs.Hypergraph.of_query cq))
    in
    ( Float.min a.Ghd.binary_bound_log2
        (Float.min a.Ghd.agm.Wcoj.Agm.bound_log2 bag),
      a.Ghd.agm )

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let estimate_cover t db ~key (cq : Conjunctive.Cq.t) =
  match locked t (fun () -> Hashtbl.find_opt t.tbl key) with
  | Some c ->
    Atomic.incr t.hits;
    (c, None)
  | None ->
    Atomic.incr t.misses;
    (* Bounds run outside the lock: two racing estimates of a novel
       structure both compute, and either result is valid for the key. *)
    let c, agm = price db cq in
    locked t (fun () ->
        if not (Hashtbl.mem t.tbl key) then begin
          if Queue.length t.fifo >= t.capacity then
            Hashtbl.remove t.tbl (Queue.pop t.fifo);
          Queue.push key t.fifo;
          Hashtbl.add t.tbl key c
        end);
    (c, Some agm)

let estimate t db ~key cq = fst (estimate_cover t db ~key cq)

(* ------------------------------------------------------------------ *)
(* Backlog aggregation. The queue's total estimated cost is a sum of
   per-query tuple-count bounds, kept in LINEAR space so removal on
   dequeue is exact (log-space subtraction is numerically treacherous).
   Each query contributes [2 ** min(estimate, cap)] "units"; the cap
   keeps a single astronomically-bounded query from saturating the
   float sum (and such a query trips the per-query ceiling anyway). *)

let units_cap_log2 = 120.0

let units_of_log2 c = Float.pow 2.0 (Float.min (Float.max c 0.0) units_cap_log2)

let log2_of_units u = if u <= 0.0 then 0.0 else Float.log2 u
