module Agm = Agm
module Trie = Trie
module Cq = Conjunctive.Cq
module Database = Conjunctive.Database
module Joingraph = Conjunctive.Joingraph
module Relation = Relalg.Relation
module Schema = Relalg.Schema
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Stats = Relalg.Stats
module Pool = Parallel.Pool

(* Raised inside a worker when the shared guard says stop; the typed
   abort surfaces on the owning domain via [Limits.Shared.settle]. *)
exception Cut

exception Exhausted

type runner = {
  run_enumerate : int -> unit;
  run_extension : int -> bool;
  bind_top : int -> bool;
  top_values : unit -> int list;
  binding : int array;
}

let validate_order cq order =
  if List.sort compare order <> Cq.vars cq then
    invalid_arg "Wcoj.evaluate: order is not a permutation of the query's variables";
  let rec prefix free ord =
    match (free, ord) with
    | [], _ -> ()
    | f :: fs, o :: os when f = o -> prefix fs os
    | _ ->
      invalid_arg
        "Wcoj.evaluate: order must start with the free variables in their \
         declared order"
  in
  prefix cq.Cq.free order;
  List.length order

(* Split [xs] into at most [n] contiguous chunks of near-equal length,
   preserving order (so the parallel fan-in is deterministic). *)
let chunk_list n xs =
  let len = List.length xs in
  let n = max 1 (min n len) in
  let base = len / n and extra = len mod n in
  let rec take k xs acc =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) rest (x :: acc)
  in
  let rec go i xs acc =
    if i = n then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      let chunk, rest = take size xs [] in
      go (i + 1) rest (chunk :: acc)
  in
  List.filter (fun c -> c <> []) (go 0 xs [])

(* Index the materialized atoms as sorted tries along [order]:
   [parts.(d)] lists the (trie, level) pairs whose variable binds at
   depth [d]. *)
let build_index ~span ~order ~k rels =
  let depth_of = Hashtbl.create (max 1 k) in
  List.iteri (fun i v -> Hashtbl.replace depth_of v i) order;
  let tries =
    span "op.wcoj.index" [] (fun () ->
        Array.of_list
          (List.map (Trie.build ~depth_of_var:(Hashtbl.find depth_of)) rels))
  in
  let parts = Array.make (max 1 k) [] in
  Array.iteri
    (fun i tr ->
      for l = 0 to Trie.width tr - 1 do
        let d = Trie.depth_at tr l in
        parts.(d) <- (i, l) :: parts.(d)
      done)
    tries;
  let parts = Array.map (fun l -> Array.of_list (List.rev l)) parts in
  if k > 0 then
    Array.iteri
      (fun d p ->
        if Array.length p = 0 then
          invalid_arg
            (Printf.sprintf "Wcoj.evaluate: variable %d occurs in no atom"
               (List.nth order d)))
      parts;
  (tries, parts)

(* One engine = one domain's private search state over the shared
   read-only tries: per-trie range stacks ([los]/[his] level [l] holds
   the row window consistent with the first [l] bound variables of
   that trie) plus the current variable binding. *)
let make_engine ~tries ~parts ~k ~n_free ~tick ~emit =
  let los = Array.map (fun tr -> Array.make (Trie.width tr + 1) 0) tries in
  let his =
    Array.map
      (fun tr ->
        let a = Array.make (Trie.width tr + 1) 0 in
        a.(0) <- Trie.rows tr;
        a)
      tries
  in
  let binding = Array.make (max 1 k) 0 in
  (* Per-depth leapfrog cursors, allocated once: a scan at depth [d]
     never re-enters depth [d] before it returns. *)
  let curs = Array.map (fun p -> Array.make (Array.length p) 0) parts in
  let his_d = Array.map (fun p -> Array.make (Array.length p) 0) parts in
  (* [top_values] collects depth 0's values here instead of descending. *)
  let collecting = ref false and top = ref [] in
  (* Leapfrog the participants of depth [d] over their current
     windows. [visit d] runs with [binding.(d)] set and the matching
     sub-windows pushed; returning [true] stops the scan early (the
     existence search found its witness). *)
  let rec scan d =
    let ps = parts.(d) in
    let m = Array.length ps in
    let cur = curs.(d) and hi = his_d.(d) in
    let exhausted = ref false in
    for j = 0 to m - 1 do
      let i, l = ps.(j) in
      cur.(j) <- los.(i).(l);
      hi.(j) <- his.(i).(l);
      if cur.(j) >= hi.(j) then exhausted := true
    done;
    let stopped = ref false in
    while not (!stopped || !exhausted) do
      let x = ref min_int in
      for j = 0 to m - 1 do
        let i, l = ps.(j) in
        let v = Trie.value tries.(i) ~level:l ~row:cur.(j) in
        if v > !x then x := v
      done;
      let aligned = ref true in
      for j = 0 to m - 1 do
        if not !exhausted then begin
          let i, l = ps.(j) in
          let p = Trie.seek tries.(i) ~level:l ~lo:cur.(j) ~hi:hi.(j) !x in
          cur.(j) <- p;
          if p >= hi.(j) then exhausted := true
          else if Trie.value tries.(i) ~level:l ~row:p > !x then
            aligned := false
        end
      done;
      if (not !exhausted) && !aligned then begin
        tick ();
        binding.(d) <- !x;
        for j = 0 to m - 1 do
          let i, l = ps.(j) in
          los.(i).(l + 1) <- cur.(j);
          his.(i).(l + 1) <-
            Trie.strictly_above tries.(i) ~level:l ~lo:cur.(j) ~hi:hi.(j) !x
        done;
        if visit d then stopped := true
        else begin
          (* Advance the first participant past x; the next round
             re-aligns the others. *)
          let i0, l0 = ps.(0) in
          cur.(0) <- his.(i0).(l0 + 1);
          if cur.(0) >= hi.(0) then exhausted := true
        end
      end
    done;
    !stopped
  (* Depths < n_free enumerate every value; depths >= n_free only need
     one witness, so the scan stops at the first success. *)
  and visit d =
    if !collecting then begin
      top := binding.(0) :: !top;
      false
    end
    else if d < n_free then begin
      enumerate (d + 1);
      false
    end
    else extension (d + 1)
  and extension d = d = k || scan d
  (* At the free/bound frontier each free prefix is emitted iff some
     extension exists. *)
  and enumerate d =
    if d = n_free then begin
      if extension d then emit binding
    end
    else ignore (scan d)
  in
  (* External depth-0 binding, for the pool partitions: the value is
     already known to be in the top-level intersection. *)
  let bind_top v =
    let ok = ref true in
    Array.iter
      (fun (i, _l) ->
        let rows = Trie.rows tries.(i) in
        let s = Trie.seek tries.(i) ~level:0 ~lo:0 ~hi:rows v in
        if s >= rows || Trie.value tries.(i) ~level:0 ~row:s <> v then
          ok := false
        else begin
          los.(i).(1) <- s;
          his.(i).(1) <- Trie.strictly_above tries.(i) ~level:0 ~lo:s ~hi:rows v
        end)
      parts.(0);
    if !ok then binding.(0) <- v;
    !ok
  in
  let top_values () =
    collecting := true;
    top := [];
    ignore (scan 0);
    collecting := false;
    List.rev !top
  in
  { run_enumerate = enumerate; run_extension = extension; bind_top;
    top_values; binding }

let evaluate ?(ctx = Ctx.null) ?order ?allowance db cq =
  let order =
    match order with
    | Some o -> o
    | None -> Array.to_list (Joingraph.mcs_variable_order cq)
  in
  let k = validate_order cq order in
  let n_free = List.length cq.Cq.free in
  let telemetry = Ctx.telemetry ctx in
  let limits = Ctx.limits ctx in
  let stats = Ctx.stats ctx in
  let span name attrs f =
    match telemetry with
    | None -> f ()
    | Some t -> Telemetry.with_span ~attrs t name (fun _ -> f ())
  in
  (match limits with Some l -> Limits.tick_operator l | None -> ());
  span "op.wcoj.join"
    [
      ("vars", Telemetry.Attr.Int k);
      ("atoms", Telemetry.Attr.Int (List.length cq.Cq.atoms));
      ("free", Telemetry.Attr.Int n_free);
    ]
  @@ fun () ->
  (match telemetry with
  | Some t ->
    Telemetry.Metrics.incr
      (Telemetry.Metrics.counter (Telemetry.metrics t) "ops.wcoj")
  | None -> ());
  let rels = List.map (fun a -> Database.eval_atom ~ctx db a) cq.Cq.atoms in
  let out = Relation.create (Schema.of_list cq.Cq.free) in
  if not (List.exists Relation.is_empty rels) then begin
    let tries, parts = build_index ~span ~order ~k rels in
    let make_engine = make_engine ~tries ~parts ~k ~n_free in
    let charge () =
      match limits with Some l -> Limits.charge l 1 | None -> ()
    in
    (* An allowance spends one unit per charged binding and stops the
       search before the binding that would overdraw it. *)
    let seq_tick =
      match allowance with
      | None -> charge
      | Some left ->
        fun () ->
          if !left <= 0 then raise Exhausted;
          charge ();
          decr left
    in
    let seq_emit binding =
      if Relation.add out (Array.sub binding 0 n_free) then
        match limits with
        | Some l -> Limits.check_cardinality l (Relation.cardinality out)
        | None -> ()
    in
    let pool =
      match Ctx.pool ctx with
      | Some p
        when Pool.size p > 1 && telemetry = None && k > 0
             && Option.is_none allowance ->
        Some p
      | _ -> None
    in
    match pool with
    | None ->
      let eng = make_engine ~tick:seq_tick ~emit:seq_emit in
      eng.run_enumerate 0
    | Some p ->
      (* Partition the top variable's candidate values across the pool.
         The owner leapfrogs the top level once (charging its own limits,
         which raise typed aborts directly); workers search their chunks
         into private relations under the shared guard; the fan-in walks
         the shards in chunk order, so the merged output is deterministic
         and tuple-identical to the sequential run. *)
      let owner = make_engine ~tick:seq_tick ~emit:seq_emit in
      let vals = owner.top_values () in
      if List.length vals <= 1 then owner.run_enumerate 0
      else begin
        let guard = Option.map Limits.Shared.make limits in
        let interval =
          match guard with
          | Some g -> Limits.Shared.check_interval g
          | None -> max_int
        in
        let tasks =
          List.map
            (fun chunk () ->
              let local = Relation.create (Schema.of_list cq.Cq.free) in
              let unflushed = ref 0 in
              let flush () =
                match guard with
                | Some g when !unflushed > 0 ->
                  let n = !unflushed in
                  unflushed := 0;
                  if not (Limits.Shared.charge g n) then raise Cut
                | _ -> unflushed := 0
              in
              let tick () =
                incr unflushed;
                if !unflushed >= interval then flush ()
              in
              let emit binding =
                ignore (Relation.add local (Array.sub binding 0 n_free))
              in
              let eng = make_engine ~tick ~emit in
              (try
                 if n_free = 0 then begin
                   if
                     List.exists
                       (fun v -> eng.bind_top v && eng.run_extension 1)
                       chunk
                   then ignore (Relation.add local [||])
                 end
                 else
                   List.iter
                     (fun v -> if eng.bind_top v then eng.run_enumerate 1)
                     chunk
               with Cut -> ());
              (* Flush the residue so the owner's total stays exact. *)
              (match guard with
              | Some g when !unflushed > 0 ->
                ignore (Limits.Shared.charge g !unflushed)
              | _ -> ());
              local)
            (chunk_list (4 * Pool.size p) vals)
        in
        let shards = Pool.run p tasks in
        (match guard with Some g -> Limits.Shared.settle g | None -> ());
        List.iter
          (fun shard ->
            Relation.iter (fun tup -> ignore (Relation.add out tup)) shard)
          shards;
        (match limits with
        | Some l -> Limits.check_cardinality l (Relation.cardinality out)
        | None -> ())
      end
  end;
  (match stats with
  | Some s ->
    Stats.record_join s;
    Stats.record_relation s ~arity:(Relation.arity out)
      ~cardinality:(Relation.cardinality out)
  | None -> ());
  out

(* Streaming evaluation: the same search as [evaluate]'s sequential
   engine, but each accepted free prefix is handed to [emit] instead of
   being materialized. The leapfrog scan enumerates each depth's values
   in strictly increasing order, so emissions are distinct and
   lexicographic along [order]'s free prefix — no dedup state is needed
   downstream. Strictly sequential (any pool in the context is ignored:
   partitioned search would reorder and privatize emissions). Setup —
   atom scans and the trie index — runs inside an [op.wcoj.stream]
   span; the enumeration itself runs outside any span, because a
   consumer that suspends mid-stream (an effect-inverted cursor) must
   not hold a span open across pulls. *)
let iter ?(ctx = Ctx.null) ?order db cq emit =
  let ctx = Ctx.without_pool ctx in
  let order =
    match order with
    | Some o -> o
    | None -> Array.to_list (Joingraph.mcs_variable_order cq)
  in
  let k = validate_order cq order in
  let n_free = List.length cq.Cq.free in
  let telemetry = Ctx.telemetry ctx in
  let limits = Ctx.limits ctx in
  let span name attrs f =
    match telemetry with
    | None -> f ()
    | Some t -> Telemetry.with_span ~attrs t name (fun _ -> f ())
  in
  (match limits with Some l -> Limits.tick_operator l | None -> ());
  let engine =
    span "op.wcoj.stream"
      [
        ("vars", Telemetry.Attr.Int k);
        ("atoms", Telemetry.Attr.Int (List.length cq.Cq.atoms));
        ("free", Telemetry.Attr.Int n_free);
      ]
      (fun () ->
        (match telemetry with
        | Some t ->
          Telemetry.Metrics.incr
            (Telemetry.Metrics.counter (Telemetry.metrics t) "ops.wcoj")
        | None -> ());
        let rels =
          List.map (fun a -> Database.eval_atom ~ctx db a) cq.Cq.atoms
        in
        if List.exists Relation.is_empty rels then None
        else
          let tries, parts = build_index ~span ~order ~k rels in
          Some (make_engine ~tries ~parts ~k ~n_free))
  in
  match engine with
  | None -> ()
  | Some mk ->
    let tick () =
      match limits with Some l -> Limits.charge l 1 | None -> ()
    in
    let emitted = ref 0 in
    let emit binding =
      incr emitted;
      (match limits with
      | Some l -> Limits.check_cardinality l !emitted
      | None -> ());
      emit (Array.sub binding 0 n_free)
    in
    let eng = mk ~tick ~emit in
    eng.run_enumerate 0
