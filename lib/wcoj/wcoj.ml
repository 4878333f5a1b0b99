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

exception Exhausted

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

(* The search over the read-only tries: per-trie range stacks
   ([los]/[his] level [l] holds the row window consistent with the
   first [l] bound variables of that trie) plus the current variable
   binding. Returns the enumeration: [tick] runs on every accepted
   binding, [emit] on every accepted free prefix (the binding array,
   which the caller must copy). *)
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
    if d < n_free then begin
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
  fun () -> enumerate 0

(* The setup [evaluate] and [iter] share: validate the order, tick the
   operator, then inside a [name] span count the operator, scan the
   atoms and index them. [body] receives the engine maker ([None] when an
   atom is empty, so no binding exists) and runs inside the span. *)
let with_search ~ctx ~name ?order db cq body =
  let order =
    match order with
    | Some o -> o
    | None -> Array.to_list (Joingraph.mcs_variable_order cq)
  in
  let vars = validate_order cq order in
  let n_free = List.length cq.Cq.free in
  let telemetry = Ctx.telemetry ctx in
  let span name attrs f =
    match telemetry with
    | None -> f ()
    | Some t -> Telemetry.with_span ~attrs t name (fun _ -> f ())
  in
  (match Ctx.limits ctx with Some l -> Limits.tick_operator l | None -> ());
  span name
    [
      ("vars", Telemetry.Attr.Int vars);
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
  if List.exists Relation.is_empty rels then body None
  else
    let tries, parts = build_index ~span ~order ~k:vars rels in
    body (Some (make_engine ~tries ~parts ~k:vars ~n_free))

let evaluate ?(ctx = Ctx.null) ?order ?allowance db cq =
  let n_free = List.length cq.Cq.free in
  let limits = Ctx.limits ctx in
  with_search ~ctx ~name:"op.wcoj.join" ?order db cq @@ fun search ->
  let out = Relation.create (Schema.of_list cq.Cq.free) in
  (match search with
  | None -> ()
  | Some make ->
    let charge () =
      match limits with Some l -> Limits.charge l 1 | None -> ()
    in
    (* An allowance spends one unit per charged binding and stops the
       search before the binding that would overdraw it. *)
    let tick =
      match allowance with
      | None -> charge
      | Some left ->
        fun () ->
          if !left <= 0 then raise Exhausted;
          charge ();
          decr left
    in
    let emit binding =
      if Relation.add out (Array.sub binding 0 n_free) then
        match limits with
        | Some l -> Limits.check_cardinality l (Relation.cardinality out)
        | None -> ()
    in
    make ~tick ~emit ());
  (match Ctx.stats ctx with
  | Some s ->
    Stats.record_join s;
    Stats.record_relation s ~arity:(Relation.arity out)
      ~cardinality:(Relation.cardinality out)
  | None -> ());
  out

(* Streaming evaluation: [evaluate]'s search, but each accepted free
   prefix is handed to [emit] instead of being materialized. The
   leapfrog scan enumerates each depth's values in strictly increasing
   order, so emissions are distinct and lexicographic along [order]'s
   free prefix — no dedup state is needed downstream. Setup runs inside
   an [op.wcoj.stream] span; the enumeration itself runs outside any
   span, because a consumer that suspends mid-stream (an
   effect-inverted cursor) must not hold a span open across pulls. *)
let iter ?(ctx = Ctx.null) ?order db cq emit =
  match with_search ~ctx ~name:"op.wcoj.stream" ?order db cq Fun.id with
  | None -> ()
  | Some make ->
    let n_free = List.length cq.Cq.free in
    let limits = Ctx.limits ctx in
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
    make ~tick ~emit ()
