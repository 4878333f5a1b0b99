module Relation = Relalg.Relation
module Arena = Relalg.Arena
module Schema = Relalg.Schema
module Tuple = Relalg.Tuple
module Cursor = Relalg.Cursor
module Ops = Relalg.Ops
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits
module Cq = Conjunctive.Cq
module Database = Conjunctive.Database
module Yannakakis = Hypergraphs.Yannakakis
module Jointree = Hypergraphs.Jointree
module Hypergraph = Hypergraphs.Hypergraph

type route = Binary of Plan.t | Generic of int list | Decomposition of Ghd.prep

type compiled =
  | Plan of Plan.t
  | Deferred of deferred
  | Decomposed of Ghd.prep * Plan.t option

and deferred = {
  analysis : Ghd.analysis;
  rng : Graphlib.Rng.t option;
  resolved : route option Atomic.t;
}

let bucket_fallback (a : Ghd.analysis) cq =
  Bucket.compile ~order:(Array.of_list a.Ghd.var_order) cq

let decision = function
  | Binary _ -> Ghd.Bucket
  | Generic _ -> Ghd.Generic
  | Decomposition _ -> Ghd.Ghd

(* Without the GHD route the two-way decision needs no search, so the
   artifact is resolved now. With it, the rng is copied twice: here, so
   the caller's later draws cannot move the state the search starts
   from, and at each resolution, so two domains resolving at once draw
   from private copies of it. *)
let defer ?rng ~ghd_route cq a =
  let two_way () =
    if Ghd.decide a = Ghd.Bucket then Binary (bucket_fallback a cq)
    else Generic a.Ghd.var_order
  in
  Deferred
    (if ghd_route then
       { analysis = a; rng = Option.map Graphlib.Rng.copy rng; resolved = Atomic.make None }
     else { analysis = a; rng = None; resolved = Atomic.make (Some (two_way ())) })

(* Compute, then publish with one compare-and-set. Two domains racing
   here both compute the same value from the same analysis and rng
   state; the loser adopts the winner's. A [Lazy.t] would raise when
   forced from two domains at once. *)
let resolve ~ctx db cq d =
  match Atomic.get d.resolved with
  | Some r -> r
  | None ->
    let compute () =
      let prep =
        Ghd.decompose ?rng:(Option.map Graphlib.Rng.copy d.rng) db cq d.analysis
      in
      ( prep,
        match prep.Ghd.decision with
        | Ghd.Bucket -> Binary (bucket_fallback d.analysis cq)
        | Ghd.Generic -> Generic d.analysis.Ghd.var_order
        | Ghd.Ghd -> Decomposition prep )
    in
    let r =
      match Ctx.telemetry ctx with
      | None -> snd (compute ())
      | Some t ->
        Telemetry.with_span t "ghd.resolve" (fun sp ->
            let prep, r = compute () in
            Telemetry.Span.add_attrs sp
              [
                ("ghd.decision", Telemetry.Attr.String (Ghd.decision_name prep.Ghd.decision));
                ("ghd.ghd_bound_log2", Telemetry.Attr.Float prep.Ghd.ghd_bound_log2);
                ("ghd.htw", Telemetry.Attr.Int prep.Ghd.htw);
              ];
            r)
    in
    if Atomic.compare_and_set d.resolved None (Some r) then r
    else Option.get (Atomic.get d.resolved)

let route ?(ctx = Ctx.null) db cq = function
  | Plan plan -> Binary plan
  | Deferred d -> resolve ~ctx db cq d
  | Decomposed (prep, plan) -> (
    match (prep.Ghd.decision, plan) with
    | Ghd.Ghd, _ -> Decomposition prep
    | Ghd.Generic, _ -> Generic prep.Ghd.analysis.Ghd.var_order
    | Ghd.Bucket, Some plan -> Binary plan
    | Ghd.Bucket, None ->
      invalid_arg "Exec: a bucket decision must carry its plan")

(* The projection target of [kept] over [schema]: the input's column
   order for the retained variables — the variable set, not the order,
   is what projection means here. *)
let kept_schema schema kept =
  let kept_set = Hashtbl.create (List.length kept) in
  List.iter (fun v -> Hashtbl.replace kept_set v ()) kept;
  let target = Schema.restrict schema ~keep:(Hashtbl.mem kept_set) in
  if Schema.arity target <> Hashtbl.length kept_set then
    invalid_arg "Exec: projection keeps a variable absent from its input";
  target

(* Free [rels], the inputs a plan node consumed, and record the cells
   they held as the node span's [cells.freed]. *)
let release_inputs sp rels =
  let cells = List.fold_left (fun acc rel -> acc + Arena.release (Relation.arena rel)) 0 rels in
  Option.iter (fun sp -> Telemetry.Span.set_attr sp "cells.freed" (Telemetry.Attr.Int cells)) sp

(* Each plan node runs inside a [plan.*] span (the operator itself adds a
   nested [op.*] span), so a trace mirrors the plan tree: a join node's
   span contains both input subtrees and the join work. [observe] fires
   once per completed node, in completion (post-) order, with the node's
   measured output cardinality — the adaptive layer's harvest hook.

   A projection of a join runs as one fused kernel ([Ops.join_project]),
   which never writes the join: the [plan.join] span then holds the
   fused [op.join.project] span, and the join node is observed with the
   join's logical size, before the projection node.

   Every input a node reads is its own: a kernel writes a fresh output
   and [Database.eval_atom] copies the stored relation. So a node
   releases its inputs as soon as its kernel has returned or raised
   (or, when an input raised, the inputs already computed), and a
   run's peak holds the relations of its largest step, not every
   intermediate it made. The fused projection node has no input of its
   own: its join node releases the join's. The root's result is the
   caller's and is never released. *)
let rec run ?(ctx = Ctx.null) ?observe db plan =
  let note node n = match observe with Some f -> f node n | None -> () in
  (* Run [f] in a [name] span; [f] reads its children through [input],
     and every input it read is released however [f] exits. *)
  let node name f =
    let consume sp =
      let inputs = ref [] in
      let input p =
        let rel = run ~ctx ?observe db p in
        inputs := rel :: !inputs;
        rel
      in
      Fun.protect ~finally:(fun () -> release_inputs sp !inputs) (fun () -> f input)
    in
    match Ctx.telemetry ctx with
    | Some t -> Telemetry.with_span t name (fun sp -> consume (Some sp))
    | None -> consume None
  in
  let result =
    match plan with
    | Plan.Atom atom -> Database.eval_atom ~ctx db atom
    | Plan.Join (l, r) ->
      node "plan.join" (fun input ->
          let rl = input l in
          let rr = input r in
          Ops.natural_join ~ctx rl rr)
    | Plan.Project ((Plan.Join (l, r) as join), kept) ->
      node "plan.project" (fun _ ->
          node "plan.join" (fun input ->
              let rl = input l in
              let rr = input r in
              let joined = Schema.union (Relation.schema rl) (Relation.schema rr) in
              Ops.join_project ~ctx ~on_join:(note join) rl rr
                (kept_schema joined kept)))
    | Plan.Project (sub, kept) ->
      node "plan.project" (fun input ->
          let rsub = input sub in
          Ops.project ~ctx rsub (kept_schema (Relation.schema rsub) kept))
  in
  note plan (Relation.cardinality result);
  result

(* ------------------------------------------------------------------ *)
(* The gate's attempt.                                                 *)

type attempt = {
  allowance : int;
  bindings : int;
  answer : Relation.t option;
  skipped : bool;
}

(* The a-priori bounds cannot see the generic join's early stop (free
   variables first, one witness per existence search), so a gated
   artifact tries the generic join first, within the smaller of the two
   bounds the analysis knows: the analysis's order and that bound. There
   is nothing to try on a plan, on a forced route, or once the gate has
   picked the generic join itself. *)
let attempt_bound = function
  | Plan _ | Decomposed _ -> None
  | Deferred d -> (
    match Atomic.get d.resolved with
    | Some (Generic _) -> None
    | Some (Binary _ | Decomposition _) | None ->
      let a = d.analysis in
      Some (a, Float.min a.Ghd.binary_bound_log2 a.Ghd.agm.Wcoj.Agm.bound_log2))

(* At most the route's worst-case largest intermediate, and at most half
   the tuple budget the attempt's atom scans leave (they are charged
   outside the allowance, and cannot charge more than the base
   relations hold), so the attempt cannot trip the budget where the
   route's own scans would not, and the route keeps the other half.
   Nor more than the cardinality cap: the answer has at most as many
   rows as the search made bindings, so it cannot trip the cap. *)
let allowance_of ~ctx db cq bound_log2 =
  let worst =
    if bound_log2 < 62. then int_of_float (Float.ceil (Float.pow 2. bound_log2))
    else max_int
  in
  match Ctx.limits ctx with
  | None -> worst
  | Some l ->
    let scans =
      List.fold_left
        (fun acc a -> acc + Relation.cardinality (Database.find db a.Cq.rel))
        0 cq.Cq.atoms
    in
    max 0 (min (min worst (Limits.max_tuples l)) ((Limits.remaining l - scans) / 2))

let run_attempt ~ctx db cq a allowance =
  let left = ref allowance in
  let answer =
    match Wcoj.evaluate ~ctx ~order:a.Ghd.var_order ~allowance:left db cq with
    | r -> Some r
    | exception Wcoj.Exhausted -> None
  in
  { allowance; bindings = allowance - !left; answer; skipped = false }

let attempt ?(ctx = Ctx.null) db cq compiled =
  Option.map
    (fun (a, bound_log2) ->
      run_attempt ~ctx db cq a (allowance_of ~ctx db cq bound_log2))
    (attempt_bound compiled)

(* A run's attempt. The search is deterministic, so within an allowance
   no larger than one it already ran out within along the analysis's
   order it would run out again: it is skipped, and the route runs at
   once. An attempt that runs out raises the analysis's record with a
   compare-and-set, so racing domains keep the largest. *)
let replay_attempt ~ctx db cq (a, bound_log2) =
  let allowance = allowance_of ~ctx db cq bound_log2 in
  let ran_out = a.Ghd.ran_out in
  if allowance <= Atomic.get ran_out then
    { allowance; bindings = 0; answer = None; skipped = true }
  else begin
    let tried = run_attempt ~ctx db cq a allowance in
    let rec record () =
      let seen = Atomic.get ran_out in
      if allowance > seen && not (Atomic.compare_and_set ran_out seen allowance)
      then record ()
    in
    if tried.answer = None then record ();
    tried
  end

let materialize ?(ctx = Ctx.null) ?observe ?(on_attempt = ignore)
    ?(on_route = ignore) db cq compiled =
  let tried = Option.map (replay_attempt ~ctx db cq) (attempt_bound compiled) in
  Option.iter on_attempt tried;
  match tried with
  | Some { answer = Some r; _ } -> r
  | _ -> (
    let r = route ~ctx db cq compiled in
    on_route r;
    match r with
    | Binary plan -> run ~ctx ?observe db plan
    | Generic order -> Wcoj.evaluate ~ctx ~order db cq
    | Decomposition prep -> Ghd.evaluate ~ctx ~prep db cq)

(* ------------------------------------------------------------------ *)
(* Streaming.                                                          *)

(* The schema [run] gives a plan's output, read off the plan alone, so a
   cursor knows it before its first pull. *)
let rec plan_schema = function
  | Plan.Atom atom -> Schema.of_list (Cq.atom_vars atom)
  | Plan.Join (l, r) -> Schema.union (plan_schema l) (plan_schema r)
  | Plan.Project (sub, kept) ->
    Schema.restrict (plan_schema sub) ~keep:(fun v -> List.mem v kept)

(* Constant-delay route for an acyclic query: scan the atoms, reduce
   them along the join tree with the two semijoin sweeps, enumerate. *)
let acyclic_producer ~ctx db cq jt emit =
  let rels =
    Array.map
      (fun atom -> Database.eval_atom ~ctx db atom)
      (Array.of_list cq.Cq.atoms)
  in
  let _, it =
    Yannakakis.enumerate ~ctx ~parent:jt.Jointree.parent
      ~order:jt.Jointree.order ~free:cq.Cq.free rels
  in
  it emit

let count ctx name =
  match Ctx.telemetry ctx with
  | None -> ()
  | Some t ->
    Telemetry.Metrics.incr
      (Telemetry.Metrics.counter (Telemetry.metrics t) name)

(* First-answer instrumentation: one [ops.stream] count per opened
   cursor and the delay from cursor creation to the first yielded tuple
   into the [answers.first_delay] histogram. Purely metric-registry
   work — no span is held open across consumer pulls. *)
let observe_first ~ctx produce =
  count ctx "ops.stream";
  let t0 = Unix.gettimeofday () in
  let first = ref true in
  fun emit ->
    produce (fun tup ->
        if !first then begin
          first := false;
          match Ctx.telemetry ctx with
          | None -> ()
          | Some t ->
            Telemetry.Metrics.observe
              (Telemetry.Metrics.histogram (Telemetry.metrics t)
                 "answers.first_delay")
              (Unix.gettimeofday () -. t0)
        end;
        emit tup)

(* A route's producer, as a cursor over it needs it: the kind it counts
   under, whether its emissions need dedup, its schema, the producer.
   Only structure is read here — the join tree, the plan's schema; every
   scan, sweep and index waits inside the producer for the first pull. *)
let route_producer ~ctx ~semijoin db cq = function
  | Binary plan -> (
    match
      if semijoin then Jointree.build (Hypergraph.of_query cq) else None
    with
    | Some jt ->
      ("yannakakis", true, Schema.of_list cq.Cq.free, acyclic_producer ~ctx db cq jt)
    | None ->
      (* A cyclic or approximate plan has no delay bound to keep: it
         materializes through [run], kernels and all, on the first pull. *)
      let schema = plan_schema plan in
      ( "plan", false, schema,
        fun emit ->
          let rel = run ~ctx db plan in
          assert (Relation.schema rel = schema);
          Relation.iter emit rel ))
  | Generic order ->
    ( "wcoj", false, Schema.of_list cq.Cq.free,
      fun emit -> Wcoj.iter ~ctx ~order db cq emit )
  | Decomposition prep ->
    ( "ghd", true, Schema.of_list cq.Cq.free,
      fun emit ->
        let _, it = Ghd.enumerate ~ctx ~prep db cq in
        it emit )

let stream ?(ctx = Ctx.null) ?(semijoin = true) ?(on_attempt = ignore)
    ?(on_route = ignore) db cq compiled =
  match attempt_bound compiled with
  | None ->
    let r = route ~ctx db cq compiled in
    let kind, dedup, schema, produce = route_producer ~ctx ~semijoin db cq r in
    count ctx ("ops.stream." ^ kind);
    Cursor.of_iter ~dedup ~schema
      (observe_first ~ctx (fun emit ->
           on_route r;
           produce emit))
  | Some bound ->
    (* The attempt runs on the first pull. Its answer streams as it
       materialized; when it runs out, the artifact resolves, the chosen
       route's own cursor opens and its tuples are put in head order. *)
    let schema = Schema.of_list cq.Cq.free in
    Cursor.of_iter ~schema
      (observe_first ~ctx (fun emit ->
           let tried = replay_attempt ~ctx db cq bound in
           on_attempt tried;
           match tried.answer with
           | Some r ->
             count ctx "ops.stream.wcoj";
             Relation.iter emit r
           | None ->
             let r = route ~ctx db cq compiled in
             on_route r;
             let kind, dedup, rschema, produce =
               route_producer ~ctx ~semijoin db cq r
             in
             count ctx ("ops.stream." ^ kind);
             let pos = Schema.positions schema rschema in
             Cursor.iter
               (fun tup -> emit (Tuple.project tup pos))
               (Cursor.of_iter ~dedup ~schema:rschema produce)))

(* The paper's Boolean question, answered by the plan itself (never the
   semijoin reroute: the caller may hand us a deliberately approximate
   mini-bucket plan). *)
let nonempty ?ctx db plan = not (Relation.is_empty (run ?ctx db plan))
