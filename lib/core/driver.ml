type meth =
  | Naive of Naive.search
  | Straightforward
  | Early_projection
  | Reorder
  | Bucket_elimination
  | Minibucket of int
  | Hybrid
  | Hybrid_rank of int
  | Wcoj
  | Ghd

let all_paper_methods =
  [
    Naive Naive.default_search;
    Straightforward;
    Early_projection;
    Reorder;
    Bucket_elimination;
  ]

let method_name = function
  | Naive Naive.Dp -> "naive(dp)"
  | Naive Naive.Dp_bushy -> "naive(dp-bushy)"
  | Naive (Naive.Genetic _) -> "naive(geqo)"
  | Naive (Naive.Plugin (name, _)) -> Printf.sprintf "naive(%s)" name
  | Naive (Naive.Auto _) -> "naive"
  | Straightforward -> "straightforward"
  | Early_projection -> "early-projection"
  | Reorder -> "reordering"
  | Bucket_elimination -> "bucket-elimination"
  | Minibucket i -> Printf.sprintf "minibucket(%d)" i
  | Hybrid -> "hybrid"
  | Hybrid_rank n -> Printf.sprintf "hybrid#%d" n
  | Wcoj -> "wcoj"
  | Ghd -> "ghd"

(* No naive search by name: exhaustive DP is exponential in the atom
   count, and a request must not be able to pick it. *)
let method_of_string s =
  match s with
  | "naive" -> Some (Naive Naive.default_search)
  | "straightforward" -> Some Straightforward
  | "early-projection" -> Some Early_projection
  | "reordering" -> Some Reorder
  | "bucket-elimination" -> Some Bucket_elimination
  | "hybrid" -> Some Hybrid
  | "wcoj" -> Some Wcoj
  | "ghd" -> Some Ghd
  | _ -> (
    let number fmt = Scanf.sscanf_opt s fmt Fun.id in
    match
      (number "minibucket(%u)%!", number "minibucket:%u%!", number "hybrid#%u%!")
    with
    | Some i, _, _ | None, Some i, _ -> if i > 0 then Some (Minibucket i) else None
    | None, None, n -> Option.map (fun n -> Hybrid_rank n) n)

let apply_planner planner meth =
  match (planner, meth) with
  | Some name, Naive (Naive.Auto (threshold, _)) when name <> "genetic" ->
    Naive (Naive.Plugin (name, threshold))
  | _ -> meth

type abort = {
  reason : Relalg.Limits.reason;
  partial_stats : Relalg.Stats.t;
}

type status = Completed | Aborted of abort

type outcome = {
  meth : meth;
  compile_seconds : float;
  exec_seconds : float;
  plan_width : int;
  max_arity : int;
  max_cardinality : int;
  tuples_produced : int;
  result : Relalg.Relation.t option;
  complete : bool;
  first_answer_seconds : float option;
  time_to_k : float option;
  status : status;
}

let abort_reason o =
  match o.status with Completed -> None | Aborted a -> Some a.reason

(* The one place result-shape facts derive from: everything else
   (cardinality, nonemptiness, pretty-printing) reads [result]. *)
let result_cardinality o = Option.map Relalg.Relation.cardinality o.result
let nonempty o = Option.map (fun r -> not (Relalg.Relation.is_empty r)) o.result

let compile ?rng ?feedback meth db cq =
  match meth with
  | Naive search -> Naive.compile ~search ?feedback db cq
  | Straightforward -> Straightforward.compile cq
  | Early_projection -> Early_projection.compile cq
  | Reorder -> Reorder.compile ?rng cq
  | Bucket_elimination -> Bucket.compile ?rng cq
  | Minibucket i_bound -> Minibucket.compile ?rng ~i_bound cq
  | Hybrid -> Hybrid.compile ?rng ?feedback db cq
  | Hybrid_rank n -> Hybrid.nth_plan ?rng ?feedback n db cq
  | Wcoj | Ghd ->
    (* The bucket fallback the structural gate compares against; [run]
       executes the generic join or the decomposition directly when the
       gate picks them. Only the shared analysis is needed: its order is
       the one the decomposition search would have come after. *)
    Exec.bucket_fallback (Ghd.analyze ?rng db cq) cq

type compiled = Exec.compiled =
  | Plan of Plan.t
  | Deferred of Exec.deferred
  | Decomposed of Ghd.prep * Plan.t option

let prepare ?rng ?feedback ?agm ?route meth db cq =
  match (meth, route) with
  | Ghd, Some route ->
    (* A forced route runs without an attempt: the whole prep now. The
       bucket plan rides along only when it is the route, so a cached
       artifact replays without recompiling. *)
    let prep = Ghd.prepare ?rng ?agm ~route db cq in
    let plan =
      match route with
      | Ghd.Bucket -> Some (Exec.bucket_fallback prep.Ghd.analysis cq)
      | Ghd.Generic | Ghd.Ghd -> None
    in
    Decomposed (prep, plan)
  | _, Some _ -> invalid_arg "Driver.prepare: only the ghd method takes a route"
  | (Wcoj | Ghd), None ->
    (* The generic join is tried before any route, so the ghd method's
       decomposition search waits until that attempt runs out. *)
    Exec.defer ?rng ~ghd_route:(meth = Ghd) cq (Ghd.analyze ?rng ?agm db cq)
  | _, None -> Plan (compile ?rng ?feedback meth db cq)

(* Minibucket plans are deliberately approximate (a superset of the
   answer): the semijoin reroute in [Exec.stream] answers the exact
   query and would mask the approximation, so it is disabled there. *)
let exact_method = function Minibucket _ -> false | _ -> true

(* ------------------------------------------------------------------ *)
(* Cardinality harvest. With an [?observer], a run over a binary plan
   records every node's measured output cardinality ([Exec.run ?observe],
   post-order) and turns the prefix that completed into observations
   against the {e uncorrected} textbook model:
   - each atom scan vs its raw base cardinality, under the atom's
     signature;
   - each join's selectivity error — measured vs the independence
     estimate from the children's {e measured} inputs — split
     geometrically across the join's shared variables and emitted one
     observation per variable signature, so corrections transfer to any
     query joining the same columns;
   - the whole answer vs the textbook estimate of the reference
     left-deep plan, under the query signature (complete runs only).
   An aborted run fires [observe] only for the nodes that finished,
   which is a clean post-order prefix, so partial runs still teach the
   store about those nodes. Counts are (+1)-smoothed so empty
   intermediates stay finite in log space.

   One post-order walk, linear in the plan: each node hands its parent
   its measured cardinality and its sorted schema, so a join finds its
   shared variables by merging its children's schemas, and each
   variable's signature is built at most once per harvest. *)

(* Two ascending schemas' shared variables and their union, both
   ascending. *)
let rec merge_schemas a b =
  match (a, b) with
  | [], s | s, [] -> ([], s)
  | (x : int) :: a', y :: b' ->
    if x = y then
      let shared, union = merge_schemas a' b' in
      (x :: shared, x :: union)
    else if x < y then
      let shared, union = merge_schemas a' b in
      (shared, x :: union)
    else
      let shared, union = merge_schemas a b' in
      (shared, y :: union)

let harvest_node_observations ~env cq plan cards =
  let n = Array.length cards in
  let idx = ref 0 in
  let obs = ref [] in
  let emit key measured estimated =
    obs := { Cost.key; measured; estimated } :: !obs
  in
  let signature = Cost.variable_signatures cq in
  (* The run stopped before this node: the walk ends here. *)
  let exception Unfinished in
  let take () =
    if !idx >= n then raise Unfinished;
    let c = float_of_int cards.(!idx) in
    incr idx;
    c
  in
  let rec walk = function
    | Plan.Atom atom ->
      let measured = take () in
      let est = Cost.atom_cardinality env atom in
      emit (Cost.atom_signature atom) (measured +. 1.) (est +. 1.);
      (measured, List.sort_uniq Int.compare (Conjunctive.Cq.atom_vars atom))
    | Plan.Join (l, r) ->
      let ml, sl = walk l in
      let mr, sr = walk r in
      let measured = take () in
      let shared, schema = merge_schemas sl sr in
      (match shared with
      | [] -> () (* cartesian: no join-key selectivity to learn *)
      | _ ->
        let denom =
          List.fold_left
            (fun acc v -> acc *. Cost.domain_size env v)
            1.0 shared
        in
        let est = ml *. mr /. denom in
        let ratio = Cost.clamp_factor ((measured +. 1.) /. (est +. 1.)) in
        let per_var = ratio ** (1. /. float_of_int (List.length shared)) in
        List.iter (fun v -> emit (signature v) per_var 1.0) shared);
      (measured, schema)
    | Plan.Project (sub, kept) ->
      ignore (walk sub);
      (take (), List.sort_uniq Int.compare kept)
  in
  (try ignore (walk plan) with Unfinished -> ());
  List.rev !obs

(* Seconds to build a run's observations: tens of microseconds to a few
   milliseconds, finer than the registry's default buckets. *)
let harvest_bounds = [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 0.1; 1.0 |]

let harvest_query_observation ~env cq result =
  match cq.Conjunctive.Cq.atoms with
  | [] -> []
  | atoms ->
    let reference =
      Plan.project_to
        (Plan.left_deep (List.map (fun a -> Plan.Atom a) atoms))
        cq.Conjunctive.Cq.free
    in
    let est = Cost.estimate env reference in
    [
      {
        Cost.key = Cost.query_signature cq;
        measured = float_of_int (Relalg.Relation.cardinality result) +. 1.;
        estimated = est +. 1.;
      };
    ]

let log_src =
  Logs.Src.create "ppr.driver" ~doc:"Method compilation and execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Deliver the streamed answer in head order under the requested policy:
   the first [limit] tuples in stream order, or with [rank] the [limit]
   least (all of them when [limit] is absent) from a bounded heap over a
   full drain. Times the first pull and the policy's completion. *)
let collect_stream ~clock ~limit ~rank ~head cur =
  let t0 = clock () in
  let first_at = ref None in
  (* A binary plan's route emits its own schema's column order. *)
  let reorder =
    if Relalg.Schema.equal head (Relalg.Cursor.schema cur) then Fun.id
    else
      let pos = Relalg.Schema.positions head (Relalg.Cursor.schema cur) in
      fun t -> Relalg.Tuple.project t pos
  in
  let rec pull () =
    match Relalg.Cursor.next cur with
    | None -> Seq.Nil
    | Some t ->
      if !first_at = None then first_at := Some (clock () -. t0);
      Seq.Cons (reorder t, pull)
  in
  let out =
    Relalg.Cursor.of_seq ~schema:head
      ~on_close:(fun () -> Relalg.Cursor.close cur)
      pull
  in
  let k = Option.value limit ~default:max_int in
  let tuples =
    match rank with
    | None -> Relalg.Cursor.take out k
    | Some compare -> Relalg.Cursor.top_k ~compare out k
  in
  let time_to_k = clock () -. t0 and first_at = !first_at in
  (* A ranked page drained the stream. An unranked one pulls once past
     the page (untimed) to tell whether it ended at the last answer; a
     guard that trips on that pull leaves it unknown, and the page
     stands. *)
  let complete =
    match rank with
    | Some _ -> Relalg.Cursor.yielded out <= k
    | None -> (
      match Relalg.Cursor.next out with
      | None -> true
      | Some _ | (exception Relalg.Limits.Abort _) -> false)
  in
  Relalg.Cursor.close out;
  let rel = Relalg.Relation.create ~size_hint:(List.length tuples) head in
  List.iter (fun t -> ignore (Relalg.Relation.add rel t)) tuples;
  (rel, complete, first_at, Some time_to_k)

(* The widest relation the GHD-Yannakakis route materializes. It is wider
   than the widest bag: a bag is the join of its cover atoms projected
   down to the bag, and the join-project pass joins a parent bag with a
   child, each carrying the free variables merged into it so far. *)
let ghd_route_width cq prep =
  let module Iset = Hypergraphs.Hypertree.Iset in
  let htd = prep.Ghd.decomposition in
  let atoms = Array.of_list cq.Conjunctive.Cq.atoms in
  let free = Iset.of_list cq.Conjunctive.Cq.free in
  let cover b =
    List.fold_left
      (fun acc e ->
        Iset.union acc (Iset.of_list (Conjunctive.Cq.atom_vars atoms.(e))))
      Iset.empty htd.Hypergraphs.Hypertree.lambda.(b)
  in
  let chi = htd.Hypergraphs.Hypertree.chi in
  let widest = ref (Iset.cardinal free) in
  Array.iteri
    (fun b p ->
      widest := max !widest (Iset.cardinal (cover b));
      if p >= 0 then
        widest :=
          max !widest
            (Iset.cardinal (Iset.union free (Iset.union chi.(b) chi.(p)))))
    prep.Ghd.parent;
  !widest

(* Analytic width of a route: for a binary plan, its largest node schema;
   for the generic join, the widest unit it ever materializes — an atom
   or the output; for a decomposition, the widest relation it joins. *)
let generic_width cq =
  List.fold_left
    (fun acc a -> max acc (List.length (Conjunctive.Cq.atom_vars a)))
    (List.length cq.Conjunctive.Cq.free)
    cq.Conjunctive.Cq.atoms

let route_width cq = function
  | Exec.Binary plan -> Plan.width plan
  | Exec.Generic _ -> generic_width cq
  | Exec.Decomposition prep -> ghd_route_width cq prep

let attempt_label = function
  | None -> "none"
  | Some { Exec.skipped = true; _ } -> "skipped"
  | Some { Exec.answer = Some _; _ } -> "answered"
  | Some { Exec.answer = None; _ } -> "exhausted"

let attempt_attrs tried =
  ("gate.attempt", Telemetry.Attr.String (attempt_label tried))
  ::
  (match tried with
  | None -> []
  | Some a ->
    [
      ("gate.attempt_bindings", Telemetry.Attr.Int a.Exec.bindings);
      ("gate.allowance", Telemetry.Attr.Int a.Exec.allowance);
    ])

(* Driver-level spans ([compile:<method>], [exec:<method>]) and counters
   ([driver.runs], [driver.aborts.<reason>]) land in the caller's telemetry
   registry; the per-run [Stats.t] keeps its own private registry so the
   outcome's measurements never mix across runs. *)
let run ?rng ?feedback ?observer ?compiled ?route ?limit ?rank
    ?(ctx = Relalg.Ctx.null) meth db cq =
  (match limit with
  | Some k when k < 0 -> invalid_arg "Driver.run: limit must be 0 or more"
  | _ -> ());
  let telemetry = Relalg.Ctx.telemetry ctx in
  let clock = Unix.gettimeofday in
  let name = method_name meth in
  let in_span phase attrs f =
    match telemetry with
    | None -> f None
    | Some t ->
      Telemetry.with_span t (phase ^ ":" ^ name) ~attrs (fun sp -> f (Some sp))
  in
  let t0 = clock () in
  (* A gated run decides its route inside the compile span: when the
     gate picks the generic join there is no binary plan at all, only the
     variable order; when it picks bucket the plan along the same order
     is the thing compiled. A [?compiled] artifact (a plan
     cache hit) skips the whole phase — the caller vouches it was
     prepared by {!prepare} for this method, query and database. *)
  let planned =
    match compiled with
    | Some c -> c
    | None ->
      in_span "compile" [] (fun _ -> prepare ?rng ?feedback ?route meth db cq)
  in
  let t1 = clock () in
  (match planned with
  | Plan plan ->
    Log.debug (fun m ->
        m "%s: compiled in %.4fs (width %d, %d joins, %d projections)" name
          (t1 -. t0) (Plan.width plan) (Plan.join_count plan)
          (Plan.projection_count plan))
  | Deferred { Exec.analysis = a; resolved; _ } ->
    Log.debug (fun m ->
        m
          "%s: prepared in %.4fs (gate %s: bucket 2^%.2f vs generic 2^%.2f, \
           induced width %d)"
          name (t1 -. t0)
          (match Atomic.get resolved with
          | Some r -> Ghd.decision_name (Exec.decision r)
          | None -> "deferred")
          a.Ghd.binary_bound_log2 a.Ghd.agm.Wcoj.Agm.bound_log2
          a.Ghd.induced_width)
  | Decomposed (prep, _) ->
    let a = prep.Ghd.analysis in
    Log.debug (fun m ->
        m
          "%s: prepared in %.4fs (gate forced %s: bucket 2^%.2f vs generic \
           2^%.2f vs ghd 2^%.2f, htw %d, induced width %d)"
          name (t1 -. t0)
          (Ghd.decision_name prep.Ghd.decision)
          a.Ghd.binary_bound_log2 a.Ghd.agm.Wcoj.Agm.bound_log2
          prep.Ghd.ghd_bound_log2 prep.Ghd.htw a.Ghd.induced_width));
  let stats = Relalg.Stats.create () in
  let limits =
    match Relalg.Ctx.limits ctx with
    | Some l -> l
    | None -> Relalg.Limits.create ()
  in
  let exec_ctx =
    Relalg.Ctx.with_limits (Relalg.Ctx.with_stats ctx stats) limits
  in
  (* One attribute set for the gate, whichever method runs it: the
     analysis's two bounds at the start, the decision (and, with a
     decomposition, its bag bound and htw) once it is made. *)
  let decision_attrs decision prep =
    ("ghd.decision", Telemetry.Attr.String (Ghd.decision_name decision))
    ::
    (match prep with
    | None -> []
    | Some (prep : Ghd.prep) ->
      [
        ("ghd.ghd_bound_log2", Telemetry.Attr.Float prep.Ghd.ghd_bound_log2);
        ("ghd.htw", Telemetry.Attr.Int prep.Ghd.htw);
      ])
  in
  let analysis_attrs (a : Ghd.analysis) =
    [
      ("ghd.binary_bound_log2", Telemetry.Attr.Float a.Ghd.binary_bound_log2);
      ("ghd.agm_bound_log2", Telemetry.Attr.Float a.Ghd.agm.Wcoj.Agm.bound_log2);
      ("ghd.induced_width", Telemetry.Attr.Int a.Ghd.induced_width);
    ]
  in
  let exec_attrs =
    match planned with
    | Deferred { Exec.analysis = a; _ } -> analysis_attrs a
    | Decomposed (prep, _) ->
      decision_attrs prep.Ghd.decision (Some prep) @ analysis_attrs prep.Ghd.analysis
    | Plan _ -> []
  in
  let streamed = limit <> None || rank <> None in
  (* Node-cardinality collection for the harvest: post-order, so an
     abort leaves a clean prefix. Only armed when someone listens to a
     method's own plan, the one kind the harvest reads. *)
  let harvest_cards =
    match (observer, planned) with
    | Some _, Plan _ -> Some (ref [])
    | _ -> None
  in
  let observe =
    Option.map (fun cell _node card -> cell := card :: !cell) harvest_cards
  in
  (* The gate's attempt, heard from the executor: its outcome lands on
     the exec span, the registry and the debug line. *)
  let tried = ref None in
  let on_attempt a = tried := Some a in
  (* The route that ran after the attempt, if any: the width is its. *)
  let ran = ref None in
  let on_route r = ran := Some r in
  let t2 = ref t1 in
  let result, complete, first_answer_seconds, time_to_k, status, plan_width =
    in_span "exec" exec_attrs (fun span ->
        let outcome =
          try
            if streamed then begin
              (* Delivery-bounded run: open the cursor and pull only what
                 the policy needs. Early exit is the whole point — a
                 limit-k run of a streaming route does O(setup + k) work,
                 not O(answer). *)
              let cur =
                Exec.stream ~ctx:exec_ctx ~semijoin:(exact_method meth)
                  ~on_attempt ~on_route db cq planned
              in
              let rel, complete, first_at, ttk =
                collect_stream ~clock ~limit ~rank
                  ~head:(Relalg.Schema.of_list cq.Conjunctive.Cq.free)
                  cur
              in
              (Some rel, complete, first_at, ttk, Completed)
            end
            else
              let r =
                Exec.materialize ~ctx:exec_ctx ?observe ~on_attempt ~on_route db
                  cq planned
              in
              (Some r, true, None, None, Completed)
          with Relalg.Limits.Abort reason ->
            Log.info (fun m ->
                m "%s: aborted — %s" name (Relalg.Limits.describe reason));
            ( None,
              false,
              None,
              None,
              Aborted { reason; partial_stats = Relalg.Stats.copy stats } )
        in
        t2 := clock ();
        (* Analytic width, outside the execution time, of what ran: the
           route after the attempt; else the generic join, when the
           attempt answered or was cut; else (a stream closed unpulled)
           the method's plan or the generic join. *)
        let plan_width =
          match (!ran, planned) with
          | Some r, _ -> route_width cq r
          | None, Plan plan -> Plan.width plan
          | None, _ -> generic_width cq
        in
        Option.iter
          (fun sp ->
            Telemetry.Span.add_attrs sp
              (("plan.width", Telemetry.Attr.Int plan_width)
              :: attempt_attrs !tried
              @
              match planned with
              | Deferred d -> (
                (* The decision, once the artifact has one: made at
                   prepare time without the GHD route, else by this or
                   an earlier run that went past the attempt. *)
                match Atomic.get d.Exec.resolved with
                | Some (Exec.Decomposition prep) -> decision_attrs Ghd.Ghd (Some prep)
                | Some r -> decision_attrs (Exec.decision r) None
                | None -> [])
              | _ -> []))
          span;
        let result, complete, first_at, ttk, status = outcome in
        (result, complete, first_at, ttk, status, plan_width))
  in
  (match telemetry with
  | None -> ()
  | Some t ->
    let reg = Telemetry.metrics t in
    Telemetry.Metrics.incr (Telemetry.Metrics.counter reg "driver.runs");
    if Option.is_some !tried then
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter reg
           ("driver.gate.attempt." ^ attempt_label !tried));
    (match status with
    | Completed -> ()
    | Aborted a ->
      let label = Relalg.Limits.reason_label a.reason in
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter reg ("driver.aborts." ^ label))));
  (* Harvest: ground-truth cardinalities against the uncorrected model
     (the observations must measure the textbook model's error, not the
     corrected one's, or repeated blending would compound). *)
  (match observer with
  | None -> ()
  | Some emit ->
    let h0 = clock () in
    let env = lazy (Cost.environment db cq) in
    let node_obs =
      match (streamed, planned, harvest_cards) with
      | false, Plan plan, Some cell ->
        harvest_node_observations ~env:(Lazy.force env) cq plan
          (Array.of_list (List.rev !cell))
      | _ -> []
    in
    let query_obs =
      match (status, result) with
      | Completed, Some r when complete ->
        harvest_query_observation ~env:(Lazy.force env) cq r
      | _ -> []
    in
    let observations = node_obs @ query_obs in
    (match telemetry with
    | None -> ()
    | Some t ->
      let reg = Telemetry.metrics t in
      Telemetry.Metrics.observe
        (Telemetry.Metrics.histogram ~bounds:harvest_bounds reg
           "driver.feedback.harvest_seconds")
        (clock () -. h0);
      if observations <> [] then
        Telemetry.Metrics.incr
          (Telemetry.Metrics.counter reg "driver.feedback.harvests"));
    if observations <> [] then emit observations);
  Log.debug (fun m ->
      m "%s: executed in %.4fs (attempt %s%s; %s)" name (!t2 -. t1)
        (attempt_label !tried)
        (match !tried with
        | Some a ->
          Printf.sprintf ", %d of %d bindings" a.Exec.bindings a.Exec.allowance
        | None -> "")
        (Format.asprintf "%a" Relalg.Stats.pp stats));
  {
    meth;
    compile_seconds = t1 -. t0;
    exec_seconds = !t2 -. t1;
    plan_width;
    max_arity = Relalg.Stats.max_arity stats;
    max_cardinality = Relalg.Stats.max_cardinality stats;
    tuples_produced = Relalg.Stats.tuples_produced stats;
    result;
    complete;
    first_answer_seconds;
    time_to_k;
    status;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "%-18s compile=%.4fs exec=%s width=%d/%d max_card=%d result=%s%s"
    (method_name o.meth) o.compile_seconds
    (match o.status with
    | Completed -> Printf.sprintf "%.4fs" o.exec_seconds
    | Aborted a ->
      Printf.sprintf "abort(%s)" (Relalg.Limits.reason_label a.reason))
    o.plan_width o.max_arity o.max_cardinality
    (match result_cardinality o with
    | Some c -> string_of_int c
    | None -> "-")
    (* the "+" marks a page of a larger answer; an absent result has
       nothing to be a page of *)
    (if o.complete || result_cardinality o = None then "" else "+")
