(* The paper's traffic: closed-loop (instance, method) runs through
   [Driver.prepare] then [Driver.run ~compiled], under the figures'
   cardinality cap. Two workloads share this code:

   - paper-batch runs one instance of a cell from every panel of the
     evaluation (random 3-COLOR of Figures 3-5 in Boolean and 20%-free
     modes, the structured families of Figures 6-9, Section 7's 3-SAT
     and 2-SAT, and Figure 2's 5-variable 3-SAT, the only cell naive
     runs on) at jobs=1;
   - paper-heavy-jobs2 runs the heaviest of those cells (random 3-COLOR,
     order 25 and 30, density 3, 20% free) with the three structural
     methods on a 2-domain pool, the only place the pool's partitioned
     join engages.

   Instances are the figure harness's own: generated exactly as
   lib/experiments/figures.ml does for its seeds 1000, 1001, ... . They
   do not depend on --seed, which only orders the runs of each pass. At
   these sizes the methods sit next to the cardinality cap, so a fresh
   graph, or even a relabeling of one, decides whether a run completes
   in milliseconds or aborts after half a second; a 20-second run could
   not average that out, and would measure its draw, not the program. *)

module Driver = Ppr_core.Driver
module Encode = Conjunctive.Encode
module Rng = Graphlib.Rng
module Gen = Graphlib.Generators

type source = Coloring of Graphlib.Graph.t | Formula of Conjunctive.Cnf.t

type cell = {
  cell : string;
  make : int -> Conjunctive.Database.t * Conjunctive.Cq.t * source;
      (** the instance the figures draw for this seed *)
  naive : bool;  (** Figure 2's cell, the only one naive runs on *)
}

type instance = {
  id : int;
  fig_seed : int;
  cell_name : string;
  db : Conjunctive.Database.t;
  cq : Conjunctive.Cq.t;
  source : source;
  methods : Driver.meth list;
}

(* The figures' stand-in for the paper's timeouts (the same caps as
   lib/experiments/figures.ml): a run aborts once one intermediate
   relation holds 300k tuples or the run has materialized 3M, so a
   blow-up aborts the same way on every run. *)
let limits () = Relalg.Limits.create ~max_tuples:300_000 ~max_total:3_000_000 ()

let color_db = Encode.coloring_database ()
let free = ("free", Encode.Fraction 0.2)
let boolean = ("bool", Encode.Boolean)

let random_color ~fig ~n ~density (mode_name, mode) =
  {
    cell = Printf.sprintf "%s/random/n%d/d%g/%s" fig n density mode_name;
    naive = false;
    make =
      (fun seed ->
        let rng = Rng.make seed in
        let m =
          max 1
            (min
               (int_of_float (Float.round (density *. float_of_int n)))
               (n * (n - 1) / 2))
        in
        let g = Gen.random ~rng ~n ~m in
        ( color_db,
          Encode.coloring_query_of_graph ~mode ~rng:(Rng.split rng) g,
          Coloring g ));
  }

let structured ~fig ~name ~family ~n (mode_name, mode) =
  {
    cell = Printf.sprintf "%s/%s/n%d/%s" fig name n mode_name;
    naive = false;
    make =
      (fun seed ->
        let g = family n in
        ( color_db,
          Encode.coloring_query_of_graph ~mode ~rng:(Rng.make seed) g,
          Coloring g ));
  }

let sat ~fig ~k ~num_vars ~density ~naive =
  {
    cell = Printf.sprintf "%s/%d-sat/v%d/d%g" fig k num_vars density;
    naive;
    make =
      (fun seed ->
        let rng = Rng.make seed in
        let num_clauses =
          max 1 (int_of_float (density *. float_of_int num_vars))
        in
        let cnf = Conjunctive.Cnf.random_ksat ~rng ~k ~num_vars ~num_clauses in
        (Encode.sat_database cnf, Encode.sat_query ~mode:Encode.Boolean cnf, Formula cnf));
  }

(* Figure 4's heaviest cells: order 25 and 30 at density 3, 20% free. *)
let heavy_cells =
  List.map (fun n -> random_color ~fig:"fig4" ~n ~density:3.0 free) [ 25; 30 ]

(* One cell per panel, at sizes where the figures separate the methods
   (the slow ones abort at the cap on several of them, as in the
   figures), small enough that a pass takes a few seconds. Figure 4's
   cell is the order-30 one paper-heavy-jobs2 also runs. *)
let batch_cells =
  [
    sat ~fig:"fig2" ~k:3 ~num_vars:5 ~density:4. ~naive:true;
    random_color ~fig:"fig3" ~n:20 ~density:1. boolean;
    List.nth heavy_cells 1;
    random_color ~fig:"fig5" ~n:15 ~density:6. boolean;
    structured ~fig:"fig6" ~name:"aug-path" ~family:Gen.augmented_path ~n:10 free;
    structured ~fig:"fig7" ~name:"ladder" ~family:Gen.ladder ~n:10 boolean;
    structured ~fig:"fig8" ~name:"aug-ladder" ~family:Gen.augmented_ladder ~n:5 free;
    structured ~fig:"fig9" ~name:"aug-circ-ladder"
      ~family:Gen.augmented_circular_ladder ~n:5 boolean;
    sat ~fig:"sec7" ~k:3 ~num_vars:20 ~density:1. ~naive:false;
    sat ~fig:"sec7" ~k:2 ~num_vars:20 ~density:2. ~naive:false;
  ]

let structural =
  Driver.[ Straightforward; Early_projection; Reorder; Bucket_elimination; Wcoj; Ghd ]

let heavy_methods = Driver.[ Bucket_elimination; Wcoj; Ghd ]

type spec = {
  cells : cell list;
  seeds : int;  (** figure seeds per cell: 1000 .. 1000 + seeds - 1 *)
  methods : cell -> Driver.meth list;
  jobs : int;
  min_passes : int;
      (** a timed run makes at least this many passes, enough for its tail
          percentile to have ten samples beyond it *)
}

let batch =
  {
    cells = batch_cells;
    seeds = 1;
    methods =
      (fun c ->
        if c.naive then Driver.Naive Ppr_core.Naive.default_search :: structural
        else structural);
    jobs = 1;
    min_passes = 4;
  }

let heavy =
  { cells = heavy_cells; seeds = 3; methods = (fun _ -> heavy_methods); jobs = 2; min_passes = 6 }

(* The instances of one pass. *)
let instances spec =
  List.concat_map
    (fun c -> List.init spec.seeds (fun j -> (c, 1000 + j)))
    spec.cells
  |> List.mapi (fun id (c, fig_seed) ->
         let db, cq, source = c.make fig_seed in
         { id; fig_seed; cell_name = c.cell; db; cq; source; methods = spec.methods c })

(* ------------------------------------------------------------------ *)
(* One run and its record.                                              *)

type run = {
  inst : instance;
  meth : Driver.meth;
  compile_s : float;
  exec_s : float;
  outcome : (Driver.outcome, string) result;
  gate : Ghd.decision option;  (** the ghd method's gate decision *)
  width_bound : int option;
      (** the widest relation the run's route can materialize, where it
          is wider than the outcome's plan_width (see [ghd_width]) *)
  answer : string option;  (** canonical answer of a completed run *)
}

(* An answer set up to column order: columns sorted by variable, rows
   sorted, then digested. *)
let canonical_answer rel =
  let attrs = Relalg.Schema.attrs (Relalg.Relation.schema rel) in
  let cols =
    List.mapi (fun i a -> (a, i)) attrs
    |> List.sort compare |> List.map snd |> Array.of_list
  in
  let rows =
    Relalg.Relation.fold
      (fun t acc -> Array.map (fun i -> t.(i)) cols :: acc)
      rel []
    |> List.sort compare
  in
  Digest.to_hex (Digest.string (Marshal.to_string rows []))

(* The widest relation the GHD-Yannakakis route can materialize. Driver's
   plan_width for it is the widest bag, but the route joins a bag's cover
   atoms before it projects them to the bag, and its join-project pass
   joins a parent bag with a child, each carrying the free variables
   merged into it so far. *)
let ghd_width cq prep =
  let module H = Hypergraphs.Hypertree in
  let htd = prep.Ghd.decomposition in
  let atoms = Array.of_list cq.Conjunctive.Cq.atoms in
  let free = H.Iset.of_list cq.Conjunctive.Cq.free in
  let cover b =
    List.fold_left
      (fun acc e -> H.Iset.union acc (H.Iset.of_list (Conjunctive.Cq.atom_vars atoms.(e))))
      H.Iset.empty htd.H.lambda.(b)
  in
  let widest = ref (H.Iset.cardinal free) in
  Array.iteri
    (fun b p ->
      widest := max !widest (H.Iset.cardinal (cover b));
      if p >= 0 then
        widest :=
          max !widest
            (H.Iset.cardinal (H.Iset.union free (H.Iset.union htd.H.chi.(b) htd.H.chi.(p)))))
    prep.Ghd.parent;
  !widest

let run_one ?trace ?pool inst meth =
  (* The method's own tie-breaking follows the figure seed, as in the
     figure harness. *)
  let rng () = Rng.make inst.fig_seed in
  let ctx =
    Relalg.Ctx.create ~limits:(limits ()) ?telemetry:(Trace.telemetry trace)
      ?pool ()
  in
  let t0 = Report.cpu () in
  match
    Trace.span trace "bench.driver.prepare" (fun () ->
        Driver.prepare ~rng:(rng ()) meth inst.db inst.cq)
  with
  | exception (Report.Interrupted as e) -> raise e
  | exception e ->
    { inst; meth; compile_s = Report.cpu () -. t0; exec_s = 0.;
      outcome = Error (Printexc.to_string e); gate = None; width_bound = None;
      answer = None }
  | compiled ->
    let t1 = Report.cpu () in
    let outcome =
      match
        Trace.span trace "bench.driver.run" (fun () ->
            Driver.run ~rng:(rng ()) ~compiled ~ctx meth inst.db inst.cq)
      with
      | o -> Ok o
      | exception (Report.Interrupted as e) -> raise e
      | exception e -> Error (Printexc.to_string e)
    in
    let t2 = Report.cpu () in
    let gate, width_bound =
      match compiled with
      | Driver.Decomposed (prep, _) ->
        ( Some prep.Ghd.decision,
          if prep.Ghd.decision = Ghd.Ghd then Some (ghd_width inst.cq prep) else None )
      | _ -> (None, None)
    in
    let answer =
      match outcome with
      | Ok { Driver.status = Driver.Completed; result = Some r; _ } ->
        Some (canonical_answer r)
      | _ -> None
    in
    { inst; meth; compile_s = t1 -. t0; exec_s = t2 -. t1; outcome; gate; width_bound; answer }

let completed r =
  match r.outcome with
  | Ok ({ Driver.status = Driver.Completed; _ } as o) -> Some o
  | _ -> None

let aborted r =
  match r.outcome with
  | Ok { Driver.status = Driver.Aborted _; _ } -> true
  | _ -> false

(* A small instance every method finishes in milliseconds. *)
let warmup_cell = random_color ~fig:"warmup" ~n:6 ~density:1.5 free

(* Set-up: build every instance's query and database, start the pool,
   and warm each method up on a small instance. Done [reps] times from
   scratch; the median is the reported set-up time and the last copy is
   used. *)
let setup spec ~reps =
  let once () =
    let t0 = Report.cpu () in
    let insts = Array.of_list (instances spec) in
    let pool =
      if spec.jobs > 1 then Some (Parallel.Pool.create ~num_domains:spec.jobs ())
      else None
    in
    let db, cq, source = warmup_cell.make 1000 in
    let methods = List.sort_uniq compare (List.concat_map spec.methods spec.cells) in
    let warm = { id = -1; fig_seed = 1000; cell_name = warmup_cell.cell; db; cq; source; methods } in
    List.iter (fun m -> ignore (run_one ?pool warm m)) methods;
    (Report.cpu () -. t0, insts, pool)
  in
  let rec go k times =
    Calib.tick ();
    (* Each set-up starts from the same, compacted heap. *)
    Gc.compact ();
    let dt, insts, pool = once () in
    if k = 1 then (Stats.median (dt :: times), insts, pool)
    else begin
      Option.iter Parallel.Pool.shutdown pool;
      go (k - 1) (dt :: times)
    end
  in
  go reps []

(* A run of the loops below starts from a collected heap, as a [ppr run]
   process starts from an empty one: otherwise each run would pay for
   collecting what the runs before it left behind, which depends on the
   seeded order. The collection is not timed. Returns the run and its
   CPU seconds. *)
let run_fresh ?trace ?pool inst meth =
  Calib.tick ();
  Gc.full_major ();
  let r = run_one ?trace ?pool inst meth in
  (r, r.compile_s +. r.exec_s)

(* A run's times at the reference speed [f] (see Calib). *)
let at_speed f r = { r with compile_s = r.compile_s /. f; exec_s = r.exec_s /. f }

(* Closed loop, one client: whole passes over the instances, each
   through every method, until a pass ends past the deadline and at
   least [min_passes] are done. The seed shuffles the order of each pass.
   Returns the runs and each pass's (runs, CPU seconds). *)
let closed_loop ?trace ?pool ?(min_passes = 1) insts ~seed ~seconds =
  let rng = Rng.make seed in
  let t0 = Report.now () in
  let rec go acc passes =
    let order = Rng.shuffle_list rng (Array.to_list insts) in
    let runs =
      List.concat_map
        (fun inst -> List.map (run_fresh ?trace ?pool inst) inst.methods)
        order
    in
    let cpu = List.fold_left (fun t (_, dt) -> t +. dt) 0. runs in
    let passes = (List.length runs, cpu) :: passes in
    let acc = List.rev_append (List.map fst runs) acc in
    if Report.now () -. t0 >= seconds && List.length passes >= min_passes then
      (List.rev acc, List.rev passes)
    else go acc passes
  in
  go [] []

(* Replay exactly the given (instance, method) runs. Returns them and
   their CPU seconds. *)
let replay ?trace ?pool runs =
  let out = List.map (fun r -> run_fresh ?trace ?pool r.inst r.meth) runs in
  (List.map fst out, List.fold_left (fun t (_, dt) -> t +. dt) 0. out)

(* ------------------------------------------------------------------ *)
(* Answer checks, after the timed phase.                                *)

let check report runs =
  let verdicts = Hashtbl.create 256 in
  let reference = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let name = Driver.method_name r.meth in
      let where = Printf.sprintf "%s #%d %s" r.inst.cell_name r.inst.id name in
      match completed r, r.answer with
      | Some o, Some ans ->
        (* Every completed method agrees on the answer set. *)
        (match Hashtbl.find_opt reference r.inst.id with
        | None -> Hashtbl.add reference r.inst.id (name, ans)
        | Some (first, ans0) ->
          if ans <> ans0 then
            Report.mismatch report "%s: answer differs from %s" where first);
        (* The nonempty verdict matches the independent search. *)
        let truth =
          match Hashtbl.find_opt verdicts r.inst.id with
          | Some v -> v
          | None ->
            let v =
              match r.inst.source with
              | Coloring g -> Check.colorable g
              | Formula f -> Check.satisfiable f
            in
            Hashtbl.add verdicts r.inst.id v;
            v
        in
        if Driver.nonempty o <> Some truth then
          Report.mismatch report "%s: nonempty=%b but the search says %b" where
            (Driver.nonempty o = Some true) truth;
        (* Measured width within the predicted plan width; on the
           GHD-Yannakakis route, whose plan_width understates what it
           materializes (see README), within [ghd_width]. *)
        let bound = Option.value r.width_bound ~default:o.Driver.plan_width in
        if o.Driver.max_arity > bound then
          Report.mismatch report "%s: measured width %d > %s %d" where
            o.Driver.max_arity
            (if r.width_bound = None then "plan width" else "the ghd route's widest join")
            bound
      | _ -> ())
    runs

(* ------------------------------------------------------------------ *)
(* Metrics.                                                             *)

let ms s = 1000. *. s
let all_methods = Driver.Naive Ppr_core.Naive.default_search :: structural

(* The end-to-end metrics of a timed (untraced) run. Every pass does the
   same work, so throughput is the median of the passes' rates. *)
let end_to_end report runs ~passes ~min_passes ~setup_s =
  let n = List.length runs in
  let time r = ms (r.compile_s +. r.exec_s) in
  let lat = List.map time runs in
  (* Every pass repeats the same runs, so the tail is read from each
     run's median over its repeats: otherwise one slow repeat of a heavy
     run (the first pass pays for growing the heap) moves it. The
     percentile is the highest with ten samples beyond it in [min_passes]
     passes, counting every repeat: the same on every run, however many
     passes it made. *)
  let repeats = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let key = (r.inst.id, r.meth) in
      Hashtbl.replace repeats key
        (time r :: Option.value ~default:[] (Hashtbl.find_opt repeats key)))
    runs;
  let medians = Hashtbl.fold (fun _ xs acc -> Stats.median xs :: acc) repeats [] in
  let pct = Stats.tail_pct (min_passes * fst (List.hd passes)) in
  let tail = { Stats.pct; value = Stats.quantile medians (pct /. 100.); samples = n } in
  let errors = List.length (List.filter (fun r -> Result.is_error r.outcome) runs) in
  let aborts = List.length (List.filter aborted runs) in
  report.Report.attempted <- n;
  report.Report.failed <- errors;
  let qps =
    Stats.median (List.map (fun (k, dt) -> float_of_int k /. dt) passes)
  in
  Report.add report "setup_s" "s" setup_s;
  Report.add report "throughput_qps" "runs/s" qps;
  Report.add report "latency_p50_ms" "ms" (Stats.central_mean lat);
  Report.add report "latency_tail_ms" "ms" tail.Stats.value;
  Report.add report "failed_frac" "ratio" (Stats.ratio (errors + aborts) n);
  Report.add report "peak_rss_mb" "MB" (Report.peak_rss_mb "self");
  Report.note report "latency_tail"
    (Printf.sprintf "p%g over the medians of %d distinct runs, %d runs in all" tail.Stats.pct
       (Hashtbl.length repeats) tail.Stats.samples);
  Report.note report "passes"
    (String.concat " "
       (List.map (fun (k, dt) -> Printf.sprintf "%d runs/%.2fs" k dt) passes))

(* Per-route numbers from a set of runs. *)
let route_metrics report runs ~agm =
  List.iter
    (fun m ->
      let name = Driver.method_name m in
      let mine = List.filter (fun r -> r.meth = m) runs in
      let key k = Printf.sprintf "route.%s.%s" name k in
      if mine <> [] then begin
        Report.add report (key "compile_ms") "ms"
          (Stats.median (List.map (fun r -> ms r.compile_s) mine));
        Report.add report (key "exec_ms") "ms"
          (Stats.median (List.map (fun r -> ms r.exec_s) mine));
        Report.add report (key "abort_frac") "ratio"
          (Stats.ratio (List.length (List.filter aborted mine)) (List.length mine));
        let work =
          List.filter_map
            (fun r ->
              Option.map
                (fun o ->
                  Float.log2 (float_of_int (max 1 o.Driver.tuples_produced))
                  -. agm r.inst)
                (completed r))
            mine
        in
        if work <> [] then
          Report.add report (key "work_log2_agm") "log2" (Stats.median work)
      end)
    all_methods;
  List.iter
    (fun d ->
      Report.add report
        ("route.gate." ^ Ghd.decision_name d)
        "count"
        (float_of_int
           (List.length (List.filter (fun r -> r.gate = Some d) runs))))
    Ghd.[ Bucket; Generic; Ghd ]

let op_names =
  [ "op.scan"; "op.join.hash"; "op.project"; "op.semijoin"; "op.select";
    "op.wcoj.index"; "op.wcoj.join"; "op.ghd.bag"; "op.ghd.enumerate" ]

(* Self time and calls per operator, per traced unit of work. *)
let op_metrics report spans ~units =
  let agg = Trace.aggregate spans in
  List.iter
    (fun name ->
      let self, calls =
        match Hashtbl.find_opt agg name with
        | Some a -> (a.Trace.self, a.Trace.calls)
        | None -> (0., 0)
      in
      let per x = x /. float_of_int (max 1 units) in
      Report.add report (name ^ ".self_ms") "ms" (per (ms self));
      Report.add report (name ^ ".calls") "count" (per (float_of_int calls)))
    op_names;
  agg

let agm_table () =
  let memo = Hashtbl.create 256 in
  fun inst ->
    match Hashtbl.find_opt memo inst.id with
    | Some v -> v
    | None ->
      let v = (Wcoj.Agm.fractional_edge_cover inst.db inst.cq).Wcoj.Agm.bound_log2 in
      Hashtbl.add memo inst.id v;
      v

