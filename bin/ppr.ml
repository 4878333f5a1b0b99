(* ppr — command-line driver for the projection-pushing library.

   Subcommands:
     generate    emit a 3-COLOR instance (edge list or DOT)
     sql         print a query's SQL under one of the five schemes
     run         run one or all methods on an instance and report
     treewidth   bounds / exact treewidth of an instance's join graph
     experiment  reproduce one of the paper's figures *)

open Cmdliner

(* Run a subcommand body, turning expected exceptions into clean
   diagnostics instead of "internal error" dumps. *)
let guarded f =
  try f () with
  | Failure msg | Invalid_argument msg ->
    Printf.eprintf "ppr: %s\n" msg;
    exit 1
  | Not_found ->
    Printf.eprintf "ppr: a referenced relation or column does not exist\n";
    exit 1
  | Relalg.Limits.Abort reason ->
    Printf.eprintf "ppr: resource guard tripped — %s\n"
      (Relalg.Limits.describe reason);
    exit 1

(* ------------------------------------------------------------------ *)
(* Shared instance specification.                                      *)

type family =
  | Random
  | Augmented_path
  | Ladder
  | Augmented_ladder
  | Augmented_circular_ladder
  | Pentagon
  | Cycle
  | Clique
  | Sat3
  | Sat2

let family_conv =
  let parse = function
    | "random" -> Ok Random
    | "augmented-path" | "apath" -> Ok Augmented_path
    | "ladder" -> Ok Ladder
    | "augmented-ladder" | "aladder" -> Ok Augmented_ladder
    | "augmented-circular-ladder" | "acladder" -> Ok Augmented_circular_ladder
    | "pentagon" -> Ok Pentagon
    | "cycle" -> Ok Cycle
    | "clique" -> Ok Clique
    | "sat3" | "3sat" -> Ok Sat3
    | "sat2" | "2sat" -> Ok Sat2
    | s -> Error (`Msg (Printf.sprintf "unknown family %S" s))
  in
  let print ppf f =
    Format.pp_print_string ppf
      (match f with
      | Random -> "random"
      | Augmented_path -> "augmented-path"
      | Ladder -> "ladder"
      | Augmented_ladder -> "augmented-ladder"
      | Augmented_circular_ladder -> "augmented-circular-ladder"
      | Pentagon -> "pentagon"
      | Cycle -> "cycle"
      | Clique -> "clique"
      | Sat3 -> "sat3"
      | Sat2 -> "sat2")
  in
  Arg.conv (parse, print)

let family_arg =
  Arg.(
    value
    & opt family_conv Random
    & info [ "family"; "f" ] ~docv:"FAMILY"
        ~doc:
          "Instance family: random, augmented-path, ladder, \
           augmented-ladder, augmented-circular-ladder, cycle, clique, \
           pentagon, sat3, sat2 (for SAT, --order is the variable count \
           and --density the clause ratio).")

let order_arg =
  Arg.(
    value & opt int 10
    & info [ "order"; "n" ] ~docv:"N" ~doc:"Instance order (family parameter).")

let density_arg =
  Arg.(
    value & opt float 3.0
    & info [ "density"; "d" ] ~docv:"D"
        ~doc:"Edge density m/n for random instances.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"Random seed.")

let free_fraction_arg =
  Arg.(
    value & opt float 0.0
    & info [ "free" ] ~docv:"FRACTION"
        ~doc:
          "Fraction of variables kept in the target schema (0 = Boolean \
           query; the paper's non-Boolean setting is 0.2).")

let build_cnf ~k ~order ~density ~seed =
  let rng = Graphlib.Rng.make seed in
  let num_clauses = max 1 (int_of_float (density *. float_of_int order)) in
  Conjunctive.Cnf.random_ksat ~rng ~k ~num_vars:(max k order) ~num_clauses

let build_graph family ~order ~density ~seed =
  let module Gen = Graphlib.Generators in
  match family with
  | Sat3 | Sat2 -> invalid_arg "build_graph: SAT families have no graph"
  | Random ->
    let rng = Graphlib.Rng.make seed in
    let m =
      let wanted = int_of_float (Float.round (density *. float_of_int order)) in
      max 1 (min wanted (order * (order - 1) / 2))
    in
    Gen.random ~rng ~n:order ~m
  | Augmented_path -> Gen.augmented_path order
  | Ladder -> Gen.ladder order
  | Augmented_ladder -> Gen.augmented_ladder order
  | Augmented_circular_ladder -> Gen.augmented_circular_ladder order
  | Pentagon -> Gen.pentagon
  | Cycle -> Gen.cycle order
  | Clique -> Gen.clique order

(* Every subcommand works from a (database, query) pair so the SAT
   families slot in beside the coloring ones. *)
let build_instance family ~order ~density ~seed ~free_fraction =
  let mode =
    if free_fraction <= 0.0 then Conjunctive.Encode.Boolean
    else Conjunctive.Encode.Fraction free_fraction
  in
  let rng = Graphlib.Rng.make (seed + 104729) in
  match family with
  | Sat3 | Sat2 ->
    let k = if family = Sat3 then 3 else 2 in
    let cnf = build_cnf ~k ~order ~density ~seed in
    ( Conjunctive.Encode.sat_database cnf,
      Conjunctive.Encode.sat_query ~mode ~rng cnf )
  | _ ->
    let g = build_graph family ~order ~density ~seed in
    let edges =
      if family = Pentagon then Graphlib.Generators.pentagon_edges
      else Graphlib.Graph.edges g
    in
    ( Conjunctive.Encode.coloring_database (),
      Conjunctive.Encode.coloring_query ~mode ~rng ~edges () )

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of an edge list.")
  in
  let run family order density seed dot =
    match family with
    | Sat3 | Sat2 ->
      let k = if family = Sat3 then 3 else 2 in
      let cnf = build_cnf ~k ~order ~density ~seed in
      Format.printf "%a@." Conjunctive.Cnf.pp cnf
    | _ ->
    let g = build_graph family ~order ~density ~seed in
    if dot then print_string (Graphlib.Dot.graph g)
    else begin
      Printf.printf "# order %d, size %d, density %.3f\n" (Graphlib.Graph.order g)
        (Graphlib.Graph.size g) (Graphlib.Graph.density g);
      List.iter (fun (u, v) -> Printf.printf "%d %d\n" u v) (Graphlib.Graph.edges g)
    end
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a 3-COLOR instance graph.")
    Term.(const run $ family_arg $ order_arg $ density_arg $ seed_arg $ dot)

(* ------------------------------------------------------------------ *)
(* sql                                                                 *)

let method_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:
          "Evaluation method (naive, straightforward, early-projection, \
           reordering, bucket-elimination, minibucket:I, hybrid, wcoj, ghd); \
           the paper's five when omitted. wcoj is the worst-case-optimal generic join, \
           gated per query by the AGM bound; ghd is Yannakakis over a \
           generalized hypertree decomposition, routed per query among \
           bucket elimination, the generic join and GHD-Yannakakis by a \
           three-bound structural gate.")

(* --route forces the ghd method's structural gate. It is checked
   against --method here, so using it with another method is a usage
   error, as an unknown route is. *)
let method_route_arg =
  let route =
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("bucket", Ghd.Bucket); ("generic", Ghd.Generic); ("ghd", Ghd.Ghd) ]))
          None
      & info [ "route" ] ~docv:"ROUTE"
          ~doc:
            "Force the ghd method's structural gate onto ROUTE (bucket, \
             generic or ghd), with no generic-join attempt first: the way \
             to time one route on its own. Requires --method ghd.")
  in
  let check meth route =
    match (route, meth) with
    | None, _ | Some _, Some "ghd" -> `Ok (meth, route)
    | Some _, _ -> `Error (true, "--route requires --method ghd")
  in
  Term.(ret (const check $ method_arg $ route))

let parse_method name =
  match Ppr_core.Driver.method_of_string name with
  | Some m -> m
  | None -> failwith (Printf.sprintf "unknown method %S" name)

let sql_of_method cq meth =
  let rng = Graphlib.Rng.make 17 in
  match meth with
  | Ppr_core.Driver.Naive _ -> Sqlgen.Translate.naive cq
  | Straightforward -> Sqlgen.Translate.straightforward cq
  | Early_projection -> Sqlgen.Translate.early_projection cq
  | Reorder -> Sqlgen.Translate.reordering ~rng cq
  | Bucket_elimination -> Sqlgen.Translate.bucket_elimination ~rng cq
  | m ->
    failwith
      (Printf.sprintf "no SQL translation for method %S" (Ppr_core.Driver.method_name m))

let sql_cmd =
  let run family order density seed free_fraction meth =
    guarded @@ fun () ->
    let _db, cq = build_instance family ~order ~density ~seed ~free_fraction in
    let chosen =
      match meth with
      | Some m -> [ parse_method m ]
      | None -> Ppr_core.Driver.all_paper_methods
    in
    List.iter
      (fun m ->
        Printf.printf "-- %s\n%s\n" (Ppr_core.Driver.method_name m)
          (Sqlgen.Pretty.query (sql_of_method cq m)))
      chosen
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Print the SQL the paper's schemes generate.")
    Term.(
      const run $ family_arg $ order_arg $ density_arg $ seed_arg
      $ free_fraction_arg $ method_arg)

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing shared by run and query.                         *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a hierarchical execution trace (per-operator spans with \
           cardinalities and arities) as Chrome trace-event JSON in FILE; \
           open it with chrome://tracing or https://ui.perfetto.dev.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "After the run, print the metric registry (operator counters, \
           join fan-out histogram, abort tallies) to standard output.")

(* --jobs: degree of parallelism. PPR_JOBS supplies the default so CI
   can matrix the whole test/bench entry points without editing every
   invocation; an explicit flag wins. 0 means one domain per core. A
   negative flag or a PPR_JOBS that is not such a count is a usage
   error (exit 124), not a silent fall back to one domain. *)
let jobs_arg =
  let flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Run with N domains: a large join splits its probe side into \
             ranges that count and fill on separate domains over one shared \
             build index, and experiment sweeps fan their cells/seeds out. \
             1 (the default, or the $(b,PPR_JOBS) environment variable) is \
             strictly sequential; 0 means one domain per core.")
  in
  let check = function
    | Some jobs when jobs >= 0 -> `Ok jobs
    | Some _ -> `Error (true, "--jobs must be 0 or more")
    | None -> (
      match Sys.getenv_opt "PPR_JOBS" with
      | None -> `Ok 1
      | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some jobs when jobs >= 0 -> `Ok jobs
        | _ -> `Error (false, Printf.sprintf "PPR_JOBS=%S is not a count of domains (0 or more)" s)))
  in
  Term.(ret (const check $ flag))

(* A count option: an integer of at least [least], anything else a
   usage error. *)
let count_conv ~least =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= least -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" least s))
  in
  Arg.conv (parse, Format.pp_print_int)

let make_pool jobs =
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  if jobs <= 1 then None else Some (Parallel.Pool.create ~num_domains:jobs ())

(* --planner: the order search the naive method uses above its DP
   threshold. PPR_PLANNER supplies the default; an explicit flag wins.
   'genetic' is the built-in default; 'gradient' is the adaptive
   layer's gradient-guided search (registered at startup). *)
let default_planner =
  match Sys.getenv_opt "PPR_PLANNER" with
  | Some s when String.trim s <> "" -> Some (String.trim s)
  | _ -> None

let planner_arg =
  Arg.(
    value
    & opt (some string) default_planner
    & info [ "planner" ] ~docv:"NAME"
        ~doc:
          "Join-order search for the naive method's large queries (above \
           its DP threshold): 'genetic' (the default) or 'gradient' \
           (gradient-guided search over the same left-deep plan space). \
           Defaults to the $(b,PPR_PLANNER) environment variable.")

(* Build a telemetry context from the flags, hand it to the body, and
   flush it afterwards — also when the body raises, so aborted runs
   still leave a well-formed trace behind. *)
let with_telemetry ~trace ~metrics f =
  if trace = None && not metrics then f None
  else begin
    let oc = Option.map open_out trace in
    let sink =
      match oc with
      | Some oc -> Telemetry.Sink.chrome oc
      | None -> Telemetry.Sink.null
    in
    let t = Telemetry.create sink in
    Fun.protect
      ~finally:(fun () ->
        Telemetry.close t;
        Option.iter close_out oc;
        Option.iter
          (fun file -> Printf.eprintf "ppr: trace written to %s\n%!" file)
          trace;
        if metrics then
          Format.printf "%a@." Telemetry.Metrics.pp (Telemetry.metrics t))
      (fun () -> f (Some t))
  end

(* ------------------------------------------------------------------ *)
(* run                                                                 *)

let run_cmd =
  let max_tuples =
    Arg.(
      value & opt int 2_000_000
      & info [ "max-tuples" ] ~docv:"N"
          ~doc:"Abort when an intermediate relation exceeds N tuples.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Abort a method once it has run for SECONDS of wall clock.")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:"Abort a method after it has executed N operators.")
  in
  let ladder =
    Arg.(
      value & flag
      & info [ "ladder" ]
          ~doc:
            "On abort, retry down the graceful-degradation ladder \
             (e.g. bucket elimination falls back to mini-bucket, \
             reordering, then the straightforward plan) and print the \
             per-attempt report.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Inject a deterministic fault into the first attempt: 'op:N' \
             aborts when the N-th operator starts, 'tuples:K' after K \
             charged tuples, 'seed:S' at an operator drawn from seed S, \
             'stall:N:SECONDS' ('stall-tuples:K:SECONDS') sleeps at the \
             trigger instead so a deadline fires. Combine with --ladder \
             to watch the rescue.")
  in
  let parse_chaos spec =
    match Serve.Engine.chaos_of_spec spec with
    | Some c -> c
    | None ->
      failwith
        (Printf.sprintf
           "bad --chaos spec %S (want op:N, tuples:K, seed:S, \
            stall:N:SECONDS or stall-tuples:K:SECONDS)"
           spec)
  in
  let run family order density seed free_fraction (meth, route) max_tuples
      deadline fuel use_ladder chaos trace metrics jobs planner =
    guarded @@ fun () ->
    let pool = make_pool jobs in
    with_telemetry ~trace ~metrics @@ fun telemetry ->
    let db, cq = build_instance family ~order ~density ~seed ~free_fraction in
    Format.printf "query: %d atoms, %d variables, %d free@." (Conjunctive.Cq.atom_count cq)
      (Conjunctive.Cq.var_count cq)
      (List.length cq.Conjunctive.Cq.free);
    let methods =
      List.map
        (Ppr_core.Driver.apply_planner planner)
        (match meth with
        | Some m -> [ parse_method m ]
        | None -> Ppr_core.Driver.all_paper_methods)
    in
    let chaos = Option.map parse_chaos chaos in
    let budget =
      let b =
        Supervise.Budget.with_max_cardinality max_tuples
          Supervise.Budget.default
      in
      let b =
        match deadline with
        | Some s -> Supervise.Budget.with_deadline s b
        | None -> b
      in
      match fuel with Some n -> Supervise.Budget.with_fuel n b | None -> b
    in
    List.iter
      (fun m ->
        let rng = Graphlib.Rng.make (seed + 31) in
        if use_ladder then begin
          (* Rung 0 runs the forced route; deeper rungs are other
             methods. *)
          let compiled =
            Option.map
              (fun route -> Ppr_core.Driver.prepare ~rng ~route m db cq)
              route
          in
          let report =
            Supervise.run ~rng ~budget ?chaos ?compiled
              ~ctx:(Relalg.Ctx.create ?telemetry ?pool ())
              m db cq
          in
          Format.printf "%a" Supervise.pp_report report
        end
        else begin
          let limits = Supervise.Budget.to_limits budget in
          (match chaos with
          | Some c -> Supervise.Chaos.arm c ~attempt:0 limits
          | None -> ());
          let outcome =
            Ppr_core.Driver.run ~rng ?route
              ~ctx:(Relalg.Ctx.create ~limits ?telemetry ?pool ())
              m db cq
          in
          Format.printf "%a@." Ppr_core.Driver.pp_outcome outcome
        end)
      methods
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run evaluation methods on an instance and report.")
    Term.(
      const run $ family_arg $ order_arg $ density_arg $ seed_arg
      $ free_fraction_arg $ method_route_arg $ max_tuples $ deadline $ fuel
      $ ladder $ chaos $ trace_arg $ metrics_arg $ jobs_arg $ planner_arg)

(* ------------------------------------------------------------------ *)
(* treewidth                                                           *)

let treewidth_cmd =
  let exact_flag =
    Arg.(value & flag & info [ "exact" ] ~doc:"Also compute the exact treewidth (exponential).")
  in
  let dot_flag =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Emit the join graph and its heuristic tree decomposition as DOT.")
  in
  let run family order density seed free_fraction exact dot =
    guarded @@ fun () ->
    let _db, cq = build_instance family ~order ~density ~seed ~free_fraction in
    let jg = Conjunctive.Joingraph.build cq in
    let g = jg.Conjunctive.Joingraph.graph in
    if dot then begin
      print_string (Graphlib.Dot.graph ~name:"join_graph" g);
      let td =
        Graphlib.Treedec.of_elimination_order g (Graphlib.Treewidth.best_order g)
      in
      print_string (Graphlib.Dot.tree_decomposition ~name:"decomposition" td)
    end;
    Printf.printf "join graph: %d vertices, %d edges\n" (Graphlib.Graph.order g)
      (Graphlib.Graph.size g);
    Printf.printf "treewidth lower bound (degeneracy): %d\n"
      (Graphlib.Treewidth.lower_bound g);
    Printf.printf "treewidth upper bound (best heuristic): %d\n"
      (Graphlib.Treewidth.upper_bound g);
    let order_mcs = Conjunctive.Joingraph.mcs_variable_order cq in
    Printf.printf "bucket-elimination induced width (MCS order): %d\n"
      (Ppr_core.Bucket.induced_width cq order_mcs);
    if exact then
      match Graphlib.Treewidth.exact g with
      | Some tw ->
        Printf.printf "exact treewidth: %d (join width %d by Theorem 1)\n" tw (tw + 1)
      | None -> Printf.printf "exact treewidth: graph too large\n"
  in
  Cmd.v
    (Cmd.info "treewidth" ~doc:"Treewidth bounds of an instance's join graph.")
    Term.(
      const run $ family_arg $ order_arg $ density_arg $ seed_arg
      $ free_fraction_arg $ exact_flag $ dot_flag)

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let run family order density seed free_fraction meth =
    guarded @@ fun () ->
    let db, cq = build_instance family ~order ~density ~seed ~free_fraction in
    let meth =
      Option.fold ~none:Ppr_core.Driver.Bucket_elimination ~some:parse_method meth
    in
    let plan = Ppr_core.Driver.compile ~rng:(Graphlib.Rng.make (seed + 31)) meth db cq in
    let node, result = Ppr_core.Explain.analyze db plan in
    print_string (Ppr_core.Explain.render node);
    Printf.printf "result: %d tuples\n" (Relalg.Relation.cardinality result);
    match Ppr_core.Explain.largest_misestimate node with
    | Some (worst, ratio) ->
      Printf.printf "largest misestimate (%.1fx): %s\n" ratio
        worst.Ppr_core.Explain.description
    | None -> Printf.printf "all estimates exact\n"
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Run a plan and show per-operator statistics.")
    Term.(
      const run $ family_arg $ order_arg $ density_arg $ seed_arg
      $ free_fraction_arg $ method_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let figure_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIGURE"
          ~doc:
            ("Figure to reproduce: "
            ^ String.concat ", " Experiments.Figures.names
            ^ "."))
  in
  let scale_arg =
    Arg.(value & opt float 0.7 & info [ "scale" ] ~docv:"S" ~doc:"Instance-size scale.")
  in
  let seeds_arg =
    Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per cell (median).")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Also write machine-readable rows to FILE.")
  in
  let meth_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "method"; "m" ] ~docv:"METHOD"
          ~doc:
            "Restrict the standard panels' method columns: 'wcoj' keeps the \
             four baselines plus the generic join, 'ghd' the four baselines \
             plus GHD-Yannakakis (all six columns when omitted), a baseline \
             name reproduces the paper's original four-column panels.")
  in
  let run figure scale seeds csv jobs meth =
    (match meth with
    | Some m -> (
      try Experiments.Figures.restrict_methods m
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
    | None -> ());
    Experiments.Sweep.set_pool (make_pool jobs);
    let channel = Option.map open_out csv in
    Experiments.Sweep.set_csv_channel channel;
    Fun.protect
      ~finally:(fun () -> Option.iter close_out channel)
      (fun () ->
        match Experiments.Figures.by_name figure with
        | Some f -> f ~scale ~seeds
        | None ->
          Printf.eprintf "unknown figure %S; available: %s\n" figure
            (String.concat ", " Experiments.Figures.names);
          exit 2)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's figures.")
    Term.(
      const run $ figure_arg $ scale_arg $ seeds_arg $ csv_arg $ jobs_arg
      $ meth_arg)

(* ------------------------------------------------------------------ *)
(* query: run an arbitrary Datalog-style query                         *)

let query_cmd =
  let query_text =
    Arg.(
      value
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"RULE"
          ~doc:"The query, e.g. 'ok(X) :- edge(X,Y), edge(Y,X).'")
  in
  let query_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Read the query from a file.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:
            "Directory of <relation>.tsv files (see Relalg.Io); defaults \
             to the built-in 3-COLOR edge relation.")
  in
  let sql_flag =
    Arg.(value & flag & info [ "show-sql" ] ~doc:"Also print the SQL of the plan.")
  in
  let limit_arg =
    Arg.(
      value
      & opt (some (count_conv ~least:1)) None
      & info [ "limit"; "k" ] ~docv:"K"
          ~doc:
            "Stream the answer and stop after $(docv) tuples — on \
             enumeration-friendly routes the work is proportional to the \
             page, not the full result.")
  in
  let rank_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rank" ] ~docv:"SPEC"
          ~doc:
            "Rank answers by a per-attribute score: a comma-separated list \
             of NAME or NAME:WEIGHT over the free variables (weight \
             defaults to 1). Tuples are ordered by ascending weighted sum \
             (negative weights for descending attributes) with a \
             deterministic tiebreak; combined with --limit this is a \
             heap-based top-k over the stream.")
  in
  let page_arg =
    Arg.(
      value & opt (count_conv ~least:0) 0
      & info [ "page" ] ~docv:"N"
          ~doc:"With --limit, show the 0-based $(docv)-th page.")
  in
  (* "X:2,Y:-1" -> ascending weighted-sum comparator over head-order
     tuples, with a full-tuple tiebreak so output order is total. *)
  let rank_of_spec ~namer ~free spec =
    let resolve name =
      match List.find_index (fun v -> String.equal (namer v) name) free with
      | Some pos -> pos
      | None ->
        failwith
          (Printf.sprintf "--rank: %S is not a free variable of the query"
             name)
    in
    let terms =
      List.map
        (fun part ->
          match String.split_on_char ':' (String.trim part) with
          | [ name ] -> (resolve name, 1.0)
          | [ name; w ] -> (
            match float_of_string_opt w with
            | Some w -> (resolve name, w)
            | None -> failwith (Printf.sprintf "--rank: bad weight %S" w))
          | _ -> failwith (Printf.sprintf "--rank: bad term %S" part))
        (String.split_on_char ',' spec)
    in
    if terms = [] then failwith "--rank: empty spec";
    let score tup =
      List.fold_left
        (fun acc (pos, w) ->
          acc +. (w *. float_of_int (Relalg.Tuple.get tup pos)))
        0.0 terms
    in
    fun a b ->
      match Float.compare (score a) (score b) with
      | 0 -> Relalg.Tuple.compare a b
      | c -> c
  in
  let run query_text query_file data_dir (meth, route) show_sql limit rank page
      trace metrics jobs planner =
    guarded @@ fun () ->
    let pool = make_pool jobs in
    with_telemetry ~trace ~metrics @@ fun telemetry ->
    let source =
      match (query_text, query_file) with
      | Some q, None -> q
      | None, Some path ->
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      | _ ->
        prerr_endline "query: give exactly one of --query or --file";
        exit 2
    in
    let parsed = Conjunctive.Parse.query_exn source in
    let db =
      match data_dir with
      | Some dir -> Conjunctive.Database.load_dir dir
      | None -> Conjunctive.Encode.coloring_database ()
    in
    let cq = parsed.Conjunctive.Parse.query in
    let meth =
      Ppr_core.Driver.apply_planner planner
        (Option.fold ~none:Ppr_core.Driver.Bucket_elimination ~some:parse_method meth)
    in
    let ctx = Relalg.Ctx.create ?telemetry ?pool () in
    let head_name = parsed.Conjunctive.Parse.head_name in
    let namer = parsed.Conjunctive.Parse.namer in
    let free = cq.Conjunctive.Cq.free in
    let print_row tup =
      Printf.printf "  %s\n"
        (String.concat ", " (List.map string_of_int (Relalg.Tuple.to_list tup)))
    in
    let streamed = limit <> None || rank <> None in
    (* Page P of size K is the driver's first (P+1)*K delivered tuples,
       less the first P*K. *)
    let want, skip =
      match limit with
      | None when page > 0 -> failwith "--page requires --limit"
      | None -> (None, 0)
      | Some k when page >= max_int / k ->
        failwith "--page: (page + 1) * limit overflows"
      | Some k -> (Some ((page + 1) * k), page * k)
    in
    let compiled =
      if not show_sql then None
      else if streamed then begin
        prerr_endline "query: --show-sql is ignored when streaming";
        None
      end
      else begin
        let compiled = Ppr_core.Driver.prepare ?route meth db cq in
        (match Ppr_core.Exec.route db cq compiled with
        | Ppr_core.Exec.Binary plan ->
          print_string
            (Sqlgen.Pretty.query (Sqlgen.Translate.of_plan ~namer cq plan))
        (* The generic join and the decomposition replace the whole plan
           tree: there is no binary plan to print SQL for. *)
        | Ppr_core.Exec.Generic _ ->
          prerr_endline
            "query: --show-sql is not available: the gate picked the generic join"
        | Ppr_core.Exec.Decomposition _ ->
          prerr_endline
            "query: --show-sql is not available: the gate picked the decomposition");
        Some compiled
      end
    in
    let outcome =
      Ppr_core.Driver.run ?compiled ?route ~ctx ?limit:want
        ?rank:(Option.map (rank_of_spec ~namer ~free) rank)
        meth db cq
    in
    Option.iter
      (fun reason -> raise (Relalg.Limits.Abort reason))
      (Ppr_core.Driver.abort_reason outcome);
    let result = Option.get outcome.Ppr_core.Driver.result in
    (match free with
    | [] ->
      Printf.printf "%s: %b\n" head_name (not (Relalg.Relation.is_empty result))
    | free_vars when streamed ->
      (* Delivery order: stream order, or ascending rank. *)
      let rows = max 0 (Relalg.Relation.cardinality result - skip) in
      Printf.printf "%s(%s): %d answer%s%s%s\n" head_name
        (String.concat ", " (List.map namer free_vars))
        rows
        (if rows = 1 then "" else "s")
        (if page > 0 then Printf.sprintf " (page %d)" page else "")
        (if outcome.Ppr_core.Driver.complete then "" else ", more available");
      let i = ref 0 in
      Relalg.Relation.iter
        (fun tup ->
          if !i >= skip then print_row tup;
          incr i)
        result
    | free_vars ->
      Printf.printf "%s(%s): %d answers\n" head_name
        (String.concat ", " (List.map namer free_vars))
        (Relalg.Relation.cardinality result);
      (* Sorted in head order, so every route lists the same rows. *)
      List.iter print_row (Relalg.Relation.to_sorted_list_in result free_vars));
    if streamed then begin
      (* In microseconds: on the built-in database every delay is far
         below a millisecond. *)
      let micros s = Printf.sprintf "%.0fus" (s *. 1e6) in
      Printf.printf "prepared in %s; first answer in %s; page served in %s\n"
        (micros outcome.Ppr_core.Driver.compile_seconds)
        (Option.fold ~none:"-" ~some:micros
           outcome.Ppr_core.Driver.first_answer_seconds)
        (Option.fold ~none:"-" ~some:micros outcome.Ppr_core.Driver.time_to_k)
    end
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run a Datalog-style project-join query.")
    Term.(
      const run $ query_text $ query_file $ data_dir $ method_route_arg $ sql_flag
      $ limit_arg $ rank_arg $ page_arg $ trace_arg $ metrics_arg $ jobs_arg
      $ planner_arg)

(* ------------------------------------------------------------------ *)
(* acyclic: hypergraph structure report                                *)

let acyclic_cmd =
  let run family order density seed free_fraction =
    guarded @@ fun () ->
    let db, cq = build_instance family ~order ~density ~seed ~free_fraction in
    let hg = Hypergraphs.Hypergraph.of_query cq in
    let acyclic = Hypergraphs.Gyo.is_acyclic hg in
    Printf.printf "hypergraph: %d vertices, %d hyperedges\n"
      (Hypergraphs.Hypergraph.vertex_count hg)
      (Hypergraphs.Hypergraph.edge_count hg);
    Printf.printf "alpha-acyclic (GYO): %b\n" acyclic;
    let ghw, _ = Hypergraphs.Hypertree.ghw_upper_bound hg in
    Printf.printf "generalized hypertree width (heuristic upper bound): %d\n" ghw;
    if acyclic then begin
      let t0 = Unix.gettimeofday () in
      match Hypergraphs.Yannakakis.evaluate db cq with
      | Some result ->
        Printf.printf "Yannakakis: %d answers in %.4fs\n"
          (Relalg.Relation.cardinality result)
          (Unix.gettimeofday () -. t0)
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "acyclic"
       ~doc:"GYO acyclicity, hypertree width, and Yannakakis evaluation.")
    Term.(
      const run $ family_arg $ order_arg $ density_arg $ seed_arg
      $ free_fraction_arg)

(* ------------------------------------------------------------------ *)
(* minimize                                                            *)

let minimize_cmd =
  let run family order density seed free_fraction =
    guarded @@ fun () ->
    let _db, cq = build_instance family ~order ~density ~seed ~free_fraction in
    Format.printf "query:  %a@." Conjunctive.Cq.pp cq;
    let t0 = Unix.gettimeofday () in
    let core, removed = Minimize.Core_of.minimize cq in
    Format.printf "core:   %a@." Conjunctive.Cq.pp core;
    Printf.printf "removed %d of %d atoms in %.4fs\n" removed
      (Conjunctive.Cq.atom_count cq)
      (Unix.gettimeofday () -. t0)
  in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:"Compute the Chandra-Merlin core of an instance's query.")
    Term.(
      const run $ family_arg $ order_arg $ density_arg $ seed_arg
      $ free_fraction_arg)

(* ------------------------------------------------------------------ *)
(* serve: the query daemon                                             *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix socket at PATH (default ppr.sock).")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on TCP PORT instead of a Unix socket (0 = any).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"TCP bind address.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "data" ] ~docv:"DIR"
          ~doc:
            "Directory of <relation>.tsv files to serve (see Relalg.Io); \
             defaults to the built-in 3-COLOR edge relation.")
  in
  let workers_arg =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.workers
      & info [ "workers" ] ~docv:"N" ~doc:"Worker domains running sessions.")
  in
  let queue_arg =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: further queries are shed with a typed \
             'overloaded' response instead of queueing without limit.")
  in
  let cache_arg =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.cache_capacity
      & info [ "plan-cache" ] ~docv:"N"
          ~doc:"Plan-cache capacity (compiled artifacts, LRU).")
  in
  let cache_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-file" ] ~docv:"PATH"
          ~doc:
            "Persist the plan cache: restore compiled artifacts from PATH \
             on start and snapshot them back on drained shutdown, so a \
             restarted daemon skips re-planning warm queries. Snapshots \
             from a different ppr binary are ignored.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline, counted from admission (time \
             spent queued burns it). Requests may override, up to \
             --max-deadline-ms.")
  in
  let max_deadline_arg =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.max_deadline_ms
      & info [ "max-deadline-ms" ] ~docv:"MS"
          ~doc:"Cap on any requested deadline.")
  in
  let max_tuples_arg =
    Arg.(
      value & opt int
          Serve.Engine.default_config.Serve.Engine.budget
            .Supervise.Budget.max_cardinality
      & info [ "max-tuples" ] ~docv:"N"
          ~doc:"Per-intermediate-relation tuple cap (base budget).")
  in
  let cursor_capacity_arg =
    Arg.(
      value & opt int Serve.Engine.default_config.Serve.Engine.cursor_capacity
      & info [ "cursor-capacity" ] ~docv:"N"
          ~doc:
            "Parked-pagination-cursor bound (LRU): parking one more              evicts the least-recently-used session, whose next              continuation request gets a typed 'cursor-expired' error.")
  in
  let feedback_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "feedback-file" ] ~docv:"PATH"
          ~doc:
            "Persist the adaptive feedback store: restore learned \
             cardinality corrections from PATH on start and snapshot them \
             back on drained shutdown, so a restarted daemon plans with \
             what it already measured. Snapshots from a different ppr \
             binary are ignored.")
  in
  let warm_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "warm" ] ~docv:"FILE"
          ~doc:
            "Replay newline-delimited queries (each 'METHOD<TAB>QUERY' or \
             just a query) through the planner and one bounded execution \
             before accepting connections, seeding the plan cache and the \
             feedback store. Blank lines and '#' comments are skipped.")
  in
  let max_cost_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-cost-log2" ] ~docv:"C"
          ~doc:
            "Cost-aware admission: shed a query (typed 'shed-cost') when \
             the structural gate's cost estimate — a lower bound on any \
             evaluation route's work, in log2 tuples — exceeds C. Unset \
             disables the gate.")
  in
  let max_queue_cost_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-queue-cost-log2" ] ~docv:"C"
          ~doc:
            "Shed a query (typed 'shed-cost') when admitting it would push \
             the backlog's aggregate estimated cost past C log2 tuples. \
             Only guards a nonempty queue, so an affordable query is never \
             permanently unservable.")
  in
  let client_quota_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "client-quota" ] ~docv:"N"
          ~doc:
            "Shed a client's queries (typed 'shed-quota') while it already \
             has N jobs queued; other clients are unaffected. Unset leaves \
             only the global --queue-depth bound.")
  in
  let no_batching_arg =
    Arg.(
      value & flag
      & info [ "no-batching" ]
          ~doc:
            "Disable coalescing of identical canonical queries admitted \
             together into one shared execution.")
  in
  let run socket port host data_dir workers queue_depth cache cache_file
      deadline_ms max_deadline_ms max_tuples cursor_capacity jobs
      feedback_file warm_file planner max_cost_log2 max_queue_cost_log2
      client_quota no_batching =
    guarded @@ fun () ->
    let pool = make_pool jobs in
    let db =
      match data_dir with
      | Some dir -> Conjunctive.Database.load_dir dir
      | None -> Conjunctive.Encode.coloring_database ()
    in
    let address =
      match (port, socket) with
      | Some p, None -> Serve.Server.Tcp (host, p)
      | Some _, Some _ ->
        prerr_endline "serve: give at most one of --socket and --port";
        exit 2
      | None, socket ->
        Serve.Server.Unix_socket (Option.value socket ~default:"ppr.sock")
    in
    let warm =
      match warm_file with
      | None -> []
      | Some path ->
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec collect acc =
              match input_line ic with
              | line -> collect (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            collect [])
    in
    let config =
      {
        Serve.Engine.default_config with
        Serve.Engine.workers;
        queue_depth;
        cache_capacity = cache;
        cache_file;
        feedback_file;
        planner;
        warm;
        default_deadline_ms = deadline_ms;
        max_deadline_ms;
        cursor_capacity;
        max_cost_log2;
        max_queue_cost_log2;
        client_quota;
        batching = not no_batching;
        budget =
          Supervise.Budget.with_max_cardinality max_tuples
            Serve.Engine.default_config.Serve.Engine.budget;
      }
    in
    (* SIGTERM/SIGINT drain: stop admitting, answer everything already
       queued, then exit — in-flight clients never see a dropped
       session. Sys.set_signal handlers are unreliable while the main
       thread blocks in Thread.join, so the daemon masks both signals
       everywhere (worker domains and connection threads inherit the
       mask) and parks one thread in sigwait. A second signal skips the
       drain. *)
    let signals = [ Sys.sigterm; Sys.sigint ] in
    ignore (Thread.sigmask Unix.SIG_BLOCK signals);
    let server = Serve.Server.start ~config ?pool ~db address in
    ignore
      (Thread.create
         (fun () ->
           ignore (Thread.wait_signal signals);
           Serve.Server.request_stop server;
           ignore (Thread.wait_signal signals);
           prerr_endline "ppr: second signal, exiting without draining";
           exit 130)
         ());
    Printf.printf
      "ppr: serving %s on %s (workers=%d queue=%d cache=%d warmed=%d)\n%!"
      (match data_dir with Some d -> d | None -> "built-in 3-COLOR data")
      (Format.asprintf "%a" Serve.Server.pp_address
         (Serve.Server.bound_address server))
      workers queue_depth cache
      (Serve.Engine.warmed (Serve.Server.engine server));
    Serve.Server.wait server;
    Format.printf "%a@." Telemetry.Metrics.pp
      (Serve.Engine.metrics (Serve.Server.engine server))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant query daemon (line-delimited JSON over a \
          Unix socket or TCP; see docs/INTERNALS.md for the protocol).")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ data_dir $ workers_arg
      $ queue_arg $ cache_arg $ cache_file_arg $ deadline_arg
      $ max_deadline_arg $ max_tuples_arg $ cursor_capacity_arg $ jobs_arg
      $ feedback_file_arg $ warm_arg $ planner_arg $ max_cost_arg
      $ max_queue_cost_arg $ client_quota_arg $ no_batching_arg)

(* ------------------------------------------------------------------ *)

let setup_logs () =
  (* PPR_LOG=debug|info|warning enables diagnostic logging. *)
  Logs.set_reporter (Logs.format_reporter ());
  match Sys.getenv_opt "PPR_LOG" with
  | Some "debug" -> Logs.set_level (Some Logs.Debug)
  | Some "info" -> Logs.set_level (Some Logs.Info)
  | Some "warning" -> Logs.set_level (Some Logs.Warning)
  | _ -> Logs.set_level None

let () =
  setup_logs ();
  Adapt.Grad.register ();
  let info =
    Cmd.info "ppr" ~version:"1.0.0"
      ~doc:"Structural join optimization: projection pushing revisited."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; sql_cmd; run_cmd; query_cmd; serve_cmd;
            treewidth_cmd; acyclic_cmd; explain_cmd; minimize_cmd;
            experiment_cmd;
          ]))
