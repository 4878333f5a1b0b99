(* The repository's benchmark: one seeded workload per invocation.

     ppr_bench --workload NAME --seed N --seconds S --trace 0|1

   Prints the workload's metrics by name with units, then, as the last
   line, one JSON object {correct, attempted, failed, metrics}. With
   --trace 0 the metrics are the end-to-end ones, from runs with tracing
   off; with --trace 1 they are the per-layer ones, from a separate
   traced run. Any answer mismatch makes the command exit nonzero. *)

let workloads = [ "paper-batch"; "paper-heavy-jobs2"; "serve-hot"; "serve-cold" ]

(* Each of these silently changes the route, planner or pool being
   measured, so the benchmark refuses to run under any of them. *)
let forbidden_env =
  [ "PPR_JOBS"; "PPR_GHD_GATE"; "PPR_WCOJ_GATE"; "PPR_PAR_GRAIN"; "PPR_PLANNER";
    "PPR_BENCH_SCALE" ]

(* BENCHMARK.json at the checkout root names the metrics and their units:
   [end_to_end] for --trace 0, [per_layer] for --trace 1. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let module J = Telemetry.Json in
  match Serve.Jsonl.parse text with
  | Ok j -> (
    match Serve.Wire.field j key with
    | Some (J.List ms) ->
      List.filter_map
        (fun m ->
          match (Serve.Wire.field m "name", Serve.Wire.field m "unit") with
          | Some (J.String n), Some (J.String u) -> Some (n, u)
          | _ -> None)
        ms
    | _ -> failwith ("BENCHMARK.json: no " ^ key))
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let usage () =
  prerr_endline
    "usage: ppr_bench --workload {paper-batch|paper-heavy-jobs2|serve-hot|serve-cold} \
     --seed N --seconds S --trace 0|1 [--ppr PATH]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and ppr = ref "_build/default/bin/ppr.exe" in
  let rec go = function
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | "--ppr" :: p :: rest -> ppr := p; go rest
    | [] -> ()
    | arg :: _ ->
      Printf.eprintf "ppr_bench: unexpected argument %S\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some s, Some trace when List.mem w workloads && s > 0. ->
    (w, seed, s, trace, !ppr)
  | _ -> usage ()

let command_output cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")

(* The revision measured: git's when the tree is a checkout, else a digest
   of the library and CLI sources. *)
let source_rev () =
  match command_output "git rev-parse HEAD 2>/dev/null" with
  | "unknown" ->
    "src:"
    ^ command_output
        "find lib bin -name '*.ml*' -type f | LC_ALL=C sort | xargs cat | \
         md5sum | cut -c1-16"
  | rev -> rev

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Report.name
           (Printf.sprintf "%.17g" m.Report.value)
           m.Report.unit_)
       metrics)

let () =
  let workload, seed, seconds, trace, ppr = parse_args () in
  (* A signal unwinds the run, so the daemon and the spinners it started
     are stopped on the way out. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Report.Interrupted)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  (match List.filter (fun v -> Sys.getenv_opt v <> None) forbidden_env with
  | [] -> ()
  | set ->
    Printf.eprintf "ppr_bench: refusing to run with %s set: %s\n"
      (String.concat ", " set)
      "it changes the route, planner or pool being measured";
    exit 2);
  let nproc = Domain.recommended_domain_count () in
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%b rev=%s nproc=%d ocaml=%s\n%!"
    workload seed seconds trace (source_rev ()) nproc Sys.ocaml_version;
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace_path =
    Printf.sprintf ".perfbench/trace-%s.json" workload
  in
  let report =
    match
      (* Spinners only in the traced run: the gated timings read the CPU
         clock, and a spinner would only cost the workload host time. *)
      (if trace then Idle.with_spinners ~nproc else fun f -> f ()) @@ fun () ->
      match workload with
    | "paper-batch" -> Paper_workload.run Paper.batch ~seed ~seconds ~trace ~trace_path
    | "paper-heavy-jobs2" ->
      Paper_workload.run Paper.heavy ~seed ~seconds ~trace ~trace_path
    | "serve-hot" -> Serve_workload.run Serve_workload.hot ~seed ~seconds ~trace ~trace_path ~ppr ~nproc
    | _ -> Serve_workload.run Serve_workload.cold ~seed ~seconds ~trace ~trace_path ~ppr ~nproc
    with
    | report -> report
    | exception Report.Interrupted ->
      prerr_endline "ppr_bench: interrupted";
      exit 1
  in
  if not trace then Report.note report "reference join" (Calib.summary ());
  let metrics = Report.metrics report in
  List.iter
    (fun m ->
      Printf.printf "%-40s %14.6g %s\n" m.Report.name m.Report.value m.Report.unit_)
    metrics;
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) (List.rev report.Report.notes);
  if trace then Printf.printf "# trace written to %s\n" trace_path;
  List.iter (fun s -> Printf.printf "MISMATCH %s\n" s) (List.rev report.Report.mismatches);
  List.iter (fun s -> Printf.printf "INVALID %s\n" s) (List.rev report.Report.invalid);
  let correct = report.Report.mismatches = [] in
  if not correct then begin
    Printf.printf "ppr_bench: %d answer mismatches\n%!" (List.length report.Report.mismatches);
    exit 1
  end;
  if report.Report.invalid <> [] then begin
    Printf.printf "ppr_bench: run invalid\n%!";
    exit 1
  end;
  (* The declared metrics, in declared order. An end-to-end metric the
     run could not measure fails the run; a per-layer one belongs to a
     layer this workload does not run (or saw no samples), and reads 0. *)
  let gated =
    List.map
      (fun (name, unit_) ->
        match Report.find report name with
        | Some m when Float.is_finite m.Report.value -> { m with Report.unit_ }
        | _ when trace -> { Report.name; value = 0.; unit_ }
        | _ -> failwith ("ppr_bench: no measured value for " ^ name))
      (declared (if trace then "per_layer" else "end_to_end"))
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (max 1 report.Report.attempted) report.Report.failed (json_metrics gated)
