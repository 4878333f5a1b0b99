(* paper-batch and paper-heavy-jobs2, timed and traced. *)

(* Set-up takes about 2 ms, so it is repeated often enough for its median
   to hold still between runs. *)
let setup_reps = 25

let timed spec ~seed ~seconds report =
  let setup_s, insts, pool = Paper.setup spec ~reps:setup_reps in
  let min_passes = spec.Paper.min_passes in
  let runs, passes = Paper.closed_loop ?pool ~min_passes insts ~seed ~seconds in
  let f = Calib.factor () in
  Paper.end_to_end report
    (List.map (Paper.at_speed f) runs)
    ~passes:(List.map (fun (k, dt) -> (k, dt /. f)) passes)
    ~min_passes ~setup_s:(setup_s /. f);
  Option.iter Parallel.Pool.shutdown pool;
  Paper.check report runs

(* The traced run: an untraced closed loop gives the route numbers; its
   runs are then replayed untraced and traced, for operator self time and
   the cost of telemetry. On the jobs=2 workload they are replayed once
   more at jobs=1, traced, so the hash join's self time can be compared
   across the two settings on the very same cells. *)
let traced spec ~seed ~seconds ~trace_path report =
  let _, insts, pool = Paper.setup spec ~reps:1 in
  let runs, _ = Paper.closed_loop ?pool insts ~seed ~seconds:(0.3 *. seconds) in
  report.Report.attempted <- List.length runs;
  Paper.route_metrics report
    (List.map (Paper.at_speed (Calib.factor ())) runs)
    ~agm:(Paper.agm_table ());
  let untraced_runs, wall = Paper.replay ?pool runs in
  let tr = Trace.create ~path:trace_path in
  let traced_runs, traced_wall = Paper.replay ~trace:tr ?pool runs in
  let spans_pool = List.length (tr.Trace.spans ()) in
  let serial_runs =
    match pool with None -> [] | Some _ -> fst (Paper.replay ~trace:tr runs)
  in
  let spans = Trace.finish tr in
  (* [spans] is in close order: the pooled replay's spans come first. *)
  let pooled = List.filteri (fun i _ -> i < spans_pool) spans in
  let agg = Paper.op_metrics report pooled ~units:(List.length traced_runs) in
  let join_self agg =
    match Hashtbl.find_opt agg "op.join.hash" with
    | Some a -> a.Trace.self
    | None -> 0.
  in
  (match pool with
  | Some p ->
    let serial = Trace.aggregate (List.filteri (fun i _ -> i >= spans_pool) spans) in
    Report.add report "parallel.join_ratio" "ratio"
      (join_self agg /. Float.max 1e-9 (join_self serial));
    Parallel.Pool.shutdown p
  | None -> ());
  Report.add report "telemetry.overhead_frac" "ratio" ((traced_wall /. wall) -. 1.);
  Report.note report "traced"
    (Printf.sprintf "%d runs replayed, %d spans" (List.length traced_runs) (List.length spans));
  Paper.check report (runs @ untraced_runs @ traced_runs @ serial_runs)

let run spec ~seed ~seconds ~trace ~trace_path =
  let report = Report.create () in
  if trace then traced spec ~seed ~seconds ~trace_path report
  else timed spec ~seed ~seconds report;
  report
