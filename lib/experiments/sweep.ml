type sample = {
  seconds : float;
  status : Ppr_core.Driver.status;  (* of the final attempt *)
  rescued : bool;
  nonempty : bool option;
  plan_width : int;
  max_arity : int;
}

type cell = {
  median_seconds : float;
  abort_fraction : float;
  abort_breakdown : (string * float) list;
  rescued_fraction : float;
  nonempty_fraction : float;
  median_plan_width : int;
  median_max_arity : int;
}

let aborted s =
  match s.status with
  | Ppr_core.Driver.Completed -> false
  | Ppr_core.Driver.Aborted _ -> true

let median values =
  match List.sort Stdlib.compare values with
  | [] -> invalid_arg "Sweep.median: empty"
  | sorted ->
    let n = List.length sorted in
    let nth i = List.nth sorted i in
    if n mod 2 = 1 then nth (n / 2)
    else (nth ((n / 2) - 1) +. nth (n / 2)) /. 2.0

let int_median values =
  int_of_float (median (List.map float_of_int values))

let aggregate samples =
  let n = List.length samples in
  let aborts = List.filter aborted samples in
  let finished = List.filter (fun s -> not (aborted s)) samples in
  let nonempty_count =
    List.length (List.filter (fun s -> s.nonempty = Some true) finished)
  in
  let breakdown =
    (* Fraction of all samples whose final attempt died for each reason,
       sorted by label for stable output. *)
    let tally = Hashtbl.create 7 in
    List.iter
      (fun s ->
        match s.status with
        | Ppr_core.Driver.Completed -> ()
        | Ppr_core.Driver.Aborted a ->
          let label = Relalg.Limits.reason_label a.Ppr_core.Driver.reason in
          Hashtbl.replace tally label
            (1 + Option.value ~default:0 (Hashtbl.find_opt tally label)))
      samples;
    Hashtbl.fold
      (fun label count acc ->
        (label, float_of_int count /. float_of_int n) :: acc)
      tally []
    |> List.sort Stdlib.compare
  in
  {
    median_seconds =
      median
        (List.map (fun s -> if aborted s then infinity else s.seconds) samples);
    abort_fraction = float_of_int (List.length aborts) /. float_of_int n;
    abort_breakdown = breakdown;
    rescued_fraction =
      float_of_int (List.length (List.filter (fun s -> s.rescued) samples))
      /. float_of_int n;
    nonempty_fraction =
      (if finished = [] then 0.0
       else float_of_int nonempty_count /. float_of_int (List.length finished));
    median_plan_width = int_median (List.map (fun s -> s.plan_width) samples);
    median_max_arity = int_median (List.map (fun s -> s.max_arity) samples);
  }

(* Experiment-wide domain pool, installed by the CLI alongside the CSV
   channel: the figure drivers call into Sweep without a context, so the
   pool travels the same way. A context with its own pool takes
   precedence. *)
let pool = ref (None : Parallel.Pool.t option)
let set_pool p = pool := p

(* Adaptive grain: fanning a batch across domains pays a fixed wakeup
   and bookkeeping cost, so a batch of cheap cells runs slower parallel
   than sequential. The first item is the probe — it runs inline and is
   timed, and the remainder fans out only when the measured per-item
   cost times the remaining count clears the pool's advisory grain,
   read as a work budget of [grain] × 100ns (the default 16384 ≈ 1.6ms,
   see {!Parallel.Pool.create}). *)
let adaptive_map p f = function
  | [] -> []
  | [ x ] -> [ f x ]
  | probe :: rest ->
    let t0 = Unix.gettimeofday () in
    let y = f probe in
    let dt = Unix.gettimeofday () -. t0 in
    let budget = float_of_int (Parallel.Pool.grain p) *. 1e-7 in
    if dt *. float_of_int (List.length rest) >= budget then
      y :: Parallel.Pool.map p f rest
    else y :: List.map f rest

let map_cells f xs =
  match !pool with
  | Some p when not (Parallel.Pool.current_is_worker ()) -> adaptive_map p f xs
  | _ -> List.map f xs

(* Fan a per-seed function across the pool. Telemetry is the one context
   ingredient that is not domain-safe (a single open-span stack), so
   instrumented runs stay sequential. *)
let map_seeds ctx f seeds =
  let chosen =
    match Relalg.Ctx.pool ctx with Some p -> Some p | None -> !pool
  in
  match chosen with
  | Some p when Option.is_none (Relalg.Ctx.telemetry ctx) ->
    adaptive_map p f seeds
  | _ -> List.map f seeds

let run_cell ?(limits_factory = fun () -> Relalg.Limits.create ()) ?ladder
    ?budget ?feedback ?observer ?(ctx = Relalg.Ctx.null) ~seeds ~instance
    ~meth () =
  let run_one seed =
    let db, cq = instance ~seed in
    let rng = Graphlib.Rng.make (seed * 7919) in
    match ladder with
    | None ->
      let outcome =
        Ppr_core.Driver.run ~rng ?feedback ?observer
          ~ctx:(Relalg.Ctx.with_limits ctx (limits_factory ()))
          meth db cq
      in
      {
        seconds =
          outcome.Ppr_core.Driver.compile_seconds
          +. outcome.Ppr_core.Driver.exec_seconds;
        status = outcome.Ppr_core.Driver.status;
        rescued = false;
        nonempty = Ppr_core.Driver.nonempty outcome;
        plan_width = outcome.Ppr_core.Driver.plan_width;
        max_arity = outcome.Ppr_core.Driver.max_arity;
      }
    | Some ladder ->
      let budget = Option.value budget ~default:Supervise.Budget.default in
      let report =
        Supervise.run ~rng ?feedback ?observer ~budget ~ladder ~ctx meth db cq
      in
      let final =
        match (report.Supervise.result, List.rev report.Supervise.attempts) with
        | Some outcome, _ -> outcome
        | None, last :: _ -> last.Supervise.outcome
        | None, [] -> assert false (* run always makes at least one attempt *)
      in
      {
        seconds = report.Supervise.total_seconds;
        status = final.Ppr_core.Driver.status;
        rescued = report.Supervise.rescued;
        nonempty = Ppr_core.Driver.nonempty final;
        plan_width = final.Ppr_core.Driver.plan_width;
        max_arity = final.Ppr_core.Driver.max_arity;
      }
  in
  aggregate (map_seeds ctx run_one seeds)

let column_width = 16

(* Optional machine-readable sinks; the header/columns of the panel being
   printed are remembered so rows can be attributed.

   All of this is shared mutable state, and with a pool installed the
   figure drivers run cells — and, in principle, whole rows — on worker
   domains. One mutex serializes every emission: a row's table line and
   CSV line(s) happen as one atomic section, so a CSV written under
   [--jobs N] is a row-permutation of the sequential one rather than an
   interleaving of half-written lines. *)
let sink_mutex = Mutex.create ()
let locked f = Mutex.protect sink_mutex f
let csv_channel = ref None
let csv_header_written = ref false
let current_panel = ref ("", ([] : string list))

let set_csv_channel ch =
  locked (fun () ->
      csv_channel := ch;
      csv_header_written := false)

(* RFC 4180: a field containing a separator, a quote, or a line break
   must be quoted — an embedded newline in a panel title would otherwise
   split one logical row across two physical lines. *)
let csv_escape s =
  let needs_quoting = function ',' | '"' | '\n' | '\r' -> true | _ -> false in
  if String.exists needs_quoting s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let breakdown_string cell =
  String.concat "|"
    (List.map
       (fun (label, f) -> Printf.sprintf "%s:%.3f" label f)
       cell.abort_breakdown)

let csv_row ~x cells =
  match !csv_channel with
  | None -> ()
  | Some oc ->
    if not !csv_header_written then begin
      output_string oc
        "panel,x,method,median_seconds,abort_fraction,abort_reasons,\
         rescued_fraction,nonempty_fraction,plan_width,measured_width\n";
      csv_header_written := true
    end;
    let title, columns = !current_panel in
    List.iter2
      (fun column cell ->
        Printf.fprintf oc "%s,%s,%s,%s,%.3f,%s,%.3f,%.3f,%d,%d\n"
          (csv_escape title) (csv_escape x) (csv_escape column)
          (if cell.median_seconds = infinity then "timeout"
           else Printf.sprintf "%.6f" cell.median_seconds)
          cell.abort_fraction
          (csv_escape (breakdown_string cell))
          cell.rescued_fraction cell.nonempty_fraction cell.median_plan_width
          cell.median_max_arity)
      columns cells

let print_header ~title ~columns ~x_label =
  locked (fun () ->
      current_panel := (title, columns);
      Printf.printf "\n== %s ==\n" title;
      Printf.printf "%-10s" x_label;
      List.iter (fun c -> Printf.printf "%*s" column_width c) columns;
      print_newline ();
      Printf.printf "%s\n"
        (String.make (10 + (column_width * List.length columns)) '-'))

let format_cell cell =
  if cell.abort_fraction > 0.5 then begin
    match cell.abort_breakdown with
    | [ (label, _) ] -> Printf.sprintf "abort:%s" label
    | _ -> "timeout"
  end
  else
    Printf.sprintf "%.4fs/%.0f%%" cell.median_seconds
      (100. *. cell.nonempty_fraction)

let print_row ~x ~cells =
  locked (fun () ->
      Printf.printf "%-10s" x;
      List.iter
        (fun c -> Printf.printf "%*s" column_width (format_cell c))
        cells;
      print_newline ();
      csv_row ~x cells)

let print_width_summary ~cells =
  (* "predicted vs. measured": the analytic plan width next to the widest
     intermediate relation the execution actually materialized. Equality
     means the width analysis was exact on this panel's last row. *)
  locked (fun () ->
      let _, columns = !current_panel in
      Printf.printf "%-10s" "width";
      List.iter2
        (fun _column cell ->
          Printf.printf "%*s" column_width
            (Printf.sprintf "%d->%d" cell.median_plan_width
               cell.median_max_arity))
        columns cells;
      print_newline ();
      Printf.printf
        "(width row: predicted plan width -> measured max intermediate \
         arity, medians over seeds)\n")

let print_footer () =
  locked (fun () ->
      Printf.printf
        "(cells: median seconds / %% of finished seeds nonempty; \
         'abort:REASON'/'timeout' = resource guard tripped)\n%!")
