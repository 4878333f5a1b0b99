module Budget = Budget
module Chaos = Chaos
module Driver = Ppr_core.Driver

type attempt = {
  rung : int;
  meth : Driver.meth;
  budget : Budget.t;
  outcome : Driver.outcome;
  approximate : bool;
  replanned : bool;
}

type report = {
  attempts : attempt list;
  result : Driver.outcome option;
  rescued : bool;
  total_seconds : float;
}

let log_src = Logs.Src.create "ppr.supervise" ~doc:"Supervised execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

let is_approximate = function
  | Driver.Minibucket _ -> true
  | Driver.Naive _ | Driver.Straightforward | Driver.Early_projection
  | Driver.Reorder | Driver.Bucket_elimination | Driver.Hybrid
  | Driver.Hybrid_rank _ | Driver.Wcoj | Driver.Ghd ->
    false

(* Methods whose plan choice actually listens to the cost model — the
   only ones a mid-ladder re-plan with corrected estimates can help. *)
let cost_based = function
  | Driver.Naive _ | Driver.Hybrid | Driver.Hybrid_rank _ -> true
  | Driver.Straightforward | Driver.Early_projection | Driver.Reorder
  | Driver.Bucket_elimination | Driver.Minibucket _ | Driver.Wcoj
  | Driver.Ghd ->
    false

let default_ladder = function
  | Driver.Bucket_elimination ->
    [
      Driver.Bucket_elimination; Driver.Minibucket 3; Driver.Reorder;
      Driver.Straightforward;
    ]
  | Driver.Wcoj ->
    [
      Driver.Wcoj; Driver.Bucket_elimination; Driver.Minibucket 3;
      Driver.Reorder; Driver.Straightforward;
    ]
  | Driver.Ghd ->
    [
      Driver.Ghd; Driver.Bucket_elimination; Driver.Minibucket 3;
      Driver.Reorder; Driver.Straightforward;
    ]
  | Driver.Hybrid ->
    [
      Driver.Hybrid_rank 0; Driver.Hybrid_rank 1; Driver.Hybrid_rank 2;
      Driver.Straightforward;
    ]
  | Driver.Hybrid_rank n ->
    [
      Driver.Hybrid_rank n; Driver.Hybrid_rank (n + 1);
      Driver.Hybrid_rank (n + 2); Driver.Straightforward;
    ]
  | Driver.Minibucket i when i > 1 ->
    [
      Driver.Minibucket i; Driver.Minibucket (i - 1); Driver.Reorder;
      Driver.Straightforward;
    ]
  | Driver.Early_projection ->
    [ Driver.Early_projection; Driver.Reorder; Driver.Straightforward ]
  | Driver.Reorder -> [ Driver.Reorder; Driver.Straightforward ]
  | (Driver.Naive _ | Driver.Straightforward | Driver.Minibucket _) as m ->
    [ m ]

let run ?rng ?feedback ?observer ?(replan = false) ?(budget = Budget.default)
    ?ladder ?chaos ?clock ?compiled ?overall_deadline_seconds
    ?(ctx = Relalg.Ctx.null) meth db cq =
  let telemetry = Relalg.Ctx.telemetry ctx in
  let rungs =
    match ladder with
    | Some (_ :: _ as l) -> l
    | Some [] | None -> default_ladder meth
  in
  (* What the aborted attempts actually measured, latest sample wins;
     the re-plan rung layers these over the caller's feedback so its
     corrected model reflects the very intermediates that just blew up.
     Only armed when someone can use it. *)
  let observed : (string, float * float) Hashtbl.t = Hashtbl.create 16 in
  let capture =
    if replan || Option.is_some observer then
      Some
        (fun obs ->
          List.iter
            (fun o ->
              Hashtbl.replace observed o.Ppr_core.Cost.key
                (o.Ppr_core.Cost.measured, o.Ppr_core.Cost.estimated))
            obs;
          match observer with Some f -> f obs | None -> ())
    else None
  in
  let learned_feedback key =
    match Hashtbl.find_opt observed key with
    | Some (m, e) when e > 0. -> Some (Ppr_core.Cost.clamp_factor (m /. e))
    | _ -> ( match feedback with Some f -> f key | None -> None)
  in
  let replanned_once = ref false in
  let wall = match clock with Some c -> c | None -> Unix.gettimeofday in
  (* The whole supervised run must fit inside the overall deadline: each
     rung's budget deadline is clamped to the remainder, and once the
     remainder hits zero the ladder stops walking. *)
  let overall = Option.map (fun s -> wall () +. s) overall_deadline_seconds in
  let overall_remaining () =
    Option.map (fun d -> Float.max 0.0 (d -. wall ())) overall
  in
  let rec go i attempts = function
    | [] -> (List.rev attempts, None)
    | (m, is_replan) :: rest ->
      let rung_budget =
        match overall_remaining () with
        | None -> budget
        | Some remaining ->
          let capped =
            match budget.Budget.deadline_seconds with
            | Some s -> Float.min s remaining
            | None -> remaining
          in
          { budget with Budget.deadline_seconds = Some capped }
      in
      let limits = Budget.to_limits ?clock rung_budget in
      (match chaos with Some c -> Chaos.arm c ~attempt:i limits | None -> ());
      let run_rung () =
        let compiled =
          (* A cached artifact only fits the rung actually running the
             requested method: rung 0 of the default ladder. Deeper
             rungs are different methods and recompile. *)
          match compiled with Some c when i = 0 && m = meth -> Some c | _ -> None
        in
        (* The re-plan rung compiles under the observations the aborted
           attempts just harvested (layered over the caller's feedback);
           ordinary rungs see only the caller's. *)
        let feedback =
          if is_replan then Some learned_feedback else feedback
        in
        Driver.run ?rng ?feedback ?observer:capture ?compiled
          ~ctx:(Relalg.Ctx.with_limits ctx limits) m db cq
      in
      let outcome =
        match telemetry with
        | None -> run_rung ()
        | Some t ->
          let wall = Unix.gettimeofday in
          let started = wall () in
          let o =
            Telemetry.with_span t "supervise.rung"
              ~attrs:
                [
                  ("rung", Telemetry.Attr.Int i);
                  ("method", Telemetry.Attr.String (Driver.method_name m));
                ]
              (fun sp ->
                let o = run_rung () in
                Telemetry.Span.set_attr sp "status"
                  (Telemetry.Attr.String
                     (match o.Driver.status with
                     | Driver.Completed -> "completed"
                     | Driver.Aborted a ->
                       Relalg.Limits.reason_label a.Driver.reason));
                o)
          in
          let reg = Telemetry.metrics t in
          Telemetry.Metrics.observe
            (Telemetry.Metrics.histogram reg "supervise.rung_seconds")
            (wall () -. started);
          o
      in
      let attempt =
        {
          rung = i;
          meth = m;
          budget = rung_budget;
          outcome;
          approximate = is_approximate m;
          replanned = is_replan;
        }
      in
      (match outcome.Driver.status with
      | Driver.Completed ->
        if i > 0 then
          Log.info (fun f ->
              f "rescued by %s at rung %d after %d aborted attempt(s)"
                (Driver.method_name m) i (List.length attempts))
      | Driver.Aborted a ->
        Log.info (fun f ->
            f "rung %d (%s) aborted: %s" i (Driver.method_name m)
              (Relalg.Limits.describe a.Driver.reason)));
      (match outcome.Driver.status with
      | Driver.Completed ->
        (List.rev (attempt :: attempts), Some outcome)
      | Driver.Aborted _ -> (
        match overall_remaining () with
        | Some r when r <= 0.0 ->
          (* Out of overall time: stop shedding down the ladder — deeper
             rungs would only trip Deadline on their first poll. *)
          (List.rev (attempt :: attempts), None)
        | _ ->
          (* Mid-ladder re-plan (once per ladder, opt-in): the aborted
             attempt measured real intermediate sizes before dying, so a
             cost-based method gets one retry compiled under those
             observations before the ladder sheds to a weaker method. *)
          let rest =
            if
              replan && (not is_replan) && (not !replanned_once)
              && cost_based m
              && Hashtbl.length observed > 0
            then begin
              replanned_once := true;
              Log.info (fun f ->
                  f "re-planning %s with %d observed cardinalities"
                    (Driver.method_name m) (Hashtbl.length observed));
              (match telemetry with
              | None -> ()
              | Some t ->
                Telemetry.Metrics.incr
                  (Telemetry.Metrics.counter (Telemetry.metrics t)
                     "supervise.replans"));
              (m, true) :: rest
            end
            else rest
          in
          go (i + 1) (attempt :: attempts) rest))
  in
  let attempts, result =
    go 0 [] (List.map (fun m -> (m, false)) rungs)
  in
  let rescued = Option.is_some result && List.length attempts > 1 in
  (match telemetry with
  | None -> ()
  | Some t ->
    let reg = Telemetry.metrics t in
    Telemetry.Metrics.incr (Telemetry.Metrics.counter reg "supervise.runs");
    if rescued then
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter reg "supervise.rescues");
    if Option.is_none result then
      Telemetry.Metrics.incr
        (Telemetry.Metrics.counter reg "supervise.exhausted"));
  let total_seconds =
    List.fold_left
      (fun acc a ->
        acc
        +. a.outcome.Driver.compile_seconds
        +. a.outcome.Driver.exec_seconds)
      0.0 attempts
  in
  { attempts; result; rescued; total_seconds }

let pp_report ppf r =
  List.iter
    (fun a ->
      Format.fprintf ppf "rung %d: %a%s%s@." a.rung Driver.pp_outcome
        a.outcome
        (if a.approximate then "  [upper bound]" else "")
        (if a.replanned then "  [replanned]" else ""))
    r.attempts;
  match (r.result, r.rescued) with
  | None, _ ->
    Format.fprintf ppf "exhausted: every rung aborted (%.4fs total)@."
      r.total_seconds
  | Some _, true ->
    Format.fprintf ppf "rescued after %d attempt(s) (%.4fs total)@."
      (List.length r.attempts) r.total_seconds
  | Some _, false ->
    Format.fprintf ppf "completed first try (%.4fs total)@." r.total_seconds
