(* Tests for the resilient execution supervisor: the generalized
   Relalg.Limits budget semantics, typed abort statuses, chaos fault
   injection, and the graceful-degradation ladder. *)

open Helpers
module Limits = Relalg.Limits
module Driver = Ppr_core.Driver
module Exec = Ppr_core.Exec
module Bucket = Ppr_core.Bucket
module Encode = Conjunctive.Encode

(* A fake clock advancing one "second" per read, so deadline tests are
   instant and bit-for-bit deterministic. *)
let stepping_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 1.0;
    !t

(* ------------------------------------------------------------------ *)
(* Limits semantics                                                    *)

let test_budget_boundary () =
  let l = Limits.create ~max_total:5 () in
  Limits.charge l 3;
  Limits.charge l 2;
  (* exactly at the budget: fine *)
  check_int "charged to the boundary" 5 (Limits.total_charged l);
  check_int "nothing remaining" 0 (Limits.remaining l);
  Alcotest.check_raises "one past the boundary trips"
    (Limits.Abort Limits.Tuple_budget) (fun () -> Limits.charge l 1)

let test_budget_check_then_commit () =
  (* A trip must leave the totals at their pre-trip values, not
     permanently over budget. *)
  let l = Limits.create ~max_total:10 () in
  Limits.charge l 8;
  (try Limits.charge l 100 with Limits.Abort Limits.Tuple_budget -> ());
  check_int "total unchanged after trip" 8 (Limits.total_charged l);
  check_int "remaining still meaningful" 2 (Limits.remaining l);
  (* the untripped headroom is still spendable *)
  Limits.charge l 2;
  check_int "boundary reachable after a failed charge" 10
    (Limits.total_charged l)

let test_cardinality_reason_carries_size () =
  let l = Limits.create ~max_tuples:7 () in
  Limits.check_cardinality l 7;
  Alcotest.check_raises "cap trips with the offending size"
    (Limits.Abort (Limits.Cardinality 8)) (fun () ->
      Limits.check_cardinality l 8)

let test_fuel () =
  let l = Limits.create ~fuel:2 () in
  Limits.tick_operator l;
  Limits.tick_operator l;
  check_int "two operators run" 2 (Limits.operators_run l);
  check_int "no fuel left" 0 (Limits.remaining_fuel l);
  Alcotest.check_raises "third operator trips" (Limits.Abort Limits.Fuel)
    (fun () -> Limits.tick_operator l);
  check_int "operator count unchanged after trip" 2 (Limits.operators_run l)

let test_deadline_polled_within_operator () =
  (* check_interval 1 forces a clock poll on every charge: with the
     stepping clock the deadline (start 1.0 + 3.0 = 4.0) passes on the
     poll that reads 5.0, well before the budget would. *)
  let l =
    Limits.create ~deadline_seconds:3.0 ~clock:(stepping_clock ())
      ~check_interval:1 ()
  in
  let charged = ref 0 in
  Alcotest.check_raises "deadline fires mid-loop" (Limits.Abort Limits.Deadline)
    (fun () ->
      for _ = 1 to 100 do
        Limits.charge l 1;
        incr charged
      done);
  check_bool "aborted strictly inside the loop" true
    (!charged > 0 && !charged < 100)

let test_deadline_fires_mid_join () =
  (* End to end: a driver run under a stepping clock dies with a typed
     Deadline status while executing a real plan. *)
  let g = Graphlib.Generators.augmented_ladder 8 in
  let cq = coloring_query g in
  let limits =
    Limits.create ~deadline_seconds:5.0 ~clock:(stepping_clock ())
      ~check_interval:1 ()
  in
  let o =
    Driver.run ~ctx:(Relalg.Ctx.create ~limits ()) Driver.Straightforward
      coloring_db cq
  in
  (match o.Driver.status with
  | Driver.Aborted { reason = Limits.Deadline; partial_stats } ->
    check_bool "partial stats show work done before the abort" true
      (Relalg.Stats.tuples_produced partial_stats >= 0)
  | _ -> Alcotest.fail "expected a Deadline abort");
  Alcotest.(check (option int)) "no result" None (Driver.result_cardinality o)

(* ------------------------------------------------------------------ *)
(* Chaos injection                                                     *)

let pentagon_cq = coloring_query (Graphlib.Generators.cycle 5)

let test_chaos_at_operator () =
  let limits = Limits.create () in
  Supervise.Chaos.arm (Supervise.Chaos.at_operator 3) ~attempt:0 limits;
  let o =
    Driver.run ~ctx:(Relalg.Ctx.create ~limits ()) Driver.Bucket_elimination
      coloring_db pentagon_cq
  in
  (match Driver.abort_reason o with
  | Some (Limits.Injected "chaos") -> ()
  | _ -> Alcotest.fail "expected the injected fault");
  check_bool "died at the third operator" true
    (Limits.operators_run limits = 3)

let test_chaos_after_tuples () =
  let limits = Limits.create () in
  Supervise.Chaos.arm (Supervise.Chaos.after_tuples ~label:"k" 4) ~attempt:0
    limits;
  let o =
    Driver.run ~ctx:(Relalg.Ctx.create ~limits ()) Driver.Bucket_elimination
      coloring_db pentagon_cq
  in
  (match Driver.abort_reason o with
  | Some (Limits.Injected "k") -> ()
  | _ -> Alcotest.fail "expected the injected fault");
  (* Atom scans charge their whole output in one lump, so the fault fires
     at the first charge whose running total reaches K. *)
  check_bool "fired once K tuples were charged" true
    (Limits.total_charged limits >= 4)

let test_chaos_inside_one_join () =
  (* K falls inside one join's 2000-row output. The join settles its
     output in at most two charges before writing a row, so the fault
     fires on the first of them, past K. *)
  let r = relation [ 0; 1 ] (List.init 1000 (fun i -> [ i; i mod 2 ])) in
  let s = relation [ 1; 2 ] [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ] in
  let k = 500 in
  let limits = Limits.create () in
  Supervise.Chaos.arm (Supervise.Chaos.after_tuples ~label:"mid-join" k)
    ~attempt:0 limits;
  Alcotest.check_raises "fired inside the join"
    (Limits.Abort (Limits.Injected "mid-join")) (fun () ->
      ignore (Relalg.Ops.natural_join ~ctx:(Relalg.Ctx.create ~limits ()) r s));
  check_bool "charged at least K" true (Limits.total_charged limits >= k)

let test_chaos_out_of_scope_attempt () =
  let limits = Limits.create () in
  Supervise.Chaos.arm
    (Supervise.Chaos.at_operator ~attempts:[ 0 ] 1)
    ~attempt:1 limits;
  let o =
    Driver.run ~ctx:(Relalg.Ctx.create ~limits ()) Driver.Bucket_elimination
      coloring_db pentagon_cq
  in
  check_bool "attempt outside the fault's scope completes" true
    (o.Driver.status = Driver.Completed)

let test_chaos_seeded_deterministic () =
  let fault seed = Supervise.Chaos.seeded ~seed ~max_operator:8 () in
  let trigger c = c.Supervise.Chaos.trigger in
  check_bool "same seed, same fault" true
    (trigger (fault 42) = trigger (fault 42));
  (* different seeds eventually differ *)
  check_bool "seed actually drives the draw" true
    (List.exists
       (fun s -> trigger (fault s) <> trigger (fault 42))
       [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])

let test_chaos_stall_then_deadline () =
  (* The latency fault with a fake clock: the stall "sleeps" by
     advancing the clock the deadline reads, so stall-then-deadline is
     instant and fully deterministic. *)
  let now = ref 0.0 in
  let clock () = !now in
  let sleeper s = now := !now +. s in
  let limits =
    Limits.create ~deadline_seconds:5.0 ~clock ~check_interval:1 ()
  in
  Supervise.Chaos.arm
    (Supervise.Chaos.stall_at_operator ~sleeper ~seconds:60.0 2)
    ~attempt:0 limits;
  let o =
    Driver.run ~ctx:(Relalg.Ctx.create ~limits ()) Driver.Bucket_elimination
      coloring_db pentagon_cq
  in
  (match Driver.abort_reason o with
  | Some Limits.Deadline -> ()
  | _ -> Alcotest.fail "the stall should push the run past its deadline");
  Alcotest.(check (float 1e-9)) "stalled exactly once" 60.0 !now

let test_chaos_stall_rescued_by_ladder () =
  (* End to end through the supervisor: rung 0 stalls past its deadline,
     rung 1 (fault out of scope, stall already fired) completes. *)
  let now = ref 0.0 in
  let clock () = !now in
  let sleeper s = now := !now +. s in
  let chaos =
    Supervise.Chaos.stall_at_operator ~attempts:[ 0 ] ~sleeper ~seconds:60.0 1
  in
  let budget = Supervise.Budget.with_deadline 5.0 Supervise.Budget.default in
  let report =
    Supervise.run ~clock ~chaos ~budget Driver.Bucket_elimination coloring_db
      pentagon_cq
  in
  (match report.Supervise.attempts with
  | first :: _ -> (
    match Driver.abort_reason first.Supervise.outcome with
    | Some Limits.Deadline -> ()
    | _ -> Alcotest.fail "rung 0 should die of the stalled deadline")
  | [] -> Alcotest.fail "no attempts recorded");
  check_bool "a later rung rescues the stalled run" true
    report.Supervise.rescued

(* ------------------------------------------------------------------ *)
(* Budget                                                              *)

let test_budget_to_limits () =
  let b =
    Supervise.Budget.(
      with_fuel 2 (with_max_cardinality 7 (with_max_total 5 default)))
  in
  let l = Supervise.Budget.to_limits b in
  check_int "cardinality cap carried over" 7 (Limits.max_tuples l);
  check_int "tuple budget carried over" 5 (Limits.remaining l);
  check_int "fuel carried over" 2 (Limits.remaining_fuel l);
  let u = Supervise.Budget.to_limits Supervise.Budget.unlimited in
  check_int "unlimited budget" max_int (Limits.remaining u);
  check_int "unlimited fuel" max_int (Limits.remaining_fuel u);
  (* each call compiles fresh limits: spending one leaves the next whole *)
  Limits.charge l 5;
  check_int "fresh limits per call" 5
    (Limits.remaining (Supervise.Budget.to_limits b))

(* ------------------------------------------------------------------ *)
(* The degradation ladder                                              *)

let test_default_ladders () =
  let l = Supervise.default_ladder Driver.Bucket_elimination in
  check_int "bucket ladder has four rungs" 4 (List.length l);
  check_bool "starts with the method itself" true
    (List.hd l = Driver.Bucket_elimination);
  check_bool "ends at the straightforward plan" true
    (List.rev l |> List.hd = Driver.Straightforward);
  check_bool "hybrid walks its portfolio ranks" true
    (List.hd (Supervise.default_ladder Driver.Hybrid) = Driver.Hybrid_rank 0);
  check_int "straightforward has nothing below it" 1
    (List.length (Supervise.default_ladder Driver.Straightforward));
  check_bool "minibucket rungs are flagged approximate" true
    (Supervise.is_approximate (Driver.Minibucket 3)
    && not (Supervise.is_approximate Driver.Reorder))

let test_first_try_completion () =
  let report = Supervise.run Driver.Bucket_elimination coloring_db pentagon_cq in
  check_int "one attempt" 1 (List.length report.Supervise.attempts);
  check_bool "not a rescue" false report.Supervise.rescued;
  check_bool "has a result" true (Option.is_some report.Supervise.result)

(* The acceptance scenario: bucket elimination killed mid-join by an
   injected Deadline is rescued by the next rung; the report lists both
   attempts with their distinct typed statuses, and the rescued answer
   matches the unsupervised reference run exactly. *)
let test_ladder_rescue_matches_reference () =
  let g = Graphlib.Generators.augmented_ladder 5 in
  let cq = coloring_query ~mode:(Encode.Fraction 0.3) ~seed:11 g in
  let reference = Exec.run coloring_db (Bucket.compile cq) in
  let chaos =
    (* Impersonate a wall-clock deadline, firing mid-join after 40 charged
       tuples, on the first attempt only. *)
    Supervise.Chaos.after_tuples ~reason:Limits.Deadline ~attempts:[ 0 ] 40
  in
  let report =
    Supervise.run ~chaos
      ~ladder:[ Driver.Bucket_elimination; Driver.Reorder ]
      Driver.Bucket_elimination coloring_db cq
  in
  (match report.Supervise.attempts with
  | [ first; second ] ->
    check_bool "first rung is bucket elimination" true
      (first.Supervise.meth = Driver.Bucket_elimination);
    (match first.Supervise.outcome.Driver.status with
    | Driver.Aborted { reason = Limits.Deadline; _ } -> ()
    | _ -> Alcotest.fail "first attempt should abort with Deadline");
    check_bool "second rung is the fallback" true
      (second.Supervise.meth = Driver.Reorder);
    check_bool "second attempt completes" true
      (second.Supervise.outcome.Driver.status = Driver.Completed)
  | attempts ->
    Alcotest.failf "expected exactly two attempts, got %d"
      (List.length attempts));
  check_bool "counted as a rescue" true report.Supervise.rescued;
  match report.Supervise.result with
  | None -> Alcotest.fail "rescue should produce a result"
  | Some o ->
    Alcotest.(check (option int))
      "rescued cardinality equals the unsupervised reference"
      (Some (Relalg.Relation.cardinality reference))
      (Driver.result_cardinality o)

let test_ladder_walks_every_failing_rung () =
  (* A fault armed on every attempt exhausts the whole ladder; each
     attempt carries its own typed abort. *)
  let chaos = Supervise.Chaos.at_operator 1 in
  let report =
    Supervise.run ~chaos Driver.Bucket_elimination coloring_db pentagon_cq
  in
  check_int "all four rungs tried" 4 (List.length report.Supervise.attempts);
  check_bool "no result" true (Option.is_none report.Supervise.result);
  check_bool "not a rescue" false report.Supervise.rescued;
  List.iter
    (fun a ->
      match Driver.abort_reason a.Supervise.outcome with
      | Some (Limits.Injected _) -> ()
      | _ -> Alcotest.fail "every attempt should record the injected abort")
    report.Supervise.attempts

let test_fresh_budget_per_rung () =
  let budget = Supervise.Budget.with_max_total 1000 Supervise.Budget.default in
  let chaos = Supervise.Chaos.at_operator ~attempts:[ 0; 1 ] 1 in
  let report =
    Supervise.run ~rng:(Graphlib.Rng.make 7) ~budget ~chaos
      Driver.Bucket_elimination coloring_db pentagon_cq
  in
  check_bool "at least three attempts" true
    (List.length report.Supervise.attempts >= 3);
  List.iter
    (fun a ->
      check_int "every rung runs under the caller's budget" 1000
        a.Supervise.budget.Supervise.Budget.max_total_tuples)
    report.Supervise.attempts;
  check_bool "rescued by an unsabotaged rung" true report.Supervise.rescued

let test_deterministic_reports () =
  let run () =
    let rng = Graphlib.Rng.make 23 in
    let report =
      Supervise.run ~rng
        ~chaos:(Supervise.Chaos.seeded ~seed:5 ~max_operator:4 ~attempts:[ 0 ] ())
        Driver.Bucket_elimination coloring_db pentagon_cq
    in
    ( List.map (fun a -> Driver.method_name a.Supervise.meth)
        report.Supervise.attempts,
      List.map
        (fun a -> Driver.abort_reason a.Supervise.outcome)
        report.Supervise.attempts,
      Option.map Driver.result_cardinality report.Supervise.result )
  in
  check_bool "same seeds, same report" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Overall deadlines                                                   *)

let test_rung_deadline_clamped_by_overall_deadline () =
  (* A frozen clock isolates the clamp: with 10s of overall deadline
     left throughout, every rung's budget deadline is the smaller of the
     caller's deadline and those 10s. *)
  let clock () = 0.0 in
  let chaos = Supervise.Chaos.at_operator 1 in
  let deadlines budget =
    let report =
      Supervise.run ~clock ~chaos ~budget ~overall_deadline_seconds:10.0
        Driver.Bucket_elimination coloring_db pentagon_cq
    in
    check_bool "sabotaged everywhere: no result" true
      (Option.is_none report.Supervise.result);
    List.map
      (fun a -> a.Supervise.budget.Supervise.Budget.deadline_seconds)
      report.Supervise.attempts
  in
  let all_equal name expected got =
    check_bool (name ^ ": every rung ran") true (got <> []);
    List.iter
      (Alcotest.(check (option (float 1e-9))) name expected)
      got
  in
  all_equal "no caller deadline: the remainder" (Some 10.0)
    (deadlines Supervise.Budget.default);
  all_equal "a longer caller deadline is cut to the remainder" (Some 10.0)
    (deadlines (Supervise.Budget.with_deadline 60.0 Supervise.Budget.default));
  all_equal "a shorter caller deadline stands" (Some 3.0)
    (deadlines (Supervise.Budget.with_deadline 3.0 Supervise.Budget.default))

let test_ladder_stops_at_overall_deadline () =
  (* A stepping clock burns one "second" per read: with a 2s overall
     deadline the remainder hits zero before the 4-rung ladder is
     exhausted, and the walk stops early. *)
  let chaos = Supervise.Chaos.at_operator 1 in
  let report =
    Supervise.run ~clock:(stepping_clock ()) ~chaos
      ~overall_deadline_seconds:2.0 Driver.Bucket_elimination coloring_db
      pentagon_cq
  in
  check_bool "ladder cut short by the overall deadline" true
    (List.length report.Supervise.attempts
    < List.length (Supervise.default_ladder Driver.Bucket_elimination));
  check_bool "at least one attempt was made" true
    (report.Supervise.attempts <> []);
  check_bool "no result" true (Option.is_none report.Supervise.result)

(* ------------------------------------------------------------------ *)
(* Concurrent supervised runs                                          *)

let test_concurrent_runs_share_metrics_registry () =
  (* Four domains run supervised ladders concurrently into one metrics
     registry (the serving engine's setup: shared registry, per-session
     telemetry). Counters must aggregate exactly; no crashes, no lost
     updates. *)
  let metrics = Telemetry.Metrics.create () in
  let iterations = 5 in
  let worker i () =
    let ok = ref 0 in
    for j = 1 to iterations do
      let telemetry = Telemetry.create ~metrics Telemetry.Sink.null in
      Fun.protect
        ~finally:(fun () -> Telemetry.close telemetry)
        (fun () ->
          let ctx = Relalg.Ctx.create ~telemetry () in
          let chaos =
            (* half the runs are sabotaged on rung 0 and must rescue *)
            if (i + j) mod 2 = 0 then
              Some (Supervise.Chaos.at_operator ~attempts:[ 0 ] 1)
            else None
          in
          let report =
            Supervise.run ?chaos ~ctx Driver.Bucket_elimination coloring_db
              pentagon_cq
          in
          if Option.is_some report.Supervise.result then incr ok)
    done;
    !ok
  in
  let domains = Array.init 4 (fun i -> Domain.spawn (worker i)) in
  let oks = Array.map Domain.join domains in
  check_int "every supervised run completed" (4 * iterations)
    (Array.fold_left ( + ) 0 oks);
  let count name =
    Telemetry.Metrics.value (Telemetry.Metrics.counter metrics name)
  in
  check_int "runs aggregate across domains" (4 * iterations)
    (count "supervise.runs");
  check_int "rescues counted exactly" (4 * iterations / 2)
    (count "supervise.rescues");
  check_int "nothing exhausted" 0 (count "supervise.exhausted")

(* ------------------------------------------------------------------ *)
(* Sweep integration                                                   *)

let test_sweep_counts_rescues () =
  let instance ~seed:_ =
    let g = Graphlib.Generators.augmented_ladder 8 in
    (coloring_db, coloring_query g)
  in
  (* A budget tight enough to kill bucket elimination on this instance
     but loose enough for a lower rung to finish. *)
  let budget =
    Supervise.Budget.(with_max_cardinality 40 (with_max_total 100_000 default))
  in
  let cell =
    Experiments.Sweep.run_cell
      ~ladder:
        [ Ppr_core.Driver.Bucket_elimination; Ppr_core.Driver.Straightforward ]
      ~budget ~seeds:[ 1; 2 ] ~instance ~meth:Ppr_core.Driver.Bucket_elimination
      ()
  in
  (* Either the first rung survives everywhere (no rescue) or the final
     state is consistent: any abort of the final attempt shows up in the
     typed breakdown, and rescue implies a finite median. *)
  check_bool "fractions are consistent" true
    (cell.Experiments.Sweep.abort_fraction
     +. cell.Experiments.Sweep.rescued_fraction
    <= 1.0 +. 1e-9);
  Alcotest.(check (float 1e-9))
    "breakdown sums to the abort fraction"
    cell.Experiments.Sweep.abort_fraction
    (List.fold_left
       (fun acc (_, f) -> acc +. f)
       0.0 cell.Experiments.Sweep.abort_breakdown)

let test_sweep_breakdown_labels () =
  let instance ~seed:_ =
    let g = Graphlib.Generators.augmented_ladder 10 in
    (coloring_db, coloring_query g)
  in
  let cell =
    Experiments.Sweep.run_cell
      ~limits_factory:(fun () -> Limits.create ~max_tuples:50 ())
      ~seeds:[ 1; 2; 3 ] ~instance ~meth:Ppr_core.Driver.Straightforward ()
  in
  Alcotest.(check (float 1e-9))
    "every seed aborts" 1.0 cell.Experiments.Sweep.abort_fraction;
  Alcotest.(check (list (pair string (float 1e-9))))
    "typed breakdown names the cardinality cap"
    [ ("cardinality", 1.0) ]
    cell.Experiments.Sweep.abort_breakdown

let () =
  Alcotest.run "supervise"
    [
      ( "limits",
        [
          Alcotest.test_case "budget boundary" `Quick test_budget_boundary;
          Alcotest.test_case "check-then-commit" `Quick
            test_budget_check_then_commit;
          Alcotest.test_case "cardinality reason" `Quick
            test_cardinality_reason_carries_size;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "deadline polls inside loops" `Quick
            test_deadline_polled_within_operator;
          Alcotest.test_case "deadline aborts a real join" `Quick
            test_deadline_fires_mid_join;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "at operator" `Quick test_chaos_at_operator;
          Alcotest.test_case "after tuples" `Quick test_chaos_after_tuples;
          Alcotest.test_case "after tuples, inside one join" `Quick
            test_chaos_inside_one_join;
          Alcotest.test_case "attempt scope" `Quick
            test_chaos_out_of_scope_attempt;
          Alcotest.test_case "seeded determinism" `Quick
            test_chaos_seeded_deterministic;
          Alcotest.test_case "stall then deadline" `Quick
            test_chaos_stall_then_deadline;
          Alcotest.test_case "stall rescued by ladder" `Quick
            test_chaos_stall_rescued_by_ladder;
        ] );
      ( "budget",
        [ Alcotest.test_case "compiles to limits" `Quick test_budget_to_limits ]
      );
      ( "ladder",
        [
          Alcotest.test_case "default cascades" `Quick test_default_ladders;
          Alcotest.test_case "first-try completion" `Quick
            test_first_try_completion;
          Alcotest.test_case "rescue matches reference" `Quick
            test_ladder_rescue_matches_reference;
          Alcotest.test_case "exhausts failing rungs" `Quick
            test_ladder_walks_every_failing_rung;
          Alcotest.test_case "fresh budget per rung" `Quick
            test_fresh_budget_per_rung;
          Alcotest.test_case "deterministic reports" `Quick
            test_deterministic_reports;
          Alcotest.test_case "rung deadline clamped by overall deadline" `Quick
            test_rung_deadline_clamped_by_overall_deadline;
          Alcotest.test_case "stops at overall deadline" `Quick
            test_ladder_stops_at_overall_deadline;
          Alcotest.test_case "concurrent runs share a registry" `Quick
            test_concurrent_runs_share_metrics_registry;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "rescue accounting" `Quick test_sweep_counts_rescues;
          Alcotest.test_case "typed breakdown" `Quick
            test_sweep_breakdown_labels;
        ] );
    ]
