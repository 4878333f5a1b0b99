(* What every gate shares: the core count, best-of timing, the
   pass/fail/note reporter, and the pooled-versus-sequential sweep
   check. *)

module Json = Telemetry.Json

(* The pool width every parallel check runs at. *)
let jobs = 4

(* Recommended domains on this machine. A parallel speedup is enforced
   only where [cores >= jobs]: below that the pool's domains time-slice
   and a pooled run legitimately loses. *)
let cores = Domain.recommended_domain_count ()

(* Best wall time of [reps] runs, with the last run's result. *)
let time_best ~reps f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* A gate's failed checks. A gate runs every check and reports each
   failure, so one run names all of them; its verdict passes when the
   list stays empty. *)
type report = { mutable failures : string list }

let report () = { failures = [] }

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("FAIL: " ^ msg);
      r.failures <- msg :: r.failures)
    fmt

let check r ok fmt =
  Printf.ksprintf (fun msg -> if not ok then fail r "%s" msg) fmt

let note fmt = Printf.ksprintf (fun msg -> print_endline ("note: " ^ msg)) fmt

(* Mean wall time of [f], repeated until the runs add up to at least
   [min_seconds], with the last run's result and the run count. *)
let mean_wall ~min_seconds f =
  let t0 = Unix.gettimeofday () in
  let rec go runs =
    let r = f () in
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed >= min_seconds then (r, elapsed /. float_of_int runs, runs)
    else go (runs + 1)
  in
  go 1

(* [f] with no experiment pool installed, then under a [jobs]-domain
   pool ([Experiments.Sweep.set_pool]), each side repeated until it has
   taken at least 100 ms: a sweep of a few milliseconds would time pool
   dispatch rather than the sweep. The pooled side may be at most 1.05x
   slower per run. That is a failure where [cores >= jobs] and a note
   below. Returns both sides' results, for the caller's identity check,
   and the timing as a verdict member. *)
let pooled_sweep r ~name f =
  let seq, seq_s, seq_runs = mean_wall ~min_seconds:0.1 f in
  let pool = Parallel.Pool.create ~num_domains:jobs () in
  Experiments.Sweep.set_pool (Some pool);
  let par, par_s, par_runs =
    Fun.protect
      ~finally:(fun () ->
        Experiments.Sweep.set_pool None;
        Parallel.Pool.shutdown pool)
      (fun () -> mean_wall ~min_seconds:0.1 f)
  in
  let enforced = cores >= jobs in
  let ok = par_s <= seq_s *. 1.05 in
  Printf.printf
    "%s: jobs=1 %.4fs/run (%d runs)   jobs=%d %.4fs/run (%d runs)\n%!" name
    seq_s seq_runs jobs par_s par_runs;
  if not ok then begin
    if enforced then
      fail r "%s: jobs=%d %.4fs/run slower than jobs=1 %.4fs/run" name jobs
        par_s seq_s
    else
      note "%s: jobs=%d slower than jobs=1 (not enforced: %d cores < %d)"
        name jobs cores jobs
  end;
  ( seq,
    par,
    Json.Obj
      [
        ("jobs1_seconds", Json.Float seq_s);
        ("jobs1_runs", Json.Int seq_runs);
        ("jobs4_seconds", Json.Float par_s);
        ("jobs4_runs", Json.Int par_runs);
        ("not_slower", Json.Bool ok);
        ("enforced", Json.Bool enforced);
      ] )
