(* Prints the gate's attempt on the instances the benchmark runs
   ({!Gate_instances}): for each gated method, the route its gate picks,
   the generic join's allowance, the bindings it spent and whether it
   answered or ran out ([none] when the gate picked the generic join
   itself). The ghd method's route is the one its artifact resolves to;
   its attempt comes before that choice, so it runs on every instance,
   here on the fresh artifact, before the route is read. The attempt
   runs alone, under the figures' caps (300k tuples per relation, 3M in
   all), so any change to an allowance or to the search's binding count
   shows up as a diff against [route_attempt.expected]. *)

module Driver = Ppr_core.Driver
module Exec = Ppr_core.Exec

let attempt ~rng meth db cq =
  let compiled = Driver.prepare ~rng:(rng ()) meth db cq in
  let limits = Relalg.Limits.create ~max_tuples:300_000 ~max_total:3_000_000 () in
  let tried = Exec.attempt ~ctx:(Relalg.Ctx.create ~limits ()) db cq compiled in
  let route = Ghd.decision_name (Exec.decision (Exec.route db cq compiled)) in
  match tried with
  | None -> Printf.sprintf "%s=%s attempt=none" (Driver.method_name meth) route
  | Some a ->
    Printf.sprintf "%s=%s allowance=%d bindings=%d attempt=%s"
      (Driver.method_name meth) route a.Exec.allowance a.Exec.bindings
      (if a.Exec.answer = None then "exhausted" else "answered")

let () =
  List.iter
    (fun (name, rng, db, cq) ->
      Printf.printf "%s %s %s\n" name
        (attempt ~rng Driver.Wcoj db cq)
        (attempt ~rng Driver.Ghd db cq))
    Gate_instances.all
