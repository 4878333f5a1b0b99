(* Prints the structural gate's decisions, bounds and admission prices on
   the instances the benchmark runs ({!Gate_instances}). Each line carries
   the wcoj and ghd routes, the three bounds and the admission estimate in
   hexadecimal float notation, the ghd route's htw, and a digest of the
   bucket plan [Driver.compile] builds for each gated method, so any
   change to a decision, a bound bit or the fallback plan shows up as a
   diff against [route_gate.expected]. *)

module Driver = Ppr_core.Driver

let digest plan =
  String.sub (Digest.to_hex (Digest.string (Format.asprintf "%a" (Ppr_core.Plan.pp ()) plan))) 0 12

let report name ~rng db cq =
  let wcoj =
    match Driver.prepare ~rng:(rng ()) Driver.Wcoj db cq with
    | Driver.Deferred { Ppr_core.Exec.resolved; _ } -> (
      match Atomic.get resolved with
      | Some r -> Ghd.decision_name (Ppr_core.Exec.decision r)
      | None -> failwith "wcoj resolves its gate at prepare time")
    | _ -> failwith "wcoj prepares a gated artifact"
  in
  let prep = Ghd.prepare ~rng:(rng ()) db cq in
  let estimate = Serve.Admission.estimate (Serve.Admission.create ()) db ~key:name cq in
  Printf.printf
    "%s wcoj=%s ghd=%s binary=%h agm=%h bag=%h htw=%d estimate=%h plan.wcoj=%s \
     plan.ghd=%s\n"
    name wcoj
    (Ghd.decision_name prep.Ghd.decision)
    prep.Ghd.analysis.Ghd.binary_bound_log2 prep.Ghd.analysis.Ghd.agm.Wcoj.Agm.bound_log2
    prep.Ghd.ghd_bound_log2 prep.Ghd.htw estimate
    (digest (Driver.compile ~rng:(rng ()) Driver.Wcoj db cq))
    (digest (Driver.compile ~rng:(rng ()) Driver.Ghd db cq))

let () = List.iter (fun (name, rng, db, cq) -> report name ~rng db cq) Gate_instances.all
