(* SAT through the query pipeline (Section 7's "we have also tested our
   algorithms on queries constructed from 3-SAT and 2-SAT").

   Encodes random 3-SAT formulas as project-join queries, decides them
   with bucket elimination, cross-checks against brute force, and
   finally reads a model off one answer of the query that keeps every
   variable.

     dune exec examples/sat.exe *)

let () =
  let rng = Graphlib.Rng.make 2024 in
  Printf.printf "Random 3-SAT at the classic ratio sweep (12 variables):\n\n";
  List.iter
    (fun ratio ->
      let num_vars = 12 in
      let num_clauses = int_of_float (ratio *. float_of_int num_vars) in
      let cnf =
        Conjunctive.Cnf.random_ksat ~rng:(Graphlib.Rng.split rng) ~k:3 ~num_vars
          ~num_clauses
      in
      let cq = Conjunctive.Encode.sat_query ~mode:Conjunctive.Encode.Boolean cnf in
      let db = Conjunctive.Encode.sat_database cnf in
      let t0 = Unix.gettimeofday () in
      let sat = Ppr_core.Exec.nonempty db (Ppr_core.Bucket.compile cq) in
      let dt = Unix.gettimeofday () -. t0 in
      let brute = Conjunctive.Cnf.brute_force_satisfiable cnf in
      assert (sat = brute);
      Printf.printf
        "ratio %.1f (%3d clauses): %s via bucket elimination in %.4fs \
         (brute force agrees)\n"
        ratio num_clauses
        (if sat then "SAT  " else "UNSAT")
        dt)
    [ 1.0; 2.0; 3.0; 4.26; 6.0; 8.0 ];

  (* Model extraction: keep every variable in the answer, evaluate by
     bucket elimination, and read one answer row as a model. *)
  Printf.printf "\nExtracting a model from one answer:\n";
  let cnf =
    Conjunctive.Cnf.random_ksat ~rng:(Graphlib.Rng.split rng) ~k:3 ~num_vars:10
      ~num_clauses:25
  in
  let cq =
    Conjunctive.Encode.sat_query ~mode:(Conjunctive.Encode.Fraction 1.0)
      ~rng:(Graphlib.Rng.split rng) cnf
  in
  let db = Conjunctive.Encode.sat_database cnf in
  let answers = Ppr_core.Exec.run db (Ppr_core.Bucket.compile cq) in
  (match Relalg.Relation.to_list answers with
  | row :: _ ->
    (* A variable no clause mentions is not in the answer: set it false. *)
    let model = Array.make cnf.Conjunctive.Cnf.num_vars false in
    Array.iteri
      (fun i v -> model.(v) <- Relalg.Tuple.get row i = 1)
      (Relalg.Schema.to_array (Relalg.Relation.schema answers));
    Printf.printf "  model: %s\n"
      (String.concat ""
         (List.map (fun b -> if b then "1" else "0") (Array.to_list model)));
    assert (Conjunctive.Cnf.eval cnf model);
    Printf.printf "  verified against the formula.\n"
  | [] ->
    assert (not (Conjunctive.Cnf.brute_force_satisfiable cnf));
    Printf.printf "  formula is unsatisfiable.\n");

  (* 2-SAT for contrast: binary constraint scopes, thin join graph. *)
  Printf.printf "\n2-SAT (20 variables, ratio 2.0):\n";
  let cnf2 =
    Conjunctive.Cnf.random_ksat ~rng:(Graphlib.Rng.split rng) ~k:2 ~num_vars:20
      ~num_clauses:40
  in
  let cq2 = Conjunctive.Encode.sat_query ~mode:Conjunctive.Encode.Boolean cnf2 in
  let db2 = Conjunctive.Encode.sat_database cnf2 in
  let order = Ppr_core.Bucket.variable_order cq2 in
  Printf.printf "  induced width along MCS order: %d\n"
    (Ppr_core.Bucket.induced_width cq2 order);
  Printf.printf "  satisfiable: %b\n"
    (Ppr_core.Exec.nonempty db2 (Ppr_core.Bucket.compile ~order cq2))
