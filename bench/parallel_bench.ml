(* Parallel gate ("parallel_comparison"): one large columnar natural
   join timed sequentially and through a domain pool, and the figure-3
   sweep (scale 0.8, 3 seeds) at jobs=1 against jobs=4.

   The join is R(a,b) |><| S(b,c) with 1M rows per side and ~one match
   per probe row, so the output is also ~1M tuples. The pooled join must
   produce exactly the sequential rows, in the same order, everywhere.
   Where the machine has at least [Harness.jobs] cores it must also be
   >= 1.5x faster, and the pooled figure sweep must not be slower
   ([Harness.pooled_sweep]); on a smaller box the domains timeshare one
   core and a speedup is physically impossible, so the ratios are only
   recorded. *)

let rows = 1_000_000
let reps = 3
let threshold = 1.5

(* Deterministic data: a splitmix-style scramble keyed on the row index,
   so both sides carry the same key distribution without sharing rows. *)
let scramble x =
  let x = (x + 0x9e3779b9) * 0x85ebca6b land 0x3fffffff in
  let x = (x lxor (x lsr 13)) * 0xc2b2ae35 land 0x3fffffff in
  x lxor (x lsr 16)

let build_side ~schema ~salt ~key_col n =
  let rel = Relalg.Relation.create ~size_hint:n schema in
  for i = 0 to n - 1 do
    let key = scramble (i * 2 + salt) mod n in
    let payload = i in
    let tup =
      if key_col = 0 then Relalg.Tuple.of_list [ key; payload ]
      else Relalg.Tuple.of_list [ payload; key ]
    in
    ignore (Relalg.Relation.add rel tup)
  done;
  rel

let figure3 () =
  match Experiments.Figures.by_name "3" with
  | Some f -> f ~scale:0.8 ~seeds:3
  | None -> invalid_arg "parallel gate: no figure 3"

let run r =
  let j = Harness.jobs and cores = Harness.cores in
  let enforced = cores >= j in
  (* R over variables (a=0, b=1), S over (b=1, c=2): the join is on b. *)
  let left =
    build_side ~schema:(Relalg.Schema.of_list [ 0; 1 ]) ~salt:1 ~key_col:1 rows
  in
  let right =
    build_side ~schema:(Relalg.Schema.of_list [ 1; 2 ]) ~salt:2 ~key_col:0 rows
  in
  Printf.printf "parallel join: %d rows/side, jobs=%d, %d cores, reps=%d\n%!"
    rows j cores reps;
  let seq_out, seq_s =
    Harness.time_best ~reps (fun () -> Relalg.Ops.natural_join left right)
  in
  let pool = Parallel.Pool.create ~num_domains:j () in
  let par_out, par_s =
    Fun.protect
      ~finally:(fun () -> Parallel.Pool.shutdown pool)
      (fun () ->
        let ctx = Relalg.Ctx.create ~pool () in
        Harness.time_best ~reps (fun () ->
            Relalg.Ops.natural_join ~ctx left right))
  in
  let identical =
    List.equal Relalg.Tuple.equal
      (Relalg.Relation.to_list seq_out)
      (Relalg.Relation.to_list par_out)
  in
  let speedup = seq_s /. Float.max par_s 1e-12 in
  Printf.printf
    "sequential: %.4fs   pooled(%d): %.4fs   speedup: %.2fx   output: %d \
     tuples, identical=%b\n%!"
    seq_s j par_s speedup
    (Relalg.Relation.cardinality seq_out)
    identical;
  Harness.check r identical "pooled join output differs from sequential";
  if enforced then
    Harness.check r (speedup >= threshold)
      "parallel join speedup %.2fx < %.2fx on %d cores" speedup threshold
      cores
  else
    Harness.note
      "join speedup not enforced (%d cores < %d jobs); checked on output \
       identity"
      cores j;
  let (), (), figure_wall =
    Harness.pooled_sweep r ~name:"figure 3 (scale 0.8, 3 seeds)" figure3
  in
  let open Telemetry.Json in
  [
    ("rows_per_side", Int rows);
    ("jobs", Int j);
    ("cores", Int cores);
    ("reps", Int reps);
    ("sequential_seconds", Float seq_s);
    ("parallel_seconds", Float par_s);
    ("speedup", Float speedup);
    ("output_tuples", Int (Relalg.Relation.cardinality seq_out));
    ("identical_output", Bool identical);
    ("threshold", Float threshold);
    ("speedup_enforced", Bool enforced);
    ("figure_wall", figure_wall);
  ]
