(* The machine's current speed, from a fixed reference workload.

   The benchmark was built on a 2-vCPU virtual machine on a host shared
   with other tenants. For half an hour and more at a time, every
   workload ran at about half its speed, on the process CPU clock too,
   while the guest saw almost no steal time: the host's cores, caches
   and memory are shared, and a neighbour's load slows the code itself.

   So every [interval] seconds of a run, between timed spans, the
   benchmark times a small hash join, written here and using none of the
   repository's code, and at the end divides each gated time by how much
   slower than [nominal] that join ran (the median over the run).
   A gated time reads as CPU time at the speed at which the join takes
   [nominal] seconds. A change to the program moves it; a change in the
   neighbours' load moves the join too, and so, in the main, cancels
   out. README.md ("Which clock") gives what was measured of how well. *)

let nominal = 0.020
let interval = 0.5

(* Join two relations of 40,000 pairs on their first column: build a
   hash table on one, probe it with the other, and collect the joined
   triples, as the repository's hash join does. *)
let join () =
  let n = 40_000 in
  let key i = (i * 7919) land 0xffff in
  let build = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.add build (key i) [| key i; i |]
  done;
  let out = ref [] in
  for i = 0 to n - 1 do
    let k = (i * 104729) land 0xffff in
    List.iter (fun r -> out := [| k; r.(1); i |] :: !out) (Hashtbl.find_all build k)
  done;
  List.length !out

let samples = ref []
let last = ref neg_infinity

let sample () =
  let c = Report.cpu () in
  ignore (Sys.opaque_identity (join ()));
  samples := (Report.cpu () -. c) :: !samples;
  last := Report.now ()

(* Time the reference join if the last sample is [interval] old. Call it
   between timed spans, never inside one. *)
let tick () = if Report.now () -. !last >= interval then sample ()

(* How much slower than nominal the machine ran over the run so far: the
   median over the samples. *)
let factor () =
  if !samples = [] then sample ();
  Stats.median !samples /. nominal

(* For the run's notes: how fast the reference ran over the run. *)
let summary () =
  Printf.sprintf "median %.2f ms (nominal %.0f ms), quartiles %.2f-%.2f ms, %d samples"
    (1000. *. Stats.median !samples) (1000. *. nominal)
    (1000. *. Stats.quantile !samples 0.25) (1000. *. Stats.quantile !samples 0.75)
    (List.length !samples)
