(* The benchmark gates: each times or checks one claim of the engine at
   a fixed size and threshold, and fails when the claim does not hold.

     dune exec bench/gates.exe -- [GATE ...] [--json FILE]

   With no gate named, every gate runs. Each gate's verdict lands under
   its key in one JSON file (default BENCH_results.json), with
   [pass = true] when all its checks held; the exit status is 1 when any
   gate failed. *)

module Json = Telemetry.Json

(* name on the command line, key in the results file, body *)
let gates =
  [
    ("parallel", "parallel_comparison", Parallel_bench.run);
    ("wcoj", "wcoj_comparison", Wcoj_bench.run);
    ("ghd", "ghd_comparison", Ghd_bench.run);
    ("enum", "enumeration_comparison", Enum_bench.run);
    ("adaptive", "adaptive_comparison", Adaptive_bench.run);
    ("soak", "serve_soak", Serve_soak.run);
  ]

let usage () =
  Printf.eprintf "usage: gates.exe [GATE ...] [--json FILE]\ngates: %s\n"
    (String.concat ", " (List.map (fun (name, _, _) -> name) gates));
  exit 2

(* Run one gate; an exception fails it rather than the whole run. *)
let run_gate (name, key, body) =
  Printf.printf "\n== gate %s ==\n%!" name;
  let r = Harness.report () in
  let t0 = Unix.gettimeofday () in
  let fields =
    try body r
    with e ->
      Harness.fail r "%s raised %s" name (Printexc.to_string e);
      []
  in
  let pass = r.Harness.failures = [] in
  Printf.printf "gate %s: %s (%.2fs)\n%!" name
    (if pass then "PASS" else "FAIL")
    (Unix.gettimeofday () -. t0);
  (name, (key, Json.Obj (fields @ [ ("pass", Json.Bool pass) ])), pass)

let () =
  let json = ref "BENCH_results.json" and chosen = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: path :: rest ->
      json := path;
      parse rest
    | name :: rest when List.exists (fun (n, _, _) -> n = name) gates ->
      chosen := name :: !chosen;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    if !chosen = [] then gates
    else List.filter (fun (n, _, _) -> List.mem n !chosen) gates
  in
  let results = List.map run_gate selected in
  let oc = open_out !json in
  Json.to_channel oc (Json.Obj (List.map (fun (_, v, _) -> v) results));
  output_char oc '\n';
  close_out oc;
  let failed =
    List.filter_map
      (fun (name, _, pass) -> if pass then None else Some name)
      results
  in
  Printf.printf "\nwrote %s; %d of %d gates passed%s\n" !json
    (List.length selected - List.length failed)
    (List.length selected)
    (if failed = [] then "" else "; failed: " ^ String.concat ", " failed);
  if failed <> [] then exit 1
