(* Tests for the multicore execution subsystem: the domain pool itself,
   and the hash-partitioned parallel join producing exactly the same
   tuple sets as sequential execution.

   PPR_JOBS sets the pool width (default 4); CI runs the suite at 1 and
   at 4, so every property here is checked both with a degenerate
   single-domain pool (which executes inline) and a real one. *)

open Helpers
module Pool = Parallel.Pool
module Schema = Relalg.Schema
module Tuple = Relalg.Tuple
module Relation = Relalg.Relation
module Ops = Relalg.Ops
module Ctx = Relalg.Ctx
module Limits = Relalg.Limits

let jobs =
  match Sys.getenv_opt "PPR_JOBS" with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 4)
  | None -> 4

(* One pool for the whole file; grain 1 so even tiny QCheck relations are
   routed through the partitioned kernel instead of the sequential
   fallback. *)
let pool = Pool.create ~num_domains:jobs ~grain:1 ()
let par_ctx = Ctx.create ~pool ()

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

exception Boom of int

let test_pool_size () =
  check_int "size" jobs (Pool.size pool);
  check_int "grain" 1 (Pool.grain pool);
  check_int "default grain" 16384 (Pool.grain (Pool.create ~num_domains:1 ()))

let test_pool_empty () =
  Alcotest.(check (list int)) "no tasks" [] (Pool.run pool [])

let test_pool_many_tasks () =
  let n = 10_000 in
  let results = Pool.run pool (List.init n (fun i () -> i * i)) in
  check_int "all ran" n (List.length results);
  Alcotest.(check (list int))
    "in submission order"
    (List.init n (fun i -> i * i))
    results

let test_pool_map () =
  Alcotest.(check (list int)) "map keeps order" [ 2; 4; 6; 8 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3; 4 ])

let test_pool_exception () =
  Alcotest.check_raises "task error propagates" (Boom 3) (fun () ->
      ignore
        (Pool.run pool
           (List.init 8 (fun i () -> if i >= 3 then raise (Boom i) else i))))

let test_pool_first_failure_wins () =
  (* Several tasks fail; the one with the lowest index is re-raised, so
     the error a caller sees is deterministic. *)
  Alcotest.check_raises "lowest index re-raised" (Boom 2) (fun () ->
      ignore
        (Pool.run pool
           (List.init 8 (fun i () ->
                if i = 5 || i = 2 || i = 7 then raise (Boom i) else i))))

let test_pool_reuse_after_failure () =
  (try ignore (Pool.run pool [ (fun () -> raise (Boom 0)) ])
   with Boom _ -> ());
  Alcotest.(check (list int)) "pool survives a failed batch" [ 1; 2; 3 ]
    (Pool.run pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ])

let test_pool_nested_run () =
  (* A task that re-enters the pool must not deadlock; nested batches run
     inline on the worker. *)
  let nested =
    Pool.run pool
      (List.init 4 (fun i () ->
           List.fold_left ( + ) 0
             (Pool.run pool (List.init 3 (fun j () -> (10 * i) + j)))))
  in
  Alcotest.(check (list int)) "nested totals" [ 3; 33; 63; 93 ] nested

let test_pool_shutdown () =
  let p = Pool.create ~num_domains:jobs () in
  Alcotest.(check (list int)) "works before" [ 7 ] (Pool.run p [ (fun () -> 7) ]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* After shutdown the pool degrades to inline execution. *)
  Alcotest.(check (list int)) "inline after shutdown" [ 8 ]
    (Pool.run p [ (fun () -> 8) ])

let test_pool_not_worker_outside () =
  check_bool "submitter is not a worker" false (Pool.current_is_worker ());
  let inside = Pool.run pool (List.init 4 (fun _ () -> Pool.current_is_worker ())) in
  check_bool "tasks run as workers" true (List.for_all Fun.id inside)

(* ------------------------------------------------------------------ *)
(* Parallel join = sequential join, property-checked.                  *)

(* Two relations sharing attribute 1: R(0,1) and S(1,2), with values in
   a small domain so joins actually match. *)
let join_input_arbitrary =
  QCheck.(
    pair
      (list_of_size (Gen.int_range 0 40) (pair (int_bound 12) (int_bound 12)))
      (list_of_size (Gen.int_range 0 40) (pair (int_bound 12) (int_bound 12))))

let inputs (rs, ss) =
  ( relation [ 0; 1 ] (List.map (fun (a, b) -> [ a; b ]) rs),
    relation [ 1; 2 ] (List.map (fun (b, c) -> [ b; c ]) ss) )

(* Join inputs as (schema, rows) pairs: the random case above, plus the
   shapes that stress the shard split — every key in one shard (the
   other shards empty), an empty side, no matching keys, two-column keys
   and wide output rows. *)
type join_case = {
  shape : string;
  r_attrs : int list;
  r_rows : int list list;
  s_attrs : int list;
  s_rows : int list list;
}

let join_case_arbitrary =
  let open QCheck.Gen in
  let rows width cell = list_size (int_range 0 40) (list_repeat width cell) in
  let small = int_bound 12 in
  let case shape r_attrs r_rows s_attrs s_rows =
    { shape; r_attrs; r_rows; s_attrs; s_rows }
  in
  let random =
    map
      (fun (rs, ss) ->
        case "random" [ 0; 1 ]
          (List.map (fun (a, b) -> [ a; b ]) rs)
          [ 1; 2 ]
          (List.map (fun (b, c) -> [ b; c ]) ss))
      (QCheck.gen join_input_arbitrary)
  in
  let one_key =
    map3
      (fun k rs ss ->
        case "one key" [ 0; 1 ]
          (List.map (fun a -> [ a; k ]) rs)
          [ 1; 2 ]
          (List.map (fun c -> [ k; c ]) ss))
      small (list_size (int_range 1 40) small)
      (list_size (int_range 1 40) small)
  in
  let empty_side =
    map2
      (fun left rs ->
        if left then case "empty left" [ 0; 1 ] [] [ 1; 2 ] rs
        else case "empty right" [ 0; 1 ] rs [ 1; 2 ] [])
      bool (rows 2 small)
  in
  let no_match =
    map2
      (fun rs ss ->
        case "no match" [ 0; 1 ]
          (List.map (fun (a, b) -> [ a; b ]) rs)
          [ 1; 2 ]
          (List.map (fun (b, c) -> [ b + 13; c ]) ss))
      (list_size (int_range 1 40) (pair small small))
      (list_size (int_range 1 40) (pair small small))
  in
  let two_col_keys =
    map2
      (fun rs ss -> case "two-column key" [ 0; 1; 2 ] rs [ 1; 2; 3 ] ss)
      (rows 3 (int_bound 3))
      (rows 3 (int_bound 3))
  in
  let wide =
    map2
      (fun rs ss ->
        case "wide" (List.init 8 Fun.id) rs (List.init 9 (fun i -> i + 7)) ss)
      (rows 8 (int_bound 3))
      (rows 9 (int_bound 3))
  in
  let print c =
    let rows rs =
      String.concat "; "
        (List.map
           (fun r -> "[" ^ String.concat "," (List.map string_of_int r) ^ "]")
           rs)
    in
    Printf.sprintf "%s: R = {%s}, S = {%s}" c.shape (rows c.r_rows)
      (rows c.s_rows)
  in
  QCheck.make ~print
    (frequency
       [
         (4, random);
         (1, one_key);
         (1, empty_side);
         (1, no_match);
         (1, two_col_keys);
         (1, wide);
       ])

let equiv_props =
  let name op = Printf.sprintf "jobs=1 = jobs=%d (%s)" jobs op in
  [
    qtest ~count:300 (name "join") join_case_arbitrary (fun c ->
        let r = relation c.r_attrs c.r_rows
        and s = relation c.s_attrs c.s_rows in
        sorted_rows (Ops.natural_join r s)
        = sorted_rows (Ops.natural_join ~ctx:par_ctx r s));
    qtest (name "project of join") join_input_arbitrary (fun input ->
        let r, s = inputs input in
        let keep = Schema.of_list [ 0; 2 ] in
        sorted_rows (Ops.project (Ops.natural_join r s) keep)
        = sorted_rows
            (Ops.project ~ctx:par_ctx (Ops.natural_join ~ctx:par_ctx r s) keep));
    qtest (name "semijoin via join") join_input_arbitrary (fun input ->
        let r, s = inputs input in
        sorted_rows (Ops.semijoin r s)
        = sorted_rows (Ops.semijoin ~ctx:par_ctx r s));
  ]

(* The partitioned join settles its guards from the exact output count,
   so under any limits it trips the same guard, with the same reason,
   and leaves the same total charged as the sequential kernel. Part of
   the budget is spent before the join so [remaining] and [max_total]
   differ. *)
let prop_abort_deterministic =
  let limits_arbitrary =
    QCheck.(
      quad join_input_arbitrary (int_bound 150) (int_bound 150) (int_bound 60))
  in
  qtest ~count:300
    (Printf.sprintf "jobs=1 = jobs=%d (abort reason)" jobs)
    limits_arbitrary
    (fun (input, max_tuples, max_total, spent) ->
      let r, s = inputs input in
      let run pool =
        let limits = Limits.create ~max_tuples ~max_total () in
        Limits.charge limits (min spent max_total);
        let result =
          match Ops.natural_join ~ctx:(Ctx.create ~limits ?pool ()) r s with
          | out -> Ok (sorted_rows out)
          | exception Limits.Abort reason -> Error reason
        in
        (result, Limits.total_charged limits)
      in
      run None = run (Some pool))

(* A join big enough to split into genuinely non-trivial shards, with a
   skewed key distribution (powers concentrate mass on few keys). *)
let test_big_join_identical () =
  let n = 20_000 in
  let key i = i * i mod 4096 in
  let r = relation [ 0; 1 ] (List.init n (fun i -> [ i; key i ]))
  and s = relation [ 1; 2 ] (List.init n (fun i -> [ key (i + 17); i ])) in
  let seq = Ops.natural_join r s in
  let par = Ops.natural_join ~ctx:par_ctx r s in
  check_bool "nonempty" true (Relation.cardinality seq > 0);
  check_int "same cardinality" (Relation.cardinality seq)
    (Relation.cardinality par);
  check_bool "identical sorted tuples" true
    (List.equal Tuple.equal
       (Relation.to_sorted_list seq)
       (Relation.to_sorted_list par))

let test_parallel_join_respects_budget () =
  let n = 5_000 in
  let r = relation [ 0; 1 ] (List.init n (fun i -> [ i; i mod 50 ]))
  and s = relation [ 1; 2 ] (List.init n (fun i -> [ i mod 50; i ])) in
  (* ~100 matches per probe row: the full output (~500k) dwarfs the
     budget, so the shards' summed count must trip it before any row is
     written. *)
  let limits = Limits.create ~max_total:10_000 ~max_tuples:max_int () in
  let ctx = Ctx.create ~limits ~pool () in
  match Ops.natural_join ~ctx r s with
  | _ -> Alcotest.fail "expected Abort"
  | exception Limits.Abort reason ->
    Alcotest.(check string) "typed reason" "tuple-budget"
      (Limits.reason_label reason)

(* ------------------------------------------------------------------ *)
(* Telemetry under domains                                             *)

let test_metrics_cross_domain () =
  let registry = Telemetry.Metrics.create () in
  let hits = Telemetry.Metrics.counter registry "hits" in
  let peak = Telemetry.Metrics.max_gauge registry "peak" in
  ignore
    (Pool.run pool
       (List.init 8 (fun i () ->
            for j = 1 to 1_000 do
              Telemetry.Metrics.incr hits;
              Telemetry.Metrics.observe_max peak ((i * 1_000) + j)
            done)));
  check_int "no lost increments" 8_000 (Telemetry.Metrics.value hits);
  check_int "gauge saw the max" 8_000 (Telemetry.Metrics.peak peak)

let test_span_tid () =
  let sink, spans = Telemetry.Sink.memory () in
  let t = Telemetry.create sink in
  Telemetry.with_span t "root" (fun _ -> ());
  Telemetry.close t;
  match spans () with
  | [ span ] ->
    check_int "span carries the emitting domain" (Domain.self () :> int)
      (Telemetry.Span.tid span)
  | other ->
    Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length other))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "parallel"
    ([
       ( "pool",
         [
           Alcotest.test_case "size and grain" `Quick test_pool_size;
           Alcotest.test_case "empty batch" `Quick test_pool_empty;
           Alcotest.test_case "10k tasks" `Quick test_pool_many_tasks;
           Alcotest.test_case "map order" `Quick test_pool_map;
           Alcotest.test_case "exception propagates" `Quick test_pool_exception;
           Alcotest.test_case "first failure wins" `Quick
             test_pool_first_failure_wins;
           Alcotest.test_case "reuse after failure" `Quick
             test_pool_reuse_after_failure;
           Alcotest.test_case "nested run" `Quick test_pool_nested_run;
           Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
           Alcotest.test_case "worker flag" `Quick test_pool_not_worker_outside;
         ] );
       ( "join",
         equiv_props
         @ [
             Alcotest.test_case "big skewed join identical" `Quick
               test_big_join_identical;
             Alcotest.test_case "budget abort from workers" `Quick
               test_parallel_join_respects_budget;
             prop_abort_deterministic;
           ] );
       ( "telemetry",
         [
           Alcotest.test_case "atomic metrics across domains" `Quick
             test_metrics_cross_domain;
           Alcotest.test_case "span tid" `Quick test_span_tid;
         ] );
     ]
    : unit Alcotest.test list)
