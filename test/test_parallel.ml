(* Tests for the multicore execution subsystem: the domain pool itself,
   and the range-split join producing exactly the sequential join's rows,
   in the same order.

   PPR_JOBS sets the pool width (default 4); CI runs the suite at 1 and
   at 4, so every property here is checked both with a degenerate
   single-domain pool (which executes inline) and a real one. The
   "ranges" cases use a pool of three domains at any PPR_JOBS. *)

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

(* One pool for the whole file; grain 1 so even tiny QCheck relations
   split their probe side into ranges instead of running as one. *)
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
   shapes that stress the range split — fewer probe rows than domains,
   one hot key whose matches land mostly in one range, an empty side
   (sometimes both), a product (an empty key), no matching keys,
   two-column keys and wide output rows. The build side is the smaller
   one, so the probe side is the larger (or [s] on a tie). *)
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
  let few_probe_rows =
    map2
      (fun rs ss ->
        case "fewer probe rows than domains" [ 0; 1 ]
          (List.map (fun (a, b) -> [ a; b ]) rs)
          [ 1; 2 ]
          (List.map (fun (b, c) -> [ b; c ]) ss))
      (list_size (int_range 1 3) (pair small small))
      (list_size (int_range 1 3) (pair small small))
  in
  let hot_key =
    map3
      (fun k rs ss ->
        (* Every build row and the first probe rows carry the key [k]; the
           rest of the probe side mostly misses, so the first range holds
           most of the output. *)
        let probe = List.mapi (fun i c -> [ (if i < 3 then k else 13 + i); c ]) ss in
        case "hot key" [ 0; 1 ] (List.map (fun a -> [ a; k ]) rs) [ 1; 2 ] probe)
      small (list_size (int_range 1 6) small)
      (list_size (int_range 10 40) small)
  in
  let empty_side =
    (* The probe side is the larger one, so it is empty only when both
       are; with one side empty, every probe range matches nothing. *)
    map2
      (fun left rs ->
        if left then case "empty side" [ 0; 1 ] [] [ 1; 2 ] rs
        else case "empty side" [ 0; 1 ] rs [ 1; 2 ] [])
      bool
      (list_size (int_range 0 3) (list_repeat 2 small))
  in
  let product =
    map2
      (fun rs ss -> case "product" [ 0; 1 ] rs [ 2; 3 ] ss)
      (rows 2 small) (rows 2 small)
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
         (1, few_probe_rows);
         (1, hot_key);
         (1, empty_side);
         (1, product);
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
        Relation.to_list (Ops.natural_join r s)
        = Relation.to_list (Ops.natural_join ~ctx:par_ctx r s));
    qtest (name "project of join") join_input_arbitrary (fun input ->
        let r, s = inputs input in
        let keep = Schema.of_list [ 0; 2 ] in
        Relation.to_list (Ops.project (Ops.natural_join r s) keep)
        = Relation.to_list
            (Ops.project ~ctx:par_ctx (Ops.natural_join ~ctx:par_ctx r s) keep));
    (* The semijoin kernel itself is sequential under any pool: what
       differs is the pooled join it filters, here by the even values of
       attribute 2. *)
    qtest (name "semijoin via join") join_input_arbitrary (fun input ->
        let r, s = inputs input in
        let evens = relation [ 2 ] (List.init 7 (fun i -> [ 2 * i ])) in
        Relation.to_list (Ops.semijoin (Ops.natural_join r s) evens)
        = Relation.to_list
            (Ops.semijoin ~ctx:par_ctx (Ops.natural_join ~ctx:par_ctx r s) evens));
  ]

(* The range-split join settles its guards from the summed exact count,
   so under any limits it trips the same guard, with the same reason,
   leaves the same total charged and, when it succeeds, writes the same
   rows in the same order as the sequential kernel. Part of the budget
   is spent before the join so [remaining] and [max_total] differ. *)
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
          | out -> Ok (Relation.to_list out)
          | exception Limits.Abort reason -> Error reason
        in
        (result, Limits.total_charged limits)
      in
      run None = run (Some pool))

(* A join big enough to split into genuinely non-trivial ranges, with a
   skewed key distribution (squares concentrate mass on few keys). *)
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
  check_bool "identical rows, in order" true
    (List.equal Tuple.equal (Relation.to_list seq) (Relation.to_list par))

let test_parallel_join_respects_budget () =
  let n = 5_000 in
  let r = relation [ 0; 1 ] (List.init n (fun i -> [ i; i mod 50 ]))
  and s = relation [ 1; 2 ] (List.init n (fun i -> [ i mod 50; i ])) in
  (* ~100 matches per probe row: the full output (~500k) dwarfs the
     budget, so the ranges' summed count must trip it before any row is
     written. *)
  let limits = Limits.create ~max_total:10_000 ~max_tuples:max_int () in
  let ctx = Ctx.create ~limits ~pool () in
  match Ops.natural_join ~ctx r s with
  | _ -> Alcotest.fail "expected Abort"
  | exception Limits.Abort reason ->
    Alcotest.(check string) "typed reason" "tuple-budget"
      (Limits.reason_label reason)

(* Join [r] and [s] under [ctx] (plus telemetry) and return the output
   and the [parallel.ranges] attribute of its span, if it set one. *)
let traced_join ctx r s =
  let sink, spans = Telemetry.Sink.memory () in
  let t = Telemetry.create sink in
  let out = Ops.natural_join ~ctx:(Ctx.with_telemetry ctx t) r s in
  Telemetry.close t;
  let ranges =
    List.find_map
      (fun sp ->
        if Telemetry.Span.name sp = "op.join.hash" then
          Telemetry.Span.attr sp "parallel.ranges"
        else None)
      (spans ())
  in
  (out, ranges)

(* A pooled join's span names how many probe ranges ran: one per domain,
   but never more than there are probe rows; a single-domain pool runs
   no ranges and sets no attribute. *)
let test_ranges_attr () =
  let ranges_of n =
    snd
      (traced_join (Ctx.create ~pool ())
         (relation [ 0; 1 ] (List.init n (fun i -> [ i; i mod 3 ])))
         (relation [ 1; 2 ] (List.init n (fun i -> [ i mod 3; i ]))))
  in
  let expect n = if jobs > 1 then Some (Telemetry.Attr.Int (min jobs n)) else None in
  check_bool "one range per domain" true (ranges_of 100 = expect 100);
  check_bool "no more ranges than probe rows" true (ranges_of 2 = expect 2)

(* ------------------------------------------------------------------ *)
(* Range shapes on a three-domain pool.                                *)

(* A pool of fixed width, whatever PPR_JOBS says, so these cases split
   the probe side even when the suite runs with a single-domain pool;
   three domains split most probe sides into ranges of unequal size. *)
let pool3 = Pool.create ~num_domains:3 ~grain:1 ()
let ctx3 = Ctx.create ~pool:pool3 ()

let same_rows a b = List.equal Tuple.equal (Relation.to_list a) (Relation.to_list b)

(* Run the join sequentially and on [ctx] (the three-domain pool by
   default); check that the pooled output is the sequential one row for
   row, with the same schema, that it has [card] rows, and that
   [ranges] probe ranges ran ([None]: the join did not split). *)
let check_split ?(ctx = ctx3) ~card ~ranges r s =
  let seq = Ops.natural_join r s in
  let par, attr = traced_join ctx r s in
  check_bool "same schema" true
    (Schema.equal (Relation.schema seq) (Relation.schema par));
  check_bool "identical rows, in order" true (same_rows seq par);
  check_int "cardinality" card (Relation.cardinality par);
  check_bool "ranges that ran" true
    (attr = Option.map (fun n -> Telemetry.Attr.Int n) ranges);
  par

(* 7 probe rows over 3 domains: ranges [0, 2), [2, 4) and [4, 7). *)
let test_uneven_ranges () =
  let r = relation [ 0; 1 ] [ [ 10; 0 ]; [ 11; 1 ] ]
  and s = relation [ 1; 2 ] (List.init 7 (fun i -> [ i mod 2; i ])) in
  ignore (check_split ~card:7 ~ranges:(Some 3) r s)

let test_fewer_probe_rows () =
  let r = relation [ 0; 1 ] [ [ 10; 0 ]; [ 11; 1 ] ]
  and s = relation [ 1; 2 ] [ [ 0; 5 ]; [ 1; 6 ] ] in
  ignore (check_split ~card:2 ~ranges:(Some 2) r s)

let test_one_probe_row () =
  let r = relation [ 0; 1 ] [ [ 10; 0 ] ] and s = relation [ 1; 2 ] [ [ 0; 5 ] ] in
  ignore (check_split ~card:1 ~ranges:(Some 1) r s)

(* The probe side is the larger one, so it is empty only when both are;
   that is below any grain, so the join runs without the pool, and the
   output still has the joined schema. *)
let test_empty_probe_side () =
  let par =
    check_split ~card:0 ~ranges:None (relation [ 0; 1 ] []) (relation [ 1; 2 ] [])
  in
  check_bool "joined schema" true
    (Schema.equal (Schema.of_list [ 0; 1; 2 ]) (Relation.schema par))

(* An empty build side: every range probes and matches nothing. *)
let test_empty_build_side () =
  let s = relation [ 1; 2 ] (List.init 5 (fun i -> [ i; i ])) in
  ignore (check_split ~card:0 ~ranges:(Some 3) (relation [ 0; 1 ] []) s)

(* One hot key: only the first three of 30 probe rows match, each with
   all four build rows, so the first range writes all the output and
   the others write none. *)
let test_hot_key () =
  let r = relation [ 0; 1 ] (List.init 4 (fun i -> [ i; 7 ]))
  and s =
    relation [ 1; 2 ] (List.init 30 (fun i -> [ (if i < 3 then 7 else 100 + i); i ]))
  in
  let par = check_split ~card:12 ~ranges:(Some 3) r s in
  let matching =
    List.filter_map
      (fun t -> match Tuple.to_list t with [ 7; c ] -> Some c | _ -> None)
      (Relation.to_list s)
  in
  Alcotest.(check (list int))
    "probe-major, in the probe side's order"
    (List.concat_map (fun c -> [ c; c; c; c ]) matching)
    (List.map (fun t -> List.nth (Tuple.to_list t) 2) (Relation.to_list par))

(* Every probe row carries the one key, so a run of equal keys crosses
   both range boundaries. *)
let test_key_run_across_ranges () =
  let r = relation [ 0; 1 ] (List.init 3 (fun i -> [ i; 1 ]))
  and s = relation [ 1; 2 ] (List.init 10 (fun i -> [ 1; i ])) in
  ignore (check_split ~card:30 ~ranges:(Some 3) r s)

(* A product (an empty key) splits too, and pairs every row. *)
let test_product_splits () =
  let r = relation [ 0; 1 ] (List.init 4 (fun i -> [ i; i ]))
  and s = relation [ 2; 3 ] (List.init 9 (fun i -> [ i; i + 1 ])) in
  let par = check_split ~card:36 ~ranges:(Some 3) r s in
  check_bool "every pair" true
    (List.for_all
       (fun a ->
         List.for_all
           (fun b -> Relation.mem par (Tuple.of_list [ a; a; b; b + 1 ]))
           (List.init 9 Fun.id))
       (List.init 4 Fun.id))

(* With [s] the smaller side, the build side is [s] and [r] is probed;
   the output columns are still [r]'s, then [s]'s others. *)
let test_build_on_s () =
  let r = relation [ 0; 1 ] (List.init 9 (fun i -> [ i; i mod 3 ]))
  and s = relation [ 1; 2 ] [ [ 0; 20 ]; [ 2; 22 ] ] in
  let par = check_split ~card:6 ~ranges:(Some 3) r s in
  Alcotest.(check (list (list int)))
    "r's order, r's columns first"
    (List.filter_map
       (fun t ->
         match Tuple.to_list t with
         | [ a; 0 ] -> Some [ a; 0; 20 ]
         | [ a; 2 ] -> Some [ a; 2; 22 ]
         | _ -> None)
       (Relation.to_list r))
    (List.map Tuple.to_list (Relation.to_list par))

(* Below the pool's grain, and on a single-domain pool, the join runs as
   one range without the pool and sets no attribute. *)
let test_below_grain () =
  let coarse = Pool.create ~num_domains:3 ~grain:1_000 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown coarse) (fun () ->
      let r = relation [ 0; 1 ] (List.init 20 (fun i -> [ i; i mod 4 ]))
      and s = relation [ 1; 2 ] (List.init 20 (fun i -> [ i mod 4; i ])) in
      ignore (check_split ~ctx:(Ctx.create ~pool:coarse ()) ~card:100 ~ranges:None r s))

let test_single_domain_pool () =
  let single = Pool.create ~num_domains:1 ~grain:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown single) (fun () ->
      let r = relation [ 0; 1 ] (List.init 20 (fun i -> [ i; i mod 4 ]))
      and s = relation [ 1; 2 ] (List.init 20 (fun i -> [ i mod 4; i ])) in
      ignore (check_split ~ctx:(Ctx.create ~pool:single ()) ~card:100 ~ranges:None r s))

(* A join run inside a pool task re-enters the pool: its ranges run
   inline on the worker and still write the sequential rows. *)
let test_join_inside_task () =
  let r = relation [ 0; 1 ] (List.init 50 (fun i -> [ i; i mod 5 ]))
  and s = relation [ 1; 2 ] (List.init 40 (fun i -> [ i mod 5; i ])) in
  let seq = Ops.natural_join r s in
  let outs =
    Pool.run pool3 (List.init 3 (fun _ () -> Ops.natural_join ~ctx:ctx3 r s))
  in
  check_bool "every task wrote the sequential rows" true
    (List.for_all (same_rows seq) outs)

(* Run the join under fresh [limits] with and without the pool: the
   rows or the abort reason, and the total charged. *)
let guarded_runs make_limits r s =
  let run pool =
    let limits = make_limits () in
    let result =
      match Ops.natural_join ~ctx:(Ctx.create ~limits ?pool ()) r s with
      | out -> Ok (Relation.to_list out)
      | exception Limits.Abort reason -> Error reason
    in
    (result, Limits.total_charged limits)
  in
  (run None, run (Some pool3))

let skewed n =
  ( relation [ 0; 1 ] (List.init n (fun i -> [ i; i mod 7 ])),
    relation [ 1; 2 ] (List.init n (fun i -> [ i mod 7; i ])) )

(* A successful pooled join charges exactly its output, as the
   sequential one does. *)
let test_charges_output () =
  let r, s = skewed 70 in
  let seq, par = guarded_runs Limits.unlimited r s in
  check_bool "same rows and charge" true (seq = par);
  check_int "charged the output" 700 (snd par)

(* The single-relation cap trips from the summed count of the ranges,
   with the same reason and charge as the sequential kernel. *)
let test_cardinality_abort () =
  let r, s = skewed 70 in
  let seq, par =
    guarded_runs (fun () -> Limits.create ~max_tuples:100 ~max_total:max_int ()) r s
  in
  check_bool "same outcome" true (seq = par);
  check_bool "cardinality cap" true (fst par = Error (Limits.Cardinality 101))

(* A fault injected once a tuple count is reached lands in the one
   settle, before any range fills. *)
let test_injected_fault () =
  let make () =
    let l = Limits.unlimited () in
    Limits.set_hook l
      (Some
         (fun ~ops:_ ~total ->
           if total >= 300 then raise (Limits.Abort (Limits.Injected "chaos"))));
    l
  in
  let r, s = skewed 70 in
  let seq, par = guarded_runs make r s in
  check_bool "same outcome" true (seq = par);
  check_bool "injected" true (fst par = Error (Limits.Injected "chaos"))

(* A deadline that passes once the output is settled is seen by the
   fills' polls: on a worker, the abort is re-raised on the submitting
   domain with the same reason and charge as the sequential fill. *)
let test_deadline_in_fill () =
  let make () =
    let expired = Atomic.make false in
    let clock () = if Atomic.get expired then 100.0 else 0.0 in
    let l =
      Limits.create ~max_tuples:max_int ~max_total:max_int
        ~deadline_seconds:1.0 ~clock ()
    in
    Limits.set_hook l
      (Some (fun ~ops:_ ~total -> if total > 0 then Atomic.set expired true));
    l
  in
  let r, s = skewed 210 in
  let seq, par = guarded_runs make r s in
  check_bool "same outcome" true (seq = par);
  check_bool "deadline" true (fst par = Error Limits.Deadline);
  check_int "charged the settled output" (210 * 30) (snd par)

(* A pooled join records the same statistics as the sequential one. *)
let test_stats_match () =
  let r, s = skewed 70 in
  let run pool =
    let stats = Relalg.Stats.create () in
    ignore (Ops.natural_join ~ctx:(Ctx.create ~stats ?pool ()) r s);
    Relalg.Stats.
      (joins stats, max_cardinality stats, max_arity stats, tuples_produced stats)
  in
  check_bool "same stats" true (run None = run (Some pool3))

(* The fused join-project counts its join as one range under any pool:
   same rows in the same order, and no [parallel.ranges] on its span. *)
let test_join_project_sequential () =
  let r, s = skewed 70 in
  let keep = Schema.of_list [ 0; 2 ] in
  let sink, spans = Telemetry.Sink.memory () in
  let t = Telemetry.create sink in
  let par = Ops.join_project ~ctx:(Ctx.with_telemetry ctx3 t) r s keep in
  Telemetry.close t;
  check_bool "identical rows, in order" true
    (same_rows (Ops.join_project r s keep) par);
  check_bool "no ranges" true
    (List.for_all
       (fun sp -> Telemetry.Span.attr sp "parallel.ranges" = None)
       (spans ()))

let prop_three_domains =
  qtest ~count:300 "jobs=1 = 3 domains (join)" join_case_arbitrary (fun c ->
      let r = relation c.r_attrs c.r_rows and s = relation c.s_attrs c.s_rows in
      same_rows (Ops.natural_join r s) (Ops.natural_join ~ctx:ctx3 r s))

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
             Alcotest.test_case "ranges span attribute" `Quick test_ranges_attr;
             prop_abort_deterministic;
           ] );
       ( "ranges",
         [
           Alcotest.test_case "uneven ranges" `Quick test_uneven_ranges;
           Alcotest.test_case "fewer probe rows than domains" `Quick
             test_fewer_probe_rows;
           Alcotest.test_case "one probe row" `Quick test_one_probe_row;
           Alcotest.test_case "empty probe side" `Quick test_empty_probe_side;
           Alcotest.test_case "empty build side" `Quick test_empty_build_side;
           Alcotest.test_case "hot key in one range" `Quick test_hot_key;
           Alcotest.test_case "key run across ranges" `Quick
             test_key_run_across_ranges;
           Alcotest.test_case "product splits" `Quick test_product_splits;
           Alcotest.test_case "build on s" `Quick test_build_on_s;
           Alcotest.test_case "below grain" `Quick test_below_grain;
           Alcotest.test_case "single-domain pool" `Quick test_single_domain_pool;
           Alcotest.test_case "join inside a task" `Quick test_join_inside_task;
           Alcotest.test_case "charges the output" `Quick test_charges_output;
           Alcotest.test_case "cardinality abort" `Quick test_cardinality_abort;
           Alcotest.test_case "injected fault" `Quick test_injected_fault;
           Alcotest.test_case "deadline in fill" `Quick test_deadline_in_fill;
           Alcotest.test_case "stats match" `Quick test_stats_match;
           Alcotest.test_case "join-project stays sequential" `Quick
             test_join_project_sequential;
           prop_three_domains;
         ] );
       ( "telemetry",
         [
           Alcotest.test_case "atomic metrics across domains" `Quick
             test_metrics_cross_domain;
           Alcotest.test_case "span tid" `Quick test_span_tid;
         ] );
     ]
    : unit Alcotest.test list)
