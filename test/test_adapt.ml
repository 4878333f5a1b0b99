(* Tests for the adaptive planning subsystem: the feedback store's
   decay blending and snapshot discipline, the gradient order search
   (validity and parity against the genetic planner), the invariance of
   answers under corrected estimates, the supervisor's mid-ladder
   re-plan, and the serving engine's feedback loop. *)

open Helpers
module Cq = Conjunctive.Cq
module Cost = Ppr_core.Cost
module Naive = Ppr_core.Naive
module Driver = Ppr_core.Driver
module Relation = Relalg.Relation
module Store = Adapt.Store
module Grad = Adapt.Grad
module Wire = Serve.Wire
module Json = Telemetry.Json

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Store: blending math                                                *)

let test_store_first_sample_taken_whole () =
  let s = Store.create ~decay:0.3 () in
  Store.observe s ~key:"k" ~measured:4.0 ~estimated:2.0;
  check_float "first ratio is the factor" 2.0 (Option.get (Store.factor s "k"));
  check_int "one key" 1 (Store.size s);
  check_int "one sample" 1 (Store.samples s)

let test_store_decay_blending () =
  let s = Store.create ~decay:0.5 () in
  Store.observe s ~key:"k" ~measured:4.0 ~estimated:2.0;
  Store.observe s ~key:"k" ~measured:1.0 ~estimated:2.0;
  (* log-space: 0.5 * ln 2 + 0.5 * ln 0.5 = 0 -> factor 1. *)
  check_float "geometric blend" 1.0 (Option.get (Store.factor s "k"));
  Store.observe s ~key:"k" ~measured:8.0 ~estimated:1.0;
  (* 0.5 * ln 1 + 0.5 * ln 8 = ln sqrt(8). *)
  check_float "decay weights the newest" (sqrt 8.0)
    (Option.get (Store.factor s "k"));
  check_int "samples accumulate" 3 (Store.samples s);
  let jumpy = Store.create ~decay:1.0 () in
  Store.observe jumpy ~key:"k" ~measured:4.0 ~estimated:2.0;
  Store.observe jumpy ~key:"k" ~measured:9.0 ~estimated:3.0;
  check_float "decay 1.0 keeps only the newest" 3.0
    (Option.get (Store.factor jumpy "k"))

let test_store_clamps_ratios () =
  let s = Store.create () in
  Store.observe s ~key:"huge" ~measured:1e12 ~estimated:1.0;
  check_float "ratio clamped above" 1e3 (Option.get (Store.factor s "huge"));
  Store.observe s ~key:"zero" ~measured:0.0 ~estimated:1e9;
  check_float "ratio clamped below" 1e-3 (Option.get (Store.factor s "zero"))

let test_store_drops_invalid_samples () =
  let s = Store.create () in
  Store.observe s ~key:"a" ~measured:1.0 ~estimated:0.0;
  Store.observe s ~key:"b" ~measured:1.0 ~estimated:(-2.0);
  Store.observe s ~key:"c" ~measured:(-1.0) ~estimated:2.0;
  Store.observe s ~key:"d" ~measured:Float.nan ~estimated:2.0;
  Store.observe s ~key:"e" ~measured:1.0 ~estimated:Float.nan;
  check_int "all dropped" 0 (Store.size s);
  check_int "no samples counted" 0 (Store.samples s)

let test_store_rejects_bad_decay () =
  List.iter
    (fun d ->
      match Store.create ~decay:d () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "decay %g accepted" d)
    [ 0.0; -0.5; 1.5; Float.nan ]

let test_store_feedback_counts_hits () =
  let s = Store.create () in
  Store.observe s ~key:"k" ~measured:6.0 ~estimated:2.0;
  let fb = Store.feedback s in
  check_bool "miss" true (fb "unknown" = None);
  check_float "hit serves the factor" 3.0 (Option.get (fb "k"));
  ignore (fb "k");
  check_int "hits counted" 2 (Store.hits s);
  ignore (Store.factor s "k");
  check_int "factor does not count" 2 (Store.hits s)

let test_store_ingest () =
  let s = Store.create () in
  Store.ingest s
    [
      { Cost.key = "a"; measured = 4.0; estimated = 2.0 };
      { Cost.key = "b"; measured = 1.0; estimated = 4.0 };
    ];
  check_int "two keys" 2 (Store.size s);
  check_float "a" 2.0 (Option.get (Store.factor s "a"));
  check_float "b" 0.25 (Option.get (Store.factor s "b"))

(* ------------------------------------------------------------------ *)
(* Store: persistence                                                  *)

let with_temp_file f =
  let path = Filename.temp_file "ppr-adapt-test" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_store_round_trips () =
  with_temp_file @@ fun path ->
  let s = Store.create () in
  Store.observe s ~key:"atom:edge" ~measured:10.0 ~estimated:5.0;
  Store.observe s ~key:"var:x" ~measured:1.0 ~estimated:8.0;
  Store.observe s ~key:"query:q" ~measured:3.0 ~estimated:3.0;
  check_int "entries written" 3 (Store.save s path);
  let fresh = Store.create () in
  check_int "entries read" 3 (Store.load fresh path);
  check_int "all keys restored" 3 (Store.size fresh);
  List.iter
    (fun k ->
      check_float (Printf.sprintf "factor %s survives" k)
        (Option.get (Store.factor s k))
        (Option.get (Store.factor fresh k)))
    [ "atom:edge"; "var:x"; "query:q" ]

let test_store_load_keeps_live_keys () =
  with_temp_file @@ fun path ->
  let s = Store.create () in
  Store.observe s ~key:"k" ~measured:4.0 ~estimated:2.0;
  ignore (Store.save s path);
  let live = Store.create () in
  Store.observe live ~key:"k" ~measured:10.0 ~estimated:1.0;
  ignore (Store.load live path);
  check_float "live value wins over the snapshot" 10.0
    (Option.get (Store.factor live "k"))

let test_store_load_rejects_corrupt () =
  with_temp_file @@ fun path ->
  let oc = open_out_bin path in
  output_string oc "not a feedback snapshot at all";
  close_out oc;
  let s = Store.create () in
  check_int "garbage ignored" 0 (Store.load s path);
  check_int "store untouched" 0 (Store.size s);
  check_int "missing file ignored" 0 (Store.load s (path ^ ".does-not-exist"));
  (* A truncated copy of a genuine snapshot must also be rejected. *)
  let good = Store.create () in
  Store.observe good ~key:"k" ~measured:4.0 ~estimated:2.0;
  Store.observe good ~key:"l" ~measured:9.0 ~estimated:3.0;
  ignore (Store.save good path);
  let full = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 7));
  close_out oc;
  check_int "truncated snapshot ignored" 0 (Store.load s path);
  check_int "store still untouched" 0 (Store.size s)

(* ------------------------------------------------------------------ *)
(* Gradient order search                                               *)

let coloring_env g =
  let cq = coloring_query ~mode:(Conjunctive.Encode.Fraction 0.3) ~seed:7 g in
  (Cost.environment coloring_db cq, Array.of_list cq.Cq.atoms)

let is_permutation perm m =
  Array.length perm = m
  && List.sort compare (Array.to_list perm) = List.init m Fun.id

let prop_gradient_valid_permutation =
  qtest ~count:30 "gradient order is a valid permutation" graph_arbitrary
    (fun g ->
      let env, atoms = coloring_env g in
      is_permutation (Grad.order env atoms) (Array.length atoms))

let prop_gradient_not_worse_than_genetic =
  qtest ~count:20 "gradient order cost <= genetic's" tiny_graph_arbitrary
    (fun g ->
      let env, atoms = coloring_env g in
      let cost_grad = Cost.order_cost env atoms (Grad.order env atoms) in
      let cost_gen =
        Cost.order_cost env atoms
          (Naive.genetic_order Naive.default_genetic env atoms)
      in
      cost_grad <= cost_gen *. (1. +. 1e-9))

(* A case where a single polished champion once lost to the genetic
   pool — kept as a deterministic regression alongside the property. *)
let test_gradient_parity_regression () =
  let g =
    Graphlib.Graph.of_edges 6
      [ (0, 1); (0, 5); (1, 2); (1, 3); (1, 5); (2, 3); (2, 5); (3, 5); (4, 5) ]
  in
  let env, atoms = coloring_env g in
  let cost_grad = Cost.order_cost env atoms (Grad.order env atoms) in
  let cost_gen =
    Cost.order_cost env atoms
      (Naive.genetic_order Naive.default_genetic env atoms)
  in
  check_bool
    (Printf.sprintf "gradient %.3f <= genetic %.3f" cost_grad cost_gen)
    true
    (cost_grad <= cost_gen *. (1. +. 1e-9))

let test_gradient_plugin_registered () =
  Grad.register ();
  check_bool "gradient plugin resolves" true
    (Naive.order_search "gradient" <> None);
  let cq = coloring_query Graphlib.Generators.pentagon in
  let via_plugin =
    Driver.run (Driver.Naive (Naive.Plugin ("gradient", 0))) coloring_db cq
  in
  let via_bucket = Driver.run Driver.Bucket_elimination coloring_db cq in
  check_bool "plugin-planned run agrees with bucket elimination" true
    (Relation.equal_modulo_order
       (Option.get via_plugin.Driver.result)
       (Option.get via_bucket.Driver.result))

(* ------------------------------------------------------------------ *)
(* Feedback never changes answers                                      *)

let feedback_methods =
  Driver.all_paper_methods
  @ [ Driver.Minibucket 2; Driver.Hybrid; Driver.Wcoj; Driver.Ghd ]

let prop_feedback_preserves_answers =
  qtest ~count:10 "corrected estimates never change the answer"
    tiny_graph_arbitrary (fun g ->
      let cq =
        coloring_query ~mode:(Conjunctive.Encode.Fraction 0.3) ~seed:3 g
      in
      List.for_all
        (fun meth ->
          let store = Store.create () in
          let observer obs = Store.ingest store obs in
          let rng = Graphlib.Rng.make 5 in
          let cold = Driver.run ~rng ~observer meth coloring_db cq in
          let warm =
            Driver.run ~rng:(Graphlib.Rng.make 5)
              ~feedback:(Store.feedback store) meth coloring_db cq
          in
          match (cold.Driver.result, warm.Driver.result) with
          | Some a, Some b -> Relation.equal_modulo_order a b
          | _ -> false)
        feedback_methods)

(* ------------------------------------------------------------------ *)
(* Supervisor re-plan                                                  *)

(* A two-atom join whose true size (800) blows a 100-tuple budget: the
   first rung aborts after both scans were observed, which is exactly
   what arms the re-plan. *)
let skew_db_and_query () =
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "r"
    (relation [ 0; 1 ] (List.init 40 (fun i -> [ i; i mod 2 ])));
  Conjunctive.Database.add db "s"
    (relation [ 0; 1 ] (List.init 40 (fun i -> [ i mod 2; i ])));
  ( db,
    Cq.make
      ~atoms:
        [ { Cq.rel = "r"; vars = [ 0; 1 ] }; { Cq.rel = "s"; vars = [ 1; 2 ] } ]
      ~free:[ 0; 2 ] )

let test_supervise_replans_once () =
  let db, cq = skew_db_and_query () in
  let budget =
    Supervise.Budget.with_max_cardinality 100 Supervise.Budget.default
  in
  let report =
    Supervise.run ~replan:true ~budget ~ladder:[] (Driver.Naive Naive.Dp) db cq
  in
  let replanned =
    List.filter (fun a -> a.Supervise.replanned) report.Supervise.attempts
  in
  check_int "exactly one re-plan rung" 1 (List.length replanned);
  let first = List.hd report.Supervise.attempts in
  check_bool "first attempt is not the re-plan" false first.Supervise.replanned;
  check_bool "first attempt aborted" true
    (match first.Supervise.outcome.Driver.status with
    | Driver.Aborted _ -> true
    | Driver.Completed -> false);
  (* Same method on the inserted rung, recompiled under observations. *)
  List.iter
    (fun a ->
      check_bool "re-plan keeps the method" true
        (a.Supervise.meth = Driver.Naive Naive.Dp))
    replanned

let test_supervise_replan_off_by_default () =
  let db, cq = skew_db_and_query () in
  let budget =
    Supervise.Budget.with_max_cardinality 100 Supervise.Budget.default
  in
  let report =
    Supervise.run ~budget ~ladder:[] (Driver.Naive Naive.Dp) db cq
  in
  check_bool "no re-plan rung without opt-in" true
    (List.for_all
       (fun a -> not a.Supervise.replanned)
       report.Supervise.attempts)

(* ------------------------------------------------------------------ *)
(* Serving engine feedback loop                                        *)

let query_req ?(id = Json.Null) ?(meth = "bucket-elimination") ?(ladder = true)
    ?deadline_ms ?max_tuples ?max_total ?fuel ?max_answers ?limit ?cursor
    ?chaos ?(seed = 0) text =
  Wire.Query
    {
      Wire.id;
      text;
      meth;
      ladder;
      deadline_ms;
      max_tuples;
      max_total;
      fuel;
      max_answers;
      limit;
      cursor;
      chaos;
      seed;
    }

let with_engine ?config f =
  let e = Serve.Engine.create ?config coloring_db in
  Fun.protect ~finally:(fun () -> Serve.Engine.stop e) (fun () -> f e)

let cardinality_of label = function
  | Wire.Answer (_, a) -> a.Wire.cardinality
  | r -> Alcotest.failf "%s: expected an answer, got %s" label
           (Wire.response_to_string r)

let test_engine_serves_corrected_estimates () =
  (* Capacity 1 and interleaved queries force the repeat through a real
     cache miss, so its compile must consult the feedback store. *)
  let config = { Serve.Engine.default_config with cache_capacity = 1 } in
  with_engine ~config @@ fun e ->
  let q_a = "ans(X,Y) :- edge(X,Y), edge(Y,X)." in
  let q_b = "other(X) :- edge(X,Y)." in
  check_int "first pass answers" 6
    (cardinality_of "first" (Serve.Engine.submit e (query_req ~meth:"naive" q_a)));
  let store = Serve.Engine.feedback e in
  check_bool "first pass harvested observations" true (Store.samples store > 0);
  ignore (Serve.Engine.submit e (query_req ~meth:"naive" q_b));
  let hits_before = Store.hits store in
  check_int "repeat pass answers" 6
    (cardinality_of "repeat" (Serve.Engine.submit e (query_req ~meth:"naive" q_a)));
  check_bool "repeat compile consulted the corrections" true
    (Store.hits store > hits_before)

let test_engine_warm_replays_queries () =
  let config =
    {
      Serve.Engine.default_config with
      warm =
        [
          "ans(X,Y) :- edge(X,Y).";
          "# a comment, skipped";
          "";
          "naive\tq() :- edge(X,Y), edge(Y,X).";
          "not even ( datalog";
        ];
    }
  in
  with_engine ~config @@ fun e ->
  check_int "two lines replayed" 2 (Serve.Engine.warmed e);
  check_bool "warm runs harvested into the store" true
    (Store.samples (Serve.Engine.feedback e) > 0);
  check_bool "warm compiles landed in the plan cache" true
    (Serve.Plan_cache.size (Serve.Engine.cache e) >= 2)

let test_engine_feedback_file_round_trips () =
  with_temp_file @@ fun path ->
  (try Sys.remove path with Sys_error _ -> ());
  let config =
    { Serve.Engine.default_config with feedback_file = Some path }
  in
  (with_engine ~config @@ fun e ->
   ignore
     (Serve.Engine.submit e (query_req ~meth:"naive" "ans(X,Y) :- edge(X,Y).")));
  check_bool "snapshot written on stop" true (Sys.file_exists path);
  with_engine ~config @@ fun e ->
  check_bool "restart restores learned corrections" true
    (Store.size (Serve.Engine.feedback e) > 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "adapt"
    ([
       ( "store",
         [
           Alcotest.test_case "first sample" `Quick
             test_store_first_sample_taken_whole;
           Alcotest.test_case "decay blending" `Quick test_store_decay_blending;
           Alcotest.test_case "ratio clamping" `Quick test_store_clamps_ratios;
           Alcotest.test_case "invalid samples" `Quick
             test_store_drops_invalid_samples;
           Alcotest.test_case "decay validation" `Quick
             test_store_rejects_bad_decay;
           Alcotest.test_case "feedback hits" `Quick
             test_store_feedback_counts_hits;
           Alcotest.test_case "ingest" `Quick test_store_ingest;
         ] );
       ( "persistence",
         [
           Alcotest.test_case "round trip" `Quick test_store_round_trips;
           Alcotest.test_case "live keys win" `Quick
             test_store_load_keeps_live_keys;
           Alcotest.test_case "corrupt rejected" `Quick
             test_store_load_rejects_corrupt;
         ] );
       ( "gradient",
         [
           prop_gradient_valid_permutation;
           prop_gradient_not_worse_than_genetic;
           Alcotest.test_case "parity regression" `Quick
             test_gradient_parity_regression;
           Alcotest.test_case "plugin registration" `Quick
             test_gradient_plugin_registered;
         ] );
       ( "supervise",
         [
           Alcotest.test_case "re-plans once on abort" `Quick
             test_supervise_replans_once;
           Alcotest.test_case "off by default" `Quick
             test_supervise_replan_off_by_default;
         ] );
       ( "engine",
         [
           Alcotest.test_case "corrected estimates served" `Quick
             test_engine_serves_corrected_estimates;
           Alcotest.test_case "warm replays queries" `Quick
             test_engine_warm_replays_queries;
           Alcotest.test_case "feedback file round trip" `Quick
             test_engine_feedback_file_round_trips;
         ] );
       ("identity", [ prop_feedback_preserves_answers ]);
     ])
