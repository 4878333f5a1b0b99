(* Tests for the serving layer: the wire protocol (JSON parsing and
   request/response encoding), the structural plan cache and its
   canonicalization guarantees, the admission-controlled engine, and the
   socket server's end-to-end behavior including drain-on-stop. *)

open Helpers
module Json = Telemetry.Json
module Jsonl = Serve.Jsonl
module Wire = Serve.Wire
module Canon = Hypergraphs.Canon
module Cq = Conjunctive.Cq
module Driver = Ppr_core.Driver

(* ------------------------------------------------------------------ *)
(* JSON parsing                                                        *)

let test_jsonl_round_trips () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Float 2.5;
      Json.String "";
      Json.String "plain";
      Json.String "esc \"quotes\" \\ / \n \t tail";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Jsonl.parse (Json.to_string v) with
      | Ok v' ->
        check_bool (Printf.sprintf "round-trips %s" (Json.to_string v)) true
          (v = v')
      | Error msg -> Alcotest.failf "failed to parse own output: %s" msg)
    values

let test_jsonl_escapes_and_numbers () =
  let ok input expected =
    match Jsonl.parse input with
    | Ok v -> check_bool input true (v = expected)
    | Error msg -> Alcotest.failf "%s: %s" input msg
  in
  ok {|"a\nbA"|} (Json.String "a\nbA");
  (* a surrogate pair decodes to 4-byte UTF-8 *)
  ok {|"😀"|} (Json.String "\xf0\x9f\x98\x80");
  ok "3" (Json.Int 3);
  ok "-7" (Json.Int (-7));
  ok "3.5" (Json.Float 3.5);
  ok "-2.5e1" (Json.Float (-25.0));
  ok "1e2" (Json.Float 100.0);
  ok "  [1 , 2]  " (Json.List [ Json.Int 1; Json.Int 2 ])

let test_jsonl_rejects_garbage () =
  List.iter
    (fun input ->
      match Jsonl.parse input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error _ -> ())
    [ ""; "{"; "tru"; "1 2"; "[1,]"; "{\"a\":}"; "\"unterminated"; "nullx" ]

let test_jsonl_nesting_limit () =
  let nested depth = String.make depth '[' ^ "1" ^ String.make depth ']' in
  (match Jsonl.parse (nested Jsonl.max_depth) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "rejected nesting at the limit: %s" msg);
  (match Jsonl.parse (nested (Jsonl.max_depth + 1)) with
  | Ok _ -> Alcotest.fail "accepted nesting past the limit"
  | Error _ -> ());
  (* A line of a million brackets stops at the first level past the
     limit, and the wire layer reports it as malformed JSON. *)
  match Wire.parse_request (String.make 1_000_000 '[') with
  | Error (msg, Json.Null) ->
    Alcotest.(check string) "fails at the limit"
      (Printf.sprintf "malformed JSON: at offset %d: nesting deeper than %d"
         Jsonl.max_depth Jsonl.max_depth)
      msg
  | Error _ -> Alcotest.fail "lost the null id"
  | Ok _ -> Alcotest.fail "accepted a bracket flood"

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)

let test_wire_defaults () =
  match Wire.parse_request {|{"op":"query","id":7,"query":"q() :- edge(X,Y)."}|} with
  | Ok (Wire.Query q) ->
    check_bool "id echoed" true (q.Wire.id = Json.Int 7);
    Alcotest.(check string) "default method" "bucket-elimination" q.Wire.meth;
    check_bool "ladder defaults on" true q.Wire.ladder;
    check_bool "no deadline by default" true (q.Wire.deadline_ms = None);
    check_int "default seed" 0 q.Wire.seed
  | Ok _ -> Alcotest.fail "parsed as the wrong op"
  | Error (msg, _) -> Alcotest.failf "rejected: %s" msg

let test_wire_type_errors_keep_id () =
  match Wire.parse_request {|{"op":"query","id":9,"query":5}|} with
  | Error (_, Json.Int 9) -> ()
  | Error (_, id) -> Alcotest.failf "lost the id: %s" (Json.to_string id)
  | Ok _ -> Alcotest.fail "accepted a non-string query"

let test_wire_rejects () =
  let rejects line =
    match Wire.parse_request line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" line
  in
  rejects "not json at all";
  rejects {|[1,2,3]|};
  rejects {|{"id":1}|};
  rejects {|{"op":"transmogrify"}|};
  rejects {|{"op":"query"}|};
  rejects {|{"op":"query","query":"q() :- e(X).","ladder":"yes"}|}

let test_wire_response_encoding () =
  let reparse r =
    match Jsonl.parse (Wire.response_to_string r) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "unparseable response: %s" msg
  in
  let failed =
    reparse (Wire.Failed (Json.Int 3, Wire.Aborted "deadline", "too slow"))
  in
  check_bool "error status" true
    (Wire.field failed "status" = Some (Json.String "error"));
  check_bool "typed kind" true
    (Wire.field failed "kind" = Some (Json.String "abort"));
  check_bool "abort reason label" true
    (Wire.field failed "reason" = Some (Json.String "deadline"));
  let shed = reparse (Wire.Failed (Json.Null, Wire.Overloaded, "full")) in
  check_bool "overloaded kind" true
    (Wire.field shed "kind" = Some (Json.String "overloaded"))

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

(* A variable bijection plus an atom permutation: the template-instance
   transformations the plan cache must see through. *)
let scramble ~seed cq =
  let rng = Graphlib.Rng.make seed in
  let vars = Array.of_list (Cq.vars cq) in
  let images = Array.copy vars in
  Graphlib.Rng.shuffle rng images;
  let map = Hashtbl.create 16 in
  Array.iteri (fun i v -> Hashtbl.replace map v images.(i)) vars;
  let rename v = Hashtbl.find map v in
  let atoms =
    List.map
      (fun a -> { Cq.rel = a.Cq.rel; vars = List.map rename a.Cq.vars })
      cq.Cq.atoms
  in
  let atoms = Graphlib.Rng.shuffle_list rng atoms in
  Cq.make ~atoms ~free:(List.map rename cq.Cq.free)

let parse_q text = (Conjunctive.Parse.query_exn text).Conjunctive.Parse.query

let test_canon_isomorphic_queries_agree () =
  let a = parse_q "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let b = parse_q "p(A,C) :- edge(B,C), edge(A,B)." in
  let ca = Canon.canonicalize a and cb = Canon.canonicalize b in
  check_bool "isomorphic queries share a canonical form" true
    (Canon.equal ca cb);
  check_int "and a hash" ca.Canon.hash cb.Canon.hash

let test_canon_distinguishes_structure () =
  let path = parse_q "q(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let fork = parse_q "q(Y,Z) :- edge(X,Y), edge(X,Z)." in
  check_bool "path and fork differ" false
    (Canon.equal (Canon.canonicalize path) (Canon.canonicalize fork));
  let free_first = parse_q "q(X) :- edge(X,Y)." in
  let free_second = parse_q "q(Y) :- edge(X,Y)." in
  check_bool "free position matters" false
    (Canon.equal
       (Canon.canonicalize free_first)
       (Canon.canonicalize free_second))

let test_canon_idempotent () =
  let cq = parse_q "q(X,Z) :- edge(X,Y), edge(Y,Z), edge(Z,W)." in
  let c = Canon.canonicalize cq in
  let c' = Canon.canonicalize c.Canon.query in
  check_bool "canonical form is a fixpoint" true (Canon.equal c c')

let test_canon_rename_is_faithful () =
  let cq = parse_q "q(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let c = Canon.canonicalize cq in
  (* to_canonical applied to the source query must give the canonical
     query's atoms (up to the atom sort) and free list. *)
  let renamed_free = List.map (Canon.rename c) cq.Cq.free in
  check_bool "free list renamed in order" true
    (renamed_free = c.Canon.query.Cq.free);
  List.iter
    (fun a ->
      let image = List.map (Canon.rename c) a.Cq.vars in
      check_bool "every source atom appears renamed" true
        (List.exists
           (fun b -> b.Cq.rel = a.Cq.rel && b.Cq.vars = image)
           c.Canon.query.Cq.atoms))
    cq.Cq.atoms

let canon_invariance_prop =
  qtest ~count:60 "canonical form is renaming/permutation invariant"
    QCheck.(pair Helpers.graph_arbitrary small_int)
    (fun (g, seed) ->
      let cq =
        coloring_query ~mode:(Conjunctive.Encode.Fraction 0.4) ~seed:3 g
      in
      let scrambled = scramble ~seed cq in
      Canon.equal (Canon.canonicalize cq) (Canon.canonicalize scrambled))

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)

let test_cache_counters_and_lru () =
  let c = Serve.Plan_cache.create ~capacity:2 () in
  let v, hit = Serve.Plan_cache.find_or_add c "a" (fun () -> 1) in
  check_bool "first lookup misses" false hit;
  check_int "compiled value returned" 1 v;
  let v, hit = Serve.Plan_cache.find_or_add c "a" (fun () -> 99) in
  check_bool "second lookup hits" true hit;
  check_int "cached value, not recompiled" 1 v;
  ignore (Serve.Plan_cache.find_or_add c "b" (fun () -> 2));
  (* touch "a" so "b" is the LRU entry when "c" arrives *)
  ignore (Serve.Plan_cache.find c "a");
  ignore (Serve.Plan_cache.find_or_add c "c" (fun () -> 3));
  check_int "capacity bound holds" 2 (Serve.Plan_cache.size c);
  check_int "one eviction" 1 (Serve.Plan_cache.evictions c);
  check_bool "LRU entry evicted" true (Serve.Plan_cache.find c "b" = None);
  check_bool "recently used entry survives" true
    (Serve.Plan_cache.find c "a" = Some 1)

let test_cache_racing_insert_keeps_first () =
  let c = Serve.Plan_cache.create () in
  let first = Serve.Plan_cache.add c "k" [ 1 ] in
  let second = Serve.Plan_cache.add c "k" [ 2 ] in
  check_bool "first insert wins" true (first == second && first = [ 1 ])

let test_cache_key_injective_on_templates () =
  let key text =
    Serve.Plan_cache.key_of
      ~canon:(Canon.canonicalize (parse_q text))
      ~meth:"bucket-elimination"
  in
  Alcotest.(check string)
    "isomorphic instantiations share a key"
    (key "q(X,Z) :- edge(X,Y), edge(Y,Z).")
    (key "p(A,C) :- edge(B,C), edge(A,B).");
  check_bool "different structures get different keys" true
    (key "q(X,Z) :- edge(X,Y), edge(Y,Z)."
    <> key "q(Y,Z) :- edge(X,Y), edge(X,Z).");
  check_bool "the method is part of the key" true
    (Serve.Plan_cache.key_of
       ~canon:(Canon.canonicalize (parse_q "q(X) :- edge(X,Y)."))
       ~meth:"wcoj"
    <> Serve.Plan_cache.key_of
         ~canon:(Canon.canonicalize (parse_q "q(X) :- edge(X,Y)."))
         ~meth:"reordering")

let test_cache_save_load_roundtrip () =
  let path = Filename.temp_file "ppr-cache-test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let c = Serve.Plan_cache.create ~capacity:8 () in
  ignore (Serve.Plan_cache.add c "old" [ 1 ]);
  ignore (Serve.Plan_cache.add c "mid" [ 2 ]);
  ignore (Serve.Plan_cache.add c "new" [ 3 ]);
  ignore (Serve.Plan_cache.find c "old") (* refresh: "mid" is now LRU *);
  check_int "three entries saved" 3 (Serve.Plan_cache.save c path);
  let c' = Serve.Plan_cache.create ~capacity:8 () in
  check_int "three entries restored" 3 (Serve.Plan_cache.load c' path);
  check_int "restored size" 3 (Serve.Plan_cache.size c');
  List.iter
    (fun (k, v) ->
      check_bool ("restored value " ^ k) true
        (Serve.Plan_cache.find c' k = Some v))
    [ ("old", [ 1 ]); ("mid", [ 2 ]); ("new", [ 3 ]) ];
  (* The snapshot preserves recency: loading into a 2-slot cache must
     evict the oldest entry ("mid"), exactly as the live cache would. *)
  let tiny = Serve.Plan_cache.create ~capacity:2 () in
  ignore (Serve.Plan_cache.load tiny path);
  check_bool "LRU order survives the roundtrip" true
    (Serve.Plan_cache.find tiny "mid" = None
    && Serve.Plan_cache.find tiny "old" <> None
    && Serve.Plan_cache.find tiny "new" <> None)

(* A snapshot holds the ghd method's deferred artifact as it is: before
   it resolves (the search has not run: the restored copy resolves on its
   own first run out) and after (the restored copy replays the
   resolution without running the search again). *)
let test_cache_deferred_roundtrip () =
  let path = Filename.temp_file "ppr-cache-test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let cq =
    Conjunctive.Encode.coloring_query_of_graph
      ~mode:(Conjunctive.Encode.Fraction 0.2) ~rng:(Graphlib.Rng.make 1000)
      (Graphlib.Generators.augmented_path 10)
  in
  let meth = Ppr_core.Driver.Ghd in
  let expected = Ghd.evaluate coloring_db cq in
  let roundtrip compiled =
    let c = Serve.Plan_cache.create ~capacity:4 () in
    ignore (Serve.Plan_cache.add c "q" compiled);
    check_int "one entry saved" 1 (Serve.Plan_cache.save c path);
    let c' = Serve.Plan_cache.create ~capacity:4 () in
    check_int "one entry restored" 1 (Serve.Plan_cache.load c' path);
    match Serve.Plan_cache.find c' "q" with
    | Some (Ppr_core.Driver.Deferred d) -> d
    | _ -> Alcotest.fail "the restored entry is the deferred artifact"
  in
  (* Runs [d] with telemetry: its answer, and the resolutions it ran. *)
  let run d =
    let sink, spans = Telemetry.Sink.memory () in
    let t = Telemetry.create sink in
    let o =
      Ppr_core.Driver.run ~compiled:(Ppr_core.Driver.Deferred d)
        ~ctx:(Relalg.Ctx.create ~telemetry:t ()) meth coloring_db cq
    in
    Telemetry.close t;
    ( o.Ppr_core.Driver.result,
      List.length
        (List.filter (fun s -> Telemetry.Span.name s = "ghd.resolve") (spans ())) )
  in
  let answers_ok label = function
    | Some r -> check_bool label true (Relalg.Relation.equal_modulo_order expected r)
    | None -> Alcotest.fail (label ^ ": the run aborted")
  in
  let compiled = Ppr_core.Driver.prepare ~rng:(Graphlib.Rng.make 17) meth coloring_db cq in
  let before = roundtrip compiled in
  check_bool "restored unresolved" true
    (Atomic.get before.Ppr_core.Exec.resolved = None);
  let r, resolutions = run before in
  answers_ok "unresolved copy: the answer" r;
  check_int "unresolved copy: resolves on its run" 1 resolutions;
  let after = roundtrip (Ppr_core.Driver.Deferred before) in
  check_bool "restored resolved" true
    (Atomic.get after.Ppr_core.Exec.resolved = Atomic.get before.Ppr_core.Exec.resolved);
  let r, resolutions = run after in
  answers_ok "resolved copy: the answer" r;
  check_int "resolved copy: replays" 0 resolutions

let test_cache_load_rejects_corrupt () =
  let path = Filename.temp_file "ppr-cache-test" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let oc = open_out_bin path in
  output_string oc "not a cache snapshot at all";
  close_out oc;
  let c = Serve.Plan_cache.create () in
  check_int "corrupt file ignored" 0 (Serve.Plan_cache.load c path);
  check_int "cache untouched" 0 (Serve.Plan_cache.size c);
  check_int "missing file ignored" 0
    (Serve.Plan_cache.load c (path ^ ".does-not-exist"))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

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

let test_engine_answers_match_direct_run () =
  with_engine @@ fun e ->
  match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Answer (_, a) ->
    check_int "cardinality" 6 a.Wire.cardinality;
    check_bool "nonempty" true a.Wire.nonempty;
    check_bool "all rows returned" false a.Wire.truncated;
    let expected =
      [ [ 1; 2 ]; [ 1; 3 ]; [ 2; 1 ]; [ 2; 3 ]; [ 3; 1 ]; [ 3; 2 ] ]
    in
    check_bool "rows in free order" true
      (List.sort compare a.Wire.answers = expected)
  | r -> Alcotest.failf "expected an answer, got %s" (Wire.response_to_string r)

let test_engine_boolean_and_truncation () =
  with_engine @@ fun e ->
  (match Serve.Engine.submit e (query_req "q() :- edge(X,Y), edge(Y,X).") with
  | Wire.Answer (_, a) ->
    check_bool "boolean query reports satisfiability" true a.Wire.nonempty;
    check_bool "no rows for an empty head" true (a.Wire.answers = [])
  | r -> Alcotest.failf "boolean query failed: %s" (Wire.response_to_string r));
  match
    Serve.Engine.submit e (query_req ~max_answers:2 "ans(X,Y) :- edge(X,Y).")
  with
  | Wire.Answer (_, a) ->
    check_int "row cap respected" 2 (List.length a.Wire.answers);
    check_bool "truncation flagged" true a.Wire.truncated;
    check_int "true cardinality still reported" 6 a.Wire.cardinality
  | r -> Alcotest.failf "truncated query failed: %s" (Wire.response_to_string r)

let test_engine_capped_answer_route_independent () =
  (* A capped answer is the first rows in head order, whichever route
     computed the answer and whatever column order it came in. *)
  let ask ?max_answers ?route text =
    with_engine @@ fun e ->
    (* The daemon runs the gate unforced: a forced route reaches it as
       an artifact in its plan cache, under the key it looks the query
       up by. *)
    Option.iter
      (fun route ->
        let canon = Canon.canonicalize (Conjunctive.Parse.query_exn text).Conjunctive.Parse.query in
        ignore
          (Serve.Plan_cache.add (Serve.Engine.cache e)
             (Serve.Plan_cache.key_of ~canon ~meth:"ghd")
             (Driver.prepare ~route Driver.Ghd coloring_db canon.Canon.query)))
      route;
    match Serve.Engine.submit e (query_req ~meth:"ghd" ?max_answers text) with
    | Wire.Answer (_, a) ->
      check_bool (text ^ ": a forced route is a cache hit") (route <> None)
        a.Wire.cache_hit;
      (a.Wire.answers, a.Wire.truncated)
    | r -> Alcotest.failf "%s failed: %s" text (Wire.response_to_string r)
  in
  List.iter
    (fun text ->
      let capped, truncated = ask ~max_answers:4 text in
      check_bool (text ^ ": capped") true truncated;
      let full, _ = ask text in
      check_bool (text ^ ": full answer sorted") true (List.sort compare full = full);
      check_bool (text ^ ": the first rows") true
        (capped = List.filteri (fun i _ -> i < 4) full);
      List.iter
        (fun route ->
          check_bool (text ^ ": same rows under " ^ Ghd.decision_name route) true
            (ask ~max_answers:4 ~route text = (capped, truncated)))
        [ Ghd.Bucket; Ghd.Generic; Ghd.Ghd ])
    [
      "p(A,C) :- edge(A,B), edge(B,C), edge(C,D).";
      "q(D,B,A) :- edge(A,B), edge(B,C), edge(C,D), edge(D,A), edge(A,C).";
    ]

let test_engine_cache_hits_are_tuple_identical () =
  with_engine @@ fun e ->
  let ask text =
    match Serve.Engine.submit e (query_req text) with
    | Wire.Answer (_, a) -> a
    | r -> Alcotest.failf "query failed: %s" (Wire.response_to_string r)
  in
  let cold = ask "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  check_bool "first run misses" false cold.Wire.cache_hit;
  let warm = ask "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  check_bool "identical resubmission hits" true warm.Wire.cache_hit;
  check_bool "hit returns identical tuples" true
    (cold.Wire.answers = warm.Wire.answers);
  let renamed = ask "out(P,R) :- edge(Q,R), edge(P,Q)." in
  check_bool "isomorphic instantiation hits" true renamed.Wire.cache_hit;
  check_bool "renamed instantiation gets identical tuples" true
    (cold.Wire.answers = renamed.Wire.answers)

(* The acceptance property: for random templates, a plan-cache hit
   produces exactly the tuples a cold evaluation produces. *)
let engine_cache_identity_prop =
  qtest ~count:25 "cache hits are tuple-identical on random templates"
    QCheck.(pair Helpers.tiny_graph_arbitrary small_int)
    (fun (g, seed) ->
      let cq =
        coloring_query ~mode:(Conjunctive.Encode.Fraction 0.5) ~seed:5 g
      in
      let text cq =
        let var v = Printf.sprintf "V%d" v in
        Printf.sprintf "q(%s) :- %s."
          (String.concat ", " (List.map var cq.Cq.free))
          (String.concat ", "
             (List.map
                (fun a ->
                  Printf.sprintf "%s(%s)" a.Cq.rel
                    (String.concat ", " (List.map var a.Cq.vars)))
                cq.Cq.atoms))
      in
      with_engine @@ fun e ->
      let ask t =
        match Serve.Engine.submit e (query_req ~max_answers:10_000 t) with
        | Wire.Answer (_, a) -> (List.sort compare a.Wire.answers, a.Wire.cache_hit)
        | r ->
          QCheck.Test.fail_reportf "query failed: %s" (Wire.response_to_string r)
      in
      let cold, hit0 = ask (text cq) in
      let warm, hit1 = ask (text (scramble ~seed cq)) in
      (not hit0) && hit1 && cold = warm)

let test_engine_typed_failures () =
  with_engine @@ fun e ->
  let kind_of r =
    match r with
    | Wire.Failed (_, kind, _) -> Wire.error_kind_label kind
    | r -> Alcotest.failf "expected a failure, got %s" (Wire.response_to_string r)
  in
  Alcotest.(check string)
    "unparseable query text" "parse"
    (kind_of (Serve.Engine.submit e (query_req "this is not datalog (")));
  Alcotest.(check string)
    "unknown method" "bad-request"
    (kind_of (Serve.Engine.submit e (query_req ~meth:"quantum" "q() :- edge(X,Y).")));
  Alcotest.(check string)
    "bad chaos spec" "bad-request"
    (kind_of
       (Serve.Engine.submit e (query_req ~chaos:"frobnicate:1" "q() :- edge(X,Y).")));
  (match
     Serve.Engine.submit e
       (query_req ~ladder:false ~max_tuples:1 "ans(X,Y) :- edge(X,Y).")
   with
  | Wire.Failed (_, Wire.Aborted "cardinality", _) -> ()
  | r -> Alcotest.failf "expected a cardinality abort: %s" (Wire.response_to_string r));
  (* crash containment: a query over a relation the database lacks is an
     internal error for that session only *)
  Alcotest.(check string)
    "missing relation contained" "internal"
    (kind_of (Serve.Engine.submit e (query_req "q(X) :- nonexistent(X, Y).")));
  match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Answer _ -> ()
  | r ->
    Alcotest.failf "engine should survive a crashed session: %s"
      (Wire.response_to_string r)

(* ------------------------------------------------------------------ *)
(* Pagination: parked cursors, single-use tokens, bounded table        *)

let answer_of e req =
  match Serve.Engine.submit e req with
  | Wire.Answer (_, a) -> a
  | r -> Alcotest.failf "expected an answer, got %s" (Wire.response_to_string r)

let expect_expired e req =
  match Serve.Engine.submit e req with
  | Wire.Failed (_, Wire.Cursor_expired, _) -> ()
  | r ->
    Alcotest.failf "expected cursor-expired, got %s" (Wire.response_to_string r)

let test_engine_pagination_exactly_once () =
  with_engine @@ fun e ->
  let whole = answer_of e (query_req "ans(X,Y) :- edge(X,Y).") in
  let rec drain ?cursor page acc =
    let a = answer_of e (query_req ~limit:2 ?cursor "ans(X,Y) :- edge(X,Y).") in
    Alcotest.(check (option int)) "page index" (Some page) a.Wire.page;
    check_int "page cardinality counts the page" (List.length a.Wire.answers)
      a.Wire.cardinality;
    let acc = acc @ a.Wire.answers in
    match a.Wire.next_cursor with
    | Some c ->
      check_bool "truncated while pages remain" true a.Wire.truncated;
      drain ~cursor:c (page + 1) acc
    | None ->
      check_bool "final page is not truncated" false a.Wire.truncated;
      acc
  in
  let rows = drain 0 [] in
  check_int "no row served twice" (List.length rows)
    (List.length (List.sort_uniq compare rows));
  check_bool "paged union = whole answer" true
    (List.sort compare rows = List.sort compare whole.Wire.answers);
  check_bool "whole answer was not paged" true (whole.Wire.page = None)

let test_engine_cursor_tokens_single_use () =
  with_engine @@ fun e ->
  (* a token the engine never issued *)
  expect_expired e (query_req ~limit:2 ~cursor:"c999" "ans(X,Y) :- edge(X,Y).");
  let p0 = answer_of e (query_req ~limit:2 "ans(X,Y) :- edge(X,Y).") in
  let t0 = Option.get p0.Wire.next_cursor in
  let p1 = answer_of e (query_req ~limit:2 ~cursor:t0 "ans(X,Y) :- edge(X,Y).") in
  (* the consumed token is dead even though the session lives on *)
  expect_expired e (query_req ~limit:2 ~cursor:t0 "ans(X,Y) :- edge(X,Y).");
  (* ... and the freshly-issued one still works *)
  let t1 = Option.get p1.Wire.next_cursor in
  let p2 = answer_of e (query_req ~limit:2 ~cursor:t1 "ans(X,Y) :- edge(X,Y).") in
  Alcotest.(check (option int)) "replay did not advance the stream" (Some 2)
    (Some (Option.get p2.Wire.page))

let test_engine_cursor_tokens_unguessable () =
  with_engine @@ fun e ->
  let q = "ans(X,Y) :- edge(X,Y)." in
  let a = answer_of e (query_req ~limit:2 q) in
  let token = Option.get a.Wire.next_cursor in
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  check_bool "token is a 64-bit random hex handle" true
    (String.length token = 17
    && token.[0] = 'c'
    && String.for_all is_hex (String.sub token 1 16));
  (* the old sequential scheme: a neighbor guessing small counters must
     always get the typed expired-cursor error, never the stream *)
  for i = 1 to 50 do
    expect_expired e (query_req ~limit:2 ~cursor:(Printf.sprintf "c%d" i) q)
  done;
  (* incrementing a live token's bits must miss too *)
  let bits = Int64.of_string ("0x" ^ String.sub token 1 16) in
  expect_expired e
    (query_req ~limit:2 ~cursor:(Printf.sprintf "c%016Lx" (Int64.add bits 1L)) q);
  (* none of the guesses consumed the real session *)
  let p1 = answer_of e (query_req ~limit:2 ~cursor:token q) in
  Alcotest.(check (option int)) "real token still pages" (Some 1) p1.Wire.page

let test_engine_streaming_metrics_honest () =
  with_engine @@ fun e ->
  let q = "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  let cold = answer_of e (query_req ~limit:2 q) in
  check_bool "first stream misses" false cold.Wire.cache_hit;
  (* continuation pages report the stream's original verdict and bill no
     compile: the one compile happened when the stream opened *)
  let cold_next =
    answer_of e (query_req ~limit:2 ~cursor:(Option.get cold.Wire.next_cursor) q)
  in
  check_bool "continuation keeps the original miss verdict" false
    cold_next.Wire.cache_hit;
  check_bool "continuation bills no compile" true
    (cold_next.Wire.compile_seconds = 0.0);
  (* a second streamed session replays the cached artifact: an honest
     hit with zero compile time (cursor-open work is execution) *)
  let warm = answer_of e (query_req ~limit:2 q) in
  check_bool "second stream hits" true warm.Wire.cache_hit;
  check_bool "hit bills no compile" true (warm.Wire.compile_seconds = 0.0);
  let warm_next =
    answer_of e (query_req ~limit:2 ~cursor:(Option.get warm.Wire.next_cursor) q)
  in
  check_bool "warm continuation reports the hit" true warm_next.Wire.cache_hit

let test_engine_large_answer_caps () =
  (* [answer_rows] must survive (and preserve order through) a page as
     large as the whole answer — tens of thousands of rows. *)
  let n = 50_000 in
  let db = Conjunctive.Database.create () in
  Conjunctive.Database.add db "big"
    (relation [ 0; 1 ] (List.init n (fun i -> [ i; i ])));
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      max_answers_cap = 2 * n;
    }
  in
  let e = Serve.Engine.create ~config db in
  Fun.protect ~finally:(fun () -> Serve.Engine.stop e) @@ fun () ->
  (match
     Serve.Engine.submit e (query_req ~max_answers:n "ans(X,Y) :- big(X,Y).")
   with
  | Wire.Answer (_, a) ->
    check_int "every row served" n (List.length a.Wire.answers);
    check_bool "not truncated at the exact cap" false a.Wire.truncated;
    check_bool "rows in order" true
      (a.Wire.answers = List.init n (fun i -> [ i; i ]))
  | r -> Alcotest.failf "large answer failed: %s" (Wire.response_to_string r));
  match
    Serve.Engine.submit e
      (query_req ~max_answers:(n - 1) "ans(X,Y) :- big(X,Y).")
  with
  | Wire.Answer (_, a) ->
    check_int "capped page" (n - 1) (List.length a.Wire.answers);
    check_bool "truncation flagged" true a.Wire.truncated;
    check_bool "prefix preserved in order" true
      (a.Wire.answers = List.init (n - 1) (fun i -> [ i; i ]))
  | r -> Alcotest.failf "capped answer failed: %s" (Wire.response_to_string r)

let test_engine_cursor_eviction_is_typed () =
  let config = { Serve.Engine.default_config with cursor_capacity = 1 } in
  with_engine ~config @@ fun e ->
  let a = answer_of e (query_req ~limit:2 "ans(X,Y) :- edge(X,Y).") in
  let ta = Option.get a.Wire.next_cursor in
  (* parking a second paginated session evicts the first (capacity 1) *)
  let b = answer_of e (query_req ~limit:2 "ans(X,Y) :- edge(Y,X).") in
  let tb = Option.get b.Wire.next_cursor in
  expect_expired e (query_req ~limit:2 ~cursor:ta "ans(X,Y) :- edge(X,Y).");
  let b1 = answer_of e (query_req ~limit:2 ~cursor:tb "ans(X,Y) :- edge(Y,X).") in
  Alcotest.(check (option int)) "survivor still pages" (Some 1) b1.Wire.page

let test_engine_deadline_sheds_typed () =
  with_engine @@ fun e ->
  (* a 100ms stall against a 30ms deadline: the ladder stops immediately
     because the overall deadline is exhausted mid-rung *)
  match
    Serve.Engine.submit e
      (query_req ~deadline_ms:30 ~chaos:"stall:1:0.1"
         "ans(X,Z) :- edge(X,Y), edge(Y,Z).")
  with
  | Wire.Failed (_, Wire.Aborted "deadline", _) -> ()
  | r -> Alcotest.failf "expected a deadline abort: %s" (Wire.response_to_string r)

let collect_async e reqs =
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let got = ref [] in
  let n = List.length reqs in
  List.iter
    (fun r ->
      Serve.Engine.submit_async e r ~reply:(fun resp ->
          Mutex.lock lock;
          got := resp :: !got;
          if List.length !got = n then Condition.signal done_;
          Mutex.unlock lock))
    reqs;
  Mutex.lock lock;
  while List.length !got < n do
    Condition.wait done_ lock
  done;
  let r = !got in
  Mutex.unlock lock;
  r

let test_engine_admission_control () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 2;
    }
  in
  with_engine ~config @@ fun e ->
  (* the first request stalls its worker long enough for the flood
     behind it to pile onto the bounded queue *)
  let stall =
    query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
      "ans(X,Y) :- edge(X,Y)."
  in
  (* structurally distinct queries (paths of growing length), so none
     of them coalesce into a batch — each needs its own queue slot *)
  let path_query n =
    let atoms =
      List.init n (fun i -> Printf.sprintf "edge(X%d,X%d)" i (i + 1))
    in
    Printf.sprintf "ans(X0,X%d) :- %s." n (String.concat ", " atoms)
  in
  let flood =
    List.init 8 (fun i -> query_req ~id:(Json.Int i) (path_query (i + 2)))
  in
  let responses = collect_async e (stall :: flood) in
  let shed, rest =
    List.partition
      (function Wire.Failed (_, Wire.Overloaded, _) -> true | _ -> false)
      responses
  in
  check_int "every request answered exactly once" 9 (List.length responses);
  check_bool "admission control shed the overflow" true
    (List.length shed >= 1);
  List.iter
    (fun r ->
      match r with
      | Wire.Answer _ | Wire.Failed (_, Wire.Overloaded, _) -> ()
      | r ->
        Alcotest.failf "unexpected response under load: %s"
          (Wire.response_to_string r))
    rest

(* Like [collect_async], but each request names its fairness bucket. *)
let collect_async_clients e reqs =
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let got = ref [] in
  let n = List.length reqs in
  List.iter
    (fun (client, r) ->
      Serve.Engine.submit_async ~client e r ~reply:(fun resp ->
          Mutex.lock lock;
          got := resp :: !got;
          if List.length !got = n then Condition.signal done_;
          Mutex.unlock lock))
    reqs;
  Mutex.lock lock;
  while List.length !got < n do
    Condition.wait done_ lock
  done;
  let r = !got in
  Mutex.unlock lock;
  r

let counter_value e name =
  Telemetry.Metrics.value
    (Telemetry.Metrics.counter (Serve.Engine.metrics e) name)

let string_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Batched execution of identical canonical queries                     *)

let test_engine_batching_fans_out () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
    }
  in
  with_engine ~config @@ fun e ->
  let text = "ans(X,Z) :- edge(X,Y), edge(Y,Z)." in
  (* a solo run for the reference answer (this also warms the cache),
     plus one run of the occupier's structure so the stall below is the
     only other compile the engine could possibly do *)
  let solo = answer_of e (query_req text) in
  check_bool "solo run is not batched" false solo.Wire.batched;
  ignore (answer_of e (query_req "ans(X,Y) :- edge(X,Y)."));
  let misses0 = Serve.Plan_cache.misses (Serve.Engine.cache e) in
  (* stall the only worker, then pile six identical queries (distinct
     clients) behind it: the first leads, five coalesce as followers *)
  let stall =
    (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  let flood =
    List.init 6 (fun i -> (i + 1, query_req ~id:(Json.Int i) text))
  in
  let responses = collect_async_clients e (stall :: flood) in
  let answers =
    List.filter_map
      (function Wire.Answer (Json.Int _, a) -> Some a | _ -> None)
      responses
  in
  check_int "all six identical queries answered" 6 (List.length answers);
  List.iter
    (fun a ->
      check_bool "tuple-identical to the solo run" true
        (a.Wire.answers = solo.Wire.answers);
      check_int "same cardinality as the solo run" solo.Wire.cardinality
        a.Wire.cardinality;
      check_bool "flagged batched" true a.Wire.batched)
    answers;
  check_bool "followers paid no compile" true
    (List.length (List.filter (fun a -> a.Wire.compile_seconds = 0.0) answers)
    >= 5);
  check_int "the batch compiled nothing new" misses0
    (Serve.Plan_cache.misses (Serve.Engine.cache e));
  check_int "five coalesced requests counted" 5 (counter_value e "serve.batched")

let engine_batch_identity_prop =
  qtest ~count:8 "batched answers are tuple-identical to a solo run"
    Helpers.tiny_graph_arbitrary
    (fun g ->
      let cq =
        coloring_query ~mode:(Conjunctive.Encode.Fraction 0.5) ~seed:7 g
      in
      let text =
        let var v = Printf.sprintf "V%d" v in
        Printf.sprintf "q(%s) :- %s."
          (String.concat ", " (List.map var cq.Cq.free))
          (String.concat ", "
             (List.map
                (fun a ->
                  Printf.sprintf "%s(%s)" a.Cq.rel
                    (String.concat ", " (List.map var a.Cq.vars)))
                cq.Cq.atoms))
      in
      let config =
        {
          Serve.Engine.default_config with
          Serve.Engine.workers = 1;
          queue_depth = 32;
        }
      in
      with_engine ~config @@ fun e ->
      let solo =
        match Serve.Engine.submit e (query_req ~max_answers:10_000 text) with
        | Wire.Answer (_, a) -> a
        | r ->
          QCheck.Test.fail_reportf "solo run failed: %s"
            (Wire.response_to_string r)
      in
      let stall =
        (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.3"
              "ans(X,Y) :- edge(X,Y).")
      in
      let flood =
        List.init 4 (fun i ->
            (i + 1, query_req ~id:(Json.Int i) ~max_answers:10_000 text))
      in
      let answers =
        List.filter_map
          (function Wire.Answer (Json.Int _, a) -> Some a | _ -> None)
          (collect_async_clients e (stall :: flood))
      in
      List.length answers = 4
      && List.for_all
           (fun a ->
             a.Wire.batched && a.Wire.answers = solo.Wire.answers
             && a.Wire.cardinality = solo.Wire.cardinality)
           answers)

let test_engine_batch_leader_abort_fans_out () =
  (* When the shared execution aborts, every coalesced member gets the
     same typed abort — never a hang, never an internal error. *)
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
    }
  in
  with_engine ~config @@ fun e ->
  let stall =
    (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  (* six tuples against a one-tuple cap, ladder off: a certain abort *)
  let doomed =
    List.init 3 (fun i ->
        (i + 1, query_req ~id:(Json.Int i) ~ladder:false ~max_tuples:1
                  "ans(X,Z) :- edge(X,Y), edge(Y,Z)."))
  in
  let responses = collect_async_clients e (stall :: doomed) in
  let aborts =
    List.filter_map
      (function
        | Wire.Failed (Json.Int _, Wire.Aborted reason, _) -> Some reason
        | _ -> None)
      responses
  in
  check_int "all members aborted" 3 (List.length aborts);
  check_bool "all with the same typed reason" true
    (List.for_all (fun r -> r = "cardinality") aborts);
  check_int "followers still counted as coalesced" 2
    (counter_value e "serve.batched")

(* ------------------------------------------------------------------ *)
(* Cost-aware admission and per-client quotas                           *)

let test_engine_cost_shed_is_typed () =
  let config =
    { Serve.Engine.default_config with Serve.Engine.max_cost_log2 = Some 10.0 }
  in
  with_engine ~config @@ fun e ->
  (* four disconnected edge atoms, all free: any route must materialize
     the 6^4-row cross product, estimate ~ 4*log2 6 ~ 10.3 > 10 *)
  let big =
    "ans(A,B,C,D,E,F,G,H) :- edge(A,B), edge(C,D), edge(E,F), edge(G,H)."
  in
  (match Serve.Engine.submit e (query_req big) with
  | Wire.Failed (_, Wire.Shed_cost, msg) ->
    check_bool "message names the estimate" true
      (string_contains msg "2^10.3")
  | r -> Alcotest.failf "expected shed-cost, got %s" (Wire.response_to_string r));
  (* the boolean form of the same body is cheap (no output term): the
     estimator prices routes, not atom counts *)
  (match
     Serve.Engine.submit e
       (query_req "q() :- edge(A,B), edge(C,D), edge(E,F), edge(G,H).")
   with
  | Wire.Answer (_, a) -> check_bool "boolean form admitted" true a.Wire.nonempty
  | r -> Alcotest.failf "boolean form shed: %s" (Wire.response_to_string r));
  (* a cheap materializing query sails through *)
  (match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Answer _ -> ()
  | r -> Alcotest.failf "cheap query shed: %s" (Wire.response_to_string r));
  check_int "sheds counted" 1 (counter_value e "serve.shed_cost")

let test_engine_cost_estimate_is_exact_on_single_edge () =
  (* A single-atom query's estimate is exactly log2 of the relation's
     cardinality (every bound collapses to the edge cover of one atom):
     log2 6 ~ 2.58, so a 2.0 ceiling sheds it with that figure. *)
  let config =
    { Serve.Engine.default_config with Serve.Engine.max_cost_log2 = Some 2.0 }
  in
  with_engine ~config @@ fun e ->
  match Serve.Engine.submit e (query_req "ans(X,Y) :- edge(X,Y).") with
  | Wire.Failed (_, Wire.Shed_cost, msg) ->
    check_bool "estimate is log2(cardinality)" true
      (string_contains msg "2^2.6")
  | r -> Alcotest.failf "expected shed-cost, got %s" (Wire.response_to_string r)

(* The admission estimate as it was defined before pricing moved onto the
   shared analysis: every route's bound, max'ed with the AGM output term
   when the query has free variables, min over the three routes — over
   the bounds of a [Ghd.prepare] without an rng. *)
let reference_estimate db cq =
  let p = Ghd.prepare db cq in
  let binary = p.Ghd.analysis.Ghd.binary_bound_log2 in
  let agm = p.Ghd.analysis.Ghd.agm.Wcoj.Agm.bound_log2 in
  let out = if cq.Cq.free = [] then 0.0 else agm in
  let route c = Float.max c out in
  Float.min (route binary) (Float.min agm (route p.Ghd.ghd_bound_log2))

let admission_estimate_prop =
  qtest ~count:80 "admission estimate = min over routes, bit for bit"
    QCheck.(triple graph_arbitrary (int_range 2 4) (int_range 0 2))
    (fun (g, colors, mode) ->
      let mode =
        match mode with
        | 0 -> Conjunctive.Encode.Boolean
        | 1 -> Conjunctive.Encode.Emulated_boolean
        | _ -> Conjunctive.Encode.Fraction 0.4
      in
      let db = Conjunctive.Encode.coloring_database ~k:colors () in
      let cq = coloring_query ~mode ~seed:3 g in
      let got =
        Serve.Admission.estimate (Serve.Admission.create ()) db ~key:"q" cq
      in
      Int64.equal (Int64.bits_of_float got)
        (Int64.bits_of_float (reference_estimate db cq)))

(* A miss hands its AGM cover on; compiling with it prepares exactly the
   artifact a compile that computes the cover itself prepares. *)
let admission_cover_reuse_prop =
  qtest ~count:60 "admission's cover = compile's cover"
    QCheck.(pair graph_arbitrary bool)
    (fun (g, boolean) ->
      let mode =
        if boolean then Conjunctive.Encode.Boolean
        else Conjunctive.Encode.Fraction 0.4
      in
      let cq = coloring_query ~mode ~seed:3 g in
      let admission = Serve.Admission.create () in
      let cost, agm =
        Serve.Admission.estimate_cover admission coloring_db ~key:"q" cq
      in
      let hit_cost, hit_agm =
        Serve.Admission.estimate_cover admission coloring_db ~key:"q" cq
      in
      let prepare ?agm meth =
        Ppr_core.Driver.prepare ~rng:(Graphlib.Rng.make 17) ?agm meth coloring_db cq
      in
      agm <> None && hit_agm = None && cost = hit_cost
      && List.for_all
           (fun meth -> prepare ?agm meth = prepare meth)
           [ Ppr_core.Driver.Wcoj; Ppr_core.Driver.Ghd ])

let test_engine_backlog_cost_shed () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
      max_queue_cost_log2 = Some 5.0;
      batching = false;
    }
  in
  with_engine ~config @@ fun e ->
  let stall =
    (0, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  (* cheap (~2^2.6) then expensive (~2^5.2): the second would push the
     backlog past 2^5, so it is shed while the first one queues fine *)
  let cheap = (1, query_req ~id:(Json.String "cheap") "ans(X,Y) :- edge(Y,X).") in
  let pricey =
    (2, query_req ~id:(Json.String "pricey") "ans(X,Z) :- edge(X,Y), edge(Y,Z).")
  in
  let responses = collect_async_clients e [ stall; cheap; pricey ] in
  let by_id want =
    List.find_opt
      (fun r -> Wire.response_id r = Json.String want)
      responses
  in
  (match by_id "cheap" with
  | Some (Wire.Answer _) -> ()
  | r ->
    Alcotest.failf "cheap query should be served: %s"
      (match r with Some r -> Wire.response_to_string r | None -> "missing"));
  (match by_id "pricey" with
  | Some (Wire.Failed (_, Wire.Shed_cost, msg)) ->
    check_bool "message names the backlog ceiling" true
      (string_contains msg "backlog")
  | r ->
    Alcotest.failf "pricey query should be backlog-shed: %s"
      (match r with Some r -> Wire.response_to_string r | None -> "missing"));
  (* an idle daemon admits the same query: the aggregate ceiling never
     permanently blocks an affordable request *)
  match Serve.Engine.submit e (query_req "ans(X,Z) :- edge(X,Y), edge(Y,Z).") with
  | Wire.Answer _ -> ()
  | r ->
    Alcotest.failf "idle daemon should admit it: %s" (Wire.response_to_string r)

let test_engine_client_quota_sheds_only_flooder () =
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
      client_quota = Some 2;
    }
  in
  with_engine ~config @@ fun e ->
  let path_query n =
    let atoms =
      List.init n (fun i -> Printf.sprintf "edge(X%d,X%d)" i (i + 1))
    in
    Printf.sprintf "ans(X0,X%d) :- %s." n (String.concat ", " atoms)
  in
  let stall =
    (9, query_req ~id:(Json.String "stall") ~chaos:"stall:1:0.4"
          "ans(X,Y) :- edge(X,Y).")
  in
  (* six structurally distinct queries from one client: two fit the
     quota, four are shed — and only the flooder's *)
  let flood =
    List.init 6 (fun i -> (1, query_req ~id:(Json.Int i) (path_query (i + 2))))
  in
  let polite = (2, query_req ~id:(Json.String "polite") (path_query 9)) in
  let responses = collect_async_clients e ((stall :: flood) @ [ polite ]) in
  let flood_sheds =
    List.filter
      (function
        | Wire.Failed (Json.Int _, Wire.Shed_quota, _) -> true | _ -> false)
      responses
  in
  let flood_answers =
    List.filter
      (function Wire.Answer (Json.Int _, _) -> true | _ -> false)
      responses
  in
  check_int "four of six shed by quota" 4 (List.length flood_sheds);
  check_int "two of six served" 2 (List.length flood_answers);
  (match
     List.find_opt
       (fun r -> Wire.response_id r = Json.String "polite")
       responses
   with
  | Some (Wire.Answer _) -> ()
  | r ->
    Alcotest.failf "the polite client must be unaffected: %s"
      (match r with Some r -> Wire.response_to_string r | None -> "missing"));
  check_int "quota sheds counted" 4 (counter_value e "serve.shed_quota")

let test_engine_cache_persists_across_restart () =
  (* The daemon-restart story: engine 1 compiles (including a prepared
     GHD decomposition), stop snapshots the cache, engine 2 starts from
     the snapshot and its very first request is a hit replaying the
     stored artifact — tuple-identically. *)
  let path = Filename.temp_file "ppr-engine-cache" ".bin" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let config =
    { Serve.Engine.default_config with Serve.Engine.cache_file = Some path }
  in
  let ask e meth text =
    match Serve.Engine.submit e (query_req ~meth text) with
    | Wire.Answer (_, a) -> a
    | r -> Alcotest.failf "query failed: %s" (Wire.response_to_string r)
  in
  let text = "ans(X,Z) :- edge(X,Y), edge(Y,Z), edge(Z,X)." in
  let e1 = Serve.Engine.create ~config coloring_db in
  let cold_bucket = ask e1 "bucket-elimination" text in
  let cold_ghd = ask e1 "ghd" text in
  check_bool "cold runs miss" true
    ((not cold_bucket.Wire.cache_hit) && not cold_ghd.Wire.cache_hit);
  Serve.Engine.stop e1;
  check_bool "stop wrote the snapshot" true (Sys.file_exists path);
  let e2 = Serve.Engine.create ~config coloring_db in
  Fun.protect ~finally:(fun () -> Serve.Engine.stop e2) @@ fun () ->
  let warm_bucket = ask e2 "bucket-elimination" text in
  let warm_ghd = ask e2 "ghd" text in
  check_bool "restarted engine hits on first request" true
    (warm_bucket.Wire.cache_hit && warm_ghd.Wire.cache_hit);
  check_bool "replayed artifacts are tuple-identical" true
    (cold_bucket.Wire.answers = warm_bucket.Wire.answers
    && cold_ghd.Wire.answers = warm_ghd.Wire.answers)

let test_engine_per_client_fairness () =
  (* One worker, one flooding client, one victim: with round-robin
     admission the victim's single query is served after at most one of
     the flooder's queued jobs, not behind the whole backlog. *)
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 1;
      queue_depth = 32;
    }
  in
  with_engine ~config @@ fun e ->
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let order = ref [] in
  let submit ~client id chaos =
    Serve.Engine.submit_async ~client e
      (query_req ~id:(Json.String id) ?chaos "ans(X,Y) :- edge(X,Y).")
      ~reply:(fun r ->
        match r with
        | Wire.Answer _ ->
          Mutex.lock lock;
          order := id :: !order;
          Condition.signal done_;
          Mutex.unlock lock
        | r -> Alcotest.failf "unexpected response: %s" (Wire.response_to_string r))
  in
  let flood = 6 in
  (* The head request stalls the only worker long enough for everything
     below to be queued before the first pop. *)
  submit ~client:1 "head" (Some "stall:1:0.4");
  for i = 0 to flood - 1 do
    submit ~client:1 (Printf.sprintf "flood%d" i) (Some "stall:1:0.02")
  done;
  submit ~client:2 "victim" None;
  Mutex.lock lock;
  while List.length !order < flood + 2 do
    Condition.wait done_ lock
  done;
  let completion = List.rev !order in
  Mutex.unlock lock;
  let index_of id =
    let rec go i = function
      | [] -> Alcotest.failf "%s never completed" id
      | x :: _ when x = id -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 completion
  in
  check_bool
    (Printf.sprintf "victim not starved (completion order: %s)"
       (String.concat " " completion))
    true
    (index_of "victim" <= 2)

let test_engine_drain_and_shutdown () =
  let config =
    { Serve.Engine.default_config with Serve.Engine.workers = 1 }
  in
  let e = Serve.Engine.create ~config coloring_db in
  let lock = Mutex.create () in
  let answered = ref 0 in
  let submit_one i =
    Serve.Engine.submit_async e
      (query_req ~id:(Json.Int i) ~chaos:"stall:1:0.05" "ans(X,Y) :- edge(X,Y).")
      ~reply:(fun r ->
        match r with
        | Wire.Answer _ ->
          Mutex.lock lock;
          incr answered;
          Mutex.unlock lock
        | r ->
          Alcotest.failf "queued request not answered on drain: %s"
            (Wire.response_to_string r))
  in
  List.iter submit_one [ 0; 1; 2; 3 ];
  (* stop must answer all four queued sessions before returning *)
  Serve.Engine.stop e;
  check_int "every queued request answered before stop returned" 4 !answered;
  match Serve.Engine.submit e (query_req "q() :- edge(X,Y).") with
  | Wire.Failed (_, Wire.Shutting_down, _) -> ()
  | r ->
    Alcotest.failf "post-stop submission should be refused: %s"
      (Wire.response_to_string r)

(* ------------------------------------------------------------------ *)
(* Socket server                                                       *)

let connect_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let with_server ?config f =
  let server =
    Serve.Server.start ?config ~db:coloring_db
      (Serve.Server.Tcp ("127.0.0.1", 0))
  in
  let port =
    match Serve.Server.bound_address server with
    | Serve.Server.Tcp (_, p) -> p
    | _ -> Alcotest.fail "expected a TCP address"
  in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) (fun () -> f server port)

let test_server_end_to_end () =
  with_server @@ fun _server port ->
  let fd, ic, oc = connect_tcp port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let ask line =
    send_line oc line;
    match Jsonl.parse (input_line ic) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "bad response: %s" msg
  in
  let pong = ask {|{"op":"ping","id":1}|} in
  check_bool "ping answers" true (Wire.field pong "pong" = Some (Json.Bool true));
  let ans = ask {|{"op":"query","id":2,"query":"ans(X,Y) :- edge(X,Y)."}|} in
  check_bool "query ok" true
    (Wire.field ans "status" = Some (Json.String "ok"));
  check_bool "cardinality over the wire" true
    (Wire.field ans "cardinality" = Some (Json.Int 6));
  let bad = ask "}{ not json" in
  check_bool "malformed line gets a typed parse error" true
    (Wire.field bad "kind" = Some (Json.String "parse"));
  let stats = ask {|{"op":"stats","id":3}|} in
  check_bool "stats counts the requests" true
    (match Wire.field stats "requests" with
    | Some (Json.Int n) -> n >= 1
    | _ -> false);
  let metrics = ask {|{"op":"metrics","id":4}|} in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "metrics dump mentions serving counters" true
    (match Wire.field metrics "metrics" with
    | Some (Json.String text) -> contains text "serve.requests"
    | _ -> false);
  (* The query above ran unstreamed, so its run harvested feedback and
     timed the harvest. *)
  check_bool "metrics dump times the feedback harvest" true
    (match Wire.field metrics "metrics" with
    | Some (Json.String text) -> contains text "driver.feedback.harvest_seconds"
    | _ -> false)

let test_server_bounds_line_length () =
  (* A 2 MiB line, itself a well-formed ping, passes the reader's 1 MiB
     cap: it is refused with a typed parse error, the rest of it is
     discarded, and the next request on the connection is answered. *)
  with_server @@ fun _server port ->
  let fd, ic, oc = connect_tcp port in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let pad = String.make (2 * 1024 * 1024) 'x' in
  send_line oc (Printf.sprintf {|{"op":"ping","id":1,"pad":"%s"}|} pad);
  send_line oc {|{"op":"ping","id":2}|};
  let next () =
    match Jsonl.parse (input_line ic) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "bad response: %s" msg
  in
  let first = next () in
  check_bool "over-long line gets a typed parse error" true
    (Wire.field first "kind" = Some (Json.String "parse"));
  let second = next () in
  check_bool "the connection keeps serving" true
    (Wire.field second "id" = Some (Json.Int 2)
    && Wire.field second "pong" = Some (Json.Bool true))

let test_server_concurrent_clients () =
  with_server @@ fun _server port ->
  let clients = 6 and per_client = 4 in
  let errors = Mutex.create () and failed = ref [] in
  let client c =
    let fd, ic, oc = connect_tcp port in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        for i = 0 to per_client - 1 do
          send_line oc
            (Printf.sprintf
               {|{"op":"query","id":%d,"query":"ans(X,Z) :- edge(X,Y), edge(Y,Z)."}|}
               ((c * per_client) + i))
        done;
        let seen = ref [] in
        for _ = 1 to per_client do
          match Jsonl.parse (input_line ic) with
          | Ok v -> (
            match (Wire.field v "id", Wire.field v "status") with
            | Some (Json.Int id), Some (Json.String "ok") -> seen := id :: !seen
            | _, _ ->
              Mutex.lock errors;
              failed := Json.to_string v :: !failed;
              Mutex.unlock errors)
          | Error msg ->
            Mutex.lock errors;
            failed := msg :: !failed;
            Mutex.unlock errors
        done;
        let expected = List.init per_client (fun i -> (c * per_client) + i) in
        if List.sort compare !seen <> expected then begin
          Mutex.lock errors;
          failed := Printf.sprintf "client %d: wrong ids" c :: !failed;
          Mutex.unlock errors
        end)
  in
  let threads = List.init clients (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  check_bool
    (Printf.sprintf "all clients served cleanly: %s"
       (String.concat "; " !failed))
    true (!failed = [])

let test_server_unix_socket_and_drain () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ppr-serve-test-%d.sock" (Unix.getpid ()))
  in
  let server =
    Serve.Server.start ~db:coloring_db (Serve.Server.Unix_socket path)
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* a stalled query left in flight when stop begins: the drain must
     still answer it before the server returns from stop *)
  send_line oc
    {|{"op":"query","id":1,"chaos":"stall:1:0.2","query":"ans(X,Y) :- edge(X,Y)."}|};
  Thread.delay 0.05;
  let stopper = Thread.create (fun () -> Serve.Server.stop server) () in
  let response = Jsonl.parse (input_line ic) in
  Thread.join stopper;
  (match response with
  | Ok v ->
    check_bool "in-flight session answered during drain" true
      (Wire.field v "status" = Some (Json.String "ok"))
  | Error msg -> Alcotest.failf "drain dropped the in-flight session: %s" msg);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  check_bool "socket file removed on shutdown" false (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "jsonl",
        [
          Alcotest.test_case "round trips" `Quick test_jsonl_round_trips;
          Alcotest.test_case "escapes and numbers" `Quick
            test_jsonl_escapes_and_numbers;
          Alcotest.test_case "rejects garbage" `Quick test_jsonl_rejects_garbage;
          Alcotest.test_case "nesting limit" `Quick test_jsonl_nesting_limit;
        ] );
      ( "wire",
        [
          Alcotest.test_case "defaults" `Quick test_wire_defaults;
          Alcotest.test_case "type errors keep the id" `Quick
            test_wire_type_errors_keep_id;
          Alcotest.test_case "rejects bad requests" `Quick test_wire_rejects;
          Alcotest.test_case "response encoding" `Quick
            test_wire_response_encoding;
        ] );
      ( "canon",
        [
          Alcotest.test_case "isomorphic queries agree" `Quick
            test_canon_isomorphic_queries_agree;
          Alcotest.test_case "distinguishes structure" `Quick
            test_canon_distinguishes_structure;
          Alcotest.test_case "idempotent" `Quick test_canon_idempotent;
          Alcotest.test_case "renaming is faithful" `Quick
            test_canon_rename_is_faithful;
          canon_invariance_prop;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "counters and LRU" `Quick
            test_cache_counters_and_lru;
          Alcotest.test_case "racing insert keeps first" `Quick
            test_cache_racing_insert_keeps_first;
          Alcotest.test_case "key injectivity" `Quick
            test_cache_key_injective_on_templates;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_cache_save_load_roundtrip;
          Alcotest.test_case "save/load a deferred artifact" `Quick
            test_cache_deferred_roundtrip;
          Alcotest.test_case "load rejects corrupt" `Quick
            test_cache_load_rejects_corrupt;
        ] );
      ( "engine",
        [
          Alcotest.test_case "answers match direct run" `Quick
            test_engine_answers_match_direct_run;
          Alcotest.test_case "boolean and truncation" `Quick
            test_engine_boolean_and_truncation;
          Alcotest.test_case "capped answers are route-independent" `Quick
            test_engine_capped_answer_route_independent;
          Alcotest.test_case "cache hits are tuple-identical" `Quick
            test_engine_cache_hits_are_tuple_identical;
          engine_cache_identity_prop;
          Alcotest.test_case "typed failures and containment" `Quick
            test_engine_typed_failures;
          Alcotest.test_case "pagination serves exactly once" `Quick
            test_engine_pagination_exactly_once;
          Alcotest.test_case "cursor tokens are single-use" `Quick
            test_engine_cursor_tokens_single_use;
          Alcotest.test_case "cursor tokens are unguessable" `Quick
            test_engine_cursor_tokens_unguessable;
          Alcotest.test_case "streaming metrics are honest" `Quick
            test_engine_streaming_metrics_honest;
          Alcotest.test_case "large answer caps" `Quick
            test_engine_large_answer_caps;
          Alcotest.test_case "cursor eviction is typed" `Quick
            test_engine_cursor_eviction_is_typed;
          Alcotest.test_case "deadline sheds typed" `Quick
            test_engine_deadline_sheds_typed;
          Alcotest.test_case "admission control" `Quick
            test_engine_admission_control;
          Alcotest.test_case "batching fans out" `Quick
            test_engine_batching_fans_out;
          engine_batch_identity_prop;
          Alcotest.test_case "batch leader abort fans out" `Quick
            test_engine_batch_leader_abort_fans_out;
          Alcotest.test_case "cost shed is typed" `Quick
            test_engine_cost_shed_is_typed;
          Alcotest.test_case "cost estimate exact on single edge" `Quick
            test_engine_cost_estimate_is_exact_on_single_edge;
          admission_estimate_prop;
          admission_cover_reuse_prop;
          Alcotest.test_case "backlog cost shed" `Quick
            test_engine_backlog_cost_shed;
          Alcotest.test_case "client quota sheds only the flooder" `Quick
            test_engine_client_quota_sheds_only_flooder;
          Alcotest.test_case "cache persists across restart" `Quick
            test_engine_cache_persists_across_restart;
          Alcotest.test_case "per-client fairness" `Quick
            test_engine_per_client_fairness;
          Alcotest.test_case "drain and shutdown" `Quick
            test_engine_drain_and_shutdown;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "line length bound" `Quick
            test_server_bounds_line_length;
          Alcotest.test_case "concurrent clients" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "unix socket and drain" `Quick
            test_server_unix_socket_and_drain;
        ] );
    ]
