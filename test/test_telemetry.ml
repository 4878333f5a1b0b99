(* Tests for the telemetry subsystem: metric registry semantics, span
   nesting (including exception unwinding), the zero-cost disabled path,
   Chrome trace export, and the Stats facade over the registry. *)

open Helpers
module T = Telemetry
module Metrics = Telemetry.Metrics
module Span = Telemetry.Span
module Attr = Telemetry.Attr

(* A deterministic clock: each reading advances by one millisecond. *)
let ticking_clock () =
  let now = ref 0.0 in
  fun () ->
    now := !now +. 0.001;
    !now

let pentagon_cq = coloring_query (Graphlib.Generators.cycle 5)

let run_pentagon ?telemetry ?stats ?limits () =
  let plan = Ppr_core.Bucket.compile pentagon_cq in
  Ppr_core.Exec.run
    ~ctx:(Relalg.Ctx.create ?telemetry ?stats ?limits ())
    coloring_db plan

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_counter_gauge () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "tuples" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  check_int "counter" 42 (Metrics.value c);
  check_bool "get-or-register shares" true
    (Metrics.value (Metrics.counter reg "tuples") = 42);
  let g = Metrics.max_gauge reg "widest" in
  Metrics.observe_max g 3;
  Metrics.observe_max g 7;
  Metrics.observe_max g 5;
  check_int "gauge peak" 7 (Metrics.peak g);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Metrics: \"tuples\" is already registered as a different kind \
        (wanted gauge)") (fun () -> ignore (Metrics.max_gauge reg "tuples"))

let test_metrics_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~bounds:[| 1.0; 2.0; 4.0 |] reg "fanout" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
  check_int "observations" 4 (Metrics.observations h);
  Alcotest.(check (float 1e-9)) "sum" 105.0 (Metrics.histogram_sum h);
  Alcotest.(check (list (pair (float 1e-9) int)))
    "buckets"
    [ (1.0, 1); (2.0, 1); (4.0, 1); (infinity, 1) ]
    (Metrics.buckets h);
  Metrics.reset reg;
  check_int "reset clears" 0 (Metrics.observations h)

let test_metrics_iter_order () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "b");
  ignore (Metrics.max_gauge reg "a");
  ignore (Metrics.counter reg "c");
  let names = ref [] in
  Metrics.iter reg (fun name _ -> names := name :: !names);
  Alcotest.(check (list string))
    "registration order" [ "b"; "a"; "c" ] (List.rev !names)

(* ------------------------------------------------------------------ *)
(* Span nesting                                                        *)

(* Well-formedness over a sink's output: every span closed, parents
   exist, children are properly contained in their parents. *)
let check_well_formed spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id (Span.id s) s) spans;
  List.iter
    (fun s ->
      check_bool "closed" true (Span.is_closed s);
      check_bool "positive duration" true (Span.duration s >= 0.0);
      match Span.parent s with
      | None -> check_int "root depth" 0 (Span.depth s)
      | Some pid ->
        let p =
          match Hashtbl.find_opt by_id pid with
          | Some p -> p
          | None -> Alcotest.fail "parent span missing from sink"
        in
        check_int "depth is parent's + 1" (Span.depth p + 1) (Span.depth s);
        check_bool "starts after parent" true
          (Span.start_time s >= Span.start_time p);
        check_bool "stops before parent" true
          (Span.stop_time s <= Span.stop_time p))
    spans

(* A plan whose projection sits over a scan and whose join has no
   projection above it, so both run their own kernels: op.project and
   op.join.hash. *)
let run_unfused ?telemetry () =
  match pentagon_cq.Conjunctive.Cq.atoms with
  | a0 :: a1 :: _ ->
    let plan =
      Ppr_core.Plan.Join
        ( Ppr_core.Plan.Project (Ppr_core.Plan.Atom a0, [ List.hd a0.Conjunctive.Cq.vars ]),
          Ppr_core.Plan.Atom a1 )
    in
    Ppr_core.Exec.run ~ctx:(Relalg.Ctx.create ?telemetry ()) coloring_db plan
  | _ -> Alcotest.fail "the pentagon has five atoms"

let test_span_nesting_well_formed () =
  let sink, spans = T.Sink.memory () in
  let t = T.create ~clock:(ticking_clock ()) sink in
  ignore (run_pentagon ~telemetry:t ());
  ignore (run_unfused ~telemetry:t ());
  T.close t;
  let spans = spans () in
  check_bool "spans recorded" true (List.length spans > 5);
  check_int "all spans reached the sink" (List.length spans)
    (T.started_spans t);
  check_well_formed spans;
  (* The bucket plan is projections over joins over scans: all three
     span kinds must appear, and op.* spans sit under plan.* spans. A
     projection of a join runs as the fused kernel, whose span sits in
     the join node's, itself inside the projection node's; the second
     plan runs the unfused kernels. *)
  let names = List.map Span.name spans in
  List.iter
    (fun n -> check_bool ("has " ^ n) true (List.mem n names))
    [ "plan.join"; "plan.project"; "op.scan"; "op.join.project"; "op.join.hash";
      "op.project" ];
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id (Span.id s) s) spans;
  let parent_name s =
    Option.map (fun p -> Span.name (Hashtbl.find by_id p)) (Span.parent s)
  in
  let under = [ ("op.join.project", "plan.join"); ("op.join.hash", "plan.join");
                ("op.project", "plan.project") ] in
  List.iter
    (fun s ->
      match List.assoc_opt (Span.name s) under with
      | Some p -> check_bool (Span.name s ^ " under " ^ p) true (parent_name s = Some p)
      | None -> ())
    spans;
  check_bool "a plan.join under a plan.project" true
    (List.exists
       (fun s -> Span.name s = "plan.join" && parent_name s = Some "plan.project")
       spans);
  let int_attr s a = match Span.attr s a with Some (Attr.Int n) -> Some n | _ -> None in
  List.iter
    (fun s ->
      let has a = check_bool (Span.name s ^ " has " ^ a) true (Span.attr s a <> None) in
      match Span.name s with
      | "op.join.hash" | "op.join.project" ->
        List.iter has [ "rows.out"; "arity.out"; "hash.probes" ];
        if Span.name s = "op.join.project" then begin
          (* The join's size, never written, bounds its projection's
             and the matches sent to the dedup. *)
          check_bool "op.join.project has rows.join >= rows.out" true
            (match (int_attr s "rows.join", int_attr s "rows.out") with
            | Some j, Some o -> j >= o
            | _ -> false);
          check_bool "op.join.project has rows.dedup <= rows.join" true
            (match (int_attr s "rows.dedup", int_attr s "rows.join") with
            | Some d, Some j -> 0 <= d && d <= j
            | _ -> false)
        end
      | "op.project" -> List.iter has [ "rows.in"; "rows.out"; "arity.out" ]
      | _ -> ())
    spans

let test_span_unwinding_marks_spans () =
  let sink, spans = T.Sink.memory () in
  let t = T.create ~clock:(ticking_clock ()) sink in
  let limits = Relalg.Limits.create ~max_tuples:4 () in
  (try ignore (run_pentagon ~telemetry:t ~limits ())
   with Relalg.Limits.Abort _ -> ());
  T.close t;
  let spans = spans () in
  check_well_formed spans;
  check_int "nothing left open" 0 (T.open_spans t);
  check_bool "some span was unwound" true
    (List.exists (fun s -> Span.attr s "unwound" = Some (Attr.Bool true)) spans)

(* ------------------------------------------------------------------ *)
(* Intermediates freed exactly once                                    *)

(* [Exec.run] releases each node's inputs once its kernel has returned
   or raised. Every op span that closed wrote a relation of
   [rows.out * arity.out] cells, and every such relation but the root's
   result is some plan node's input, so the [cells.freed] that the plan
   spans carry sum to exactly those cells: an intermediate left to the
   GC moves the sum. Returns each written relation's cells with the
   stop time of its op span, and the sum of [cells.freed]. *)
let cells_written_and_freed spans =
  let int_attr s a = match Span.attr s a with Some (Attr.Int n) -> n | _ -> 0 in
  let written =
    List.filter_map
      (fun s ->
        if String.starts_with ~prefix:"op." (Span.name s) && Span.attr s "rows.out" <> None
        then Some (Span.stop_time s, int_attr s "rows.out" * int_attr s "arity.out")
        else None)
      spans
  in
  let nodes = List.filter (fun s -> List.mem (Span.name s) [ "plan.join"; "plan.project" ]) spans in
  List.iter
    (fun s ->
      check_bool (Span.name s ^ " carries cells.freed") true (Span.attr s "cells.freed" <> None))
    nodes;
  (written, List.fold_left (fun acc s -> acc + int_attr s "cells.freed") 0 nodes)

let traced_exec ?limits plan =
  let sink, spans = T.Sink.memory () in
  let t = T.create ~clock:(ticking_clock ()) sink in
  let result =
    match Ppr_core.Exec.run ~ctx:(Relalg.Ctx.create ~telemetry:t ?limits ()) coloring_db plan with
    | r -> Ok r
    | exception Relalg.Limits.Abort reason -> Error reason
  in
  T.close t;
  (result, spans ())

(* A complete run: the root's kernel closes last and wrote the result,
   which is never released; the answers are the coloring oracle's. *)
let check_freed_once name compile g =
  let cq = coloring_query ~mode:(Conjunctive.Encode.Fraction 0.5) ~seed:7 g in
  match traced_exec (compile cq) with
  | Error _, _ -> Alcotest.failf "%s aborted without limits" name
  | Ok result, spans ->
    let written, freed = cells_written_and_freed spans in
    let root = snd (List.fold_left max (neg_infinity, 0) written) in
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 written in
    check_int (name ^ ": the root's kernel wrote the result")
      (Relalg.Relation.cardinality result * Relalg.Relation.arity result)
      root;
    check_bool (name ^ ": intermediates were written") true (total > root);
    check_int (name ^ ": every intermediate freed once") (total - root) freed;
    let keep = cq.Conjunctive.Cq.free in
    Alcotest.(check (list (list int)))
      (name ^ ": answers") (all_colorings g ~keep)
      (List.map Relalg.Tuple.to_list (Relalg.Relation.to_sorted_list_in result keep))

let test_intermediates_freed_once () =
  let g = random_graph ~seed:21 ~n:7 ~m:12 in
  check_freed_once "straightforward" Ppr_core.Straightforward.compile g;
  (* Bucket elimination projects each bucket's join through the fused
     kernel. *)
  check_freed_once "bucket elimination" (fun cq -> Ppr_core.Bucket.compile cq)
    (Graphlib.Generators.grid 3 3)

(* Straightforward on [path 18] joins its 18 edges left-deep; the 17th
   join, which adds the last edge, would hold 3 * 2^17 rows, past the
   figures' cap of 300,000 (lib/experiments/figures.ml), so the run
   aborts there. Every relation whose op span closed was freed once:
   the 16th join's output (3 * 2^16 rows) as the aborted join's input,
   the last scan with it. *)
let test_aborted_run_frees_once () =
  let limits = Relalg.Limits.create ~max_tuples:300_000 ~max_total:3_000_000 () in
  let plan = Ppr_core.Straightforward.compile (coloring_query (Graphlib.Generators.path 18)) in
  match traced_exec ~limits plan with
  | Ok _, _ -> Alcotest.fail "the run fit under the cap"
  | Error reason, spans ->
    check_bool "aborted on the cap" true (reason = Relalg.Limits.Cardinality 300_001);
    let written, freed = cells_written_and_freed spans in
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 written in
    check_bool "intermediates were written" true (total > 0);
    check_int "every closed op span's relation freed once" total freed

let test_stop_non_open_span_rejected () =
  let sink, _ = T.Sink.memory () in
  let t = T.create sink in
  let s = T.start t "once" in
  T.stop t s;
  Alcotest.check_raises "double stop"
    (Invalid_argument "Telemetry.stop: no open span for once") (fun () ->
      T.stop t s)

let test_disabled_path_equals_enabled () =
  let sink, _ = T.Sink.memory () in
  let t = T.create sink in
  let enabled = run_pentagon ~telemetry:t () in
  T.close t;
  let disabled = run_pentagon () in
  check_bool "identical results" true
    (Relalg.Relation.equal_modulo_order enabled disabled);
  check_bool "enabled run recorded spans" true (T.started_spans t > 0)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)

(* A deliberately minimal JSON reader — enough to validate our own
   output without trusting the code under test to parse itself. *)
module Mini_json = struct
  type v =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  exception Bad of string

  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let literal word v =
      String.iter expect word;
      v
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> raise (Bad "unterminated string")
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
            advance ();
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            Buffer.add_utf_8_uchar b
              (Uchar.of_int (int_of_string ("0x" ^ hex)))
          | Some 'n' -> advance (); Buffer.add_char b '\n'
          | Some 't' -> advance (); Buffer.add_char b '\t'
          | Some 'r' -> advance (); Buffer.add_char b '\r'
          | Some 'b' -> advance (); Buffer.add_char b '\b'
          | Some 'f' -> advance (); Buffer.add_char b '\012'
          | Some c -> advance (); Buffer.add_char b c
          | None -> raise (Bad "dangling escape"));
          go ()
        | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> num_char c | None -> false) do
        advance ()
      done;
      if !pos = start then raise (Bad (Printf.sprintf "bad number at %d" start));
      Num (float_of_string (String.sub s start (!pos - start)))
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> raise (Bad "bad object")
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> raise (Bad "bad array")
          in
          elements []
        end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> number ()
      | None -> raise (Bad "empty input")
    in
    let v = value () in
    skip_ws ();
    if !pos <> n then raise (Bad "trailing garbage");
    v

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None
end

let with_temp_file f =
  let path = Filename.temp_file "ppr_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_chrome_trace_valid () =
  with_temp_file @@ fun path ->
  let oc = open_out path in
  let t = T.create ~clock:(ticking_clock ()) (T.Sink.chrome oc) in
  ignore (run_pentagon ~telemetry:t ());
  T.close t;
  close_out oc;
  let ic = open_in path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let doc = Mini_json.parse (String.trim contents) in
  let events =
    match Mini_json.member "traceEvents" doc with
    | Some (Mini_json.Arr evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  check_bool "events present" true (List.length events > 5);
  let ts_of ev =
    match Mini_json.member "ts" ev with
    | Some (Mini_json.Num ts) -> ts
    | _ -> Alcotest.fail "event without ts"
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> ts_of a <= ts_of b && monotone rest
    | _ -> true
  in
  check_bool "timestamps monotone" true (monotone events);
  List.iter
    (fun ev ->
      (match Mini_json.member "ph" ev with
      | Some (Mini_json.Str "X") -> ()
      | _ -> Alcotest.fail "expected complete ('X') events");
      match Mini_json.member "dur" ev with
      | Some (Mini_json.Num d) -> check_bool "duration >= 0" true (d >= 0.0)
      | _ -> Alcotest.fail "event without dur")
    events;
  (* Per-operator cardinality/arity attributes survive into args. *)
  check_bool "a join event carries rows.out" true
    (List.exists
       (fun ev ->
         (Mini_json.member "name" ev = Some (Mini_json.Str "op.join.hash")
         || Mini_json.member "name" ev = Some (Mini_json.Str "op.join.project"))
         && match Mini_json.member "args" ev with
            | Some args -> Mini_json.member "rows.out" args <> None
            | None -> false)
       events);
  match Mini_json.member "otherData" doc with
  | Some other -> check_bool "metrics embedded" true
      (Mini_json.member "metrics" other <> None)
  | None -> Alcotest.fail "otherData missing"

let test_json_emitter () =
  let open T.Json in
  Alcotest.(check string)
    "escaping" {|{"a\nb":"c\"d","u":"\u0001"}|}
    (to_string
       (Obj [ ("a\nb", String "c\"d"); ("u", String "\001") ]));
  Alcotest.(check string) "nan is null" "[null,null,1.5]"
    (to_string (List [ Float Float.nan; Float Float.infinity; Float 1.5 ]))

(* ------------------------------------------------------------------ *)
(* Stats facade                                                        *)

let test_stats_facade_matches_legacy () =
  (* The behavior the old record-based Stats had on a seeded plan. *)
  let stats = Relalg.Stats.create () in
  let r = relation [ 0; 1 ] [ [ 1; 2 ]; [ 2; 3 ] ] in
  let s = relation [ 1; 2 ] [ [ 2; 9 ] ] in
  let ctx = Relalg.Ctx.create ~stats () in
  let j = Relalg.Ops.natural_join ~ctx r s in
  ignore (Relalg.Ops.project ~ctx j (Relalg.Schema.of_list [ 0 ]));
  check_int "joins" 1 (Relalg.Stats.joins stats);
  check_int "projections" 1 (Relalg.Stats.projections stats);
  check_int "max arity" 3 (Relalg.Stats.max_arity stats);
  check_int "produced" 2 (Relalg.Stats.tuples_produced stats);
  let snapshot = Relalg.Stats.copy stats in
  Relalg.Stats.reset stats;
  check_int "reset" 0 (Relalg.Stats.max_arity stats);
  check_int "copy unaffected by reset" 3 (Relalg.Stats.max_arity snapshot)

let test_stats_facade_backed_by_registry () =
  let reg = Metrics.create () in
  let stats = Relalg.Stats.create ~metrics:reg () in
  ignore (run_pentagon ~stats ());
  (match Metrics.find reg "ops.joins" with
  | Some (Metrics.Counter c) ->
    check_int "registry sees the joins" (Relalg.Stats.joins stats)
      (Metrics.value c)
  | _ -> Alcotest.fail "ops.joins not registered as a counter");
  match Metrics.find reg "ops.max_arity" with
  | Some (Metrics.Gauge g) ->
    check_int "registry sees the peak arity" (Relalg.Stats.max_arity stats)
      (Metrics.peak g)
  | _ -> Alcotest.fail "ops.max_arity not registered as a gauge"

let test_driver_telemetry_equivalence () =
  (* The same seeded run with and without telemetry must agree on every
     reported measurement — instrumentation must not change semantics. *)
  let sink, _ = T.Sink.memory () in
  let t = T.create sink in
  let run ?telemetry () =
    Ppr_core.Driver.run
      ~ctx:(Relalg.Ctx.create ?telemetry ())
      ~rng:(Graphlib.Rng.make 7)
      Ppr_core.Driver.Bucket_elimination coloring_db pentagon_cq
  in
  let a = run ~telemetry:t () and b = run () in
  T.close t;
  check_int "same width" a.Ppr_core.Driver.plan_width
    b.Ppr_core.Driver.plan_width;
  check_int "same max arity" a.Ppr_core.Driver.max_arity
    b.Ppr_core.Driver.max_arity;
  check_int "same tuples" a.Ppr_core.Driver.tuples_produced
    b.Ppr_core.Driver.tuples_produced;
  Alcotest.(check (option int))
    "same result"
    (Ppr_core.Driver.result_cardinality a)
    (Ppr_core.Driver.result_cardinality b);
  let reg = T.metrics t in
  match Metrics.find reg "driver.runs" with
  | Some (Metrics.Counter c) -> check_int "driver.runs" 1 (Metrics.value c)
  | _ -> Alcotest.fail "driver.runs not counted"


let test_gate_attempt_attributes () =
  (* The exec span reports the gate's attempt. On the pentagon the ghd
     method's gate picks bucket and the generic join answers within the
     plan's bound; on Figure 6's augmented path it picks the
     decomposition and the generic join runs out of the bags' bound;
     bucket elimination has no gate to try. *)
  let aug_path =
    Conjunctive.Encode.coloring_query_of_graph
      ~mode:(Conjunctive.Encode.Fraction 0.2) ~rng:(Graphlib.Rng.make 1000)
      (Graphlib.Generators.augmented_path 10)
  in
  List.iter
    (fun (meth, cq, label) ->
      let sink, spans = T.Sink.memory () in
      let t = T.create sink in
      let o =
        Ppr_core.Driver.run
          ~ctx:(Relalg.Ctx.create ~telemetry:t ())
          ~rng:(Graphlib.Rng.make 1000) meth coloring_db cq
      in
      T.close t;
      let name = Ppr_core.Driver.method_name meth ^ " " ^ label in
      check_bool (name ^ ": completed") true (o.Ppr_core.Driver.status = Ppr_core.Driver.Completed);
      let exec =
        List.find
          (fun s -> Span.name s = "exec:" ^ Ppr_core.Driver.method_name meth)
          (spans ())
      in
      check_bool (name ^ ": gate.attempt") true
        (Span.attr exec "gate.attempt" = Some (Attr.String label));
      (match (Span.attr exec "gate.allowance", Span.attr exec "gate.attempt_bindings") with
      | None, None -> check_bool (name ^ ": no allowance without an attempt") true (label = "none")
      | Some (Attr.Int allowance), Some (Attr.Int bindings) ->
        check_bool (name ^ ": bindings within the allowance") true (bindings <= allowance);
        check_bool (name ^ ": a run-out attempt spent it all") true
          (label <> "exhausted" || bindings = allowance)
      | _ -> Alcotest.fail (name ^ ": allowance and bindings go together"));
      let counted l =
        match Metrics.find (T.metrics t) ("driver.gate.attempt." ^ l) with
        | Some (Metrics.Counter c) -> Metrics.value c
        | _ -> 0
      in
      check_int (name ^ ": answered counted") (if label = "answered" then 1 else 0)
        (counted "answered");
      check_int (name ^ ": exhausted counted") (if label = "exhausted" then 1 else 0)
        (counted "exhausted"))
    [
      (Ppr_core.Driver.Ghd, pentagon_cq, "answered");
      (Ppr_core.Driver.Ghd, aug_path, "exhausted");
      (Ppr_core.Driver.Wcoj, aug_path, "exhausted");
      (Ppr_core.Driver.Bucket_elimination, pentagon_cq, "none");
    ]

(* The ghd method's artifact resolves (runs its decomposition search)
   only when the attempt runs out, and once per artifact: an answered run
   records no [ghd.resolve] span, and two runs of one exhausted artifact
   record exactly one, the decision landing on the exec span. *)
let test_deferred_resolve_span () =
  let aug_path =
    Conjunctive.Encode.coloring_query_of_graph
      ~mode:(Conjunctive.Encode.Fraction 0.2) ~rng:(Graphlib.Rng.make 1000)
      (Graphlib.Generators.augmented_path 10)
  in
  List.iter
    (fun (cq, label, resolves) ->
      let compiled =
        Ppr_core.Driver.prepare ~rng:(Graphlib.Rng.make 1000)
          Ppr_core.Driver.Ghd coloring_db cq
      in
      let sink, spans = T.Sink.memory () in
      let t = T.create sink in
      for _ = 1 to 2 do
        ignore
          (Ppr_core.Driver.run ~compiled
             ~ctx:(Relalg.Ctx.create ~telemetry:t ())
             Ppr_core.Driver.Ghd coloring_db cq)
      done;
      T.close t;
      let named n = List.filter (fun s -> Span.name s = n) (spans ()) in
      check_int (label ^ ": ghd.resolve spans") resolves
        (List.length (named "ghd.resolve"));
      List.iter
        (fun exec ->
          check_bool (label ^ ": the decision on the exec span iff resolved")
            (resolves > 0)
            (Span.attr exec "ghd.decision" <> None))
        (named "exec:ghd"))
    [ (pentagon_cq, "answered", 0); (aug_path, "exhausted", 1) ]

(* Both gated methods report the gate under one attribute set: the
   analysis's bounds, and the decision once the artifact has one (the
   wcoj method's from its prepare on). A forced route adds its bag bound
   and htw. *)
let test_gate_attribute_set () =
  List.iter
    (fun (label, meth, route, extra) ->
      let sink, spans = T.Sink.memory () in
      let t = T.create sink in
      ignore
        (Ppr_core.Driver.run ?route ~ctx:(Relalg.Ctx.create ~telemetry:t ()) meth
           coloring_db pentagon_cq);
      T.close t;
      let exec =
        List.find
          (fun s -> Span.name s = "exec:" ^ Ppr_core.Driver.method_name meth)
          (spans ())
      in
      List.iter
        (fun key -> check_bool (label ^ ": " ^ key) true (Span.attr exec key <> None))
        ([ "ghd.decision"; "ghd.binary_bound_log2"; "ghd.agm_bound_log2";
           "ghd.induced_width" ] @ extra);
      check_bool (label ^ ": no wcoj.* attribute") true
        (List.for_all
           (fun (k, _) -> not (String.starts_with ~prefix:"wcoj." k))
           (Span.attrs exec)))
    [
      ("wcoj", Ppr_core.Driver.Wcoj, None, []);
      ("ghd --route generic", Ppr_core.Driver.Ghd, Some Ghd.Generic,
       [ "ghd.ghd_bound_log2"; "ghd.htw" ]);
    ]

(* A stream's setup waits for its first pull: building a bucket-
   elimination cursor records no operator span, over the semijoin
   reroute or the plan's own stream, and closing it unpulled records
   none at all. *)
let test_stream_setup_on_first_pull () =
  let path =
    Conjunctive.Cq.make
      ~atoms:
        [
          { Conjunctive.Cq.rel = "edge"; vars = [ 0; 1 ] };
          { Conjunctive.Cq.rel = "edge"; vars = [ 1; 2 ] };
        ]
      ~free:[ 0; 2 ]
  in
  let compiled =
    Ppr_core.Driver.prepare Ppr_core.Driver.Bucket_elimination coloring_db path
  in
  List.iter
    (fun semijoin ->
      let label = if semijoin then "reroute" else "plan stream" in
      let ops spans =
        List.length
          (List.filter
             (fun s -> String.starts_with ~prefix:"op." (Span.name s))
             (spans ()))
      in
      let open_cursor t =
        Ppr_core.Exec.stream
          ~ctx:(Relalg.Ctx.create ~telemetry:t ())
          ~semijoin coloring_db path compiled
      in
      let sink, spans = T.Sink.memory () in
      let t = T.create sink in
      let cur = open_cursor t in
      check_int (label ^ ": no op span before the first pull") 0 (ops spans);
      check_bool (label ^ ": an answer") true (Relalg.Cursor.next cur <> None);
      check_bool (label ^ ": the setup ran on the pull") true (ops spans > 0);
      Relalg.Cursor.close cur;
      T.close t;
      let sink, spans = T.Sink.memory () in
      let t = T.create sink in
      Relalg.Cursor.close (open_cursor t);
      T.close t;
      check_int (label ^ ": closed unpulled, no op span") 0 (ops spans))
    [ true; false ]

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick
            test_metrics_counter_gauge;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "iteration order" `Quick test_metrics_iter_order;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting well-formed" `Quick
            test_span_nesting_well_formed;
          Alcotest.test_case "unwinding marks spans" `Quick
            test_span_unwinding_marks_spans;
          Alcotest.test_case "double stop rejected" `Quick
            test_stop_non_open_span_rejected;
          Alcotest.test_case "intermediates freed once" `Quick
            test_intermediates_freed_once;
          Alcotest.test_case "aborted run frees once" `Quick
            test_aborted_run_frees_once;
          Alcotest.test_case "disabled path same result" `Quick
            test_disabled_path_equals_enabled;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace valid" `Quick
            test_chrome_trace_valid;
          Alcotest.test_case "json emitter" `Quick test_json_emitter;
        ] );
      ( "stats",
        [
          Alcotest.test_case "facade matches legacy" `Quick
            test_stats_facade_matches_legacy;
          Alcotest.test_case "facade backed by registry" `Quick
            test_stats_facade_backed_by_registry;
          Alcotest.test_case "driver equivalence" `Quick
            test_driver_telemetry_equivalence;
          Alcotest.test_case "gate attempt attributes" `Quick
            test_gate_attempt_attributes;
          Alcotest.test_case "deferred resolve span" `Quick
            test_deferred_resolve_span;
          Alcotest.test_case "one gate attribute set" `Quick
            test_gate_attribute_set;
          Alcotest.test_case "stream setup on first pull" `Quick
            test_stream_setup_on_first_pull;
        ] );
    ]
