(* Serving soak gate ("serve_soak"): hammer an in-process daemon with
   200 concurrent sessions of mixed health (40 clients x 5 requests),
   once over a Unix socket and once over TCP, and verify the robustness
   contract end to end.

   The mix (deterministic per request index): ~60% well-formed template
   queries whose variable names vary per request (so the structural plan
   cache is exercised across isomorphic instantiations), ~10% malformed
   lines, ~10% well-formed JSON around unparseable query texts, ~10%
   over-budget requests (1-tuple cardinality caps, microscopic
   deadlines), ~10% chaos-stalled sessions racing a deadline. The gate
   fails unless:

   - every request receives exactly one response, correlated by id;
   - every response is either an answer or a *typed* error (abort,
     parse, bad-request, overloaded, shutting-down — never internal,
     never a dropped connection);
   - identical valid templates produce identical exact answer sets
     every time they are answered;
   - the plan cache reports a hit rate > 0 and the daemon counted zero
     internal errors;
   - the daemon survives the flood: a final ping and stats op answer;
   - shutdown drains: sessions in flight when stop begins still get
     their responses on their open connection.

   After the flood, three targeted phases exercise the cost-aware
   admission layer:

   - a duplicate-query flood: with every worker pinned by a stalled
     occupier, N identical fresh-structure queries arrive on separate
     connections; all N must be answered with tuple-identical rows,
     carrying batched flags, while the plan cache compiles the
     structure at most twice — the batch coalesced, it did not fan N
     compiles;
   - a flooding client: one connection bursts 20 queued-up queries and
     must be quota-shed (typed "shed-quota") for the overflow while a
     polite client on another connection is answered normally;
   - a cost probe: a 12-way cross product whose analytic lower bound
     towers over --max-cost-log2 must be refused with the typed
     "shed-cost" error, never executed and never "internal". *)

module Json = Telemetry.Json
module Jsonl = Serve.Jsonl
module Wire = Serve.Wire

let clients = 40
let per_client = 5

(* The duplicate flood's compile budget: the leader's compile, plus one
   slack for a straggler that arrived after its batch was popped. *)
let batch_compiles = 2

(* ------------------------------------------------------------------ *)
(* The request mix.                                                    *)

(* Three valid templates; their texts vary per request (renamed
   variables) but each canonicalizes to one structure, so almost every
   valid session after the first few is a plan-cache hit. *)
let templates =
  [|
    (* single edge *)
    (fun v -> Printf.sprintf "q(%s,%s) :- edge(%s,%s)." (v 0) (v 1) (v 0) (v 1));
    (* 2-path, atoms listed tail-first *)
    (fun v ->
      Printf.sprintf "q(%s,%s) :- edge(%s,%s), edge(%s,%s)." (v 0) (v 2) (v 1)
        (v 2) (v 0) (v 1));
    (* triangle, Boolean *)
    (fun v ->
      Printf.sprintf "q() :- edge(%s,%s), edge(%s,%s), edge(%s,%s)." (v 0)
        (v 1) (v 1) (v 2) (v 2) (v 0));
  |]

type expectation =
  | Expect_answer of int  (** template index, for answer-set comparison *)
  | Expect_typed_error  (** a typed error, or an answer if it squeaked by *)

(* Pure in the request index, so the response side can re-derive the
   expectation from the echoed id alone. *)
let classify index =
  match index mod 20 with
  | 0 | 1 -> `Malformed_line
  | 2 | 3 -> `Bad_datalog
  | 4 | 5 -> `Over_budget
  | 6 -> `Tiny_deadline
  | 7 | 8 -> `Stall_vs_deadline
  | m -> `Valid (m mod Array.length templates)

let expectation_of_index index =
  match classify index with
  | `Malformed_line | `Bad_datalog | `Over_budget | `Tiny_deadline ->
    Expect_typed_error
  | `Stall_vs_deadline ->
    (* either a typed deadline abort or a rescued answer is fine *)
    Expect_answer 0
  | `Valid t -> Expect_answer t

let request_line index =
  let v i = Printf.sprintf "V%d_%d" (index mod 11) i in
  let query ?(extra = []) text =
    Json.to_string
      (Json.Obj
         ([
            ("op", Json.String "query");
            ("id", Json.Int index);
            ("query", Json.String text);
          ]
         @ extra))
  in
  match classify index with
  | `Malformed_line -> Printf.sprintf "{\"op\":\"query\" %d" index
  | `Bad_datalog -> query "ans(X :- edge(X,"
  | `Over_budget ->
    query (templates.(1) v)
      ~extra:[ ("max_tuples", Json.Int 1); ("ladder", Json.Bool false) ]
  | `Tiny_deadline ->
    query (templates.(1) v)
      ~extra:
        [ ("deadline_ms", Json.Int 1); ("chaos", Json.String "stall:1:0.02") ]
  | `Stall_vs_deadline ->
    query (templates.(0) v)
      ~extra:
        [ ("deadline_ms", Json.Int 60); ("chaos", Json.String "stall:1:0.01") ]
  | `Valid t -> query (templates.(t) v)

(* ------------------------------------------------------------------ *)
(* Client side.                                                        *)

type tally = {
  lock : Mutex.t;
  mutable answered : int;
  mutable typed_errors : int;
  mutable shed : int;
  mutable wrong : string list;  (** protocol violations; must stay empty *)
  first_rows : (int, string) Hashtbl.t;
      (** template index -> canonical sorted answer rows *)
  responses_by_id : (int, int) Hashtbl.t;
}

let tally =
  {
    lock = Mutex.create ();
    answered = 0;
    typed_errors = 0;
    shed = 0;
    wrong = [];
    first_rows = Hashtbl.create 8;
    responses_by_id = Hashtbl.create 256;
  }

let violation fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.lock tally.lock;
      tally.wrong <- msg :: tally.wrong;
      Mutex.unlock tally.lock)
    fmt

(* Row order may legitimately differ between ladder rungs; the exactness
   contract is on the answer *set*. *)
let canonical_rows rows =
  match rows with
  | Json.List items ->
    let strings = List.map Json.to_string items in
    Some (String.concat ";" (List.sort compare strings))
  | _ -> None

let record_answer_rows template v =
  match Wire.field v "answers" with
  | None -> violation "answer without rows: %s" (Json.to_string v)
  | Some rows -> (
    match canonical_rows rows with
    | None -> violation "answers field is not a list: %s" (Json.to_string v)
    | Some canon ->
      let truncated = Wire.field v "truncated" = Some (Json.Bool true) in
      let approximate = Wire.field v "approximate" = Some (Json.Bool true) in
      if not (truncated || approximate) then begin
        Mutex.lock tally.lock;
        (match Hashtbl.find_opt tally.first_rows template with
        | None -> Hashtbl.replace tally.first_rows template canon
        | Some first ->
          if first <> canon then
            tally.wrong <-
              Printf.sprintf "template %d answered differently across runs"
                template
              :: tally.wrong);
        Mutex.unlock tally.lock
      end)

let record_response line =
  match Jsonl.parse line with
  | Error msg -> violation "unparseable response %S: %s" line msg
  | Ok v -> (
    let str name =
      match Wire.field v name with Some (Json.String s) -> Some s | _ -> None
    in
    let id =
      match Wire.field v "id" with Some (Json.Int id) -> Some id | _ -> None
    in
    (match id with
    | Some id ->
      Mutex.lock tally.lock;
      Hashtbl.replace tally.responses_by_id id
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally.responses_by_id id));
      Mutex.unlock tally.lock
    | None -> ());
    match str "status" with
    | Some "ok" -> (
      Mutex.lock tally.lock;
      tally.answered <- tally.answered + 1;
      Mutex.unlock tally.lock;
      match id with
      | None -> violation "answer without an id: %s" line
      | Some id -> (
        match expectation_of_index id with
        | Expect_answer t -> record_answer_rows t v
        | Expect_typed_error ->
          (* a deadline-raced request may win the race on a fast
             machine; the gate is on response typing, not timing —
             except the tuple-capped requests, which must abort *)
          if classify id = `Over_budget then
            violation "1-tuple cardinality cap produced an answer (id %d)" id))
    | Some "error" -> (
      match str "kind" with
      | Some "internal" -> violation "internal error escaped: %s" line
      | Some "overloaded" ->
        Mutex.lock tally.lock;
        tally.shed <- tally.shed + 1;
        Mutex.unlock tally.lock
      | Some ("abort" | "parse" | "bad-request" | "shutting-down"
             | "shed-cost" | "shed-quota") ->
        Mutex.lock tally.lock;
        tally.typed_errors <- tally.typed_errors + 1;
        Mutex.unlock tally.lock;
        (* responses with no correlatable id must come from the
           malformed lines, which cannot echo one *)
        if id = None && str "kind" <> Some "parse" then
          violation "id-less non-parse error: %s" line
      | Some k -> violation "unknown error kind %S" k
      | None -> violation "error without a kind: %s" line)
    | _ -> violation "response without a status: %s" line)

let connect address =
  match address with
  | Serve.Server.Unix_socket path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  | Serve.Server.Tcp (_, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd

let client address c =
  let fd = connect address in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      for i = 0 to per_client - 1 do
        output_string oc (request_line ((c * per_client) + i));
        output_char oc '\n'
      done;
      flush oc;
      (* responses arrive out of request order; classification keys off
         each response's own echoed id, so reading count-many lines is
         all the pairing needed *)
      for _ = 1 to per_client do
        match input_line ic with
        | line -> record_response line
        | exception End_of_file ->
          violation "connection %d closed before all responses arrived" c
      done)

(* ------------------------------------------------------------------ *)
(* Paginated clients.                                                  *)

(* After the flood: a handful of sessions page through a full answer
   with limit/cursor continuations. The contract is exactly-once: the
   pages must reassemble the whole-answer tuple set with no row lost or
   served twice, page indexes must count up from 0, and a replayed
   (already-consumed) token must get the typed cursor-expired error,
   never someone else's rows. *)
let paginated_sessions = ref 0

let paginated_client address c =
  let fd = connect address in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ask extra =
        output_string oc
          (Json.to_string
             (Json.Obj
                ([
                   ("op", Json.String "query");
                   ("id", Json.Int (-100 - c));
                   ("query", Json.String "page(A,B) :- edge(A,B).");
                 ]
                @ extra)));
        output_char oc '\n';
        flush oc;
        Jsonl.parse (input_line ic)
      in
      (* the whole answer, as the baseline the pages must reassemble *)
      let baseline =
        match ask [] with
        | Ok v -> (
          match Wire.field v "answers" with
          | Some rows -> canonical_rows rows
          | None -> None)
        | Error _ -> None
      in
      (match baseline with
      | None -> violation "paginated client %d: no whole-answer baseline" c
      | Some _ -> ());
      let rows = ref [] in
      let first_token = ref None in
      let rec page cursor index =
        let extra =
          ("limit", Json.Int 2)
          ::
          (match cursor with
          | None -> []
          | Some t -> [ ("cursor", Json.String t) ])
        in
        match ask extra with
        | Error msg -> violation "paginated client %d: garbled page: %s" c msg
        | Ok v -> (
          (match Wire.field v "page" with
          | Some (Json.Int p) when p = index -> ()
          | _ ->
            violation "paginated client %d: wrong page index at page %d" c
              index);
          (match Wire.field v "answers" with
          | Some (Json.List items) ->
            rows := !rows @ List.map Json.to_string items
          | _ -> violation "paginated client %d: page without rows" c);
          match Wire.field v "next_cursor" with
          | Some (Json.String t) ->
            if index = 0 then first_token := Some t;
            page (Some t) (index + 1)
          | _ -> ())
      in
      page None 0;
      let reassembled =
        Some (String.concat ";" (List.sort compare !rows))
      in
      if List.length !rows <> List.length (List.sort_uniq compare !rows) then
        violation "paginated client %d: a row was served twice" c;
      if baseline <> None && reassembled <> baseline then
        violation "paginated client %d: pages do not reassemble the answer" c;
      (* the page-0 token was consumed serving page 1; replaying it must
         miss with the typed error *)
      (match !first_token with
      | None -> violation "paginated client %d: answer fit in one page" c
      | Some t -> (
        match ask [ ("limit", Json.Int 2); ("cursor", Json.String t) ] with
        | Ok v when Wire.field v "kind" = Some (Json.String "cursor-expired")
          ->
          ()
        | Ok v ->
          violation "paginated client %d: replayed token got %s" c
            (Json.to_string v)
        | Error msg ->
          violation "paginated client %d: replay garbled: %s" c msg));
      incr paginated_sessions)

(* ------------------------------------------------------------------ *)
(* Cost-aware admission phases: batching, quotas, cost sheds.          *)

let query_json ?(extra = []) ~id text =
  Json.to_string
    (Json.Obj
       ([
          ("op", Json.String "query");
          ("id", Json.Int id);
          ("query", Json.String text);
        ]
       @ extra))

let fetch_stat address name =
  let fd = connect address in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      output_string oc "{\"op\":\"stats\",\"id\":-3}\n";
      flush oc;
      match Jsonl.parse (input_line ic) with
      | Ok v -> (
        match Wire.field v name with Some (Json.Int n) -> n | _ -> -1)
      | Error _ -> -1)

(* Pin every worker with a stalled session so subsequent queries are
   forced to queue (where batching and quotas act). Returns the open
   connections; [release_occupiers] reads their eventual answers. *)
let pin_workers address ~stall_seconds =
  List.init 4 (fun i ->
      let fd = connect address in
      let oc = Unix.out_channel_of_descr fd in
      output_string oc
        (query_json ~id:(-200 - i)
           ~extra:
             [
               ( "chaos",
                 Json.String (Printf.sprintf "stall:1:%g" stall_seconds) );
             ]
           "occ(A,B,C) :- edge(A,B), edge(B,C), edge(C,A).");
      output_char oc '\n';
      flush oc;
      fd)

let release_occupiers label conns =
  List.iter
    (fun fd ->
      let ic = Unix.in_channel_of_descr fd in
      (match input_line ic with
      | _ -> ()
      | exception End_of_file -> violation "%s: occupier connection dropped" label);
      try Unix.close fd with Unix.Unix_error _ -> ())
    conns

(* Duplicate-query flood: N identical fresh-structure queries admitted
   while the workers are pinned must coalesce into (nearly) one
   execution — tuple-identical answers on every connection, batched
   flags on the wire, and a plan-cache miss delta of at most
   [batch_compiles]. *)
let batching_phase address =
  let occupiers = pin_workers address ~stall_seconds:0.6 in
  (* let the occupiers compile and reach their stalls, so the snapshot
     below sees every miss the duplicates did not cause *)
  Thread.delay 0.2;
  let misses0 = fetch_stat address "cache_misses" in
  let n = 10 in
  let dup_text = "dup(A,D) :- edge(A,B), edge(B,C), edge(C,D)." in
  let results = Array.make n None in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let fd = connect address in
            let ic = Unix.in_channel_of_descr fd in
            let oc = Unix.out_channel_of_descr fd in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                output_string oc (query_json ~id:(-300 - i) dup_text);
                output_char oc '\n';
                flush oc;
                results.(i) <- Some (Jsonl.parse (input_line ic))))
          ())
  in
  List.iter Thread.join threads;
  let batched_flags = ref 0 in
  let canon_sets =
    Array.to_list results
    |> List.filter_map (fun r ->
           match r with
           | None ->
             violation "batching phase: a duplicate got no response";
             None
           | Some (Error msg) ->
             violation "batching phase: garbled response: %s" msg;
             None
           | Some (Ok v)
             when Wire.field v "status" = Some (Json.String "ok") -> (
             if Wire.field v "batched" = Some (Json.Bool true) then
               incr batched_flags;
             match Wire.field v "answers" with
             | Some rows -> canonical_rows rows
             | None ->
               violation "batching phase: answer without rows";
               None)
           | Some (Ok v) ->
             violation "batching phase: duplicate refused: %s"
               (Json.to_string v);
             None)
  in
  (match canon_sets with
  | [] -> violation "batching phase: no duplicate was answered"
  | first :: rest ->
    if not (List.for_all (( = ) first) rest) then
      violation "batching phase: duplicate answers are not tuple-identical";
    if List.length canon_sets <> n then
      violation "batching phase: only %d of %d duplicates answered"
        (List.length canon_sets) n);
  if !batched_flags = 0 then
    violation "batching phase: no answer carried the batched flag";
  let compile_delta = fetch_stat address "cache_misses" - misses0 in
  if compile_delta > batch_compiles then
    violation
      "batching phase: %d compiles for %d duplicate requests (at most %d)"
      compile_delta n batch_compiles;
  release_occupiers "batching phase" occupiers;
  (!batched_flags, compile_delta)

(* Flooding client: 20 burst queries from one connection — identical
   structure but distinct seeds, so they cannot coalesce and each needs
   its own queue slot — must trip the per-client quota for the
   overflow, while a polite client on its own connection is answered
   normally. *)
let quota_phase address =
  let occupiers = pin_workers address ~stall_seconds:0.6 in
  Thread.delay 0.15;
  let flood_n = 20 in
  let flooder = connect address in
  let fic = Unix.in_channel_of_descr flooder in
  let foc = Unix.out_channel_of_descr flooder in
  for i = 0 to flood_n - 1 do
    output_string foc
      (query_json ~id:(-400 - i)
         ~extra:[ ("seed", Json.Int (i + 1)) ]
         "flood(A,C) :- edge(A,B), edge(B,C).");
    output_char foc '\n'
  done;
  flush foc;
  Thread.delay 0.05;
  (* the polite neighbour must be unaffected by the flooder's quota *)
  let polite = connect address in
  let pic = Unix.in_channel_of_descr polite in
  let poc = Unix.out_channel_of_descr polite in
  output_string poc (query_json ~id:(-450) "nice(A,B) :- edge(A,B).");
  output_char poc '\n';
  flush poc;
  (match Jsonl.parse (input_line pic) with
  | Ok v when Wire.field v "status" = Some (Json.String "ok") -> ()
  | Ok v ->
    violation "quota phase: polite client was refused: %s" (Json.to_string v)
  | Error msg -> violation "quota phase: polite client garbled: %s" msg
  | exception End_of_file ->
    violation "quota phase: polite client connection dropped");
  (try Unix.close polite with Unix.Unix_error _ -> ());
  let ok = ref 0 and quota_shed = ref 0 in
  (try
     for _ = 1 to flood_n do
       match Jsonl.parse (input_line fic) with
       | Ok v when Wire.field v "status" = Some (Json.String "ok") -> incr ok
       | Ok v when Wire.field v "kind" = Some (Json.String "shed-quota") ->
         incr quota_shed
       | Ok v ->
         violation "quota phase: unexpected flooder response: %s"
           (Json.to_string v)
       | Error msg -> violation "quota phase: garbled response: %s" msg
     done
   with End_of_file ->
     violation "quota phase: flooder connection dropped early");
  (try Unix.close flooder with Unix.Unix_error _ -> ());
  if !quota_shed = 0 then
    violation "quota phase: the flooder was never quota-shed";
  if !ok = 0 then
    violation "quota phase: the flooder's within-quota jobs never ran";
  release_occupiers "quota phase" occupiers;
  !quota_shed

(* Cost probe: a 12-way cross product whose analytic lower bound is
   far past --max-cost-log2 must be refused with the typed shed-cost
   error before any worker touches it. *)
let cost_phase address =
  let atoms =
    List.init 12 (fun i -> Printf.sprintf "edge(A%d,B%d)" i i)
    |> String.concat ", "
  in
  let head =
    List.init 12 (fun i -> Printf.sprintf "A%d,B%d" i i)
    |> String.concat ","
  in
  let fd = connect address in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      output_string oc
        (query_json ~id:(-500)
           (Printf.sprintf "cross(%s) :- %s." head atoms));
      output_char oc '\n';
      flush oc;
      match Jsonl.parse (input_line ic) with
      | Ok v when Wire.field v "kind" = Some (Json.String "shed-cost") -> ()
      | Ok v ->
        violation "cost phase: cross product not cost-shed: %s"
          (Json.to_string v)
      | Error msg -> violation "cost phase: garbled response: %s" msg
      | exception End_of_file ->
        violation "cost phase: connection dropped")

(* ------------------------------------------------------------------ *)
(* Gate.                                                               *)

(* One soak over one transport, from a fresh tally. *)
let soak r ~tcp =
  tally.answered <- 0;
  tally.typed_errors <- 0;
  tally.shed <- 0;
  tally.wrong <- [];
  Hashtbl.reset tally.first_rows;
  Hashtbl.reset tally.responses_by_id;
  paginated_sessions := 0;
  let address =
    if tcp then Serve.Server.Tcp ("127.0.0.1", 0)
    else
      Serve.Server.Unix_socket
        (Filename.concat
           (Filename.get_temp_dir_name ())
           (Printf.sprintf "ppr-soak-%d.sock" (Unix.getpid ())))
  in
  let config =
    {
      Serve.Engine.default_config with
      Serve.Engine.workers = 4;
      (* small enough that the stalled sessions push the flood into
         admission control at least occasionally *)
      queue_depth = 32;
      (* generous per-client quota: the mixed flood (5 requests per
         connection) never trips it, the dedicated flooding phase does *)
      client_quota = Some 8;
      (* every template prices well under 2^12 tuples; only the cost
         probe's deliberate cross product is over *)
      max_cost_log2 = Some 12.0;
    }
  in
  let server =
    Serve.Server.start ~config
      ~db:(Conjunctive.Encode.coloring_database ())
      address
  in
  let address = Serve.Server.bound_address server in
  let total = clients * per_client in
  Printf.printf "soak: %d clients x %d requests over %s\n%!" clients
    per_client
    (Format.asprintf "%a" Serve.Server.pp_address address);
  let started = Unix.gettimeofday () in
  let threads =
    List.init clients (fun c -> Thread.create (client address) c)
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. started in

  (* paginated continuation sessions: exactly-once across pages *)
  let pag_threads =
    List.init 8 (fun c -> Thread.create (paginated_client address) c)
  in
  List.iter Thread.join pag_threads;

  (* cost-aware admission phases *)
  let batched_flags, compiles = batching_phase address in
  let quota_shed = quota_phase address in
  cost_phase address;

  (* the daemon must still be healthy after the flood *)
  let fd = connect address in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc "{\"op\":\"ping\",\"id\":-1}\n{\"op\":\"stats\",\"id\":-2}\n";
  flush oc;
  let pong = Jsonl.parse (input_line ic) in
  let stats = Jsonl.parse (input_line ic) in
  (match pong with
  | Ok v when Wire.field v "pong" = Some (Json.Bool true) -> ()
  | _ -> violation "daemon unhealthy after soak: ping failed");
  let stat name =
    match stats with
    | Ok v -> (
      match Wire.field v name with Some (Json.Int n) -> n | _ -> -1)
    | Error _ -> -1
  in
  let hits = stat "cache_hits" and misses = stat "cache_misses" in
  if hits <= 0 then violation "no plan-cache hits across the whole soak";
  if stat "internal_errors" <> 0 then
    violation "daemon counted %d internal errors" (stat "internal_errors");
  if stat "batched" <= 0 then
    violation "daemon counted no batched executions";
  if stat "shed_cost" <= 0 then violation "daemon counted no cost sheds";
  if stat "shed_quota" <= 0 then violation "daemon counted no quota sheds";

  (* drain: leave stalled sessions in flight, then stop; they must still
     be answered on their open connection *)
  let drained = ref 0 in
  output_string oc
    "{\"op\":\"query\",\"id\":-10,\"chaos\":\"stall:1:0.2\",\"query\":\"q(A,B) :- edge(A,B).\"}\n\
     {\"op\":\"query\",\"id\":-11,\"chaos\":\"stall:1:0.2\",\"query\":\"q(C,D) :- edge(C,D).\"}\n";
  flush oc;
  Thread.delay 0.05;
  let stopper = Thread.create (fun () -> Serve.Server.stop server) () in
  (try
     for _ = 1 to 2 do
       match Jsonl.parse (input_line ic) with
       | Ok v when Wire.field v "status" = Some (Json.String "ok") ->
         incr drained
       | Ok v ->
         violation "in-flight session dropped on drain: %s" (Json.to_string v)
       | Error msg -> violation "drain garbled a response: %s" msg
     done
   with End_of_file -> violation "drain closed the connection early");
  Thread.join stopper;
  (try Unix.close fd with Unix.Unix_error _ -> ());

  (* exactly-once responses for every correlatable id *)
  Mutex.lock tally.lock;
  Hashtbl.iter
    (fun id n ->
      if n <> 1 && id >= 0 then
        tally.wrong <-
          Printf.sprintf "id %d answered %d times" id n :: tally.wrong)
    tally.responses_by_id;
  let accounted = tally.answered + tally.typed_errors + tally.shed in
  if accounted <> total then
    tally.wrong <-
      Printf.sprintf "%d of %d requests unaccounted for" (total - accounted)
        total
      :: tally.wrong;
  Mutex.unlock tally.lock;

  Printf.printf
    "soak: %d requests in %.2fs -- %d answered, %d typed errors, %d shed; \
     cache %d hits / %d misses; %d drained in flight\n%!"
    total elapsed tally.answered tally.typed_errors tally.shed hits misses
    !drained;
  Printf.printf "soak: %d paginated sessions reassembled exactly once\n%!"
    !paginated_sessions;
  Printf.printf
    "soak: batching %d flags / %d compiles; quota shed %d; daemon counters \
     batched=%d shed_cost=%d shed_quota=%d\n\
     %!"
    batched_flags compiles quota_shed (stat "batched")
    (stat "shed_cost") (stat "shed_quota");
  let transport = if tcp then "tcp" else "unix" in
  List.iter
    (fun m -> Harness.fail r "soak over %s: %s" transport m)
    (List.rev tally.wrong);
  ( transport,
    Json.Obj
      [
        ("requests", Json.Int total);
        ("clients", Json.Int clients);
        ("wall_seconds", Json.Float elapsed);
        ("answered", Json.Int tally.answered);
        ("typed_errors", Json.Int tally.typed_errors);
        ("shed", Json.Int tally.shed);
        ("cache_hits", Json.Int hits);
        ("cache_misses", Json.Int misses);
        ("drained_in_flight", Json.Int !drained);
        ("paginated_sessions", Json.Int !paginated_sessions);
        ("batched_flags", Json.Int batched_flags);
        ("batch_compiles", Json.Int compiles);
        ("quota_shed", Json.Int quota_shed);
        ("batched_counter", Json.Int (stat "batched"));
        ("shed_cost_counter", Json.Int (stat "shed_cost"));
        ("shed_quota_counter", Json.Int (stat "shed_quota"));
        ("violations", Json.Int (List.length tally.wrong));
      ] )

let run r =
  let unix = soak r ~tcp:false in
  let tcp = soak r ~tcp:true in
  [ unix; tcp ]
