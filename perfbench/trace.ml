(* The benchmark's own spans. A traced run opens one span around every call
   it makes into a layer's public function; the library's [op.*] spans
   nest beneath them because the same telemetry context travels in the
   [Relalg.Ctx] handed to the call. Spans stay in memory until the run
   ends, when they are written out as one Chrome trace and reduced to
   per-name self time. *)

module T = Telemetry

type t = { tel : T.t; spans : unit -> T.Span.t list; out : out_channel }

let create ~path =
  let mem, spans = T.Sink.memory () in
  let out = open_out path in
  let chrome = T.Sink.chrome out in
  let sink =
    {
      T.Sink.on_stop =
        (fun s ->
          mem.T.Sink.on_stop s;
          chrome.T.Sink.on_stop s);
      on_close = chrome.T.Sink.on_close;
    }
  in
  { tel = T.create sink; spans; out }

(* Run [f] inside a span named [name] when tracing, bare otherwise. *)
let span t name f =
  match t with None -> f () | Some t -> T.with_span t.tel name (fun _ -> f ())

let telemetry t = Option.map (fun t -> t.tel) t

type agg = { mutable self : float; mutable total : float; mutable calls : int }

(* Self time of a span: its duration minus the time its child spans
   cover. Children of one span run on the span's domain one after the
   other, so their durations add up without overlap. *)
let aggregate spans =
  let child_time = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      match T.Span.parent s with
      | Some p ->
        let prev = Option.value (Hashtbl.find_opt child_time p) ~default:0. in
        Hashtbl.replace child_time p (prev +. T.Span.duration s)
      | None -> ())
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let name = T.Span.name s in
      let a =
        match Hashtbl.find_opt by_name name with
        | Some a -> a
        | None ->
          let a = { self = 0.; total = 0.; calls = 0 } in
          Hashtbl.add by_name name a;
          a
      in
      let d = T.Span.duration s in
      let kids =
        Option.value (Hashtbl.find_opt child_time (T.Span.id s)) ~default:0.
      in
      a.self <- a.self +. Float.max 0. (d -. kids);
      a.total <- a.total +. d;
      a.calls <- a.calls + 1)
    spans;
  by_name

(* Durations, in close order, of every span with this name. *)
let durations spans name =
  List.filter_map
    (fun s -> if T.Span.name s = name then Some (T.Span.duration s) else None)
    spans

let finish t =
  let spans = t.spans () in
  T.close t.tel;
  close_out t.out;
  spans
