let log_src = Logs.Src.create "ppr.serve.net" ~doc:"Query-daemon transport"

module Log = (val Logs.src_log log_src : Logs.LOG)

type address = Unix_socket of string | Tcp of string * int

let pp_address ppf = function
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

(* One client connection: a reader thread feeding the engine, and a
   write lock serializing responses from whichever worker domain (or
   admission path) produces them. [closed] is flipped under the write
   lock before the fd is closed, so a late reply can never write into a
   recycled descriptor. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  oc : out_channel;
  wlock : Mutex.t;
  mutable closed : bool;
  mutable thread : Thread.t option;
}

type t = {
  engine : Engine.t;
  address : address;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;
  conns_lock : Mutex.t;
  next_cid : int Atomic.t;
  mutable accept_thread : Thread.t option;
  mutable drained : bool;
  drain_lock : Mutex.t;
}

let engine t = t.engine

let bound_address t =
  match (t.address, Unix.getsockname t.listen_fd) with
  | Unix_socket _, Unix.ADDR_UNIX path -> Unix_socket path
  | Tcp (host, _), Unix.ADDR_INET (_, port) -> Tcp (host, port)
  | addr, _ -> addr

(* ------------------------------------------------------------------ *)
(* Per-connection plumbing.                                            *)

let send conn response =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if not conn.closed then
        try
          output_string conn.oc (Wire.response_to_string response);
          output_char conn.oc '\n';
          flush conn.oc
        with Sys_error _ | Unix.Unix_error _ ->
          (* The client went away; its remaining replies just drop. *)
          conn.closed <- true)

let close_conn t conn =
  Mutex.lock conn.wlock;
  let was_closed = conn.closed in
  conn.closed <- true;
  Mutex.unlock conn.wlock;
  if not was_closed then begin
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end;
  Mutex.lock t.conns_lock;
  Hashtbl.remove t.conns conn.cid;
  Mutex.unlock t.conns_lock

(* Longest request line a connection buffers. A longer line is answered
   with a [parse] error and discarded up to its newline, and the
   connection keeps serving: one client cannot make the daemon hold an
   unbounded line in memory. *)
let max_line_bytes = 1 lsl 20

type line = Line of string | Too_long

(* A connection's input: [input_line] with the buffered length capped
   at [max_line_bytes]. [chunk.[pos .. len - 1]] is read but not yet
   consumed. *)
type reader = {
  ic : in_channel;
  chunk : Bytes.t;
  mutable pos : int;
  mutable len : int;
  line : Buffer.t;
}

let reader ic =
  { ic; chunk = Bytes.create 4096; pos = 0; len = 0; line = Buffer.create 256 }

(* Like [input_line], a final line that lacks its newline is returned
   and [End_of_file] is raised only when nothing is left. *)
let read_line r =
  Buffer.clear r.line;
  let rec newline i =
    if i < r.len && Bytes.unsafe_get r.chunk i <> '\n' then newline (i + 1)
    else i
  in
  let rec go overflow =
    if r.pos = r.len then begin
      r.pos <- 0;
      r.len <- input r.ic r.chunk 0 (Bytes.length r.chunk)
    end;
    if r.len = 0 then
      if overflow then Too_long
      else if Buffer.length r.line = 0 then raise End_of_file
      else Line (Buffer.contents r.line)
    else begin
      let stop = newline r.pos in
      let piece = stop - r.pos in
      let overflow =
        overflow || Buffer.length r.line + piece > max_line_bytes
      in
      if overflow then Buffer.reset r.line
      else Buffer.add_subbytes r.line r.chunk r.pos piece;
      if stop < r.len then begin
        r.pos <- stop + 1;
        if overflow then Too_long else Line (Buffer.contents r.line)
      end
      else begin
        r.pos <- r.len;
        go overflow
      end
    end
  in
  go false

let serve_conn t conn =
  let r = reader (Unix.in_channel_of_descr conn.fd) in
  let rec loop () =
    match read_line r with
    | Too_long ->
      send conn
        (Wire.Failed
           ( Wire.Json.Null,
             Wire.Parse_error,
             Printf.sprintf "request line exceeds %d bytes" max_line_bytes ));
      loop ()
    | Line line ->
      let line = String.trim line in
      if line <> "" then begin
        match Wire.parse_request line with
        | Error (msg, id) ->
          send conn (Wire.Failed (id, Wire.Parse_error, msg))
        | Ok request ->
          Engine.submit_async ~client:conn.cid t.engine request
            ~reply:(send conn)
      end;
      loop ()
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
  in
  Fun.protect ~finally:(fun () -> close_conn t conn) loop

(* ------------------------------------------------------------------ *)
(* Listener.                                                           *)

let accept_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (* A short select timeout keeps shutdown latency bounded without
         burning CPU: the stop flag is polled between waits. *)
      match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
        (match Unix.accept ~cloexec:true t.listen_fd with
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error _ when Atomic.get t.stop_flag -> ()
        | fd, _ ->
          let conn =
            {
              cid = Atomic.fetch_and_add t.next_cid 1;
              fd;
              oc = Unix.out_channel_of_descr fd;
              wlock = Mutex.create ();
              closed = false;
              thread = None;
            }
          in
          Mutex.lock t.conns_lock;
          Hashtbl.replace t.conns conn.cid conn;
          Mutex.unlock t.conns_lock;
          conn.thread <- Some (Thread.create (fun () -> serve_conn t conn) ()));
        loop ()
    end
  in
  loop ()

let listen_socket address =
  match address with
  | Unix_socket path ->
    (match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
    | _ -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (inet, port));
    Unix.listen fd 64;
    fd

let start ?config ?pool ~db address =
  let listen_fd = listen_socket address in
  let t =
    {
      engine = Engine.create ?config ?pool db;
      address;
      listen_fd;
      stop_flag = Atomic.make false;
      conns = Hashtbl.create 32;
      conns_lock = Mutex.create ();
      next_cid = Atomic.make 0;
      accept_thread = None;
      drained = false;
      drain_lock = Mutex.create ();
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  Log.info (fun f -> f "listening on %a" pp_address (bound_address t));
  t

let request_stop t = Atomic.set t.stop_flag true

(* Shutdown sequence: stop accepting, drain the engine (every queued
   session still gets its reply written to its still-open connection),
   then wake and close the remaining readers. *)
let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  Mutex.lock t.drain_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.drain_lock)
    (fun () ->
      if not t.drained then begin
        t.drained <- true;
        t.accept_thread <- None;
        (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
        (match t.address with
        | Unix_socket path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
        | Tcp _ -> ());
        Engine.stop t.engine;
        let conns =
          Mutex.lock t.conns_lock;
          let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
          Mutex.unlock t.conns_lock;
          cs
        in
        List.iter (fun c -> close_conn t c) conns;
        List.iter
          (fun c -> match c.thread with Some th -> Thread.join th | None -> ())
          conns;
        Log.info (fun f -> f "drained and stopped")
      end)

let stop t =
  request_stop t;
  wait t
