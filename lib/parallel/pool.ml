(* Fixed-size domain pool: one shared FIFO of packaged tasks, workers
   blocked on a condition variable, the submitting domain draining its
   own batch alongside them. Everything is stdlib (Domain / Mutex /
   Condition / Atomic via the packaged results) — no external scheduler.

   A task is a [unit -> unit] closure that has already captured where to
   store its result and NEVER raises: exceptions are caught inside the
   closure and stored as [Error (exn, backtrace)], then re-raised on the
   submitting domain once the whole batch is finished. *)

type t = {
  lock : Mutex.t;
  work : Condition.t; (* signalled when the queue gains tasks or on stop *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array; (* joined exactly once, by shutdown *)
  size : int;
  grain : int;
}

(* True while the current domain is executing a pool task (worker or
   submitter alike); nested [run]s then execute inline so a task can
   never block waiting for queue slots its own batch occupies. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let current_is_worker () = Domain.DLS.get in_task

let worker_loop pool =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stop do
      Condition.wait pool.work pool.lock
    done;
    if Queue.is_empty pool.queue then (* stop, and nothing left to drain *)
      Mutex.unlock pool.lock
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.lock;
      task ();
      loop ()
    end
  in
  loop ()

let size t = t.size
let grain t = t.grain

let shutdown t =
  Mutex.lock t.lock;
  let workers = t.workers in
  t.workers <- [||];
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  Array.iter Domain.join workers

(* The default advisory grain: below this many input rows a kernel stays
   sequential. *)
let default_grain = 16384

let create ?num_domains ?grain () =
  let grain = Option.value grain ~default:default_grain in
  let size =
    max 1
      (match num_domains with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())
  in
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [||];
      size;
      grain = max 1 grain;
    }
  in
  pool.workers <-
    Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  at_exit (fun () -> shutdown pool);
  pool

(* Shared by the inline and parallel paths: every slot was attempted;
   surface the results in order, re-raising the first failure by index. *)
let collect results =
  let n = Array.length results in
  let rec first_error i =
    if i >= n then None
    else
      match results.(i) with
      | Some (Error eb) -> Some eb
      | _ -> first_error (i + 1)
  in
  match first_error 0 with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.to_list
      (Array.map
         (function Some (Ok v) -> v | _ -> assert false (* batch finished *))
         results)

let attempt f =
  let was = Domain.DLS.get in_task in
  Domain.DLS.set in_task true;
  let r = try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  Domain.DLS.set in_task was;
  r

let run_inline thunks =
  collect (Array.map (fun f -> Some (attempt f)) (Array.of_list thunks))

let run pool thunks =
  let n = List.length thunks in
  if n = 0 then []
  else if n = 1 || pool.size = 1 || pool.stop || current_is_worker () then
    run_inline thunks
  else begin
    let results = Array.make n None in
    let pending = ref n in
    let batch_done = Condition.create () in
    let task i f () =
      let r = attempt f in
      Mutex.lock pool.lock;
      results.(i) <- Some r;
      decr pending;
      if !pending = 0 then Condition.broadcast batch_done;
      Mutex.unlock pool.lock
    in
    Mutex.lock pool.lock;
    List.iteri (fun i f -> if i > 0 then Queue.push (task i f) pool.queue) thunks;
    Condition.broadcast pool.work;
    Mutex.unlock pool.lock;
    (* The submitter runs the first task itself, then helps drain the
       queue; once it is empty it waits for the in-flight stragglers. *)
    (match thunks with f0 :: _ -> task 0 f0 () | [] -> ());
    let rec help () =
      Mutex.lock pool.lock;
      if not (Queue.is_empty pool.queue) then begin
        let t = Queue.pop pool.queue in
        Mutex.unlock pool.lock;
        t ();
        help ()
      end
      else begin
        while !pending > 0 do
          Condition.wait batch_done pool.lock
        done;
        Mutex.unlock pool.lock
      end
    in
    help ();
    collect results
  end

let map pool f xs = run pool (List.map (fun x () -> f x) xs)
