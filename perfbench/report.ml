(* What one workload run hands back to the command: counts, answer-check
   failures, and named metrics with units. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  mutable attempted : int;
  mutable failed : int;  (** errors and refusals; never capped aborts *)
  mutable mismatches : string list;  (** answer-check failures *)
  mutable invalid : string list;  (** reasons the measurement cannot stand *)
  mutable metrics : metric list;  (** in insertion order, reversed *)
  mutable notes : (string * string) list;  (** printed, not gated *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    mismatches = [];
    invalid = [];
    metrics = [];
    notes = [];
  }

let add t name unit_ value = t.metrics <- { name; value; unit_ } :: t.metrics
let note t key value = t.notes <- (key, value) :: t.notes

let mismatch t fmt =
  Printf.ksprintf (fun s -> t.mismatches <- s :: t.mismatches) fmt

let invalid t fmt = Printf.ksprintf (fun s -> t.invalid <- s :: t.invalid) fmt
let metrics t = List.rev t.metrics
let find t name = List.find_opt (fun m -> m.name = name) t.metrics

(* Raised by the benchmark's signal handler: the run unwinds, so whatever
   it started is stopped on the way out. *)
exception Interrupted

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
        in
        scan ())

(* Seconds on the monotonic clock, at nanosecond resolution: sub-
   millisecond latencies read from a microsecond clock would come out
   quantized to the same few values on every run. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Seconds of CPU time this process has used, all its threads together,
   at nanosecond resolution. The gated timings read this clock, not the
   wall clock. The machine the benchmark was built on is a virtual
   machine on a shared host. While other tenants were busy, the host gave
   their work our vCPUs' time, and one set of ten runs of the same code
   then read paper-batch's throughput from about 8 to 15 runs/s and
   serve-hot's from about 5,000 to 14,000 req/s. The kernel leaves that
   stolen time out of the process CPU clock (paravirtual steal-time
   accounting), and idle time too. What remains is the time the program
   itself ran, at whatever speed the host's other load left it; Calib
   corrects for that speed. *)
external cpu : unit -> (float[@unboxed])
  = "ppr_bench_cpu_seconds" "ppr_bench_cpu_seconds_unboxed"
[@@noalloc]
