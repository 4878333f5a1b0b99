(* Keeping the machine's CPUs from going idle while a workload measures.

   On a virtual machine an idle vCPU is descheduled by the host, and
   waking it again takes milliseconds whenever the host is busy. The
   daemon's sub-millisecond round trips, and the pool's fork/join
   hand-offs, then measured the host rather than the program: serve-hot's
   p95 at 400 req/s read anywhere from 1 to 10 ms between runs of the
   same code. So a traced run, which drives the daemon on the wall
   clock, keeps one spinner per CPU at the lowest priority (nice 19): it
   only runs when nothing of the benchmark's wants the CPU, and a woken
   benchmark thread preempts it. Without [taskset] on the PATH nothing is
   pinned or spun, and the numbers are noisier. A timed run reads the
   CPU clock instead (see Report.cpu) and starts no spinner. *)

let available =
  lazy (Sys.command "taskset -V >/dev/null 2>&1 && nice -n 0 true >/dev/null 2>&1" = 0)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

let spin cpu =
  let fd = devnull () in
  let pid =
    Unix.create_process "taskset"
      [| "taskset"; "-c"; string_of_int cpu; "nice"; "-n"; "19"; "sh"; "-c";
         (* Exits as soon as the benchmark does, however it ends. *)
         "while kill -0 $PPID 2>/dev/null; do :; done" |]
      fd fd fd
  in
  Unix.close fd;
  pid

(* Run [f] with a spinner on each of [nproc] CPUs; they are killed and
   reaped however [f] ends. *)
let with_spinners ~nproc f =
  let pids = if Lazy.force available then List.init nproc spin else [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        pids)
    f

(* Pin every thread of this process to [cpus] (a taskset list). *)
let pin_self cpus =
  if Lazy.force available then
    ignore
      (Sys.command
         (Printf.sprintf "taskset -a -pc %s %d >/dev/null" cpus (Unix.getpid ())))

(* The command line that starts [argv] pinned to [cpus]. *)
let pinned cpus argv =
  if Lazy.force available then "taskset" :: "-c" :: cpus :: argv else argv
