(* The [tfree serve] daemon under test: start, readiness, /proc readings and
   teardown.

   Every daemon gets its own socket, named after the benchmark process, in
   the run directory, next to a pid file recording who owns it.  A run that
   died without cleaning up (SIGKILL, power loss) leaves both behind; the
   next run's {!sweep_stale} kills the orphaned daemon and removes its
   files, so a failed run can neither block a later one nor keep burning a
   core under it. *)

module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto

let run_dir = ".bench_run"

type t = { pid : int; socket : string; pidfile : string }

let alive pid = try Unix.kill pid 0; true with Unix.Unix_error _ -> false

(* Read a text file by lines: /proc files report a length of 0. *)
let read_text path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let b = Buffer.create 512 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      close_in_noerr ic;
      Some (Buffer.contents b)

let remove path = try Sys.remove path with Sys_error _ -> ()

(* Pid files are "<daemon pid> <socket>"; the file name carries the pid of
   the benchmark process that owns the daemon. *)
let sweep_stale () =
  if Sys.file_exists run_dir then
    Array.iter
      (fun f ->
        let path = Filename.concat run_dir f in
        match Scanf.sscanf_opt f "owner-%d.pid%!" Fun.id with
        | Some owner when not (alive owner) ->
            let entry s = Scanf.sscanf_opt s "%d %s" (fun pid socket -> (pid, socket)) in
            (match Option.bind (read_text path) entry with
            | Some (pid, socket) ->
                (* only kill what is still recognisably that daemon *)
                let cmdline =
                  Option.value ~default:"" (read_text (Printf.sprintf "/proc/%d/cmdline" pid))
                in
                let mentions needle =
                  let n = String.length needle and h = String.length cmdline in
                  let rec at i = i + n <= h && (String.sub cmdline i n = needle || at (i + 1)) in
                  n > 0 && at 0
                in
                if alive pid && mentions socket then (
                  Printf.eprintf "perfbench: killing stale daemon %d (%s)\n%!" pid socket;
                  try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                remove socket
            | None -> ());
            remove path
        | _ -> ())
      (Sys.readdir run_dir)

(* Reap [pid] within [timeout_s]; [false] if it is still running. *)
let reap ~timeout_s pid =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> if Unix.gettimeofday () > deadline then false else (Unix.sleepf 0.005; go ())
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  go ()

let forget t =
  remove t.socket;
  remove t.pidfile

(* Hard stop: SIGKILL, reap, remove the socket and pid file.  Safe to call
   on an already-stopped daemon. *)
let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap ~timeout_s:5.0 t.pid);
  forget t

(* Orderly stop through the public shutdown op, falling back to {!kill}. *)
let stop t =
  (try Service.client_shutdown ~protocol:Proto.V2 ~path:t.socket () with _ -> ());
  if reap ~timeout_s:5.0 t.pid then forget t else kill t

let counter = ref 0

(* Fork/exec [tfree serve] with an LRU of 32 instances and wait until it
   answers a health probe.  The daemon's stdout (its banner) goes to
   /dev/null so the benchmark's own stdout stays machine-readable. *)
let start ~tfree =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755;
  incr counter;
  let me = Unix.getpid () in
  let socket = Filename.concat run_dir (Printf.sprintf "d%d-%d.sock" me !counter) in
  let pidfile = Filename.concat run_dir (Printf.sprintf "owner-%d.pid" me) in
  remove socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process tfree
          [| tfree; "serve"; "--socket"; socket; "--cache-capacity"; "32" |]
          devnull devnull Unix.stderr)
  in
  let t = { pid; socket; pidfile } in
  let oc = open_out pidfile in
  Printf.fprintf oc "%d %s\n" pid socket;
  close_out oc;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec await () =
    if Unix.gettimeofday () > deadline then (kill t; failwith "daemon never became ready")
    else if reap ~timeout_s:0.0 pid then (forget t; failwith "daemon exited during start-up")
    else if not (Sys.file_exists socket) then (Unix.sleepf 0.001; await ())
    else
      match Service.client_health ~timeout_s:5.0 ~protocol:Proto.V2 ~path:socket () with
      | Ok _ -> ()
      | Error _ -> Unix.sleepf 0.001; await ()
  in
  await ();
  t

(* user+sys CPU seconds of the daemon: the on-CPU nanoseconds that
   /proc/<pid>/schedstat reports (the daemon is single-threaded). *)
let cpu_s t =
  let ns s = Scanf.sscanf_opt s "%f" Fun.id in
  match Option.bind (read_text (Printf.sprintf "/proc/%d/schedstat" t.pid)) ns with
  | Some ns -> ns /. 1e9
  | None -> nan

(* Peak resident set (VmHWM) of the daemon in MiB. *)
let peak_rss_mb t =
  match read_text (Printf.sprintf "/proc/%d/status" t.pid) with
  | None -> nan
  | Some s ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        nan (String.split_on_char '\n' s)
