open Tfree_util
module Service = Tfree_wire.Service

let failf fmt = Printf.ksprintf failwith fmt

let write_all fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Everything readable from [fd] until EOF. *)
let read_all fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

let fork_child body =
  match Unix.fork () with
  | 0 ->
      (try body ()
       with e ->
         (try write_all Unix.stderr ("forked child raised " ^ Printexc.to_string e ^ "\n")
          with _ -> ());
         Unix._exit 2);
      Unix._exit 0
  | pid -> pid

(* Poll [pid] every 50 ms, calling [nudge] before each poll, until it exits
   or [deadline_s] passes; past the deadline SIGKILL and reap it.  [None]
   means it had to be killed. *)
let reap ~nudge ~deadline_s pid =
  let until = Unix.gettimeofday () +. deadline_s in
  let rec poll () =
    nudge ();
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < until ->
        Unix.sleepf 0.05;
        poll ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        None
    | _, status -> Some status
  in
  poll ()

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "was killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "was stopped by signal %d" s

let run_daemon ~tag serve f =
  (* A daemon that sheds or exits closes connections under our writes:
     they must fail with EPIPE, not kill this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tfree-%s-%d.sock" tag (Unix.getpid ()))
  in
  let remove_stale () = if Sys.file_exists path then Sys.remove path in
  remove_stale ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    fork_child (fun () ->
        Unix.close rd;
        write_all wr
          (match serve path with
          | served -> string_of_int served
          | exception e -> "raised " ^ Printexc.to_string e))
  in
  Unix.close wr;
  let shutdown () = ignore (Service.call ~timeout_s:0.5 ~path Service.Op_shutdown) in
  let await () =
    let until = Unix.gettimeofday () +. 10.0 in
    while not (Sys.file_exists path) do
      if Unix.gettimeofday () > until then failf "%s: daemon socket %s never appeared" tag path;
      Unix.sleepf 0.05
    done
  in
  let result =
    match
      await ();
      f path
    with
    | r -> r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (reap ~nudge:shutdown ~deadline_s:1.0 pid);
        Unix.close rd;
        remove_stale ();
        Printexc.raise_with_backtrace e bt
  in
  let status = reap ~nudge:shutdown ~deadline_s:10.0 pid in
  let report = read_all rd in
  Unix.close rd;
  match status with
  | None ->
      remove_stale ();
      failf "%s: daemon did not exit after shutdown" tag
  | Some (Unix.WEXITED 0) -> (
      if Sys.file_exists path then failf "%s: daemon left its socket behind" tag;
      match report with
      | "" -> (result, None)
      | _ -> (
          match int_of_string_opt report with
          | Some served -> (result, Some served)
          | None -> failf "%s: daemon %s" tag report))
  | Some status -> failf "%s: daemon %s" tag (describe_status status)

let with_daemon ?expect_served ~tag serve f =
  let result, served = run_daemon ~tag serve f in
  (match (expect_served, served) with
  | None, _ -> ()
  | Some m, Some n -> if n <> m then failf "%s: served %d, expected %d" tag n m
  | Some m, None -> failf "%s: daemon reported no served count, expected %d" tag m);
  result

let fork_clients ?(coordinate = ignore) n client =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pids =
    List.init n (fun i ->
        fork_child (fun () ->
            Unix.close rd;
            write_all wr (client i ^ "\n")))
  in
  Unix.close wr;
  coordinate ();
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (read_all rd)) in
  Unix.close rd;
  let crashed = List.filter (fun pid -> snd (Unix.waitpid [] pid) <> Unix.WEXITED 0) pids in
  if crashed <> [] then failf "%d of %d client processes crashed" (List.length crashed) n;
  if List.length lines <> n then
    failf "collected %d client tallies, expected %d" (List.length lines) n;
  lines

let int_at json path =
  let rec go j = function
    | [] -> Jsonout.to_float j
    | k :: rest -> Option.bind (Jsonout.member k j) (fun v -> go v rest)
  in
  match go json path with
  | Some f -> int_of_float f
  | None -> failf "missing numeric field %s" (String.concat "." path)
