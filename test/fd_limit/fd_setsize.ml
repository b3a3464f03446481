(* Socketpair transports past FD_SETSIZE: with 1,100 descriptors open
   before it, a socketpair's descriptors are numbered above 1024, where a
   [select]-based wait fails with EINVAL.  A socketpair [Frame.exchange]
   must still deliver, and a served socketpair query must answer and
   reconcile.  Run with [ulimit -n 2048] (see dune). *)

open Tfree_comm
open Tfree_wire

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("fd_setsize: FAIL: " ^ m); exit 1) fmt

let () =
  let extra = List.init 1100 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0) in
  if open_fds () < 1100 then fail "only %d descriptors open" (open_fds ());
  let tr = Transport.socketpair () in
  let msg = Msg.vertices ~n:300 (List.init 40 Fun.id) in
  (match Frame.exchange (Frame.scratch ()) tr msg with
  | back -> if not (Msg.equal back msg) then fail "Frame.exchange delivered another message"
  | exception e -> fail "Frame.exchange raised %s" (Printexc.to_string e));
  Transport.close tr;
  let req =
    { Service.default_request with protocol = Exact; n = 60; d = 4.0; k = 4; transport = Socketpair }
  in
  let line = Tfree_util.Jsonout.to_line (Service.request_to_json req) in
  let reply, served = Service.handle_line ~metrics:(Metrics.create ()) ~stop:(ref false) line in
  (match Result.bind (Tfree_util.Jsonout.parse reply) Service.response_of_json with
  | Ok resp when served = 1 && Wire_runtime.reconciles resp.Service.wire -> ()
  | _ -> fail "served reply %s" reply);
  Printf.printf "fd_setsize: ok (%d descriptors open; socketpair exchange and served query)\n"
    (open_fds ());
  List.iter Unix.close extra
