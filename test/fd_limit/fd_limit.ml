(* Wire_runtime.create under a descriptor limit: a socketpair network
   that cannot be opened must close what it opened, fail with a typed
   [Unavailable] wire error (the server's "transport" category), and
   leave the process able to serve the next socketpair query.  Run with
   [ulimit -n 64] (see dune); k = 100 needs 202 descriptors. *)

open Tfree_wire

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("fd_limit: FAIL: " ^ m); exit 1) fmt

let big = { Service.default_request with protocol = Exact; n = 60; d = 4.0; k = 100; transport = Socketpair }

let expect_unavailable what f =
  let before = open_fds () in
  (match f () with
  | _ -> fail "%s: a k = 100 socketpair network opened under the descriptor limit" what
  | exception Wire_error.Wire_error (Wire_error.Unavailable msg as kind) ->
      if Wire_error.category kind <> "transport" then
        fail "%s: category %s, expected transport" what (Wire_error.category kind);
      Printf.printf "fd_limit: %s refused: %s\n" what msg
  | exception e -> fail "%s: untyped failure %s" what (Printexc.to_string e));
  let after = open_fds () in
  if after <> before then fail "%s: %d descriptors open before, %d after" what before after

let () =
  expect_unavailable "Wire_runtime.create" (fun () ->
      Wire_runtime.create ~transport:Socketpair ~k:100 ());
  expect_unavailable "Service.run_request" (fun () -> Service.run_request big);
  (* the served answer: a categorized error, no raw Unix_error string *)
  let line = Tfree_util.Jsonout.to_line (Service.request_to_json big) in
  let reply, served =
    Service.handle_line ~metrics:(Metrics.create ()) ~stop:(ref false) line
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  if served <> 0 || not (contains reply "\"category\":\"transport\"") || contains reply "Unix_error"
  then fail "served reply %s" reply;
  (* the refused network leaked nothing: a k = 4 socketpair query serves *)
  let before = open_fds () in
  let resp = Service.run_request { big with k = 4 } in
  if not (Wire_runtime.reconciles resp.Service.wire) then fail "k = 4 query did not reconcile";
  if open_fds () <> before then fail "k = 4 query leaked descriptors";
  Printf.printf "fd_limit: ok (k = 4 socketpair query served, %d frames)\n"
    resp.Service.wire.Wire_runtime.frames
