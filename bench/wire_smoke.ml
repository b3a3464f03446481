(* Smoke test behind the @wire-smoke alias: fork a tfree-serve daemon on a
   temporary Unix-domain socket, query it once per protocol, and check that

     - the reply reconciles: wire_bytes*8 - framing_overhead_bits equals the
       accounted bits, exactly;
     - the served response is byte-identical to computing the same request
       locally (the service is deterministic in the request's seed);
     - a malformed line gets a structured {"ok":false,"error":...} reply and
       the same connection then serves a normal query;
     - the server's {"op":"stats"} telemetry reconciles against the client's
       own tally of the whole scripted session;

   then shut the daemon down and insist it exits cleanly, having served
   exactly the scripted queries and removed its socket. *)

open Tfree_util
module Service = Tfree_wire.Service
module Wire = Tfree_wire.Wire_runtime
module Fixture = Tfree_fixture

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("wire_smoke: " ^ msg); exit 1) fmt

(* Raw line-oriented client, for scripting several lines on one connection
   (Service.client_query opens a fresh connection per query). *)
let connect path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  sock

let send_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write fd b !sent (n - !sent)
  done

let recv_line fd =
  let buf = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec loop () =
    match Unix.read fd one 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ -> if Bytes.get one 0 = '\n' then Some (Buffer.contents buf) else (Buffer.add_char buf (Bytes.get one 0); loop ())
  in
  loop ()

let requests =
  List.map
    (fun (protocol, transport) -> { Service.default_request with protocol; n = 200; transport })
    [
      (Service.Oblivious, Wire.Socketpair);
      (Service.Exact, Wire.Pipe);
      (Service.Sim, Wire.Socketpair);
      (Service.Unrestricted, Wire.Pipe);
    ]

let () =
  (* the session is the request list plus one scripted query after the
     malformed line (errors and stats lines don't count as served queries) *)
  Fixture.with_daemon ~tag:"wire-smoke" ~expect_served:(List.length requests + 1)
    (fun path -> Service.serve ~path ())
    (fun path ->
      (* The client's own tally of the session, reconciled against the
         server's stats reply at the end. *)
      let tally_queries = ref 0 and tally_errors = ref 0 in
      let tally_wire_bytes = ref 0 and tally_accounted = ref 0 in
      let tally_verdicts : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
      let count_verdict name found =
        let tri, free = Option.value ~default:(0, 0) (Hashtbl.find_opt tally_verdicts name) in
        Hashtbl.replace tally_verdicts name (if found then (tri + 1, free) else (tri, free + 1))
      in
      List.iter
        (fun req ->
          let name = Tfree.Tester.protocol_to_string req.Service.protocol in
          match Service.client_query ~path req with
          | Error msg -> fail "%s: %s" name msg
          | Ok resp ->
              if not (Wire.reconciles resp.Service.wire) then
                fail "%s does not reconcile: %s" name (Wire.report_summary resp.Service.wire);
              let local = Service.run_request req in
              if
                Service.response_to_json resp <> Service.response_to_json local
              then fail "%s: served response differs from local computation" name;
              incr tally_queries;
              tally_wire_bytes := !tally_wire_bytes + resp.Service.wire.Wire.wire_bytes;
              tally_accounted := !tally_accounted + resp.Service.wire.Wire.accounted_bits;
              count_verdict name
                (match resp.Service.verdict with
                | Tfree.Tester.Triangle _ -> true
                | Tfree.Tester.Triangle_free -> false);
              Printf.printf "wire_smoke: %-12s ok (%s)\n" name
                (Wire.report_summary resp.Service.wire))
        requests;
      (* Malformed line: structured error reply, connection stays usable. *)
      let conn = connect path in
      send_line conn "{not json";
      (match recv_line conn with
      | Some line -> (
          match Jsonout.parse line with
          | Ok j -> (
              match (Jsonout.member "ok" j, Jsonout.member "error" j) with
              | Some (Jsonout.Bool false), Some (Jsonout.Str _) -> incr tally_errors
              | _ -> fail "malformed line got a non-error reply: %s" line)
          | Error msg -> fail "error reply is not JSON (%s): %s" msg line)
      | None -> fail "server closed the connection on a malformed line");
      send_line conn (Jsonout.to_line (Service.request_to_json (List.hd requests)));
      (match recv_line conn with
      | Some line -> (
          match Result.bind (Jsonout.parse line) Service.response_of_json with
          | Ok resp ->
              incr tally_queries;
              tally_wire_bytes := !tally_wire_bytes + resp.Service.wire.Wire.wire_bytes;
              tally_accounted := !tally_accounted + resp.Service.wire.Wire.accounted_bits;
              count_verdict
                (Tfree.Tester.protocol_to_string (List.hd requests).Service.protocol)
                (match resp.Service.verdict with
                | Tfree.Tester.Triangle _ -> true
                | Tfree.Tester.Triangle_free -> false)
          | Error msg -> fail "query after malformed line failed: %s" msg)
      | None -> fail "connection unusable after a malformed line");
      Unix.close conn;
      (* Stats reconciliation against the tally. *)
      match Service.client_stats ~path () with
      | Error msg -> fail "stats query: %s" msg
      | Ok stats ->
          let check what path want =
            let got = Fixture.int_at stats path in
            if got <> want then fail "stats %s = %d, client tallied %d" what got want
          in
          check "queries_served" [ "queries_served" ] !tally_queries;
          check "errors" [ "errors" ] !tally_errors;
          (* the one error in this script is the malformed line *)
          List.iter
            (fun (k, want) ->
              check ("errors_by_category." ^ k) [ "errors_by_category"; k ] want)
            [
              ("malformed", !tally_errors); ("unknown_op", 0); ("run_failure", 0); ("timeout", 0);
              ("transport", 0);
            ];
          check "retries" [ "retries" ] 0;
          check "injected_faults" [ "injected_faults" ] 0;
          check "wire_bytes" [ "wire_bytes" ] !tally_wire_bytes;
          check "accounted_bits" [ "accounted_bits" ] !tally_accounted;
          Hashtbl.iter
            (fun name (tri, free) ->
              check (name ^ " triangles") [ "verdicts"; name; "triangle" ] tri;
              check (name ^ " triangle-frees") [ "verdicts"; name; "triangle_free" ] free)
            tally_verdicts;
          print_endline "wire_smoke: stats reconcile with the client tally");
  print_endline "wire_smoke: ok"
