(* Chaos smoke behind the @chaos-smoke alias — the fault-injection stack
   end to end, deterministic in its seeds:

     1. in-process chaos matrix: every fault kind x {pipe, socketpair} x all
        four protocols, one injected fault per run.  A run either completes
        with the fault-free verdict and bit count, and with the frames and
        wire bytes of a fault-free net's report (the fault missed or was
        benign), or aborts with a typed Wire_error whose scheduled kind is
        non-benign.  Wrong verdicts and hangs are hard failures.  A wire
        net crosses every frame by one [Transport.exchange], which reads
        its own write straight back, so a [delay] or [partial] scheduled
        on it is fault-free; the report check pins that.

     2. forked tfree-serve daemon sabotaging its own first three replies
        (drop, corrupt, truncate); a client with retries=5 must recover the
        correct verdict spending exactly three retries, and the server's
        stats must count exactly three injected faults and zero errors.

     3. a client killed mid-request (partial line, then close) must cost the
        daemon one transport error and nothing else: the next query on a
        fresh connection is served normally. *)

module Common = Tfree_experiments.Common
module Service = Tfree_wire.Service
module Wire = Tfree_wire.Wire_runtime
module Fault = Tfree_wire.Fault
module Wire_error = Tfree_wire.Wire_error
module Metrics = Tfree_wire.Metrics
module Fixture = Tfree_fixture

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("chaos_smoke: " ^ msg); exit 1) fmt
let params = Tfree.Params.practical

(* ---------- part 1: in-process chaos matrix ---------- *)

let kinds =
  [
    Fault.Drop;
    Fault.Corrupt { bit = 13 };
    Fault.Truncate { keep = 5 };
    Fault.Delay { amount = 2 };
    Fault.Partial { at = 3 };
    Fault.Close;
  ]

(* One run of [proto] through a fresh wire net with [fault]: the result
   and the net's report. *)
let wired_run ~fault ~transport ~seed ~davg proto parts =
  let net = Wire.create ~fault ~transport ~k:4 () in
  Fun.protect
    ~finally:(fun () -> Wire.close net)
    (fun () ->
      let r = Tfree.Tester.run ~tap:(Wire.tap net) ~seed params ~d:davg proto parts in
      (r, Wire.report net ~accounted_bits:r.Tfree.Tester.bits))

let chaos_matrix () =
  let seed = 7 in
  let _, parts = Common.far_instance ~n:200 ~d:4.0 ~k:4 ~dup:true seed in
  let davg = 4.0 in
  let clean = ref 0 and aborted = ref 0 in
  List.iter
    (fun transport ->
      List.iter
        (fun (pname, proto) ->
          let base, base_wire = wired_run ~fault:[] ~transport ~seed ~davg proto parts in
          List.iter
            (fun kind ->
              List.iter
                (fun op ->
                  let fault = [ { Fault.op; kind } ] in
                  match wired_run ~fault ~transport ~seed ~davg proto parts with
                  | r, wire ->
                      if
                        r.Tfree.Tester.verdict <> base.Tfree.Tester.verdict
                        || r.Tfree.Tester.bits <> base.Tfree.Tester.bits
                      then
                        fail "%s/%s under %s@%d: run completed but differs from fault-free base"
                          (Wire.kind_to_string transport) pname (Fault.kind_name kind) op
                      else if
                        wire.Wire.frames <> base_wire.Wire.frames
                        || wire.Wire.wire_bytes <> base_wire.Wire.wire_bytes
                      then
                        fail "%s/%s under %s@%d: run completed with %d frames, %dB on the wire; \
                              the fault-free net sent %d frames, %dB"
                          (Wire.kind_to_string transport) pname (Fault.kind_name kind) op
                          wire.Wire.frames wire.Wire.wire_bytes base_wire.Wire.frames
                          base_wire.Wire.wire_bytes
                      else incr clean
                  | exception Wire_error.Wire_error k ->
                      if Fault.benign kind then
                        fail "%s/%s: benign fault %s@%d aborted the run (%s)"
                          (Wire.kind_to_string transport) pname (Fault.kind_name kind) op
                          (Wire_error.message k)
                      else incr aborted)
                [ 0; 5 ])
            kinds)
        Tfree.Tester.protocols)
    [ Wire.Pipe; Wire.Socketpair ];
  Printf.printf "chaos_smoke: matrix ok (%d runs: %d clean, %d typed aborts, 0 wrong verdicts)\n"
    (!clean + !aborted) !clean !aborted

(* ---------- part 1b: the same matrix over {"op": "dataset"} ---------- *)

(* A dataset-backed exchange under every fault kind x both transports x the
   protocols: the run either answers the fault-free response bit for bit or
   aborts with a typed Wire_error (surfaced by run_dataset_request exactly
   as run_request surfaces it).  Never a wrong verdict, never a hang. *)
let dataset_matrix () =
  let module Registry = Tfree_dataset.Registry in
  let module Snapshot = Tfree_dataset.Snapshot in
  let seed = 7 in
  let g = Service.build_instance Service.Far (Service.graph_rng seed) ~n:200 ~d:4.0 ~eps:0.1 in
  let snap = Filename.temp_file "tfree_chaos_ds" ".tfs" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      Snapshot.save g snap;
      let registry = Registry.create () in
      Registry.add registry
        { Registry.name = "chaos"; path = snap; format = Registry.Snapshot;
          n = Tfree_graph.Graph.n g; m = Tfree_graph.Graph.m g; gen = None };
      let spec_of op kind =
        Printf.sprintf "%d:%s" op
          (match kind with
          | Fault.Drop -> "drop"
          | Fault.Corrupt { bit } -> Printf.sprintf "corrupt@%d" bit
          | Fault.Truncate { keep } -> Printf.sprintf "truncate@%d" keep
          | Fault.Delay { amount } -> Printf.sprintf "delay@%d" amount
          | Fault.Partial { at } -> Printf.sprintf "partial@%d" at
          | Fault.Close -> "close")
      in
      let clean = ref 0 and aborted = ref 0 in
      List.iter
        (fun transport ->
          List.iter
            (fun (pname, protocol) ->
              let base_req = { Service.default_request with protocol; seed; transport } in
              let base = Service.run_dataset_request ~registry ~name:"chaos" base_req in
              List.iter
                (fun kind ->
                  List.iter
                    (fun op ->
                      let req = { base_req with Service.fault = spec_of op kind } in
                      match Service.run_dataset_request ~registry ~name:"chaos" req with
                      | r ->
                          if r <> base then
                            fail "dataset %s/%s under %s: run completed but differs from base"
                              (Wire.kind_to_string transport) pname req.Service.fault
                          else incr clean
                      | exception Wire_error.Wire_error k ->
                          if Fault.benign kind then
                            fail "dataset %s/%s: benign fault %s aborted the run (%s)"
                              (Wire.kind_to_string transport) pname req.Service.fault
                              (Wire_error.message k)
                          else incr aborted)
                    [ 0; 5 ])
                kinds)
            [ ("sim", Service.Sim); ("oblivious", Service.Oblivious); ("exact", Service.Exact) ])
        [ Wire.Pipe; Wire.Socketpair ];
      Printf.printf
        "chaos_smoke: dataset matrix ok (%d runs: %d clean, %d typed aborts, 0 wrong verdicts)\n"
        (!clean + !aborted) !clean !aborted)

(* ---------- forked daemons ---------- *)

let with_server ?(fault = []) ~tag ~expect_served f =
  Fixture.with_daemon ~tag:("chaos-" ^ tag) ~expect_served
    (fun path -> Service.serve ~line_timeout_s:5.0 ~fault ~path ())
    f

let get_stats path =
  match Service.client_stats ~path () with
  | Ok stats -> Fixture.int_at stats
  | Error msg -> fail "stats query: %s" msg

(* ---------- part 2: retry recovery through sabotaged replies ---------- *)

let retry_recovery () =
  let fault =
    [
      { Fault.op = 0; kind = Fault.Drop };
      { Fault.op = 1; kind = Fault.Corrupt { bit = 13 } };
      { Fault.op = 2; kind = Fault.Truncate { keep = 5 } };
    ]
  in
  let req = { Service.default_request with n = 200; seed = 3 } in
  (* three sabotaged replies + the one that gets through, all served queries *)
  with_server ~fault ~tag:"retry" ~expect_served:4 (fun path ->
      let m = Metrics.create () in
      match Service.client_query ~retries:5 ~backoff_s:0.01 ~metrics:m ~path req with
      | Error msg -> fail "retry client failed: %s" msg
      | Ok resp ->
          let local = Service.run_request req in
          if
            resp.Service.verdict <> local.Service.verdict
            || resp.Service.bits <> local.Service.bits
          then fail "retry client recovered a response that differs from the local run";
          let retries = Metrics.count m Metrics.Retries in
          if retries <> 3 then fail "client spent %d retries, schedule forced exactly 3" retries;
          let stat = get_stats path in
          if stat [ "injected_faults" ] <> 3 then
            fail "server injected %d faults, scheduled 3" (stat [ "injected_faults" ]);
          if stat [ "errors" ] <> 0 then
            fail "injected faults were miscounted as %d errors" (stat [ "errors" ]);
          if stat [ "queries_served" ] <> 4 then
            fail "server served %d queries, expected 4" (stat [ "queries_served" ]));
  print_endline "chaos_smoke: retry recovery ok (3 retries, 3 injected faults, 0 errors)"

(* ---------- part 3: client killed mid-request ---------- *)

let killed_client () =
  with_server ~tag:"killed" ~expect_served:1 (fun path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      let partial = Bytes.of_string "{\"protocol\": \"ex" in
      ignore (Unix.write sock partial 0 (Bytes.length partial));
      Unix.close sock;
      (* the daemon must shrug that off and serve the next connection *)
      let req = { Service.default_request with n = 200; seed = 5 } in
      (match Service.client_query ~path req with
      | Error msg -> fail "query after killed client failed: %s" msg
      | Ok resp ->
          if not (Wire.reconciles resp.Service.wire) then
            fail "reply after killed client does not reconcile");
      let stat = get_stats path in
      let transport = stat [ "errors_by_category"; "transport" ] in
      if stat [ "errors" ] <> 1 || transport <> 1 then
        fail "killed client should cost exactly one transport error (errors=%d, transport=%d)"
          (stat [ "errors" ]) transport;
      if stat [ "queries_served" ] <> 1 then
        fail "server served %d queries, expected 1" (stat [ "queries_served" ]));
  print_endline "chaos_smoke: killed client ok (one transport error, daemon kept serving)"

let () =
  chaos_matrix ();
  dataset_matrix ();
  retry_recovery ();
  killed_client ();
  print_endline "chaos_smoke: ok"
