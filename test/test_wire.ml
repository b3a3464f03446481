(* Tests for Tfree_wire: bit I/O, the self-delimiting codec, framing and
   its fail-closed hardening, transports, fault injection and the chaos
   matrix, the wire runtime's parity with the cost-model runtime, the
   tfree-serve request/response protocol and its resilience to misbehaving
   clients. *)

open Tfree_util
open Tfree_graph
open Tfree_comm
module Bitio = Tfree_wire.Bitio
module Codec = Tfree_wire.Codec
module Frame = Tfree_wire.Frame
module Transport = Tfree_wire.Transport
module Wire = Tfree_wire.Wire_runtime
module Service = Tfree_wire.Service
module Fault = Tfree_wire.Fault
module Wire_error = Tfree_wire.Wire_error
module Metrics = Tfree_wire.Metrics
module Proto = Tfree_wire.Proto
module Fixture = Tfree_fixture

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let int_at = Fixture.int_at

let params = Tfree.Params.practical

(* ---------------------------------------------------------------- bitio *)

let test_bitio_roundtrip () =
  let w = Bitio.writer () in
  Bitio.put_bit w true;
  Bitio.put_bits w ~width:7 0x5a;
  Bitio.put_bits w ~width:0 0;
  Bitio.put_gamma w 0;
  Bitio.put_gamma w 41;
  Bitio.put_bits w ~width:13 4095;
  let total = Bitio.bits_written w in
  checki "bits written" (1 + 7 + 0 + Bits.elias_gamma 0 + Bits.elias_gamma 41 + 13) total;
  let b = Bitio.to_bytes w in
  let r = Bitio.reader b ~off:0 ~len:(Bytes.length b) in
  checkb "bit" true (Bitio.get_bit r);
  checki "bits" 0x5a (Bitio.get_bits r ~width:7);
  checki "zero width" 0 (Bitio.get_bits r ~width:0);
  checki "gamma 0" 0 (Bitio.get_gamma r);
  checki "gamma 41" 41 (Bitio.get_gamma r);
  checki "wide" 4095 (Bitio.get_bits r ~width:13);
  checki "all consumed" total (Bitio.bits_read r)

let test_bitio_range_checks () =
  let w = Bitio.writer () in
  Alcotest.check_raises "overflow" (Invalid_argument "Bitio.put_bits: value does not fit width")
    (fun () -> Bitio.put_bits w ~width:3 8);
  let r = Bitio.reader (Bytes.create 1) ~off:0 ~len:0 in
  Alcotest.check_raises "past end" (Invalid_argument "Bitio.get_bit: past end of stream") (fun () ->
      ignore (Bitio.get_bit r))

(* ---------------------------------------------------------------- codec *)

(* One message per Msg.value constructor (plus a nested tuple). *)
let sample_msgs =
  [
    Msg.empty;
    Msg.bool true;
    Msg.bool false;
    Msg.int_in ~lo:(-1) ~hi:62 (-1);
    Msg.int_in ~lo:7 ~hi:7 7;
    Msg.nat 0;
    Msg.nat 1_000_000;
    Msg.vertex ~n:2 1;
    Msg.vertex_opt ~n:1000 None;
    Msg.vertex_opt ~n:1000 (Some 999);
    Msg.edge ~n:50 (3, 49);
    Msg.vertices ~n:300 [];
    Msg.vertices ~n:300 [ 0; 299; 150 ];
    Msg.edges ~n:300 [];
    Msg.edges ~n:300 [ (0, 299); (12, 13) ];
    Msg.tuple [];
    Msg.tuple
      [ Msg.nat 5; Msg.edges ~n:40 [ (1, 2) ]; Msg.tuple [ Msg.bool true; Msg.vertex ~n:9 8 ] ];
  ]

let roundtrip msg =
  let payload, bits = Codec.encode_payload msg in
  checki "payload length = Msg.bits" (Msg.bits msg) bits;
  checki "payload bytes = ceil(bits/8)" ((bits + 7) / 8) (Bytes.length payload);
  let back = Codec.decode_payload (Msg.layout msg) payload ~off:0 ~bits in
  checkb "value round-trips" true (Msg.value back = Msg.value msg);
  checki "bits round-trip" (Msg.bits msg) (Msg.bits back);
  checkb "layout round-trips" true (Msg.layout back = Msg.layout msg)

let test_codec_every_constructor () = List.iter roundtrip sample_msgs

let test_layout_descriptor_roundtrip () =
  List.iter
    (fun msg ->
      let d = Codec.layout_to_bytes (Msg.layout msg) in
      let cur = Proto.cursor () in
      Proto.set_cursor cur d ~pos:0 ~limit:(Bytes.length d);
      let back = Codec.get_layout cur in
      checkb "layout descriptor round-trips" true (back = Msg.layout msg);
      checki "descriptor fully consumed" 0 (Proto.remaining cur))
    sample_msgs

(* ---------------------------------------------------------------- frame *)

let test_frame_buffer_roundtrip () =
  List.iter
    (fun msg ->
      let frame = Frame.encode msg in
      let pos = ref 0 in
      let back = Frame.decode frame pos in
      checki "frame fully consumed" (Bytes.length frame) !pos;
      checkb "frame round-trips" true (Msg.value back = Msg.value msg && Msg.bits back = Msg.bits msg);
      checkb "overhead positive" true
        (Frame.overhead_bits ~frame_bytes:(Bytes.length frame) ~payload_bits:(Msg.bits msg) > 0))
    sample_msgs

(* Every sample frame sent back to back, then read off the stream in one
   piece: the frames delimit themselves. *)
let stream_roundtrip tr =
  let frames = List.map Frame.encode sample_msgs in
  List.iter (fun f -> Transport.send tr f 0 (Bytes.length f)) frames;
  let stream = Bytes.create (List.fold_left (fun n f -> n + Bytes.length f) 0 frames) in
  Transport.recv tr stream 0 (Bytes.length stream);
  let pos = ref 0 in
  List.iter2
    (fun msg frame ->
      let start = !pos in
      let back = Frame.decode stream pos in
      checki "read size = written size" (Bytes.length frame) (!pos - start);
      checkb "stream round-trips" true (Msg.value back = Msg.value msg && Msg.bits back = Msg.bits msg))
    sample_msgs frames

let test_frame_over_pipe () = stream_roundtrip (Transport.pipe ())

let test_frame_over_socketpair () =
  let tr = Transport.socketpair () in
  stream_roundtrip tr;
  Transport.close tr

let test_exchange_large_frame_socketpair () =
  (* a frame far bigger than a kernel socket buffer must not deadlock the
     single-process loopback exchange *)
  let tr = Transport.socketpair () in
  let es = List.init 200_000 (fun i -> (i mod 4096, (i * 7) mod 4096)) in
  let msg = Msg.edges ~n:4096 es in
  let scratch = Frame.scratch () in
  let back = Frame.exchange scratch tr msg in
  checkb "big frame round-trips" true (Msg.value back = Msg.value msg);
  checkb "frame really big" true (Frame.frame_len scratch > 256 * 1024);
  Transport.close tr

(* ------------------------------------------------------ frame hardening *)

(* Every malformed input must raise the typed Wire_error — never a bare
   Invalid_argument/Failure, an out-of-bounds read, or a wrong message. *)

let raises_wire_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded garbage instead of raising Wire_error" name
  | exception Wire_error.Wire_error _ -> ()
  | exception e ->
      Alcotest.failf "%s: raised %s instead of Wire_error" name (Printexc.to_string e)

(* A frame body built by hand: bit-count varint, layout descriptor bytes,
   payload bytes, correct checksum, length prefix — so individual fields
   can be forged while the rest stays honest. *)
let varint_bytes v =
  let w = Bitio.writer () in
  Codec.put_varint w v;
  Bitio.to_bytes w

(* A message whose frame is longer than 11 bytes. *)
let long_msg = Msg.vertices ~n:300 (List.init 40 Fun.id)

let forge_frame ~bits ~layout_bytes ~payload =
  let body = Buffer.create 32 in
  Buffer.add_bytes body (varint_bytes bits);
  Buffer.add_bytes body layout_bytes;
  Buffer.add_bytes body payload;
  let data = Buffer.to_bytes body in
  let sum = ref 0 in
  Bytes.iter (fun c -> sum := !sum + Char.code c) data;
  Buffer.add_char body (Char.chr (!sum land 0xff));
  Buffer.add_char body (Char.chr ((!sum lsr 8) land 0xff));
  let frame = Buffer.create (Buffer.length body + 2) in
  Buffer.add_bytes frame (varint_bytes (Buffer.length body));
  Buffer.add_buffer frame body;
  Buffer.to_bytes frame

let test_frame_truncated_varint () =
  (* a length prefix whose continuation never ends, cut off by the stream:
     five continuation bytes in flight ahead of the 5-byte frame an
     exchange sends are all it reads back *)
  let tr = Transport.pipe () in
  Transport.send tr (Bytes.make 5 '\x80') 0 5;
  raises_wire_error "truncated varint over pipe" (fun () ->
      Frame.exchange (Frame.scratch ()) tr Msg.empty);
  (* and the same shape inside a buffer *)
  raises_wire_error "truncated varint in buffer" (fun () ->
      Frame.decode (Bytes.of_string "\x80") (ref 0));
  (* a varint that never terminates within its 10-byte budget *)
  let tr2 = Transport.pipe () in
  Transport.send tr2 (Bytes.make 11 '\x80') 0 11;
  raises_wire_error "unterminated varint" (fun () -> Frame.exchange (Frame.scratch ()) tr2 long_msg)

let test_frame_length_larger_than_buffer () =
  (* length field says 100 bytes; the buffer holds 3 *)
  raises_wire_error "length > buffer" (fun () ->
      Frame.decode (Bytes.of_string "\x64abc") (ref 0));
  (* a length beyond the hard cap must refuse before allocating *)
  raises_wire_error "length > max_frame_bytes" (fun () ->
      Frame.decode (varint_bytes (Proto.max_frame_bytes + 1)) (ref 0));
  (* a scan told its 3-byte buffer holds 10 refuses before an unchecked
     load can read past the end *)
  Alcotest.check_raises "scan range past the buffer"
    (Invalid_argument "Proto.set_cursor: range outside the buffer") (fun () ->
      ignore (Proto.try_frame (Bytes.of_string "\x05ab") ~pos:0 ~limit:10 (Proto.cursor ())))

let test_frame_zero_length () =
  (* body length 0: shorter than any legal frame *)
  raises_wire_error "zero-length frame" (fun () -> Frame.decode (Bytes.of_string "\x00") (ref 0))

let test_frame_garbage_layout () =
  (* honest checksum and lengths around an unknown layout tag *)
  let frame = forge_frame ~bits:0 ~layout_bytes:(Bytes.of_string "\xff") ~payload:Bytes.empty in
  raises_wire_error "garbage layout descriptor" (fun () -> Frame.decode frame (ref 0))

let test_frame_bit_count_mismatch () =
  (* a bool layout (1 payload bit) claiming 9 payload bits *)
  let layout_bytes = Codec.layout_to_bytes (Msg.layout (Msg.bool true)) in
  let frame = forge_frame ~bits:9 ~layout_bytes ~payload:(Bytes.make 2 '\x00') in
  raises_wire_error "payload bit-count mismatch" (fun () -> Frame.decode frame (ref 0))

let test_frame_checksum_catches_every_body_flip () =
  (* flip every single bit of the frame body (everything after the length
     prefix): the mod-2^16 byte-sum checksum must catch each one *)
  let msg = Msg.tuple [ Msg.nat 5; Msg.edge ~n:40 (1, 2); Msg.bool true ] in
  let frame = Frame.encode msg in
  let body_start =
    let cur = Proto.cursor () in
    Proto.set_cursor cur frame ~pos:0 ~limit:(Bytes.length frame);
    Bytes.length frame - Proto.get_varint cur
  in
  for bit = 8 * body_start to (8 * Bytes.length frame) - 1 do
    let copy = Bytes.copy frame in
    Bytes.set copy (bit / 8)
      (Char.chr (Char.code (Bytes.get copy (bit / 8)) lxor (1 lsl (bit mod 8))));
    raises_wire_error (Printf.sprintf "bit flip at %d" bit) (fun () -> Frame.decode copy (ref 0))
  done

(* --------------------------------------------------- wire-runtime parity *)

(* The acceptance identity, per protocol and transport: same verdict, same
   accounted bits, and wire_bytes*8 - framing_overhead_bits = accounted_bits
   exactly. *)
let parity_suite transport () =
  let k = 4 in
  List.iter
    (fun seed ->
      let rng = Rng.create (7_321 * seed) in
      let g = Gen.far_with_degree rng ~n:260 ~d:5.0 ~eps:0.1 in
      let parts = Partition.with_duplication rng ~k ~dup_p:0.3 g in
      let davg = Graph.avg_degree g in
      List.iter
        (fun (name, protocol) ->
          let model = Tfree.Tester.run ~seed params ~d:davg protocol parts in
          let net = Wire.create ~transport ~k () in
          let wired = Tfree.Tester.run ~tap:(Wire.tap net) ~seed params ~d:davg protocol parts in
          let r = Wire.report net ~accounted_bits:wired.Tfree.Tester.bits in
          Wire.close net;
          checkb (name ^ " verdict parity") true
            (model.Tfree.Tester.verdict = wired.Tfree.Tester.verdict);
          checki (name ^ " accounted bits parity") model.Tfree.Tester.bits wired.Tfree.Tester.bits;
          checki
            (name ^ " reconciliation identity")
            r.Wire.accounted_bits
            ((8 * r.Wire.wire_bytes) - r.Wire.framing_overhead_bits);
          checkb (name ^ " reconciles") true (Wire.reconciles r);
          checkb (name ^ " frames flowed") true (r.Wire.frames > 0))
        Tfree.Tester.protocols)
    [ 1; 2; 3 ]

let test_parity_blackboard () =
  let k = 4 in
  let seed = 5 in
  let rng = Rng.create 31_337 in
  let g = Gen.far_with_degree rng ~n:200 ~d:5.0 ~eps:0.1 in
  let parts = Partition.with_duplication rng ~k ~dup_p:0.3 g in
  let model = Tfree.Tester.unrestricted ~mode:Runtime.Blackboard ~seed params parts in
  let net = Wire.create ~k () in
  let wired =
    Tfree.Tester.unrestricted ~mode:Runtime.Blackboard ~tap:(Wire.tap net) ~seed params parts
  in
  let r = Wire.report net ~accounted_bits:wired.Tfree.Tester.bits in
  Wire.close net;
  checkb "blackboard verdict parity" true (model.Tfree.Tester.verdict = wired.Tfree.Tester.verdict);
  checki "blackboard bits parity" model.Tfree.Tester.bits wired.Tfree.Tester.bits;
  checkb "blackboard reconciles" true (Wire.reconciles r)

let test_wire_runtime_surface () =
  (* drive a Runtime over the wire tap directly and reconcile its own ledger *)
  let rng = Rng.create 99 in
  let g = Gen.far_with_degree rng ~n:100 ~d:4.0 ~eps:0.1 in
  let parts = Partition.disjoint_random rng ~k:3 g in
  let net = Wire.create ~k:(Partition.k parts) () in
  let rt = Runtime.make ~tap:(Wire.tap net) ~seed:7 parts in
  let n = Runtime.n rt in
  let replies =
    Runtime.ask_all rt ~req:(Msg.nat 3) (fun _ gj -> Msg.edges ~n (Graph.edges gj))
  in
  checki "one reply per player" (Runtime.k rt) (Array.length replies);
  Runtime.tell_all rt (Msg.bool true);
  let echoed = Runtime.query rt 1 ~req:(Msg.vertex ~n 0) (fun _ -> Msg.nat 42) in
  checki "query reply decoded" 42 (Msg.get_int echoed);
  checkb "someone owns an edge" true (Runtime.any_player rt (fun gj -> Graph.m gj > 0));
  let r = Wire.report net ~accounted_bits:(Cost.total (Runtime.cost rt)) in
  Wire.close net;
  checki "surface accounted = cost ledger" (Cost.total (Runtime.cost rt)) r.Wire.accounted_bits;
  checkb "surface reconciles" true (Wire.reconciles r)

(* -------------------------------------------------------- fault schedules *)

let test_fault_spec_roundtrip () =
  let sched =
    [
      { Fault.op = 2; kind = Fault.Drop };
      { Fault.op = 5; kind = Fault.Corrupt { bit = 13 } };
      { Fault.op = 7; kind = Fault.Truncate { keep = 3 } };
      { Fault.op = 9; kind = Fault.Delay { amount = 2 } };
      { Fault.op = 11; kind = Fault.Partial { at = 4 } };
      { Fault.op = 20; kind = Fault.Close };
    ]
  in
  let spec = Fault.to_string sched in
  (match Fault.parse spec with
  | Ok back -> checkb "explicit spec round-trips" true (back = sched)
  | Error msg -> Alcotest.fail msg);
  (match Fault.parse "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty spec is not the empty schedule");
  match Fault.parse "3:gremlins" with
  | Ok _ -> Alcotest.fail "accepted an unknown fault kind"
  | Error _ -> ()

let test_fault_seeded_deterministic () =
  let spec = "seed=42,rate=0.2,ops=100" in
  match (Fault.parse spec, Fault.parse spec) with
  | Ok a, Ok b ->
      checkb "seeded schedule is a pure function of the spec" true (a = b);
      checkb "a 20% rate over 100 ops fires at least once" true (a <> []);
      let distinct =
        match Fault.parse "seed=43,rate=0.2,ops=100" with Ok c -> c <> a | Error _ -> false
      in
      checkb "different seed, different schedule" true distinct
  | _ -> Alcotest.fail "seeded spec did not parse"

(* ------------------------------------------------------------ chaos matrix *)

(* The acceptance matrix: every fault kind × every protocol on this
   transport, each fired at several schedule positions.  A run under
   injected faults either completes with exactly the fault-free verdict and
   bits (the fault missed the traffic, or was benign — delay and partial
   deliver the same bytes) or aborts with a typed Wire_error.  Wrong
   verdicts never; hangs never (the run below either returns or raises —
   a hang would time the suite out).  Benign kinds must never abort. *)
let chaos_matrix transport () =
  let k = 4 in
  let rng = Rng.create 4242 in
  let g = Gen.far_with_degree rng ~n:200 ~d:5.0 ~eps:0.1 in
  let parts = Partition.with_duplication rng ~k ~dup_p:0.3 g in
  let davg = Graph.avg_degree g in
  let kinds =
    [
      Fault.Drop;
      Fault.Corrupt { bit = 13 };
      Fault.Truncate { keep = 2 };
      Fault.Delay { amount = 2 };
      Fault.Partial { at = 3 };
      Fault.Close;
    ]
  in
  List.iter
    (fun (name, protocol) ->
      let run ?tap () = Tfree.Tester.run ?tap ~seed:9 params ~d:davg protocol parts in
      let base = run () in
      List.iter
        (fun kind ->
          List.iter
            (fun op ->
              let label = Printf.sprintf "%s/%s@%d" name (Fault.kind_name kind) op in
              let net = Wire.create ~fault:[ { Fault.op; kind } ] ~transport ~k () in
              (match run ~tap:(Wire.tap net) () with
              | wired ->
                  checkb (label ^ ": verdict survives") true
                    (wired.Tfree.Tester.verdict = base.Tfree.Tester.verdict);
                  checki (label ^ ": bits survive") base.Tfree.Tester.bits wired.Tfree.Tester.bits
              | exception Wire_error.Wire_error _ ->
                  checkb (label ^ ": benign faults must not abort") false (Fault.benign kind));
              Wire.close net)
            [ 0; 3; 10 ])
        kinds)
    Tfree.Tester.protocols

(* ------------------------------------------------------- tap composition *)

module Trace = Tfree_trace.Trace

(* The full acceptance matrix: identity ∘ trace ∘ wire installed together,
   on every protocol × {coordinator, blackboard} × {model, pipe,
   socketpair}.  Composition must change no verdict and no accounted bit
   count, the wire leg must still reconcile, and the trace leg must satisfy
   the decomposition identity. *)
let composition_suite mode transport () =
  let k = 4 and seed = 2 in
  let rng = Rng.create 52_901 in
  let g = Gen.far_with_degree rng ~n:240 ~d:5.0 ~eps:0.1 in
  let parts = Partition.with_duplication rng ~k ~dup_p:0.3 g in
  let davg = Graph.avg_degree g in
  (* only the adaptive protocol distinguishes the modes; the simultaneous
     ones go through their own referee *)
  let run_with protocol ?tap () = Tfree.Tester.run ~mode ?tap ~seed params ~d:davg protocol parts in
  List.iter
    (fun (name, protocol) ->
      let model = run_with protocol () in
      let collector = Trace.create () in
      let net = Option.map (fun tr -> Wire.create ~transport:tr ~k ()) transport in
      let tap =
        Channel.compose_all
          (Channel.identity
          :: Trace.tap collector
          :: Option.to_list (Option.map Wire.tap net))
      in
      let traced = Trace.with_collector collector (fun () -> run_with protocol ~tap ()) in
      checkb (name ^ " verdict unchanged by composition") true
        (model.Tfree.Tester.verdict = traced.Tfree.Tester.verdict);
      checki (name ^ " accounted bits unchanged") model.Tfree.Tester.bits traced.Tfree.Tester.bits;
      checkb (name ^ " decomposition identity") true
        (Trace.decomposes collector ~accounted:traced.Tfree.Tester.bits);
      Option.iter
        (fun net ->
          let r = Wire.report net ~accounted_bits:traced.Tfree.Tester.bits in
          Wire.close net;
          checkb (name ^ " wire reconciles under composition") true (Wire.reconciles r);
          checki (name ^ " one frame per traced event") (Trace.message_count collector)
            r.Wire.frames)
        net)
    Tfree.Tester.protocols

(* -------------------------------------------------------------- service *)

let test_service_request_json_roundtrip () =
  let req =
    {
      Service.family = Service.Behrend;
      partition = Service.Skewed;
      protocol = Service.Unrestricted;
      n = 123;
      d = 3.5;
      k = 6;
      eps = 0.2;
      seed = 11;
      transport = Wire.Socketpair;
      fault = "2:drop,5:corrupt@13";
    }
  in
  match Service.request_of_json (Service.request_to_json req) with
  | Ok back -> checkb "request round-trips" true (back = req)
  | Error msg -> Alcotest.fail msg

let test_service_request_defaults () =
  match Service.request_of_json (Jsonout.Obj [ ("protocol", Jsonout.Str "exact") ]) with
  | Ok req ->
      checkb "defaults filled" true
        (req = { Service.default_request with protocol = Service.Exact })
  | Error msg -> Alcotest.fail msg

let test_service_request_rejects_unknown () =
  (match Service.request_of_json (Jsonout.Obj [ ("protocol", Jsonout.Str "quantum") ]) with
  | Ok _ -> Alcotest.fail "accepted an unknown protocol"
  | Error _ -> ());
  match Service.request_of_json (Jsonout.Obj [ ("fault", Jsonout.Str "3:gremlins") ]) with
  | Ok _ -> Alcotest.fail "accepted an unparseable fault spec"
  | Error _ -> ()

let test_service_run_request_reconciles () =
  List.iter
    (fun protocol ->
      let resp =
        Service.run_request { Service.default_request with protocol; n = 150; seed = 3 }
      in
      checkb
        (Tfree.Tester.protocol_to_string protocol ^ " response reconciles")
        true
        (Wire.reconciles resp.Service.wire);
      match Service.response_of_json (Service.response_to_json resp) with
      | Ok back -> checkb "response JSON round-trips" true (back = resp)
      | Error msg -> Alcotest.fail msg)
    [ Service.Unrestricted; Service.Sim; Service.Oblivious; Service.Exact ]

(* -------------------------------------------- serve-resilience (forked) *)

(* The daemon body of every forked serve test, for [Fixture.with_daemon]. *)
let serve ?max_clients ?cache_capacity ?max_version ?(fault = []) path =
  Service.serve ?max_clients ?cache_capacity ?max_version ~line_timeout_s:5.0 ~fault ~path ()

(* A failing callback must not hang the fixture or orphan its daemon, even
   when the daemon cannot take a shutdown: here a hog holds the only
   --max-clients 1 slot, so every shutdown is shed.  The fixture kills and
   reaps the daemon past its deadline and re-raises the original exception. *)
let test_fixture_reaps_daemon_on_error () =
  let pid_r, pid_w = Unix.pipe ~cloexec:true () in
  let hog = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let sock_path = ref "" in
  let t0 = Unix.gettimeofday () in
  (match
     Fixture.with_daemon ~tag:"hog" ~expect_served:0
       (fun path ->
         let pid = string_of_int (Unix.getpid ()) in
         ignore (Unix.write_substring pid_w pid 0 (String.length pid));
         serve ~max_clients:1 path)
       (fun path ->
         sock_path := path;
         Unix.connect hog (Unix.ADDR_UNIX path);
         (* let the event loop admit the hog before failing *)
         Unix.sleepf 0.1;
         raise Exit)
   with
  | () -> Alcotest.fail "a raising callback returned normally"
  | exception Exit -> ());
  checkb "returned within the abort deadline" true (Unix.gettimeofday () -. t0 < 5.0);
  Unix.close hog;
  Unix.close pid_w;
  let buf = Bytes.create 16 in
  let pid = int_of_string (Bytes.sub_string buf 0 (Unix.read pid_r buf 0 16)) in
  Unix.close pid_r;
  checkb "daemon is gone" true
    (match Unix.kill pid 0 with () -> false | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true);
  checkb "socket removed" false (Sys.file_exists !sock_path)

let test_fixture_names_served_mismatch () =
  match Fixture.with_daemon ~tag:"mismatch" ~expect_served:1 serve ignore with
  | () -> Alcotest.fail "a wrong served count passed"
  | exception Failure msg -> Alcotest.(check string) "message" "mismatch: served 0, expected 1" msg

let test_fixture_client_fleet () =
  let lines = Fixture.fork_clients 3 (fun i -> string_of_int (i * i)) in
  Alcotest.(check (list string)) "one line per client" [ "0"; "1"; "4" ] (List.sort compare lines);
  match Fixture.fork_clients 2 (fun i -> if i = 1 then failwith "boom" else "ok") with
  | _ -> Alcotest.fail "a crashed client went unnoticed"
  | exception Failure msg -> Alcotest.(check string) "message" "1 of 2 client processes crashed" msg

(* A malformed line must get a structured categorized error reply on the
   same connection, which must then serve a normal query; the stats
   telemetry must count the error under "malformed" and nothing else. *)
let test_service_malformed_line_keeps_connection () =
  Fixture.with_daemon ~tag:"malformed" ~expect_served:1 serve (fun path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      let out = Unix.out_channel_of_descr sock and inp = Unix.in_channel_of_descr sock in
      let exchange line =
        output_string out (line ^ "\n");
        flush out;
        match In_channel.input_line inp with
        | Some reply -> reply
        | None -> Alcotest.fail "server closed the connection"
      in
      (match Jsonout.parse (exchange "{definitely not json") with
      | Ok j -> (
          match (Jsonout.member "ok" j, Jsonout.member "error" j, Jsonout.member "category" j) with
          | Some (Jsonout.Bool false), Some (Jsonout.Str _), Some (Jsonout.Str "malformed") -> ()
          | _ -> Alcotest.fail "malformed line did not get a structured categorized error")
      | Error msg -> Alcotest.failf "error reply is not JSON: %s" msg);
      (* same connection, normal query *)
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      (match
         Result.bind
           (Jsonout.parse (exchange (Jsonout.to_line (Service.request_to_json req))))
           Service.response_of_json
       with
      | Ok resp -> checkb "query after malformed line reconciles" true (Wire.reconciles resp.Service.wire)
      | Error msg -> Alcotest.failf "connection unusable after malformed line: %s" msg);
      Unix.close sock;
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "stats counted the error" 1 (int_at stats [ "errors" ]);
          checki "the error is malformed" 1 (int_at stats [ "errors_by_category"; "malformed" ]);
          checki "no transport errors" 0 (int_at stats [ "errors_by_category"; "transport" ]);
          checki "stats counted the query" 1 (int_at stats [ "queries_served" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* A client that writes half a request and vanishes must cost exactly one
   transport-category error; the daemon keeps serving. *)
let test_service_client_killed_mid_request () =
  Fixture.with_daemon ~tag:"killed" ~expect_served:1 serve (fun path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      let half = "{\"protocol\": \"ex" in
      ignore (Unix.write_substring sock half 0 (String.length half));
      Unix.close sock;
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      (match Service.client_query ~path req with
      | Ok resp ->
          checkb "query after killed client reconciles" true (Wire.reconciles resp.Service.wire)
      | Error msg -> Alcotest.failf "daemon unusable after killed client: %s" msg);
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "killed client = one transport error" 1
            (int_at stats [ "errors_by_category"; "transport" ]);
          checki "one error total" 1 (int_at stats [ "errors" ]);
          checki "the real query still served" 1 (int_at stats [ "queries_served" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* A client streaming past the daemon's 8 MiB line cap without a newline
   is shed with a malformed error, and promptly: the buffered line must be
   scanned for its newline once, not once per read, or the
   single-threaded loop stalls for seconds. *)
let test_service_sheds_unterminated_line () =
  Fixture.with_daemon ~tag:"longline" ~expect_served:0 serve (fun path ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 5.0;
      let chunk = Bytes.make 65536 'x' in
      (try
         for _ = 0 to (8 * 1024 * 1024 / 65536) + 1 do
           ignore (Unix.write sock chunk 0 (Bytes.length chunk))
         done
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      let reply =
        match In_channel.input_line (Unix.in_channel_of_descr sock) with
        | Some line -> line
        | None -> Alcotest.fail "daemon closed without a reply"
        | exception Sys_error msg -> Alcotest.failf "no reply within 5 s: %s" msg
      in
      Unix.close sock;
      (match Jsonout.parse reply with
      | Ok j ->
          checkb "malformed" true (Jsonout.member "category" j = Some (Jsonout.Str "malformed"));
          checkb "names the line" true
            (Jsonout.member "error" j = Some (Jsonout.Str "request line too long"))
      | Error msg -> Alcotest.failf "reply is not JSON: %s" msg);
      match Service.client_stats ~path () with
      | Ok stats -> checki "one malformed error" 1 (int_at stats [ "errors_by_category"; "malformed" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* The retry acceptance case: the server sabotages its first three replies
   (drop, bit-flip, truncate-and-close); client_query with retries must
   recover the fault-free verdict, spending exactly three retries, and the
   server's stats must count exactly the injected schedule. *)
let test_service_client_retry_recovers () =
  let fault =
    [
      { Fault.op = 0; kind = Fault.Drop };
      { Fault.op = 1; kind = Fault.Corrupt { bit = 13 } };
      { Fault.op = 2; kind = Fault.Truncate { keep = 5 } };
    ]
  in
  (* the server runs the query on all four attempts; only the fourth reply
     survives the schedule *)
  Fixture.with_daemon ~tag:"retry" ~expect_served:4 (serve ~fault) (fun path ->
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      let m = Metrics.create () in
      match Service.client_query ~retries:5 ~backoff_s:0.01 ~metrics:m ~path req with
      | Error msg -> Alcotest.failf "retry did not recover: %s" msg
      | Ok resp -> (
          let local = Service.run_request req in
          checkb "recovered verdict = fault-free verdict" true
            (resp.Service.verdict = local.Service.verdict);
          checki "recovered bits = fault-free bits" local.Service.bits resp.Service.bits;
          checki "exactly three retries spent" 3 (Metrics.count m Metrics.Retries);
          match Service.client_stats ~path () with
          | Ok stats ->
              checki "server tallied the injected schedule exactly" (List.length fault)
                (int_at stats [ "injected_faults" ]);
              checki "injected faults are not service errors" 0 (int_at stats [ "errors" ])
          | Error msg -> Alcotest.failf "stats query failed: %s" msg))

(* ------------------------------------------------ concurrent event loop *)

(* Fork [n] concurrent client processes (processes, not domains: a domain
   would forbid every later [Unix.fork] in this binary); each child runs
   [child i] and reports its (wrong, retries) tally.  Returns the tallies
   once every child has exited. *)
let fork_clients ?coordinate n child =
  Fixture.fork_clients ?coordinate n (fun i ->
      let wrong, retries = child i in
      Printf.sprintf "%d %d" wrong retries)
  |> List.map (fun line -> Scanf.sscanf line "%d %d" (fun w r -> (w, r)))

(* The head-of-line regression test: K clients each hold ONE connection
   open and none will close it before every client has gotten a first
   reply.  A sequential accept loop deadlocks here (client 1 pins the
   server until it closes, which it refuses to do until client 2 is
   answered); the select event loop serves all K interleaved.  Every reply
   must equal the fault-free local run — concurrency must never change a
   verdict. *)
let test_concurrent_clients_interleaved () =
  let clients = 4 and per_client = 3 in
  let req_for c q =
    { Service.default_request with protocol = Service.Exact; n = 60; seed = (10 * c) + q }
  in
  (* expected replies computed before any concurrency enters the picture *)
  let expected =
    Array.init clients (fun c ->
        Array.init per_client (fun q -> Service.run_request (req_for c q)))
  in
  Fixture.with_daemon ~tag:"interleaved" ~expect_served:(clients * per_client) serve (fun path ->
      (* cross-process barrier: each client reports its first reply on
         [ready], then blocks on [go] until the parent has seen all K *)
      let ready_r, ready_w = Unix.pipe () in
      let go_r, go_w = Unix.pipe () in
      let one = Bytes.create 1 in
      let run_client c =
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect sock (Unix.ADDR_UNIX path);
            (* a reply that never comes fails the read (and the client)
               instead of hanging the test *)
            Unix.setsockopt_float sock Unix.SO_RCVTIMEO 30.0;
            let inp = Unix.in_channel_of_descr sock in
            let wrong = ref 0 in
            for q = 0 to per_client - 1 do
              let line = Jsonout.to_line (Service.request_to_json (req_for c q)) in
              let n = String.length line + 1 in
              assert (Unix.write_substring sock (line ^ "\n") 0 n = n);
              (match In_channel.input_line inp with
              | Some reply -> (
                  match Result.bind (Jsonout.parse reply) Service.response_of_json with
                  | Ok resp -> if resp <> expected.(c).(q) then incr wrong
                  | Error _ -> incr wrong)
              | None -> incr wrong);
              if q = 0 then begin
                (* hold the connection hostage until every client has been
                   answered once over its own open connection *)
                assert (Unix.write ready_w one 0 1 = 1);
                assert (Unix.read go_r one 0 1 = 1)
              end
            done;
            (!wrong, 0))
      in
      let release () =
        (* every client has an open served connection before any proceeds *)
        let byte = Bytes.create 1 in
        for _ = 1 to clients do
          assert (Unix.read ready_r byte 0 1 = 1)
        done;
        for _ = 1 to clients do
          assert (Unix.write go_w byte 0 1 = 1)
        done
      in
      let tallies = fork_clients ~coordinate:release clients run_client in
      let wrong = List.fold_left (fun acc (w, _) -> acc + w) 0 tallies in
      List.iter Unix.close [ ready_r; ready_w; go_r; go_w ];
      checki "zero wrong replies across all interleaved clients" 0 wrong;
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "served every query" (clients * per_client) (int_at stats [ "queries_served" ]);
          checki "no errors" 0 (int_at stats [ "errors" ]);
          checkb "accepted all clients concurrently" true
            (int_at stats [ "connections"; "accepted" ] >= clients);
          checki "nothing shed" 0 (int_at stats [ "connections"; "shed" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* A batch must return one result per request, in order, each identical to
   the one-at-a-time reply for the same request — including a structured
   per-item error for a bad item that must not poison its neighbours. *)
let test_batch_matches_single_queries () =
  let good = List.init 4 (fun i -> { Service.default_request with protocol = Service.Exact; n = 60; seed = 20 + i }) in
  (* 4 good batch items + 4 single queries + the mixed batch's good item;
     the bad item serves nothing *)
  Fixture.with_daemon ~tag:"batch" ~expect_served:9 serve (fun path ->
      (match Service.client_batch ~path good with
      | Error msg -> Alcotest.failf "batch failed: %s" msg
      | Ok results ->
          checki "one result per request" (List.length good) (List.length results);
          List.iteri
            (fun i result ->
              match result with
              | Error msg -> Alcotest.failf "batch item %d failed: %s" i msg
              | Ok resp -> (
                  let req = List.nth good i in
                  checkb
                    (Printf.sprintf "batch item %d = fault-free local run" i)
                    true
                    (resp = Service.run_request req);
                  match Service.client_query ~path req with
                  | Ok single ->
                      checkb
                        (Printf.sprintf "batch item %d = single query" i)
                        true (resp = single)
                  | Error msg -> Alcotest.failf "single query %d failed: %s" i msg))
            results);
      (* a bad item inside a batch is its own error, not the batch's *)
      (match
         Service.client_batch ~path
           [ { Service.default_request with n = -5 }; { Service.default_request with protocol = Service.Exact; n = 60; seed = 20 } ]
       with
      | Error msg -> Alcotest.failf "mixed batch failed outright: %s" msg
      | Ok [ bad; ok ] ->
          checkb "bad item is an Error" true (Result.is_error bad);
          checkb "good neighbour still served" true
            (ok = Ok (Service.run_request { Service.default_request with protocol = Service.Exact; n = 60; seed = 20 }))
      | Ok _ -> Alcotest.fail "mixed batch did not return two results");
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "two batch exchanges" 2 (int_at stats [ "batch"; "batches" ]);
          checki "six batch items" 6 (int_at stats [ "batch"; "items" ]);
          checki "bad item recorded as run_failure" 1
            (int_at stats [ "errors_by_category"; "run_failure" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* Seed reuse must hit the instance cache (no rebuild) without changing a
   single reply byte; the stats cache counters must reconcile exactly:
   lookups = queries served = hits + misses, misses = distinct keys. *)
let test_cache_hits_reconcile_in_stats () =
  let base = { Service.default_request with protocol = Service.Exact; n = 60 } in
  let reqs =
    List.concat_map (fun seed -> List.init 3 (fun _ -> { base with Service.seed = seed })) [ 1; 2 ]
  in
  (* 6 queries over 2 distinct (family, ..., seed) keys *)
  Fixture.with_daemon ~tag:"cache" ~expect_served:(List.length reqs) serve (fun path ->
      let replies =
        List.map
          (fun req ->
            match Service.client_query ~path req with
            | Ok resp -> resp
            | Error msg -> Alcotest.failf "query failed: %s" msg)
          reqs
      in
      List.iter2
        (fun req resp ->
          checkb "cached reply = fault-free local run" true (resp = Service.run_request req))
        reqs replies;
      match Service.client_stats ~path () with
      | Ok stats ->
          let cache k = int_at stats [ "cache"; k ] in
          checki "one lookup per query" (List.length reqs) (cache "lookups");
          checki "misses = distinct instance keys" 2 (cache "misses");
          checki "hits = the rest" (List.length reqs - 2) (cache "hits");
          checki "hits + misses = lookups" (cache "lookups") (cache "hits" + cache "misses")
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* Chaos under concurrency: a reply-fault schedule that drops, kills and
   corrupts connections while K clients query in parallel.  Every client
   must still end with its exact fault-free verdict (retrying through the
   chaos), and the stats must reconcile: served = successes + retries,
   every scheduled fault fired, zero service errors. *)
let test_chaos_schedule_spares_other_clients () =
  let fault =
    [
      { Fault.op = 0; kind = Fault.Drop };
      { Fault.op = 2; kind = Fault.Close };
      { Fault.op = 5; kind = Fault.Corrupt { bit = 13 } };
    ]
  in
  let clients = 3 and per_client = 2 in
  let req_for c q =
    { Service.default_request with protocol = Service.Exact; n = 60; seed = (100 * c) + q }
  in
  let expected =
    Array.init clients (fun c ->
        Array.init per_client (fun q -> Service.run_request (req_for c q)))
  in
  (* every sabotaged reply is a query the server processed and one client
     retry, so served = clients·per_client + |schedule| exactly *)
  Fixture.with_daemon ~tag:"chaos-conc"
    ~expect_served:((clients * per_client) + List.length fault)
    (serve ~fault)
    (fun path ->
      let run_client c =
        let m = Metrics.create () in
        let wrong = ref 0 in
        for q = 0 to per_client - 1 do
          match
            Service.client_query ~retries:8 ~backoff_s:0.01 ~backoff_seed:c ~metrics:m ~path
              (req_for c q)
          with
          | Ok resp -> if resp <> expected.(c).(q) then incr wrong
          | Error _ -> incr wrong
        done;
        (!wrong, Metrics.count m Metrics.Retries)
      in
      let results = fork_clients clients run_client in
      let wrong = List.fold_left (fun acc (w, _) -> acc + w) 0 results in
      let retries = List.fold_left (fun acc (_, r) -> acc + r) 0 results in
      checki "zero wrong verdicts under chaos" 0 wrong;
      checki "one retry per scheduled fault" (List.length fault) retries;
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "served = successes + retries"
            ((clients * per_client) + retries)
            (int_at stats [ "queries_served" ]);
          checki "every scheduled fault fired" (List.length fault)
            (int_at stats [ "injected_faults" ]);
          checki "injected faults are not service errors" 0 (int_at stats [ "errors" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* At --max-clients the server sheds with a typed overload error — a
   structured reply, never a hang — and the client treats it as transient:
   once the hog disconnects, a retry succeeds. *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_overload_sheds_with_typed_error () =
  Fixture.with_daemon ~tag:"overload" ~expect_served:1 (serve ~max_clients:1) (fun path ->
      let hog = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect hog (Unix.ADDR_UNIX path);
      (* let the event loop admit the hog before piling on *)
      Unix.sleepf 0.1;
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      (match Service.client_query ~path req with
      | Ok _ -> Alcotest.fail "server over capacity still answered"
      | Error msg ->
          checkb
            (Printf.sprintf "overload error names capacity: %s" msg)
            true
            (contains_substring msg "capacity"));
      Unix.close hog;
      let m = Metrics.create () in
      (match Service.client_query ~retries:8 ~backoff_s:0.02 ~metrics:m ~path req with
      | Ok resp -> checkb "post-shed retry gets the true verdict" true (resp = Service.run_request req)
      | Error msg -> Alcotest.failf "retry after shedding failed: %s" msg);
      (* at max_clients 1 the stats connection itself can race the previous
         connection's EOF and get shed; it is transient, so retry *)
      let rec stats_with_retry tries =
        match Service.client_stats ~path () with
        | Error _ when tries > 0 ->
            Unix.sleepf 0.05;
            stats_with_retry (tries - 1)
        | r -> r
      in
      match stats_with_retry 20 with
      | Ok stats ->
          let overload = int_at stats [ "errors_by_category"; "overload" ] in
          checkb "at least one connection shed" true (overload >= 1);
          checkb "shed tally matches overload errors" true
            (int_at stats [ "connections"; "shed" ] = overload);
          checki "the one real query served" 1 (int_at stats [ "queries_served" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* ------------------------------------------------------ client reader *)

(* A fake server on a fresh socket: a forked child accepts [conns]
   connections and hands each to [answer] (a client closing early is
   fine), while [f path] runs here.  The child must then exit cleanly. *)
let with_fake_server ?(conns = 1) ~tag answer f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tfree-fake-%s-%d.sock" tag (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let lsock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lsock (Unix.ADDR_UNIX path);
  Unix.listen lsock 8;
  let pid =
    Fixture.fork_child (fun () ->
        for _ = 1 to conns do
          let fd, _ = Unix.accept lsock in
          (try answer fd with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
          Unix.close fd
        done)
  in
  Unix.close lsock;
  let finish ~deadline_s =
    Sys.remove path;
    Fixture.reap ~nudge:ignore ~deadline_s pid
  in
  match f path with
  | result ->
      checkb "fake server exited cleanly" true (finish ~deadline_s:10.0 = Some (Unix.WEXITED 0));
      result
  | exception e ->
      ignore (finish ~deadline_s:0.0);
      raise e

(* The client's next unit off [fd], as the fake server reads it. *)
let rec take_unit r fd ~version =
  match Proto.next r ~version with
  | Proto.Pending -> (
      match Proto.fill r fd with
      | Proto.Eof -> failwith "client closed before its request"
      | Proto.Data | Proto.Again -> take_unit r fd ~version)
  | taken -> taken

let write_string fd s =
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One byte per write, a little apart, so the client reads the bytes in
   many pieces. *)
let write_bytewise fd s =
  String.iter
    (fun c ->
      write_string fd (String.make 1 c);
      Unix.sleepf 0.0002)
    s

let fake_request = { Service.default_request with protocol = Service.Exact; n = 60 }

(* The reply a server sends for [resp] over [version], as bytes. *)
let reply_bytes ~version resp =
  if version >= 2 then begin
    let b = Proto.create_buf () in
    Service.encode_reply_frame b (Service.R_response resp);
    Bytes.sub_string (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b)
  end
  else Jsonout.to_line (Service.reply_to_json (Service.R_response resp)) ^ "\n"

(* [Service.call] must get the same reply however the server's bytes are
   cut: the hello answer and the reply one byte per write; the reply
   followed by trailing bytes and a close; and (v2) the hello answer and
   the reply in one write, before the request was read, so the reply
   arrives with the hello and must not be lost. *)
let test_client_reads_fragmented_and_padded_replies () =
  let resp = Service.run_request fake_request in
  let case (protocol, version) (what, shape) =
    let reply = reply_bytes ~version resp in
    let answer fd =
      let r = Proto.reader () in
      let hello () =
        if version >= 2 then
          match take_unit r fd ~version:0 with
          | Proto.Hello _ -> ()
          | _ -> failwith "expected the client hello"
      in
      let answer_hello = if version >= 2 then Proto.hello version else "" in
      let request () = ignore (take_unit r fd ~version) in
      match shape with
      | `Bytewise ->
          hello ();
          write_bytewise fd answer_hello;
          request ();
          write_bytewise fd reply
      | `Trailing ->
          hello ();
          write_string fd answer_hello;
          request ();
          write_string fd (reply ^ "\xff\000trailing bytes\n{\"ok\": false}\n")
      | `Eager ->
          hello ();
          write_string fd (answer_hello ^ reply)
    in
    with_fake_server ~tag:"frag" answer (fun path ->
        match Service.call ~timeout_s:10.0 ~protocol ~path (Service.Op_query fake_request) with
        | Ok (Service.R_response got) ->
            checkb (Printf.sprintf "%s over v%d: the server's reply" what version) true (got = resp)
        | Ok _ -> Alcotest.failf "%s over v%d: wrong reply shape" what version
        | Error msg -> Alcotest.failf "%s over v%d: %s" what version msg)
  in
  List.iter
    (fun (p, v) ->
      List.iter (case (p, v))
        ((if v >= 2 then [ ("hello and reply in one write", `Eager) ] else [])
        @ [ ("one byte per write", `Bytewise); ("trailing bytes then close", `Trailing) ]))
    [ (Proto.V1, 1); (Proto.V2, 2) ]

(* A server that never ends its v1 reply line costs the client a
   transient garbled-reply error once the line reaches the frame cap, not
   unbounded memory; the retry envelope tries again. *)
let test_client_caps_reply_line () =
  let answer fd =
    ignore (take_unit (Proto.reader ()) fd ~version:1);
    let chunk = String.make (1 lsl 20) 'x' in
    for _ = 0 to Proto.max_frame_bytes lsr 20 do
      write_string fd chunk
    done
  in
  with_fake_server ~conns:2 ~tag:"longline" answer (fun path ->
      let m = Metrics.create () in
      match
        Service.call ~timeout_s:30.0 ~retries:1 ~backoff_s:0.01 ~metrics:m ~protocol:Proto.V1
          ~path (Service.Op_query fake_request)
      with
      | Ok _ -> Alcotest.fail "an endless reply line was accepted"
      | Error msg ->
          checkb (Printf.sprintf "garbled reply: %s" msg) true
            (contains_substring msg "garbled reply");
          checki "retried as transient" 1 (Metrics.count m Metrics.Retries))

(* A server that sheds a connection writes its typed overload reply and
   closes, perhaps before the client's hello or request is written; the
   client must still read that reply, not report the failed write.  The
   client runs in a child that restores the default SIGPIPE action, as a
   fresh [tfree client] process has it: the write into the closed socket
   must not kill it. *)
let test_client_reads_shed_reply_after_close () =
  let attempts = 20 in
  let shed =
    Jsonout.to_line (Service.reply_to_json (Service.R_error (Metrics.Overload, "server at capacity")))
    ^ "\n"
  in
  with_fake_server ~conns:(2 * attempts) ~tag:"shed" (fun fd -> write_string fd shed) (fun path ->
      let client () =
        Sys.set_signal Sys.sigpipe Sys.Signal_default;
        for _ = 1 to attempts do
          List.iter
            (fun protocol ->
              match Service.call ~timeout_s:10.0 ~protocol ~path (Service.Op_query fake_request) with
              | Error msg when contains_substring msg "capacity" -> ()
              | Error msg -> failwith msg
              | Ok _ -> failwith "a shed connection answered")
            [ Proto.V1; Proto.Auto ]
        done
      in
      match Fixture.reap ~nudge:ignore ~deadline_s:30.0 (Fixture.fork_child client) with
      | Some (Unix.WEXITED 0) -> ()
      | Some (Unix.WSIGNALED s) -> Alcotest.failf "the client was killed by signal %d" s
      | _ -> Alcotest.fail "a shed call did not return the server's overload reply (see stderr)")

(* -------------------------------------------------- proto read buffer *)

(* The per-connection read buffer must release oversized allocations once
   consumption leaves at most a small tail: one near-8MB line or batch
   frame must not pin megabytes for the connection's lifetime. *)
let test_proto_rbuf_shrinks () =
  let r = Proto.reader () in
  let src, dst = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* [s] through the socket pair into [r], a chunk at a time *)
  let feed s =
    let off = ref 0 in
    while !off < String.length s do
      let before = Proto.buffered r in
      let n = Unix.write_substring src s !off (min 65536 (String.length s - !off)) in
      while Proto.buffered r < before + n do
        ignore (Proto.fill r dst)
      done;
      off := !off + n
    done
  in
  let take what =
    match Proto.next r ~version:1 with
    | Proto.Line line -> line
    | _ -> Alcotest.failf "%s: no complete line buffered" what
  in
  checki "fresh capacity is the default" Proto.rbuf_default_capacity (Proto.capacity r);
  let big = 5 * 1024 * 1024 and mib = 1024 * 1024 in
  let line n c = String.make (n - 1) c ^ "\n" in
  (* a 1 MiB line, the rest of the burst as a second line, a 64-byte tail *)
  feed (line mib 'x' ^ line (big - mib) 'x' ^ String.make 64 'y');
  checki "everything buffered" (big + 64) (Proto.buffered r);
  checkb "buffer grew past the retain cap" true (Proto.capacity r > Proto.rbuf_retain_capacity);
  (* a partial consume that leaves a large tail must NOT shrink: the rest
     of the burst is still in flight *)
  ignore (take "first line");
  checkb "large remaining tail keeps the allocation" true
    (Proto.capacity r > Proto.rbuf_retain_capacity);
  (* consuming down to a small tail releases the memory and keeps the tail *)
  ignore (take "second line");
  checki "tail intact" 64 (Proto.buffered r);
  checkb "capacity released back to the default" true
    (Proto.capacity r <= Proto.rbuf_default_capacity);
  feed "\n";
  checkb "tail bytes preserved across the shrink" true (take "tail" = String.make 64 'y');
  checki "empty after the tail" 0 (Proto.buffered r);
  (* full drain of an oversized buffer also resets the allocation *)
  feed (line big 'x');
  ignore (take "big line");
  checki "full drain leaves the default allocation" Proto.rbuf_default_capacity
    (Proto.capacity r);
  Unix.close src;
  Unix.close dst

(* An eps outside (0, 1] is one named malformed-request error on every
   path: a query or batch item over v1 and over v2, and the in-process
   entry point.  None of them reaches a protocol.  (Dataset requests are
   checked in test_dataset.) *)
let test_service_refuses_bad_eps () =
  List.iter
    (fun eps ->
      checkb (Printf.sprintf "eps=%g accepted" eps) true (Tfree.Params.check_eps eps = Ok ()))
    [ 1e-9; 0.1; 0.5; 1.0 ];
  let bad = [ 0.0; -0.1; 100.0; 1.0000001; Float.nan; Float.infinity; Float.neg_infinity ] in
  let named eps =
    match Tfree.Params.check_eps eps with
    | Error msg -> msg
    | Ok () -> Alcotest.failf "eps=%g accepted" eps
  in
  let query eps =
    { Service.default_request with family = Service.Free; protocol = Service.Oblivious; n = 300; d = 24.0; eps }
  in
  let good = { Service.default_request with protocol = Service.Exact; n = 60 } in
  List.iter
    (fun eps ->
      match Service.run_request (query eps) with
      | _ -> Alcotest.failf "run_request ran at eps=%g" eps
      | exception Invalid_argument e ->
          Alcotest.(check string) "run_request refuses" ("run_request: " ^ named eps) e)
    bad;
  (* JSON has no NaN or infinity, so a v1 line carries only the finite ones *)
  let over_v1 = List.filter Float.is_finite bad in
  let expected_errors = (2 * List.length over_v1) + (2 * List.length bad) in
  Fixture.with_daemon ~tag:"bad-eps" ~expect_served:2 serve (fun path ->
      List.iter
        (fun (protocol, name, epss) ->
          List.iter
            (fun eps ->
              let what = Printf.sprintf "%s eps=%g" name eps in
              (match Service.client_query ~protocol ~path (query eps) with
              | Ok _ -> Alcotest.failf "%s: query served" what
              | Error msg -> Alcotest.(check string) (what ^ ": query refused by name") (named eps) msg);
              match Service.client_batch ~protocol ~path [ query eps ] with
              | Ok [ Error msg ] -> Alcotest.(check string) (what ^ ": batch item refused by name") (named eps) msg
              | Ok _ -> Alcotest.failf "%s: batch item served" what
              | Error msg -> Alcotest.failf "%s: batch failed outright: %s" what msg)
            epss;
          (* the good item of a mixed batch still runs *)
          match Service.client_batch ~protocol ~path [ query 2.0; good ] with
          | Ok [ Error _; Ok resp ] -> checkb (name ^ ": good item served") true (resp = Service.run_request good)
          | _ -> Alcotest.failf "%s: mixed batch" name)
        [ (Proto.V1, "v1", over_v1); (Proto.V2, "v2", bad) ];
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "every refusal is malformed" (expected_errors + 2)
            (int_at stats [ "errors_by_category"; "malformed" ]);
          checki "no run failure" 0 (int_at stats [ "errors_by_category"; "run_failure" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* A query with fewer than one player is a named malformed request too,
   in process and from a forked daemon over v1 and v2: never a run
   failure from deep inside the partitioner. *)
let test_service_refuses_k_below_one () =
  let named k = Printf.sprintf "k must be at least 1, got %d" k in
  let query k = { Service.default_request with partition = Service.Skewed; k } in
  List.iter
    (fun k ->
      match Service.run_request (query k) with
      | _ -> Alcotest.failf "run_request ran at k=%d" k
      | exception Invalid_argument e ->
          Alcotest.(check string) "run_request refuses" ("run_request: " ^ named k) e)
    [ 0; -3 ];
  Fixture.with_daemon ~tag:"bad-k" ~expect_served:0 serve (fun path ->
      List.iter
        (fun (protocol, name) ->
          match Service.client_query ~protocol ~path (query 0) with
          | Ok _ -> Alcotest.failf "%s: k=0 query served" name
          | Error msg -> Alcotest.(check string) (name ^ ": k=0 refused by name") (named 0) msg)
        [ (Proto.V1, "v1"); (Proto.V2, "v2") ];
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "both refusals are malformed" 2 (int_at stats [ "errors_by_category"; "malformed" ]);
          checki "no run failure" 0 (int_at stats [ "errors_by_category"; "run_failure" ]);
          checki "no cache lookup" 0 (int_at stats [ "cache"; "lookups" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* -------------------------------------------------- version negotiation *)

(* A v2 client against a v1-capped server: the handshake answers with 1,
   the exchange falls back to JSON lines, and every gauge lands on v1. *)
let test_negotiation_v2_client_v1_server () =
  Fixture.with_daemon ~tag:"neg-v2v1" ~expect_served:1 (serve ~max_version:1) (fun path ->
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      (match Service.client_query ~protocol:Proto.V2 ~path req with
      | Ok resp ->
          checkb "v2 client serves over the JSON fallback" true (resp = Service.run_request req)
      | Error msg -> Alcotest.failf "v2 client against v1-capped server failed: %s" msg);
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "served on v1" 1 (int_at stats [ "protocol_versions"; "v1"; "served" ]);
          checki "nothing served on v2" 0 (int_at stats [ "protocol_versions"; "v2"; "served" ]);
          checkb "v1 bytes recorded" true (int_at stats [ "protocol_versions"; "v1"; "bytes" ] > 0);
          checki "no v2 bytes" 0 (int_at stats [ "protocol_versions"; "v2"; "bytes" ]);
          checki "no errors" 0 (int_at stats [ "errors" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* A v1 client against a v2 server: no handshake, plain JSON lines, wire
   compatibility unchanged — and the v1 byte gauge equals the two lines
   (newlines included) exactly. *)
let test_negotiation_v1_client_v2_server () =
  Fixture.with_daemon ~tag:"neg-v1v2" ~expect_served:1 serve (fun path ->
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      let expected = Service.run_request req in
      (match Service.client_query ~protocol:Proto.V1 ~path req with
      | Ok resp -> checkb "v1 client serves against a v2 server" true (resp = expected)
      | Error msg -> Alcotest.failf "v1 client against v2 server failed: %s" msg);
      let framed =
        String.length (Jsonout.to_line (Service.request_to_json req))
        + 1
        + String.length (Jsonout.to_line (Service.response_to_json expected))
        + 1
      in
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "served on v1" 1 (int_at stats [ "protocol_versions"; "v1"; "served" ]);
          checki "v1 byte gauge = the two lines exactly" framed
            (int_at stats [ "protocol_versions"; "v1"; "bytes" ]);
          checki "nothing served on v2" 0 (int_at stats [ "protocol_versions"; "v2"; "served" ]);
          checki "no v2 bytes" 0 (int_at stats [ "protocol_versions"; "v2"; "bytes" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* v2 both sides: binary frames end to end, and the v2 byte gauge equals
   the query frame plus the reply frame exactly — handshake bytes and the
   stats exchange are excluded by design. *)
let test_negotiation_v2_v2_exact_bytes () =
  Fixture.with_daemon ~tag:"neg-v2v2" ~expect_served:1 serve (fun path ->
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      let expected = Service.run_request req in
      (match Service.client_query ~protocol:Proto.V2 ~path req with
      | Ok resp -> checkb "binary reply = local run" true (resp = expected)
      | Error msg -> Alcotest.failf "v2 exchange failed: %s" msg);
      let b = Proto.create_buf () in
      Service.encode_query_frame b req;
      let framed = Proto.frame_len b in
      Service.encode_response_frame b expected;
      let framed = framed + Proto.frame_len b in
      match Service.client_stats ~protocol:Proto.V2 ~path () with
      | Ok stats ->
          checki "served on v2" 1 (int_at stats [ "protocol_versions"; "v2"; "served" ]);
          checki "v2 byte gauge = the two frames exactly" framed
            (int_at stats [ "protocol_versions"; "v2"; "bytes" ]);
          checki "nothing served on v1" 0 (int_at stats [ "protocol_versions"; "v1"; "served" ]);
          checki "no v1 bytes" 0 (int_at stats [ "protocol_versions"; "v1"; "bytes" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* A garbage version byte (magic + version 0): the server must answer the
   refusal hello (magic, 0), tally one malformed error, and keep the
   connection usable as v1 — typed error, never a closed or hung socket. *)
let test_negotiation_garbage_version_byte () =
  Fixture.with_daemon ~tag:"neg-garbage" ~expect_served:1 serve (fun path ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      let hello = Printf.sprintf "%c%c" Proto.magic '\000' in
      ignore (Unix.write_substring sock hello 0 2);
      let reply = Bytes.create 2 in
      let rec read_exact off =
        if off < 2 then
          match Unix.read sock reply off (2 - off) with
          | 0 -> Alcotest.fail "server closed the connection on a refused handshake"
          | n -> read_exact (off + n)
      in
      read_exact 0;
      checkb "refusal hello is (magic, 0)" true
        (Bytes.get reply 0 = Proto.magic && Bytes.get reply 1 = '\000');
      (* the same connection must still serve, speaking v1 *)
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      let line = Jsonout.to_line (Service.request_to_json req) ^ "\n" in
      ignore (Unix.write_substring sock line 0 (String.length line));
      let inp = Unix.in_channel_of_descr sock in
      (match In_channel.input_line inp with
      | Some reply_line -> (
          match Result.bind (Jsonout.parse reply_line) Service.response_of_json with
          | Ok resp ->
              checkb "query after refused handshake reconciles" true
                (Wire.reconciles resp.Service.wire)
          | Error msg -> Alcotest.failf "connection unusable after refused handshake: %s" msg)
      | None -> Alcotest.fail "no reply after the refused handshake");
      Unix.close sock;
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "refused handshake = one malformed error" 1
            (int_at stats [ "errors_by_category"; "malformed" ]);
          checki "one error total" 1 (int_at stats [ "errors" ]);
          checki "the query served as v1" 1 (int_at stats [ "protocol_versions"; "v1"; "served" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* The binary batch reply decodes to the same per-item results as its JSON
   twin: responses equal record-for-record, failures failing the same
   items (a semantically bad request mixed in fails per item in both). *)
let test_binary_batch_matches_json () =
  let reqs =
    List.init 3 (fun i ->
        { Service.default_request with protocol = Service.Exact; n = 60; seed = i + 1 })
    @ [ { Service.default_request with protocol = Service.Exact; n = -5 } ]
  in
  (* the bad item serves nothing; 3 good items x both protocol passes *)
  Fixture.with_daemon ~tag:"batch-binary" ~expect_served:6 serve (fun path ->
      let run pref =
        match Service.client_batch ~protocol:pref ~path reqs with
        | Ok items -> items
        | Error msg -> Alcotest.failf "batch over %s failed: %s" (Proto.pref_to_string pref) msg
      in
      let v1 = run Proto.V1 and v2 = run Proto.V2 in
      checki "same item count" (List.length v1) (List.length v2);
      List.iter2
        (fun a b ->
          match (a, b) with
          | Ok ra, Ok rb -> checkb "binary batch item = JSON batch item" true (ra = rb)
          | Error _, Error _ -> ()
          | Ok _, Error msg -> Alcotest.failf "item ok over JSON, failed over binary: %s" msg
          | Error msg, Ok _ -> Alcotest.failf "item ok over binary, failed over JSON: %s" msg)
        v1 v2;
      checki "the bad item failed in both" 2
        (List.length (List.filter Result.is_error v1)
        + List.length (List.filter Result.is_error v2)))

(* Chaos over the version matrix: generated request-level fault schedules
   x {v1, v2} x {pipe, socketpair}.  Every served reply must carry the
   fault-free verdict (and match a local run of the same faulted request
   exactly); every abort must be a typed error; and which requests serve
   is deterministic, so the forked server's served count is asserted
   exactly.  Never a wrong verdict, never a hang. *)
let test_chaos_versions_matrix () =
  let schedules =
    QCheck.Gen.generate
      ~rand:(Random.State.make [| 20260809 |])
      ~n:5
      (Tfree_proptest.Fault_gen.gen ~max_ops:30 ~max_events:4 ())
  in
  let base = { Service.default_request with protocol = Service.Exact; n = 60 } in
  let clean = Service.run_request base in
  let cases =
    List.concat_map
      (fun sched ->
        List.map
          (fun transport -> { base with Service.fault = Fault.to_string sched; transport })
          [ Wire.Pipe; Wire.Socketpair ])
      schedules
  in
  (* the local, deterministic outcome of each faulted request *)
  let outcomes =
    List.map
      (fun req ->
        match Service.run_request req with
        | resp -> Some resp
        | exception Wire_error.Wire_error _ -> None)
      cases
  in
  let served_per_pass = List.length (List.filter Option.is_some outcomes) in
  Fixture.with_daemon ~tag:"chaos-versions" ~expect_served:(2 * served_per_pass) serve (fun path ->
      List.iter
        (fun pref ->
          List.iter2
            (fun req outcome ->
              match Service.client_query ~protocol:pref ~path req with
              | Ok resp -> (
                  checkb "served verdict = fault-free verdict" true
                    (resp.Service.verdict = clean.Service.verdict);
                  match outcome with
                  | Some local -> checkb "served reply = local faulted run" true (resp = local)
                  | None -> Alcotest.fail "server served a request that aborts locally")
              | Error msg -> (
                  match outcome with
                  | None -> checkb "typed error carries a message" true (msg <> "")
                  | Some _ ->
                      Alcotest.failf "server failed a request that serves locally: %s" msg))
            cases outcomes)
        [ Proto.V1; Proto.V2 ])

(* ------------------------------------------- handle_line categorization *)

let test_handle_line_categories () =
  let m = Metrics.create () in
  let stop = ref false in
  let fire line = fst (Service.handle_line ~metrics:m ~stop line) in
  let is_error reply cat =
    match Jsonout.parse reply with
    | Ok j ->
        Jsonout.member "ok" j = Some (Jsonout.Bool false)
        && Jsonout.member "category" j = Some (Jsonout.Str cat)
    | Error _ -> false
  in
  checkb "bad JSON -> malformed" true (is_error (fire "{nope") "malformed");
  checkb "unknown command -> malformed" true (is_error (fire "{\"cmd\": \"dance\"}") "malformed");
  checkb "unknown op -> unknown_op" true (is_error (fire "{\"op\": \"levitate\"}") "unknown_op");
  checkb "failing run -> run_failure" true (is_error (fire "{\"n\": -5}") "run_failure");
  checkb "injected wire fault -> transport" true
    (is_error (fire "{\"fault\": \"0:drop\", \"n\": 60, \"protocol\": \"exact\"}") "transport");
  checki "malformed count" 2 (Metrics.errors_in m Metrics.Malformed);
  checki "unknown_op count" 1 (Metrics.errors_in m Metrics.Unknown_op);
  checki "run_failure count" 1 (Metrics.errors_in m Metrics.Run_failure);
  checki "transport count" 1 (Metrics.errors_in m Metrics.Transport);
  checki "no query served" 0 (Metrics.count m Metrics.Queries_served);
  checkb "shutdown untouched" true (not !stop);
  (* a line or batch item that is not a JSON object is malformed, never a
     default query *)
  let m = Metrics.create () in
  List.iter
    (fun line ->
      let reply, served = Service.handle_line ~metrics:m ~stop line in
      checkb (line ^ " -> malformed") true (is_error reply "malformed");
      checki (line ^ " serves nothing") 0 served)
    [ "5"; "[1,2]"; "\"x\"" ];
  let reply, served = Service.handle_line ~metrics:m ~stop "{\"op\":\"batch\",\"requests\":[0,true]}" in
  checki "non-object batch items serve nothing" 0 served;
  (match Result.map (Jsonout.member "results") (Jsonout.parse reply) with
  | Ok (Some (Jsonout.List items)) ->
      checkb "each non-object item is its own malformed error" true
        (List.length items = 2
        && List.for_all
             (fun item -> Jsonout.member "category" item = Some (Jsonout.Str "malformed"))
             items)
  | _ -> Alcotest.fail "batch reply without results");
  checki "non-object malformed count" 5 (Metrics.errors_in m Metrics.Malformed);
  checki "non-objects serve no query" 0 (Metrics.count m Metrics.Queries_served)

(* {"op": "health"} over the v1 line protocol: a cheap scalar liveness
   payload — no verdict table, no histograms — that does not count as a
   served query. *)
let test_handle_line_health () =
  let m = Metrics.create () in
  let stop = ref false in
  let reply, _ = Service.handle_line ~metrics:m ~stop "{\"op\": \"health\"}" in
  let j =
    match Jsonout.parse reply with
    | Ok j -> j
    | Error msg -> Alcotest.failf "health reply does not parse: %s" msg
  in
  checkb "ok" true (Jsonout.member "ok" j = Some (Jsonout.Bool true));
  let h =
    match Jsonout.member "health" j with
    | Some h -> h
    | None -> Alcotest.fail "reply missing health member"
  in
  List.iter
    (fun k ->
      checkb (k ^ " present and numeric") true
        (match Jsonout.member k h with Some (Jsonout.Num _) -> true | _ -> false))
    [ "uptime_s"; "queries_served"; "errors"; "in_flight"; "accepted"; "shed" ];
  checkb "cache occupancy reported" true
    (match Jsonout.member "cache" h with
    | Some (Jsonout.Obj _) -> true
    | _ -> false);
  checkb "no verdict table walk" true (Jsonout.member "verdicts" h = None);
  checkb "no histograms" true (Jsonout.member "latency_us" h = None);
  checki "health is not a served query" 0 (Metrics.count m Metrics.Queries_served);
  checki "health is not an error" 0 (Metrics.errors m);
  checkb "shutdown untouched" true (not !stop)

(* -------------------------------------------------------- request algebra *)

(* The query body an encoder writes after its tag byte. *)
let query_body req =
  let b = Proto.create_buf () in
  Service.encode_query_frame b req;
  let body = Proto.frame_body_len b in
  let varint = Proto.frame_len b - body - 2 in
  Bytes.sub_string (Proto.storage b) (Proto.frame_off b + varint + 1) (body - 1)

(* Point a fresh cursor at the body of the frame sealed in [b]. *)
let cursor_of_frame b =
  let cur = Proto.cursor () in
  let off = Proto.frame_off b in
  ignore (Proto.try_frame (Proto.storage b) ~pos:off ~limit:(off + Proto.frame_len b) cur);
  cur

(* v2 enum codes are positions in the Service tables; pin every one so
   reordering a table cannot silently change the wire. *)
let test_enum_wire_codes () =
  let codes req =
    let b = Proto.create_buf () in
    Service.encode_query_frame b req;
    let cur = cursor_of_frame b in
    checki "query tag" Service.tag_query (Proto.get_u8 cur);
    let family = Proto.get_u8 cur in
    let partition = Proto.get_u8 cur in
    let protocol = Proto.get_u8 cur in
    let transport = Proto.get_u8 cur in
    checkb "the frame decodes back" true
      (Service.decode_op (cursor_of_frame b) = Ok (Service.Op_query req));
    (family, partition, protocol, transport)
  in
  let base = Service.default_request in
  List.iteri
    (fun code family ->
      let c, _, _, _ = codes { base with family } in
      checki (Service.family_to_string family) code c)
    Service.[ Far; Free; Hub; Mu; Gnp; Behrend; Diluted ];
  List.iteri
    (fun code partition ->
      let _, c, _, _ = codes { base with partition } in
      checki (Service.partition_to_string partition) code c)
    Service.[ Disjoint; Dup; Replicate; Skewed; Hash ];
  List.iteri
    (fun code protocol ->
      let _, _, c, _ = codes { base with protocol } in
      checki (Tfree.Tester.protocol_to_string protocol) code c)
    Service.[ Unrestricted; Sim; Oblivious; Exact ];
  List.iteri
    (fun code transport ->
      let _, _, _, c = codes { base with transport } in
      checki (Wire.kind_to_string transport) code c)
    [ Wire.Pipe; Wire.Socketpair ]

(* A v2 batch frame whose count promises three items but holds two fails
   whole before any item runs: one malformed error, nothing served, no
   cache lookup, no batch tallied. *)
let test_truncated_batch_frame_runs_nothing () =
  Fixture.with_daemon ~tag:"trunc-batch" ~expect_served:0 serve (fun path ->
      let req = { Service.default_request with protocol = Service.Exact; n = 60 } in
      let b = Proto.create_buf () in
      Proto.begin_frame b;
      Proto.put_u8 b Service.tag_batch;
      Proto.put_varint b 3;
      String.iter
        (fun c -> Proto.put_u8 b (Char.code c))
        (query_body req ^ query_body { req with seed = 2 });
      Proto.end_frame b;
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.0;
      ignore (Unix.write_substring sock (Proto.hello 2) 0 2);
      let hello = Bytes.create 2 in
      checki "hello answered" 2 (Unix.read sock hello 0 2);
      checkb "v2 negotiated" true (Bytes.get hello 1 = '\002');
      ignore (Unix.write sock (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b));
      let r = Proto.reader () in
      let rec read_frame () =
        match Proto.next r ~version:2 with
        | Proto.Frame _ -> ()
        | _ -> (
            match Proto.fill r sock with
            | Proto.Eof -> Alcotest.fail "server closed instead of replying"
            | Proto.Again -> Alcotest.fail "no reply within 10 s"
            | Proto.Data -> read_frame ())
      in
      read_frame ();
      (match Service.decode_reply (Proto.body r) with
      | Ok (Service.R_error (Metrics.Malformed, _)) -> ()
      | _ -> Alcotest.fail "expected one malformed error frame");
      Unix.close sock;
      match Service.client_stats ~path () with
      | Ok stats ->
          checki "nothing served" 0 (int_at stats [ "queries_served" ]);
          checki "exactly one error" 1 (int_at stats [ "errors" ]);
          checki "and it is malformed" 1 (int_at stats [ "errors_by_category"; "malformed" ]);
          checki "nothing served on v2" 0 (int_at stats [ "protocol_versions"; "v2"; "served" ]);
          checki "no cache lookup" 0 (int_at stats [ "cache"; "lookups" ]);
          checki "no batch tallied" 0 (int_at stats [ "batch"; "batches" ])
      | Error msg -> Alcotest.failf "stats query failed: %s" msg)

(* Generators for the op and reply algebra.  Integers and floats stay
   where JSON numbers are exact (|x| < 2^53, finite). *)
module Algebra_gen = struct
  open QCheck.Gen

  let text = string_size ~gen:(char_range ' ' '~') (0 -- 12)
  let name = string_size ~gen:(char_range ' ' '~') (1 -- 12)
  let fault = oneofl [ ""; "0:drop"; "2:drop,5:corrupt@13"; "seed=3,rate=0.2,ops=10" ]
  let num = float_range (-1e6) 1e6
  let int = int_range (-1_000_000_000) 1_000_000_000
  let enum table = map snd (oneofl table)

  let request =
    let* family = enum Service.families and* partition = enum Service.partitions
    and* protocol = enum Tfree.Tester.protocols and* transport = enum Wire.kinds in
    let* n = int and* d = num and* k = int and* eps = num and* seed = int and* fault = fault in
    return { Service.family; partition; protocol; n; d; k; eps; seed; transport; fault }

  (* a dataset query's generator fields are never sent, so they decode
     to the defaults *)
  let dataset_op =
    let* name = name and* req = request in
    let { Service.family; n; d; _ } = Service.default_request in
    return (Service.Op_dataset { name; req = { req with family; n; d } })

  let op =
    oneof
      [
        map (fun r -> Service.Op_query r) request;
        dataset_op;
        map (fun rs -> Service.Op_batch (List.map Result.ok rs)) (list_size (0 -- 4) request);
        oneofl [ Service.Op_stats; Service.Op_health; Service.Op_shutdown ];
      ]

  let response =
    let* verdict =
      oneof
        [
          return Tfree.Tester.Triangle_free;
          map3 (fun a b c -> Tfree.Tester.Triangle (a, b, c)) int int int;
        ]
    in
    let* bits = int and* rounds = int and* max_message = int and* wire_bytes = int in
    let* frames = int and* payload_bits = int and* framing_overhead_bits = int in
    let* accounted_bits = int and* ratio = num in
    return
      {
        Service.verdict;
        bits;
        rounds;
        max_message;
        wire =
          { Wire.wire_bytes; frames; payload_bits; framing_overhead_bits; accounted_bits; ratio };
      }

  let error = pair (oneofl Metrics.all_categories) text

  let json =
    map
      (fun kvs -> Jsonout.Obj kvs)
      (list_size (0 -- 4)
         (pair name
            (oneof
               [ map (fun i -> Jsonout.Num (float_of_int i)) int; map (fun s -> Jsonout.Str s) text ])))

  let reply =
    oneof
      [
        map (fun r -> Service.R_response r) response;
        map (fun e -> Service.R_error e) error;
        map
          (fun items -> Service.R_batch items)
          (list_size (0 -- 4) (oneof [ map Result.ok response; map Result.error error ]));
        map (fun j -> Service.R_stats j) json;
        map (fun j -> Service.R_health j) json;
        return Service.R_bye;
      ]

  (* v1 replies are read against the op that was sent *)
  let op_for = function
    | Service.R_batch items ->
        Service.Op_batch (List.map (fun _ -> Ok Service.default_request) items)
    | Service.R_stats _ -> Service.Op_stats
    | Service.R_health _ -> Service.Op_health
    | Service.R_bye -> Service.Op_shutdown
    | Service.R_response _ | Service.R_error _ -> Service.Op_query Service.default_request

  (* a valid encoding, bit-flipped, truncated or spliced with another *)
  let mutate valid =
    let* s = valid and* other = valid in
    let n = String.length s in
    oneof
      [
        (let* i = int_bound (max 0 ((8 * n) - 1)) in
         return
           (if n = 0 then s
            else String.mapi (fun j c -> if j = i / 8 then Char.chr (Char.code c lxor (1 lsl (i mod 8))) else c) s));
        map (fun k -> String.sub s 0 k) (int_bound n);
        (let* k = int_bound n and* k' = int_bound (String.length other) in
         return (String.sub s 0 k ^ String.sub other k' (String.length other - k')));
      ]
end

let frame_body fill =
  let b = Proto.create_buf () in
  fill b;
  let body = Proto.frame_body_len b in
  let varint = Proto.frame_len b - body - 2 in
  Bytes.sub_string (Proto.storage b) (Proto.frame_off b + varint) body

let cursor_over s =
  let cur = Proto.cursor () in
  Proto.set_cursor cur (Bytes.of_string s) ~pos:0 ~limit:(String.length s);
  cur

let print_op op = Jsonout.to_line (Service.op_to_json op)

let algebra_props =
  let op = QCheck.make ~print:print_op Algebra_gen.op in
  let reply = QCheck.make ~print:(fun r -> Jsonout.to_line (Service.reply_to_json r)) Algebra_gen.reply in
  let line_of_op op = Jsonout.to_line (Service.op_to_json op) in
  let frame_of_op op = frame_body (fun b -> Service.encode_op_frame b op) in
  let line_of_reply r = Jsonout.to_line (Service.reply_to_json r) in
  let frame_of_reply r = frame_body (fun b -> Service.encode_reply_frame b r) in
  let arbitrary_or_mutated valid =
    QCheck.make ~print:String.escaped
      QCheck.Gen.(oneof [ string_size (0 -- 64); Algebra_gen.mutate valid ])
  in
  let never_raises f s = match f s with _ -> true | exception _ -> false in
  [
    QCheck.Test.make ~name:"v1: decode (encode op) = op" ~count:300 op (fun op ->
        Service.op_of_line (line_of_op op) = Ok op);
    QCheck.Test.make ~name:"v2: decode (encode op) = op" ~count:300 op (fun op ->
        Service.decode_op (cursor_over (frame_of_op op)) = Ok op);
    QCheck.Test.make ~name:"v1: decode (encode reply) = reply" ~count:300 reply (fun r ->
        Result.bind
          (Result.map_error Fun.id (Jsonout.parse (line_of_reply r)))
          (Service.reply_of_json ~op:(Algebra_gen.op_for r))
        = Ok r);
    QCheck.Test.make ~name:"v2: decode (encode reply) = reply" ~count:300 reply (fun r ->
        Service.decode_reply (cursor_over (frame_of_reply r)) = Ok r);
    QCheck.Test.make ~name:"v1 op decoder never raises" ~count:500
      (arbitrary_or_mutated QCheck.Gen.(map line_of_op Algebra_gen.op))
      (never_raises Service.op_of_line);
    QCheck.Test.make ~name:"v2 op decoder never raises" ~count:500
      (arbitrary_or_mutated QCheck.Gen.(map frame_of_op Algebra_gen.op))
      (never_raises (fun s -> Service.decode_op (cursor_over s)));
    QCheck.Test.make ~name:"v1 reply decoder never raises" ~count:500
      (arbitrary_or_mutated QCheck.Gen.(map line_of_reply Algebra_gen.reply))
      (never_raises (fun s ->
           match Jsonout.parse s with
           | Error _ -> ()
           | Ok j ->
               List.iter
                 (fun op -> ignore (Service.reply_of_json ~op j))
                 [
                   Service.Op_query Service.default_request;
                   Service.Op_batch [];
                   Service.Op_stats;
                   Service.Op_health;
                   Service.Op_shutdown;
                 ]));
    QCheck.Test.make ~name:"v2 reply decoder never raises" ~count:500
      (arbitrary_or_mutated QCheck.Gen.(map frame_of_reply Algebra_gen.reply))
      (never_raises (fun s -> Service.decode_reply (cursor_over s)));
  ]

(* ---------------------------------------------------------------- metrics *)

let latency_field stats k =
  match Jsonout.member "latency_us" stats with
  | Some lat -> (
      match Jsonout.member k lat with
      | Some v -> v
      | None -> Alcotest.failf "latency_us missing %S" k)
  | None -> Alcotest.fail "stats missing latency_us"

let test_metrics_quantiles_empty () =
  let j = Metrics.to_json (Metrics.create ()) in
  List.iter
    (fun k -> checkb (k ^ " is null on an empty registry") true (latency_field j k = Jsonout.Null))
    [ "mean"; "p50"; "p90"; "p99" ];
  checkb "count 0" true (latency_field j "count" = Jsonout.Num 0.0);
  checki "no errors" 0 (int_at j [ "errors" ])

let test_metrics_quantiles_single () =
  let m = Metrics.create () in
  Metrics.record_query m ~protocol:"exact" ~found_triangle:false ~wire_bytes:10 ~accounted_bits:42
    ~latency_us:123.0;
  let j = Metrics.to_json m in
  List.iter
    (fun k ->
      checkb (k ^ " is the sample on a single-sample registry") true
        (latency_field j k = Jsonout.Num 123.0))
    [ "mean"; "p50"; "p90"; "p99" ];
  checkb "count 1" true (latency_field j "count" = Jsonout.Num 1.0)

let test_metrics_categories () =
  let m = Metrics.create () in
  Metrics.record_error m ~category:Metrics.Malformed;
  Metrics.record_error m ~category:Metrics.Transport;
  Metrics.record_error m ~category:Metrics.Transport;
  Metrics.incr m Metrics.Retries;
  Metrics.incr m Metrics.Injected;
  checki "total is the category sum" 3 (Metrics.errors m);
  checki "malformed" 1 (Metrics.errors_in m Metrics.Malformed);
  checki "transport" 2 (Metrics.errors_in m Metrics.Transport);
  checki "unknown_op untouched" 0 (Metrics.errors_in m Metrics.Unknown_op);
  checki "retries" 1 (Metrics.count m Metrics.Retries);
  checki "injected" 1 (Metrics.count m Metrics.Injected);
  List.iter
    (fun c ->
      checkb
        (Metrics.category_name c ^ " name round-trips")
        true
        (Metrics.category_of_name (Metrics.category_name c) = Some c))
    Metrics.all_categories;
  checkb "unknown category name maps to None" true (Metrics.category_of_name "bogus" = None);
  checkb "empty category name maps to None" true (Metrics.category_of_name "" = None)

(* --------------------------------------------------------- fleet shard *)

(* Cheap deterministic request (exact protocol over a 60-vertex
   instance), keyed only by its seed. *)
let shard_req seed = { Service.default_request with protocol = Service.Exact; n = 60; seed }

(* The first [count] seeds at or after [from] whose requests land on
   [shard] of a [workers]-fleet. *)
let seeds_on_shard ~workers ~shard ~count from =
  let rec go s acc k =
    if k = 0 then List.rev acc
    else if s > from + 100_000 then
      Alcotest.failf "no %d seeds on shard %d/%d near %d" count shard workers from
    else if Service.shard_of_request ~workers (shard_req s) = shard then go (s + 1) (s :: acc) (k - 1)
    else go (s + 1) acc k
  in
  go from [] count

let seed_on_shard ~workers ~shard from =
  match seeds_on_shard ~workers ~shard ~count:1 from with
  | [ s ] -> s
  | _ -> assert false

(* The shard hash must be stable across processes, builds and runs — a
   fleet parent and a shard-routing client hash independently, and a
   deployed fleet's caches survive upgrades only if the function never
   moves.  Pinned reference values (FNV-1a over the documented canonical
   renderings) catch any accidental change to the constants or the
   rendering, on both key arms. *)
let test_shard_pinned_values () =
  checki "generated arm" 343342335
    (Service.shard_key (Service.key_of_request Service.default_request));
  checki "dataset arm" 1054919659
    (Service.shard_key
       (Service.key_of_dataset_request ~name:"web" Service.default_request))

(* Near-uniformity over a seed sweep, both key arms: every shard of a
   4-fleet gets within a factor 2 of its fair share. *)
let test_shard_near_uniform () =
  let workers = 4 and total = 2000 in
  let spread tag shard_of =
    let counts = Array.make workers 0 in
    for s = 0 to total - 1 do
      let sh = shard_of s in
      counts.(sh) <- counts.(sh) + 1
    done;
    Array.iteri
      (fun i c ->
        checkb
          (Printf.sprintf "%s shard %d near-uniform (%d of %d)" tag i c total)
          true
          (c >= total / (2 * workers) && c <= 2 * total / workers))
      counts
  in
  spread "generated" (fun s -> Service.shard_of_request ~workers (shard_req s));
  spread "dataset" (fun s ->
      Service.shard_of_dataset_request ~workers ~name:"web" { Service.default_request with seed = s })

let arb_instance_key =
  let open QCheck in
  let gen_family =
    Gen.oneofl
      [ Service.Far; Service.Free; Service.Hub; Service.Mu; Service.Gnp; Service.Behrend;
        Service.Diluted ]
  in
  let gen_part =
    Gen.oneofl [ Service.Disjoint; Service.Dup; Service.Replicate; Service.Skewed; Service.Hash ]
  in
  let gen_name =
    Gen.map
      (fun l -> String.init (1 + (List.length l mod 10)) (fun i ->
           Char.chr (Char.code 'a' + (List.nth l (i mod List.length l) mod 26))))
      (Gen.list_size (Gen.int_range 1 10) (Gen.int_range 0 25))
  in
  let gen_key =
    Gen.(bool >>= fun dataset ->
        if dataset then
          Gen.map3
            (fun key_name key_partition (key_k, key_seed) ->
              Service.Key_dataset { key_name; key_partition; key_k; key_seed })
            gen_name gen_part
            (Gen.pair (Gen.int_range 2 12) (Gen.int_range 0 1_000_000))
        else
          Gen.map3
            (fun (key_family, key_partition) (key_n, key_seed) (di, ei, key_k) ->
              Service.Key_generated
                {
                  key_family;
                  key_partition;
                  key_n;
                  key_d = float_of_int di /. 8.0;
                  key_k;
                  key_eps = float_of_int ei /. 64.0;
                  key_seed;
                })
            (Gen.pair gen_family gen_part)
            (Gen.pair (Gen.int_range 1 100_000) (Gen.int_range 0 1_000_000))
            (Gen.triple (Gen.int_range 1 400) (Gen.int_range 1 63) (Gen.int_range 2 12)))
  in
  make gen_key

let shard_qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"shard_key is deterministic and nonnegative" ~count:300 arb_instance_key
      (fun key -> Service.shard_key key >= 0 && Service.shard_key key = Service.shard_key key);
    Test.make ~name:"shard_of_key lands in range for every fleet size" ~count:300 arb_instance_key
      (fun key ->
        List.for_all
          (fun workers ->
            let s = Service.shard_of_key ~workers key in
            s >= 0
            && s < max workers 1
            && (workers > 1 || s = 0)
            && (workers <= 1 || s = Service.shard_key key mod workers))
          [ 1; 2; 3; 4; 7; 8; 16 ]);
  ]

(* ------------------------------------------- fleet control channel *)

(* [ctl_read] on whatever a peer sends: the bytes go into one end of a
   socketpair, that end closes, and the reader drains the other end up to
   its first [`Eof].  A reference parse of the same bytes says what each
   read must return: a whole message while one is there, then [`Eof] at
   the first short or over-long (past [ctl_max_payload]) message. *)
let ctl_reference data =
  let len = String.length data in
  let rec go pos acc =
    if pos + 5 > len then List.rev acc
    else
      let n = Int32.to_int (String.get_int32_le data (pos + 1)) land 0xffff_ffff in
      if n > Service.ctl_max_payload || pos + 5 + n > len then List.rev acc
      else go (pos + 5 + n) (`Msg (data.[pos], String.sub data (pos + 5) n) :: acc)
  in
  go 0 []

let with_ctl_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> f a b)

let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* Raw bytes, or up to four messages: whole ones, and headers whose length
   field claims 0, a few bytes, exactly the cap, one past it, or anything
   up to 2^32 - 1, each followed by up to 64 bytes. *)
let gen_ctl_bytes =
  let open QCheck.Gen in
  let le32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
  let claim =
    oneof
      [
        int_range 0 64;
        oneofl [ Service.ctl_max_payload; Service.ctl_max_payload + 1; 0xffff_ffff ];
        map (fun x -> x land 0xffff_ffff) int;
      ]
  in
  let header tag n = String.make 1 tag ^ le32 n in
  let claimed = map3 (fun tag n body -> header tag n ^ body) char claim (string_size (0 -- 64)) in
  let whole = map2 (fun tag body -> header tag (String.length body) ^ body) char (string_size (0 -- 64)) in
  oneof
    [ string_size (0 -- 64); map (String.concat "") (list_size (1 -- 4) (oneof [ claimed; whole ])) ]

let ctl_props =
  let open QCheck in
  [
    Test.make ~name:"ctl_read never raises, never allocates past the cap" ~count:300
      (make ~print:String.escaped gen_ctl_bytes) (fun data ->
        with_ctl_pair (fun a b ->
            ignore (Unix.write_substring a data 0 (String.length data));
            Unix.close a;
            let expected = ctl_reference data in
            let rec drain acc =
              let before = allocated_bytes () in
              let r = Service.ctl_read b in
              let used = allocated_bytes () -. before in
              if used > float_of_int (Service.ctl_max_payload + 4096) then
                Test.fail_reportf "one ctl_read allocated %.0f bytes" used;
              match r with `Eof -> List.rev acc | `Msg _ as m -> drain (m :: acc)
            in
            drain [] = expected));
    Test.make ~name:"ctl_write then ctl_read round-trips" ~count:300
      (make
         ~print:(fun msgs -> String.concat "; " (List.map (fun (t, p) -> Printf.sprintf "%C:%S" t p) msgs))
         Gen.(list_size (1 -- 4) (pair char (string_size (0 -- 4096)))))
      (fun msgs ->
        with_ctl_pair (fun a b ->
            List.iter (fun (tag, payload) -> Service.ctl_write a tag payload) msgs;
            List.for_all (fun (tag, payload) -> Service.ctl_read b = `Msg (tag, payload)) msgs));
  ]

(* ------------------------------------- fleet merge = single process *)

(* One fixed query stream, routed per-shard exactly as a fleet routes it:
   plain lines by their request's shard, batch lines grouped per shard
   (the load generator's grouping), plus a malformed line and an unknown
   op to exercise the error counters.  The single-process reference runs
   the very same lines through one registry. *)
let fleet_stream ~workers =
  let plain = List.init 12 (fun i -> shard_req (i mod 4)) in
  let plain_lines =
    List.map
      (fun r ->
        (Service.shard_of_request ~workers r, Jsonout.to_line (Service.request_to_json r)))
      plain
  in
  let batch = List.init 4 (fun i -> shard_req (20 + i)) in
  let by_shard = Hashtbl.create 4 in
  List.iter
    (fun r ->
      let sh = Service.shard_of_request ~workers r in
      Hashtbl.replace by_shard sh (r :: (try Hashtbl.find by_shard sh with Not_found -> [])))
    batch;
  let batch_lines =
    Hashtbl.fold
      (fun sh rs acc ->
        (sh, Jsonout.to_line (Service.batch_request_to_json (List.rev rs))) :: acc)
      by_shard []
    |> List.sort compare
  in
  plain_lines @ batch_lines @ [ (0, "{nope"); (1 mod workers, "{\"op\": \"levitate\"}") ]

let run_lines ~metrics ~cache lines =
  let stop = ref false in
  List.iter (fun line -> ignore (Service.handle_line ~cache ~metrics ~stop line)) lines

(* Per-worker registries of a sharded run, serialized through the ctl
   codec exactly as the fleet parent receives them (computed once). *)
let fleet_shard_snapshots =
  lazy
    (let workers = 3 in
     let stream = fleet_stream ~workers in
     let shards =
       Array.init workers (fun _ -> (Metrics.create (), Service.create_cache ~capacity:16 ()))
     in
     List.iter
       (fun (sh, line) ->
         let metrics, cache = shards.(sh) in
         run_lines ~metrics ~cache [ line ])
       stream;
     (stream, Array.map (fun (m, _) -> Metrics.to_wire m) shards))

let merge_snapshots ~order snapshots =
  let acc = Metrics.create ~started_at:0.0 () in
  Array.iter
    (fun i ->
      match Metrics.of_wire snapshots.(i) with
      | Ok m -> Metrics.merge acc m
      | Error e -> Alcotest.failf "worker snapshot does not round-trip: %s" e)
    order;
  acc

(* The fleet invariant behind {"op": "stats"}: per-worker registries,
   shipped over the ctl codec and merged, are indistinguishable from one
   single-process registry that served the same stream. *)
let test_fleet_merge_matches_single () =
  let stream, snapshots = Lazy.force fleet_shard_snapshots in
  let single = Metrics.create () in
  run_lines ~metrics:single ~cache:(Service.create_cache ~capacity:16 ()) (List.map snd stream);
  let acc = merge_snapshots ~order:(Array.init (Array.length snapshots) Fun.id) snapshots in
  (* a distinct key lives on exactly one shard, so sharded caches hit and
     miss exactly as the single cache does *)
  List.iter
    (fun (c, name) -> checki name (Metrics.count single c) (Metrics.count acc c))
    Metrics.counters;
  checkb "stream served something" true (Metrics.count acc Metrics.Queries_served > 0);
  checki "errors" (Metrics.errors single) (Metrics.errors acc);
  List.iter
    (fun c ->
      checki
        ("errors in " ^ Metrics.category_name c)
        (Metrics.errors_in single c) (Metrics.errors_in acc c))
    Metrics.all_categories;
  checki "v1 served gauge" (Metrics.version_served single 1) (Metrics.version_served acc 1);
  List.iter
    (fun k ->
      Alcotest.(check string) k
        (Jsonout.to_line (Option.get (Jsonout.member k (Metrics.to_json single))))
        (Jsonout.to_line (Option.get (Jsonout.member k (Metrics.to_json acc)))))
    [ "protocol_versions"; "verdicts"; "datasets" ];
  checki "latency samples"
    (int_at (Metrics.to_json single) [ "latency_us"; "count" ])
    (int_at (Metrics.to_json acc) [ "latency_us"; "count" ])

let fleet_merge_order_prop =
  QCheck.Test.make ~name:"fleet merge is order-independent" ~count:50 QCheck.(int_bound 1_000_000)
    (fun salt ->
      let _, snapshots = Lazy.force fleet_shard_snapshots in
      let workers = Array.length snapshots in
      let order = Array.init workers Fun.id in
      let rng = Rng.create (salt + 1) in
      for i = workers - 1 downto 1 do
        let j = Rng.int rng (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      let reference = merge_snapshots ~order:(Array.init workers Fun.id) snapshots in
      let shuffled = merge_snapshots ~order snapshots in
      (* to_wire is a canonical rendering (sorted tables, exact histogram
         encodings), so byte equality is registry equality *)
      Metrics.to_wire shuffled = Metrics.to_wire reference)

(* ------------------------------------------------- fleet soak (forked) *)

module Snapshot = Tfree_dataset.Snapshot
module Dsreg = Tfree_dataset.Registry

(* A temp dataset registry holding one snapshot graph named "soak". *)
let with_fleet_registry f =
  let dir = Filename.temp_file "tfree_fleet_ds" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let rng = Rng.create 42 in
      let g = Gen.gnp rng ~n:60 ~p:0.1 in
      Snapshot.save g (Filename.concat dir "soak.tfs");
      let reg = Dsreg.create ~dir () in
      Dsreg.add reg
        {
          Dsreg.name = "soak";
          path = "soak.tfs";
          format = Dsreg.Snapshot;
          n = Graph.n g;
          m = Graph.m g;
          gen = None;
        };
      f reg)

let workers_member stats =
  match Jsonout.member "workers" stats with
  | Some w -> w
  | None -> Alcotest.fail "stats missing the fleet workers object"

let fleet_entries stats =
  match Option.bind (Jsonout.member "fleet" (workers_member stats)) Jsonout.to_list with
  | Some l -> l
  | None -> Alcotest.fail "workers object missing the fleet array"

(* Part A of the soak: a 2-worker fleet under chaos on worker 0, driven
   by sequential faulted queries, three concurrent client processes
   (v1, v2 and a batch) on worker 1's shard, a dataset query and a
   public-socket query.  Every verdict must equal the fault-free local
   run, and the fleet-wide stats must reconcile exactly: served =
   clean queries + faulted worker-0 attempts, two injected faults, zero
   errors, per-worker served gauges summing to the total — over v1 and
   v2 stats alike. *)
let test_fleet_chaos_reconciles () =
  with_fleet_registry (fun registry ->
      let workers = 2 in
      let fault =
        [ { Fault.op = 0; kind = Fault.Drop }; { Fault.op = 1; kind = Fault.Corrupt { bit = 9 } } ]
      in
      let s0 = seed_on_shard ~workers ~shard:0 100 in
      let shard1 = seeds_on_shard ~workers ~shard:1 ~count:9 200 in
      let dreq = Service.default_request in
      let dshard = Service.shard_of_dataset_request ~workers ~name:"soak" dreq in
      let expected_ds = Service.run_dataset_request ~registry ~name:"soak" dreq in
      let expected1 = Array.of_list (List.map (fun s -> Service.run_request (shard_req s)) shard1) in
      let pub_seed = 999 in
      (* 3 worker-0 attempts + 3 v1 + 3 v2 + 3 batch + 1 dataset + 1 public *)
      let expect_served = 3 + 9 + 1 + 1 in
      Fixture.with_daemon ~workers ~tag:"fleet-chaos" ~expect_served
        (fun path -> Service.serve ~registry ~line_timeout_s:5.0 ~fault ~workers ~path ())
        (fun path ->
          let w0 = Service.worker_path ~path 0 and w1 = Service.worker_path ~path 1 in
          (* sequential first: worker 0's reply stream is deterministic, so
             ops 0 and 1 of the schedule hit exactly this client *)
          let m = Metrics.create () in
          (match Service.client_query ~retries:3 ~backoff_s:0.01 ~metrics:m ~path:w0 (shard_req s0) with
          | Error msg -> Alcotest.failf "faulted query did not recover: %s" msg
          | Ok resp ->
              checkb "recovered verdict = fault-free verdict" true
                (resp = Service.run_request (shard_req s0));
              checki "exactly two retries spent" 2 (Metrics.count m Metrics.Retries));
          (* concurrent clients on worker 1's shard: v1 lines, v2 frames,
             one batch exchange *)
          let seed_of c q = List.nth shard1 ((3 * c) + q) in
          let exp_of c q = expected1.((3 * c) + q) in
          let tallies =
            fork_clients 3 (fun c ->
                if c = 2 then
                  let reqs = List.init 3 (fun q -> shard_req (seed_of c q)) in
                  match Service.client_batch ~protocol:Proto.V2 ~path:w1 reqs with
                  | Error _ -> (1000, 0)
                  | Ok items ->
                      let wrong = ref 0 in
                      List.iteri
                        (fun q item ->
                          match item with
                          | Ok resp when resp = exp_of c q -> ()
                          | _ -> incr wrong)
                        items;
                      (!wrong, 0)
                else
                  let protocol = if c = 0 then Proto.V1 else Proto.V2 in
                  let wrong = ref 0 in
                  for q = 0 to 2 do
                    match Service.client_query ~protocol ~path:w1 (shard_req (seed_of c q)) with
                    | Ok resp when resp = exp_of c q -> ()
                    | _ -> incr wrong
                  done;
                  (!wrong, 0))
          in
          List.iteri
            (fun c (wrong, retries) ->
              checki (Printf.sprintf "client %d zero wrong verdicts" c) 0 wrong;
              checki (Printf.sprintf "client %d zero retries" c) 0 retries)
            tallies;
          (* dataset query, routed to its key's shard *)
          (match
             Service.client_dataset ~path:(Service.worker_path ~path dshard) ~name:"soak" dreq
           with
          | Ok resp -> checkb "dataset verdict = local run" true (resp = expected_ds)
          | Error msg -> Alcotest.failf "dataset query failed: %s" msg);
          (* public socket still serves (whichever worker accepts) *)
          (match Service.client_query ~path (shard_req pub_seed) with
          | Ok resp ->
              checkb "public-socket verdict = local run" true
                (resp = Service.run_request (shard_req pub_seed))
          | Error msg -> Alcotest.failf "public-socket query failed: %s" msg);
          (* fleet-wide reconciliation, over both stats protocols *)
          List.iter
            (fun protocol ->
              match Service.client_stats ~protocol ~path () with
              | Error msg -> Alcotest.failf "fleet stats failed: %s" msg
              | Ok stats ->
                  checki "fleet served = every attempt" expect_served
                    (int_at stats [ "queries_served" ]);
                  checki "two injected faults tallied" 2 (int_at stats [ "injected_faults" ]);
                  checki "zero errors" 0 (int_at stats [ "errors" ]);
                  checki "batch exchanges" 1 (int_at stats [ "batch"; "batches" ]);
                  checki "batch items" 3 (int_at stats [ "batch"; "items" ]);
                  checki "worker count gauge" workers (int_at stats [ "workers"; "count" ]);
                  checki "no restarts" 0 (int_at stats [ "workers"; "restarts" ]);
                  let entries = fleet_entries stats in
                  checki "one gauge row per worker" workers (List.length entries);
                  let sum =
                    List.fold_left (fun acc e -> acc + int_at e [ "served" ]) 0 entries
                  in
                  checki "per-worker served gauges sum to the total" expect_served sum;
                  List.iter
                    (fun e ->
                      checkb "worker alive" true
                        (Jsonout.member "alive" e = Some (Jsonout.Bool true)))
                    entries)
            [ Proto.V1; Proto.V2 ];
          (* health is fleet-wide too *)
          match Service.client_health ~path:w1 () with
          | Ok h ->
              checki "fleet-wide health served count" expect_served
                (int_at h [ "queries_served" ]);
              ignore (workers_member h)
          | Error msg -> Alcotest.failf "fleet health failed: %s" msg))

(* Part B of the soak: SIGKILL a worker mid-fleet.  The supervisor must
   fold the dead seat's last snapshot into the graveyard, respawn the
   seat on the same inherited shard socket, and keep every fleet-wide
   counter monotone across the crash; the respawned worker serves its
   shard again and the final reconciliation is exact. *)
let test_fleet_kill_respawn () =
  let workers = 2 in
  let s0 = seed_on_shard ~workers ~shard:0 1000 in
  let s1 = seed_on_shard ~workers ~shard:1 1000 in
  let s0' = seed_on_shard ~workers ~shard:0 (s0 + 1) in
  let s1' = seed_on_shard ~workers ~shard:1 (s1 + 1) in
  Fixture.with_daemon ~workers ~tag:"fleet-respawn" ~expect_served:4
    (fun path -> Service.serve ~line_timeout_s:5.0 ~workers ~path ())
    (fun path ->
      let w0 = Service.worker_path ~path 0 and w1 = Service.worker_path ~path 1 in
      let query sock seed =
        match Service.client_query ~path:sock (shard_req seed) with
        | Ok resp ->
            checkb "verdict = local run" true (resp = Service.run_request (shard_req seed))
        | Error msg -> Alcotest.failf "query failed: %s" msg
      in
      query w0 s0;
      query w1 s1;
      let stats () =
        (* asked on worker 0's shard socket: guaranteed-live answerer *)
        match Service.client_stats ~path:w0 () with
        | Ok s -> s
        | Error msg -> Alcotest.failf "fleet stats failed: %s" msg
      in
      let s = stats () in
      checki "two served before the kill" 2 (int_at s [ "queries_served" ]);
      let victim =
        match fleet_entries s with
        | [ _; e1 ] ->
            checkb "worker 1 alive before the kill" true
              (Jsonout.member "alive" e1 = Some (Jsonout.Bool true));
            int_at e1 [ "pid" ]
        | _ -> Alcotest.fail "expected two fleet gauge rows"
      in
      Unix.kill victim Sys.sigkill;
      (* await the respawn; counters must never go backwards while the
         seat is empty (the stats barrier rides the graveyard fold) *)
      let rec await tries prev =
        if tries = 0 then Alcotest.fail "worker 1 was not respawned"
        else
          let s = stats () in
          let served = int_at s [ "queries_served" ] in
          checkb "served counter is monotone across the crash" true (served >= prev);
          let e1 = List.nth (fleet_entries s) 1 in
          if
            Jsonout.member "alive" e1 = Some (Jsonout.Bool true)
            && int_at e1 [ "pid" ] <> victim
          then begin
            checki "restart gauge counted the respawn" 1
              (int_at s [ "workers"; "restarts" ]);
            checki "restart gauge on the seat" 1 (int_at e1 [ "restarts" ]);
            served
          end
          else begin
            Unix.sleepf 0.1;
            await (tries - 1) served
          end
      in
      let served_after = await 100 2 in
      checki "no query lost in the graveyard fold" 2 served_after;
      (* the respawned seat serves its shard on the inherited socket *)
      query w0 s0';
      query w1 s1';
      let s = stats () in
      checki "exact final reconciliation" 4 (int_at s [ "queries_served" ]);
      checki "a crash is not a service error" 0 (int_at s [ "errors" ]))

(* --------------------------------------------------------------- QCheck *)

let qcheck_props =
  let open QCheck in
  let arb = Tfree_proptest.Msg_gen.arbitrary in
  [
    Test.make ~name:"codec round-trip on random messages" ~count:500 arb (fun msg ->
        let payload, bits = Codec.encode_payload msg in
        let back = Codec.decode_payload (Msg.layout msg) payload ~off:0 ~bits in
        Msg.value back = Msg.value msg && Msg.bits back = Msg.bits msg);
    Test.make ~name:"encoded payload length = Msg.bits" ~count:500 arb (fun msg ->
        let payload, bits = Codec.encode_payload msg in
        bits = Msg.bits msg && Bytes.length payload = (bits + 7) / 8);
    Test.make ~name:"frame round-trip and overhead accounting" ~count:200 arb (fun msg ->
        let frame = Frame.encode msg in
        let pos = ref 0 in
        let back = Frame.decode frame pos in
        Msg.value back = Msg.value msg
        && !pos = Bytes.length frame
        && Frame.overhead_bits ~frame_bytes:(Bytes.length frame) ~payload_bits:(Msg.bits msg) > 0);
  ]

(* The chaos property (the wire's one-sidedness): under ANY fault schedule,
   every protocol on every loopback transport either completes with exactly
   its fault-free verdict or aborts with a typed Wire_error — never a wrong
   verdict, never a hang (a hang would wedge the whole suite).  Schedules
   shrink to a minimal breaking spec, printed in --fault-spec grammar. *)
let chaos_qcheck_prop =
  let k = 4 in
  let rng = Rng.create 777 in
  let g = Gen.far_with_degree rng ~n:120 ~d:4.0 ~eps:0.1 in
  let parts = Partition.with_duplication rng ~k ~dup_p:0.3 g in
  let run ?tap protocol = Tfree.Tester.run ?tap ~seed:4 params ~d:(Graph.avg_degree g) protocol parts in
  let protos = List.map snd Tfree.Tester.protocols in
  let bases = List.map run protos in
  QCheck.Test.make ~name:"chaos: any schedule yields the fault-free verdict or a typed error"
    ~count:30
    (Tfree_proptest.Fault_gen.arb_fault_schedule ~max_ops:40 ~max_events:5 ())
    (fun sched ->
      List.for_all
        (fun transport ->
          List.for_all2
            (fun protocol base ->
              let net = Wire.create ~fault:sched ~transport ~k () in
              let ok =
                match run ~tap:(Wire.tap net) protocol with
                | wired -> wired.Tfree.Tester.verdict = base.Tfree.Tester.verdict
                | exception Wire_error.Wire_error _ -> true
              in
              Wire.close net;
              ok)
            protos bases)
        [ Wire.Pipe; Wire.Socketpair ])

let () =
  Alcotest.run "tfree_wire"
    [
      ( "bitio",
        [
          Alcotest.test_case "round-trip" `Quick test_bitio_roundtrip;
          Alcotest.test_case "range checks" `Quick test_bitio_range_checks;
        ] );
      ( "codec",
        [
          Alcotest.test_case "every constructor" `Quick test_codec_every_constructor;
          Alcotest.test_case "layout descriptor" `Quick test_layout_descriptor_roundtrip;
        ] );
      ( "frame",
        [
          Alcotest.test_case "buffer round-trip" `Quick test_frame_buffer_roundtrip;
          Alcotest.test_case "over pipe" `Quick test_frame_over_pipe;
          Alcotest.test_case "over socketpair" `Quick test_frame_over_socketpair;
          Alcotest.test_case "large frame no deadlock" `Quick test_exchange_large_frame_socketpair;
        ] );
      ( "frame-hardening",
        [
          Alcotest.test_case "truncated varint" `Quick test_frame_truncated_varint;
          Alcotest.test_case "length larger than buffer" `Quick test_frame_length_larger_than_buffer;
          Alcotest.test_case "zero-length frame" `Quick test_frame_zero_length;
          Alcotest.test_case "garbage layout descriptor" `Quick test_frame_garbage_layout;
          Alcotest.test_case "payload bit-count mismatch" `Quick test_frame_bit_count_mismatch;
          Alcotest.test_case "checksum catches every body bit-flip" `Quick
            test_frame_checksum_catches_every_body_flip;
        ] );
      ( "fault",
        [
          Alcotest.test_case "spec round-trip" `Quick test_fault_spec_roundtrip;
          Alcotest.test_case "seeded determinism" `Quick test_fault_seeded_deterministic;
          Alcotest.test_case "chaos matrix, pipe" `Quick (chaos_matrix Wire.Pipe);
          Alcotest.test_case "chaos matrix, socketpair" `Quick (chaos_matrix Wire.Socketpair);
        ] );
      ( "parity",
        [
          Alcotest.test_case "pipe transport" `Quick (parity_suite Wire.Pipe);
          Alcotest.test_case "socketpair transport" `Quick (parity_suite Wire.Socketpair);
          Alcotest.test_case "blackboard mode" `Quick test_parity_blackboard;
          Alcotest.test_case "runtime surface" `Quick test_wire_runtime_surface;
        ] );
      ( "composition",
        [
          Alcotest.test_case "coordinator, model" `Quick (composition_suite Runtime.Coordinator None);
          Alcotest.test_case "coordinator, pipe" `Quick
            (composition_suite Runtime.Coordinator (Some Wire.Pipe));
          Alcotest.test_case "coordinator, socketpair" `Quick
            (composition_suite Runtime.Coordinator (Some Wire.Socketpair));
          Alcotest.test_case "blackboard, model" `Quick (composition_suite Runtime.Blackboard None);
          Alcotest.test_case "blackboard, pipe" `Quick
            (composition_suite Runtime.Blackboard (Some Wire.Pipe));
          Alcotest.test_case "blackboard, socketpair" `Quick
            (composition_suite Runtime.Blackboard (Some Wire.Socketpair));
        ] );
      ( "service",
        [
          Alcotest.test_case "request JSON round-trip" `Quick test_service_request_json_roundtrip;
          Alcotest.test_case "request defaults" `Quick test_service_request_defaults;
          Alcotest.test_case "rejects unknown enum" `Quick test_service_request_rejects_unknown;
          Alcotest.test_case "refuses eps outside (0, 1]" `Quick test_service_refuses_bad_eps;
          Alcotest.test_case "refuses k below 1" `Quick test_service_refuses_k_below_one;
          Alcotest.test_case "run_request reconciles" `Quick test_service_run_request_reconciles;
          Alcotest.test_case "handle_line categories" `Quick test_handle_line_categories;
          Alcotest.test_case "health over v1" `Quick test_handle_line_health;
          Alcotest.test_case "enum wire codes pinned" `Quick test_enum_wire_codes;
          Alcotest.test_case "truncated v2 batch runs nothing" `Quick
            test_truncated_batch_frame_runs_nothing;
        ] );
      ("request algebra", List.map QCheck_alcotest.to_alcotest algebra_props);
      ( "fixture",
        [
          Alcotest.test_case "failing callback reaps the daemon" `Quick
            test_fixture_reaps_daemon_on_error;
          Alcotest.test_case "served mismatch is named" `Quick test_fixture_names_served_mismatch;
          Alcotest.test_case "client fleet collects one line each" `Quick test_fixture_client_fleet;
        ] );
      ( "proto",
        [
          Alcotest.test_case "read buffer shrinks after a large burst" `Quick
            test_proto_rbuf_shrinks;
        ] );
      ( "client-reader",
        [
          Alcotest.test_case "fragmented and padded replies" `Quick
            test_client_reads_fragmented_and_padded_replies;
          Alcotest.test_case "v1 reply line capped" `Quick test_client_caps_reply_line;
          Alcotest.test_case "shed reply read after the close" `Quick
            test_client_reads_shed_reply_after_close;
        ] );
      ( "negotiation",
        [
          Alcotest.test_case "v2 client, v1-capped server" `Quick
            test_negotiation_v2_client_v1_server;
          Alcotest.test_case "v1 client, v2 server" `Quick test_negotiation_v1_client_v2_server;
          Alcotest.test_case "v2 both sides, exact byte gauge" `Quick
            test_negotiation_v2_v2_exact_bytes;
          Alcotest.test_case "garbage version byte keeps connection" `Quick
            test_negotiation_garbage_version_byte;
          Alcotest.test_case "binary batch = JSON batch" `Quick test_binary_batch_matches_json;
          Alcotest.test_case "chaos schedules x versions x transports" `Quick
            test_chaos_versions_matrix;
        ] );
      ( "serve-resilience",
        [
          Alcotest.test_case "malformed line keeps connection" `Quick
            test_service_malformed_line_keeps_connection;
          Alcotest.test_case "client killed mid-request" `Quick
            test_service_client_killed_mid_request;
          Alcotest.test_case "unterminated line shed promptly" `Quick
            test_service_sheds_unterminated_line;
          Alcotest.test_case "client retry recovers through faults" `Quick
            test_service_client_retry_recovers;
        ] );
      ( "serve-concurrency",
        [
          Alcotest.test_case "interleaved clients, no head-of-line blocking" `Quick
            test_concurrent_clients_interleaved;
          Alcotest.test_case "batch = one-at-a-time queries" `Quick
            test_batch_matches_single_queries;
          Alcotest.test_case "cache hits reconcile in stats" `Quick
            test_cache_hits_reconcile_in_stats;
          Alcotest.test_case "chaos schedule spares other clients" `Quick
            test_chaos_schedule_spares_other_clients;
          Alcotest.test_case "overload sheds with typed error" `Quick
            test_overload_sheds_with_typed_error;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "quantiles on empty registry" `Quick test_metrics_quantiles_empty;
          Alcotest.test_case "quantiles on single sample" `Quick test_metrics_quantiles_single;
          Alcotest.test_case "error categories" `Quick test_metrics_categories;
        ] );
      ( "fleet-shard",
        [
          Alcotest.test_case "pinned hash values" `Quick test_shard_pinned_values;
          Alcotest.test_case "near-uniform over both key arms" `Quick test_shard_near_uniform;
          Alcotest.test_case "merged workers = single process" `Quick
            test_fleet_merge_matches_single;
        ] );
      ( "fleet-soak",
        [
          Alcotest.test_case "chaos on worker 0 reconciles exactly" `Quick
            test_fleet_chaos_reconciles;
          Alcotest.test_case "SIGKILL a worker: respawn, monotone counters" `Quick
            test_fleet_kill_respawn;
        ] );
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          (qcheck_props @ shard_qcheck_props @ ctl_props
           @ [ fleet_merge_order_prop; chaos_qcheck_prop ]) );
    ]
