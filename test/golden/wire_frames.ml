(* Golden wire frames: every protocol run over a wire network, on small
   far/dup instances, with a recorder tap composed in front of the wire tap.
   The recorder frames every message it sees with [Frame.encode] and keeps
   the bytes in delivery order; each run then prints its verdict, its frame
   count, an MD5 of those concatenated frames, every [Wire_runtime.report]
   field and the per-channel counters.  Any change to a frame byte, to the
   order or number of frames, or to what the tap counts shows up here.

   The first two sizes have d <= sqrt n, so [sim] runs Algorithm 8
   ([Sim_low]) and [oblivious] only AlgLow guesses; (100, 16) has d > sqrt n,
   which pins Algorithm 7 ([Sim_high]) and the AlgHigh guesses too.

   Run by the runtest alias and diffed against wire_frames.expected; a
   deliberate change is accepted with [dune promote]. *)

module Service = Tfree_wire.Service
module Frame = Tfree_wire.Frame
module Wire = Tfree_wire.Wire_runtime
module Channel = Tfree_comm.Channel
module Tester = Tfree.Tester

let recorder () =
  let frames = ref 0 and bytes = Buffer.create 4096 in
  let deliver ~round:_ _ msg =
    incr frames;
    Buffer.add_bytes bytes (Frame.encode msg);
    msg
  in
  ({ Channel.deliver }, frames, bytes)

let verdict_to_string = function
  | Tester.Triangle (a, b, c) -> Printf.sprintf "triangle(%d,%d,%d)" a b c
  | Tester.Triangle_free -> "triangle-free"

let run_row protocol transport ~n ~d ~seed =
  let req =
    {
      Service.default_request with
      family = Service.Far;
      partition = Service.Dup;
      protocol;
      transport;
      n;
      d;
      seed;
    }
  in
  Printf.printf "%s/%s n=%d d=%g seed=%d\n" (Tester.protocol_to_string protocol)
    (Wire.kind_to_string transport) n d seed;
  let g, inputs = Service.instance_pair req in
  let net = Wire.create ~transport ~k:req.k () in
  Fun.protect
    ~finally:(fun () -> Wire.close net)
    (fun () ->
      let rec_tap, frames, bytes = recorder () in
      let tap = Channel.compose_all [ rec_tap; Wire.tap net ] in
      let params = Tfree.Params.(with_eps practical req.eps) in
      let report =
        Tester.run ~tap ~seed params ~d:(Tfree_graph.Graph.avg_degree g) protocol inputs
      in
      let r = Wire.report net ~accounted_bits:report.Tester.bits in
      Printf.printf "  verdict %s bits=%d rounds=%d max_message=%d\n"
        (verdict_to_string report.Tester.verdict) report.Tester.bits report.Tester.rounds
        report.Tester.max_message;
      Printf.printf "  frames %d md5 %s\n" !frames
        (Digest.to_hex (Digest.string (Buffer.contents bytes)));
      Printf.printf
        "  report wire_bytes=%d frames=%d payload_bits=%d framing_overhead_bits=%d \
         accounted_bits=%d ratio=%.6f reconciles=%b\n"
        r.Wire.wire_bytes r.Wire.frames r.Wire.payload_bits r.Wire.framing_overhead_bits
        r.Wire.accounted_bits r.Wire.ratio (Wire.reconciles r);
      List.iter
        (fun (name, (s : Wire.chan_stats)) ->
          if s.frames > 0 then
            Printf.printf "  %s frames=%d bytes=%d payload_bits=%d\n" name s.frames s.wire_bytes
              s.payload_bits)
        (Wire.per_channel net))

let () =
  List.iter
    (fun (_, protocol) ->
      List.iter
        (fun (n, d) ->
          List.iter (fun seed -> run_row protocol Wire.Pipe ~n ~d ~seed) [ 1; 2 ])
        [ (60, 4.0); (200, 8.0); (100, 16.0) ];
      run_row protocol Wire.Socketpair ~n:60 ~d:4.0 ~seed:1)
    Tester.protocols
