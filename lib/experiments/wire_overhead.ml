(** E21: wire-vs-model overhead.

    Runs each of the four protocols (E1–E4's subjects) twice on the same
    seed: once against the plain cost-model runtime and once through a
    {!Tfree_wire.Wire_runtime} network, where every charged message is
    encoded, framed and pushed through a byte transport.  The table shows
    the accounted (model) bits next to the measured wire bits, the framing
    overhead, and the wire/model ratio; [parity] asserts that both runs
    returned the same verdict and the same accounted bits, [reconciled]
    that [wire_bytes·8 − framing_overhead_bits = accounted_bits] held
    exactly on every seed.

    Expected shape: the one-shot simultaneous protocols (sim, oblivious,
    exact) send k large messages, so framing is a few hundred bits and the
    ratio sits near 1.0; the unrestricted protocol is chatty — tens of
    thousands of frames a few bits each — so per-frame overhead dominates
    and the ratio is large.  The model's bit count is the paper's object of
    study; the ratio prices what a naive length-prefixed encoding adds. *)

open Tfree_util
module Wire = Tfree_wire.Wire_runtime

let params = Tfree.Params.practical

let e21_wire scale =
  let k = 4 and d = 4.0 in
  let n = match scale with Common.Small -> 600 | Common.Big -> 2000 in
  let reps = Common.reps scale in
  let row (name, proto) =
    let cells =
      Common.seed_samples ~reps (fun s ->
          let g, parts = Common.far_instance ~n ~d ~k ~dup:true s in
          let davg = Tfree_graph.Graph.avg_degree g in
          let model = Tfree.Tester.run ~seed:s params ~d:davg proto parts in
          let net = Wire.create ~transport:Wire.Pipe ~k () in
          let wired = Tfree.Tester.run ~tap:(Wire.tap net) ~seed:s params ~d:davg proto parts in
          let rep = Wire.report net ~accounted_bits:wired.Tfree.Tester.bits in
          Wire.close net;
          let parity =
            model.Tfree.Tester.verdict = wired.Tfree.Tester.verdict
            && model.Tfree.Tester.bits = wired.Tfree.Tester.bits
          in
          ( model.Tfree.Tester.bits,
            8 * rep.Wire.wire_bytes,
            rep.Wire.framing_overhead_bits,
            rep.Wire.ratio,
            parity,
            Wire.reconciles rep ))
    in
    let mean f = Stats.mean (Array.to_list (Array.map f cells)) in
    let model_bits = mean (fun (b, _, _, _, _, _) -> float_of_int b) in
    let wire_bits = mean (fun (_, w, _, _, _, _) -> float_of_int w) in
    let framing = mean (fun (_, _, f, _, _, _) -> float_of_int f) in
    let ratio = mean (fun (_, _, _, r, _, _) -> r) in
    let parity = Array.for_all (fun (_, _, _, _, p, _) -> p) cells in
    let reconciled = Array.for_all (fun (_, _, _, _, _, ok) -> ok) cells in
    [
      name;
      Table.fcell ~prec:0 model_bits;
      Table.fcell ~prec:0 wire_bits;
      Table.fcell ~prec:0 framing;
      Table.fcell ~prec:3 ratio;
      (if parity then "yes" else "NO");
      (if reconciled then "yes" else "NO");
    ]
  in
  let rows = List.map row Tfree.Tester.protocols in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "E21 wire overhead: model vs pipe-transport wire runtime (n=%d d=%.0f k=%d, %d seeds)"
           n d k reps)
      ~header:[ "protocol"; "model bits"; "wire bits"; "framing bits"; "ratio"; "parity"; "reconciled" ]
      rows;
  ]
