(** Extension: simultaneous testing of H-freeness for small patterns H —
    the direction §5 proposes ("generalizing our techniques for detecting a
    wider class of subgraphs"; cf. [19] for 4-vertex patterns in CONGEST).

    The high-degree protocol (Algorithm 7) generalizes directly: a graph
    ǫ-far from H-freeness contains ≥ ǫ·m/|E(H)| edge-disjoint copies of H;
    sampling each vertex with probability s/n keeps a given copy with
    probability (s/n)^{|V(H)|}, so
        s = c · n · (ǫ·d·n/(2·e_H))^{-1/h}   (h = |V(H)|, e_H = |E(H)|)
    puts Θ(c^h) expected surviving copies in the sampled induced subgraph.
    Players send their edges inside the sample (with the same per-player cap
    derivation as Algorithm 7); the referee searches the union for an
    embedding of H.  One-sided: the referee verifies the embedding against
    received edges before reporting.

    For h = 3 this is exactly {!Sim_high}; the cost grows as
    O~(k·n^{1-2/h}·(d/ǫ)^{... }) — for C4/K4 at d = Θ(√n) the message is
    O~(k·n^{5/8})-ish, still sublinear in m. *)

open Tfree_graph
open Tfree_comm

(** Vertex-sample size for pattern [p] at average degree [d]. *)
let sample_size (prm : Params.t) ~n ~d (p : Subgraph.pattern) =
  let h = float_of_int p.Subgraph.vertices in
  let e_h = float_of_int (List.length p.Subgraph.edges) in
  let c = Params.sim_c prm in
  let copies = prm.Params.eps *. Float.max 1.0 d *. float_of_int n /. (2.0 *. e_h) in
  let raw = c *. float_of_int n /. Float.pow (Float.max 1.0 copies) (1.0 /. h) in
  max p.Subgraph.vertices (min n (int_of_float (Float.ceil raw)))

(** Per-player edge cap: (2/δ)·expected edges in the sampled subgraph. *)
let edge_cap (prm : Params.t) ~n ~d ~s =
  let expected = Float.max 1.0 d *. float_of_int (s * s) /. (2.0 *. float_of_int n) in
  max 8 (int_of_float (Float.ceil (2.0 *. expected /. prm.Params.delta)))

let protocol (prm : Params.t) ~d (p : Subgraph.pattern) : int array option Simultaneous.protocol =
  {
    Simultaneous.player =
      (fun ctx _j input ->
        let n = ctx.Simultaneous.n in
        let s = sample_size prm ~n ~d p in
        let rng = Simultaneous.shared_rng ctx ~key:61 in
        let cap = edge_cap prm ~n ~d ~s in
        Msg.edges ~n (Sim_high.select rng ~p:(float_of_int s /. float_of_int n) ~cap input));
    referee =
      (fun ctx messages ->
        let n = ctx.Simultaneous.n in
        let union = Graph.of_edges ~n (Msg.all_edges messages) in
        match Subgraph.find union p with
        | Some assignment when Subgraph.is_embedding union p assignment -> Some assignment
        | _ -> None);
  }

let run ~seed (prm : Params.t) ~d p inputs = Simultaneous.run ~seed (protocol prm ~d p) inputs
