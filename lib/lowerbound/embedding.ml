(** The degree-embedding argument of Lemma 4.17: a hard instance of n′
    vertices and average degree Θ((n′)^c) embedded among n - n′ isolated
    vertices becomes an instance of n vertices and average degree d′ =
    Θ((n′)^{1+c}/n), with identical triangle structure and farness-in-edges.
    This is how every bound proved at d = Θ(√n) extends to all d = O(√n).

    [embed_at_degree] picks n′ = (d′·n)^{1/(1+c)} (the lemma's formula) for a
    hard-instance family given as [make : n' -> inputs], pads every player's
    input to n vertices, and reports the achieved average degree so the
    experiments can verify the parameter mapping. *)

open Tfree_util
open Tfree_graph

(** n′ = (d′·n)^{1/(1+c)} for a family of intrinsic degree exponent c. *)
let source_size ~n ~d' ~c =
  let raw = Float.pow (d' *. float_of_int n) (1.0 /. (1.0 +. c)) in
  max 6 (min n (int_of_float (Float.round raw)))

type embedded = {
  inputs : Partition.t;
  graph : Graph.t;
  n' : int;
  achieved_degree : float;
}

(** Embed a k-player instance family [make rng n'] (returning the global
    graph) into an n-vertex instance of average degree ≈ d′.  The same label
    shuffle is applied to every player so the union stays consistent. *)
let embed_at_degree rng ~n ~d' ~c ~k ~make ~split =
  let n' = source_size ~n ~d' ~c in
  let g' = make rng n' in
  let parts' : Partition.t = split rng ~k g' in
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  let lift g = Graph.embed g perm in
  let inputs = Array.map lift parts' in
  let graph = lift g' in
  { inputs; graph; n'; achieved_degree = Graph.avg_degree graph }
