(** The hard input distribution µ of §4.2.1: tripartite U ∪ V₁ ∪ V₂, each
    cross-part pair an edge iid with probability γ/√n; Alice holds U×V₁,
    Bob U×V₂, Charlie V₁×V₂. *)

open Tfree_graph

type sides = { part : int; alice : Graph.t; bob : Graph.t; charlie : Graph.t }

(** Sample G ~ µ with parts of size [part] (n = 3·part). *)
val sample : Tfree_util.Rng.t -> part:int -> gamma:float -> Graph.t

(** Sample the graph together with its 3-player partition. *)
val sample_partition : Tfree_util.Rng.t -> part:int -> gamma:float -> Graph.t * Partition.t

type stats = {
  n : int;
  m : int;
  triangles : int;
  disjoint_triangles : int;  (** greedy packing size *)
  farness_lb : float;  (** packing / m *)
}

val stats : Graph.t -> stats

(** Over [trials] samples: (fraction certifiably ǫ-far, mean packing/n^1.5)
    — the two quantities of Lemma 4.5. *)
val lemma_4_5_stats :
  Tfree_util.Rng.t -> part:int -> gamma:float -> eps:float -> trials:int -> float * float

(** µ conditioned on certified ǫ-farness (rejection sampling, <= 200
    attempts). *)
val sample_far : Tfree_util.Rng.t -> part:int -> gamma:float -> eps:float -> Graph.t option
