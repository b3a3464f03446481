(** Graph generators: every input family used by the paper's analysis and the
    experiments.  [planted_far], [hub_far] and [planted_pattern_far] have
    farness known by construction (their complete triangle / pattern set is
    the planted edge-disjoint family); random families are far w.h.p.
    (Lemma 4.5) and are certified by {!Distance} in tests. *)

open Tfree_util

(** Every generator draws from its [Rng.t] in a fixed order, so a seed
    pins the graph.  The draws keep the order and count the list-based
    generators made them in, and every graph is the same.  A randomly
    relabelled family adds its edges to one [Graph.Builder], draws its label
    permutation last, and renames the buffered edges through it
    ([Graph.Builder.relabel]) before the build; no random family goes
    through an edge list. *)

(** Erdős–Rényi G(n, p), in one O(n + m) pass over the selected pairs.
    @raise Invalid_argument when [p] is outside [0, 1] or [n < 0]. *)
val gnp : Rng.t -> n:int -> p:float -> Graph.t

(** Uniform graph with exactly [m] edges.
    @raise Invalid_argument when [m] exceeds n(n-1)/2 or [n < 0]. *)
val gnm : Rng.t -> n:int -> m:int -> Graph.t

(** Tripartite random graph on three parts of [part] vertices (3·part total),
    each cross-part pair an edge iid with probability [p] — the hard
    distribution µ of §4.2.1 when p = γ/√n.
    @raise Invalid_argument when [part < 0]. *)
val tripartite_gnp : Rng.t -> part:int -> p:float -> Graph.t

(** [bipartite_noise rng b ~lo ~len ~p] adds triangle-free noise on the
    vertex range [lo, lo + len) to [b]: the range is split in halves and
    each cross pair is an edge iid with probability [p], drawn by
    {!Sampling.iter_bernoulli}. *)
val bipartite_noise : Rng.t -> Graph.Builder.t -> lo:int -> len:int -> p:float -> unit

(** [triangles] vertex-disjoint planted triangles plus ~[noise] bipartite
    edges on the remaining vertices; the triangle set is exactly the planted
    family.  @raise Invalid_argument when 3·triangles > n. *)
val planted_far : Rng.t -> n:int -> triangles:int -> noise:int -> Graph.t

(** The adversarial low-degree instance of §3.4.2: [pairs] edge-disjoint
    triangles all sourced at [hubs] high-degree vertices. *)
val hub_far : Rng.t -> n:int -> hubs:int -> pairs:int -> Graph.t

(** Triangle factors on three parts of [n_part] vertices starting at vertex
    [offset]: [rounds] random tripartite perfect matchings of triangles.
    Adds each distinct edge to the builder once and returns (distinct edge
    count, lower bound on the edge-disjoint triangle count).  Time and space
    are linear in the 3·n_part·rounds planted edge slots. *)
val tripartite_planted :
  Rng.t -> Graph.Builder.t -> n_part:int -> rounds:int -> int -> int * int

(** ǫ-far instance at target average degree [d] (vertex-disjoint planting for
    small d, triangle factors for large d, plus triangle-free noise). *)
val far_with_degree : Rng.t -> n:int -> d:float -> eps:float -> Graph.t

(** [copies] vertex-disjoint copies of [pattern] plus matching noise (which
    contains no copy of any connected pattern on >= 3 vertices).
    @raise Invalid_argument when copies·|V(pattern)| > n. *)
val planted_pattern_far :
  Rng.t -> n:int -> pattern:Subgraph.pattern -> copies:int -> noise:int -> Graph.t

(** [triangles] vertex-disjoint triangles with [extra_degree] distractor
    leaves on every corner: probe-based testers hit a corner's vee with
    probability only ~2/extra_degree²; farness ≈ 1/(3·(extra_degree+1)).
    3·triangles·(1+extra_degree) vertices.
    @raise Invalid_argument when [extra_degree < 0]. *)
val diluted_far : Rng.t -> triangles:int -> extra_degree:int -> Graph.t

(** Triangle-free (bipartite) graph with average degree ≈ d. *)
val free_with_degree : Rng.t -> n:int -> d:float -> Graph.t

(** Lemma 4.17 embedding: pad with isolated vertices up to [n] and shuffle
    labels; triangles and farness-in-edges are preserved.
    @raise Invalid_argument when [n] is smaller than the source. *)
val embed : Rng.t -> Graph.t -> n:int -> Graph.t

val shuffle_labels : Rng.t -> Graph.t -> Graph.t

(** Deterministic small graphs for tests and examples. *)

val complete : n:int -> Graph.t
val cycle : n:int -> Graph.t
val path : n:int -> Graph.t
val star : n:int -> Graph.t
val complete_bipartite : left:int -> right:int -> Graph.t
