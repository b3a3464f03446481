(** The Boolean Matching problem and its reduction to triangle-freeness
    testing at average degree Θ(1) — Definition 12 and Theorem 4.16: yes
    instances (Mx ⊕ w = 0ⁿ) reduce to graphs with n edge-disjoint triangles,
    no instances (= 1ⁿ) to triangle-free graphs, so testers inherit BM's
    Ω(√n) one-way bound [28, 36]. *)

open Tfree_graph

type instance = {
  x : bool array;  (** Alice's 2n bits *)
  matching : (int * int) array;  (** Bob's perfect matching on [0, 2n) *)
  w : bool array;  (** Bob's n bits *)
}

(** (Mx)ⱼ ⊕ wⱼ. *)
val row_value : instance -> int -> bool

(** Random instance with Mx ⊕ w = target·1ⁿ. *)
val generate : Tfree_util.Rng.t -> n:int -> target:bool -> instance

val reduction_graph : instance -> Graph.t

(** Two-player (Alice, Bob) partition of the reduction graph. *)
val to_partition : instance -> Partition.t

(** Number of matching rows with (Mx ⊕ w)ⱼ = 0 — the triangle count Theorem
    4.16 predicts. *)
val expected_triangles : instance -> int
