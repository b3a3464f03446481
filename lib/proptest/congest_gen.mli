(** Random CONGEST-run cases for the congest property suite: (family, n,
    seed, budget) tuples whose instance graph derives deterministically from
    the case, so printed counterexamples reproduce the exact run. *)

open Tfree_graph

type family = Far  (** ǫ-far from triangle-free *) | Free  (** triangle-free *) | Gnp  (** sparse G(n, p) *)

type case = {
  family : family;
  n : int;
  seed : int;  (** drives both the instance rng and the simulator *)
  budget : int;  (** hard round budget for the run *)
}

(** The case's instance, derived from the case alone — properties rebuild
    it at will. *)
val graph : case -> Graph.t

(** Cases over all three families, 12 ≤ n ≤ 120, budgets 1 … 48; shrinking
    walks n and the budget down. *)
val arbitrary : case QCheck.arbitrary
