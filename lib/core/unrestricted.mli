(** The unrestricted-communication triangle-finding protocol of §3.3
    (Algorithms 1–6): O~(k·(nd)^{1/4} + k²) bits, degree-oblivious
    (Corollary 3.22), one-sided.

    The intermediate procedures are exposed for targeted tests; the
    entry point is {!find_triangle}. *)

open Tfree_comm
open Tfree_graph

type stats = { buckets_tried : int; candidates_tested : int; edges_posted : int }

(** Algorithm 1's priority order: [precedes hv v hb b] iff the pair
    [(hv, v)] sorts before [(hb, b)], hash first, a tie going to the smaller
    vertex. *)
val precedes : float -> int -> float -> int -> bool

(** The suspected-bucket membership B̃ʲᵢ of every player [j] and bucket
    [i]: player -> bucket -> the vertices of positive degree the player
    suspects, ascending.  Local to each player, so it costs no bits;
    {!find_triangle} builds it once per run. *)
val btilde_members : Runtime.t -> int array array array

(** Algorithm 1: uniform sample from B̃ᵢ under a shared random priority,
    unbiased despite duplication, over the membership [btilde] that
    {!btilde_members} built on the same inputs.  [None] iff no player
    suspects bucket [i]. *)
val sample_uniform_from_btilde :
  btilde:int array array array -> Runtime.t -> key:int -> i:int -> int option

(** Algorithm 3: candidate full vertices for bucket [i] with their
    approximate degrees (filtered to [d⁻/√3, √3·d⁺]), sampled from
    [btilde] as {!sample_uniform_from_btilde} samples. *)
val get_full_candidates :
  btilde:int array array array -> Runtime.t -> Params.t -> key:int -> i:int -> (int * int) list

(** Algorithm 4: post a sampled star around the vertex; returns the sampled
    neighbours confirmed by some player (per-player caps applied; on a
    blackboard players post in turns without repetition, Theorem 3.23). *)
val sample_edges : Runtime.t -> Params.t -> key:int -> int -> d_hat:int -> int list

(** Algorithm 6 with the degree-oblivious window: estimate d, iterate the
    buckets of [d_l/2, 2·d_h], return a real triangle or [None]. *)
val find_triangle : Runtime.t -> Params.t -> Triangle.triangle option * stats
