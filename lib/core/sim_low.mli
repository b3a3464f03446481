(** Simultaneous protocol for low degrees d = O(√n) — Algorithm 8
    (Theorem 3.26, O~(k·√n) bits), each player's message cut to
    {!edge_cap}.  Two shared vertex samples: S (probability min(c/d, 1)) catches
    high-degree triangle sources, R (probability c/√n) catches the
    low-degree corners by the birthday paradox. *)

open Tfree_comm
open Tfree_graph

(** The Chebyshev constant (from {!Params.sim_c}). *)
val c_const : Params.t -> float

(** S-sampling probability min(c/d, 1). *)
val p1 : Params.t -> d:float -> float

(** R-sampling probability c/√n. *)
val p2 : Params.t -> n:int -> float

(** Per-player edge cap q = 2c²(√n + d)·(2/δ) (Algorithm 8 step 3). *)
val edge_cap : Params.t -> n:int -> d:float -> int

(** [r_table ~n (rng_r, p_r)]: R = \{v : [Rng.hash_float rng_r v < p_r]\}
    over [n] vertices as a {!Marks} table, one hash per vertex, for
    {!select} to add S to. *)
val r_table : n:int -> Tfree_util.Rng.t * float -> Marks.t

(** [select table ~s:(rng_s, p_s) ~cap input], with [table] from
    {!r_table}: adds S = \{v : [Rng.hash_float rng_s v < p_s]\} to [table]
    in place, then returns the edges of [input] with both endpoints in
    R ∪ S and at least one in R, newest first (the reverse of
    {!Graph.iter_edges} order), cut to the first [cap].  Only the rows of
    vertices in R ∪ S are walked; [hash_float] is stateless, so this draws
    nothing from either stream and selects exactly the edges a per-edge
    test would.  Algorithm 8's players and the AlgLow instances of
    Algorithm 11 select through it; the latter share one R table per
    player message and pass each guess a copy. *)
val select : Marks.t -> s:Tfree_util.Rng.t * float -> cap:int -> Graph.t -> Graph.edge list

val protocol : Params.t -> d:float -> Triangle.triangle option Simultaneous.protocol

val run :
  ?tap:Tfree_comm.Channel.tap ->
  seed:int ->
  Params.t ->
  d:float ->
  Partition.t ->
  Triangle.triangle option Simultaneous.outcome
