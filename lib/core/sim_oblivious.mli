(** Degree-oblivious simultaneous protocol — Algorithm 11 / Theorem 3.32.
    Each player derives a window of O(log k) shared degree guesses from its
    observed average degree and participates in the matching AlgHigh/AlgLow
    instances with d̄ⱼ-tied budgets (Lemmas 3.30–3.31); the referee checks
    each per-guess union.  Each instance selects its edges through
    {!Sim_high.select} or {!Sim_low.select} under the guess's own keys, so
    a player hashes every vertex once per sample, not once per incident
    edge: once per guess for the guess's own sample, and once per message
    for the R sample that every AlgLow guess shares.  [Rng.hash_float] is
    stateless, so this draws nothing and sends exactly the per-edge
    selection. *)

open Tfree_comm
open Tfree_graph

(** d̄ⱼ = 2|Eⱼ|/n: the player's observed average degree. *)
val observed_avg_degree : n:int -> Graph.t -> float

(** The shared power-of-two guess exponents covering [d̄ⱼ, (4k/ǫ)·d̄ⱼ];
    [[]] when the window is empty. *)
val guess_range : Params.t -> k:int -> n:int -> float -> int list

(** Per-instance edge budgets (Lemmas 3.30 and 3.31). *)
val cap_high : Params.t -> k:int -> n:int -> float -> int

val cap_low : Params.t -> k:int -> n:int -> int

val protocol : Params.t -> Triangle.triangle option Simultaneous.protocol

val run :
  ?tap:Tfree_comm.Channel.tap ->
  seed:int ->
  Params.t ->
  Partition.t ->
  Triangle.triangle option Simultaneous.outcome
