(** Simultaneous protocol for high degrees d = Ω(√n) — Algorithm 7
    (Theorem 3.24, O~(k·(nd)^{1/3}) bits): a shared vertex sample S of
    ~c·(n²/(ǫd))^{1/3} vertices; players send their edges inside S, cut to
    {!edge_cap}; the referee searches the union. *)

open Tfree_comm
open Tfree_graph

(** |S| = c·(n²/(ǫ·d))^{1/3}, clamped to [3, n]. *)
val sample_size : Params.t -> n:int -> d:float -> int

(** Per-player edge cap l = 4·|S|²·d/(δ·n) (Algorithm 7 step 2). *)
val edge_cap : Params.t -> n:int -> d:float -> s:int -> int

(** [select rng ~p ~cap input]: the edges of [input] with both endpoints
    in the shared sample S = \{v : [Rng.hash_float rng v < p]\}, newest
    first (the reverse of {!Graph.iter_edges} order), cut to the first
    [cap].  Membership is computed once per vertex ({!Marks}) and only the
    rows of sampled vertices are walked; [hash_float] is stateless, so this
    draws nothing from [rng] and selects exactly the edges a per-edge test
    would.  Algorithm 7's players, the AlgHigh instances of Algorithm 11,
    {!Sim_subgraph} and the budgeted variant all select through it. *)
val select : Tfree_util.Rng.t -> p:float -> cap:int -> Graph.t -> Graph.edge list

val protocol : Params.t -> d:float -> Triangle.triangle option Simultaneous.protocol

val run :
  ?tap:Tfree_comm.Channel.tap ->
  seed:int ->
  Params.t ->
  d:float ->
  Partition.t ->
  Triangle.triangle option Simultaneous.outcome
