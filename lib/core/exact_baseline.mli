(** Exact triangle detection baseline: each player ships its whole input —
    the Θ(k·n·d) cost that Woodruff–Zhang [38] prove essentially necessary
    for exact detection, and the comparator for the paper's headline
    testing-vs-exact gap. *)

open Tfree_comm
open Tfree_graph

val run :
  ?tap:Tfree_comm.Channel.tap ->
  seed:int ->
  Partition.t ->
  Triangle.triangle option Simultaneous.outcome

(** Deterministic bit cost of the baseline on the given partition. *)
val cost : Partition.t -> int
