(** Dividing an input graph between k players (§2).  A partition is an array
    of k graphs on the same vertex set whose union is the input; {e edge
    duplication} (several players holding the same edge) is allowed, and no
    locality is guaranteed.

    The players of a drawn partition ([disjoint_random], [with_duplication],
    [by_endpoint_hash], [skewed]) are views of the input ({!Graph.views}):
    they share its rows and one array of arc offsets, and each player
    holds one bit per arc ([2m / 8] bytes), an [n]-word row table and its
    edge count, so a partition allocates about [(k + 2) · n + k · m / 32]
    words before any row is read ([n] of them scratch).  A row a player reads is filtered out of
    the input's row once and kept; a row the player holds whole is the
    input's row itself.  Each partitioner draws, edge by edge in
    {!Graph.iter_edges} order, exactly what it drew when every player was
    built separately.  [replicate] and [all_to_one] share the input graph
    itself. *)

type t = Graph.t array

val k : t -> int

(** Vertex count of the underlying graph (0 for zero players). *)
val n : t -> int

(** Reassemble the input graph as the union of all players' edges. *)
val union : t -> Graph.t

val player : t -> int -> Graph.t

(** Each edge to exactly one uniformly random player. *)
val disjoint_random : Tfree_util.Rng.t -> k:int -> Graph.t -> t

(** One uniform owner per edge, plus an independent copy to every other
    player with probability [dup_p] — the duplication regime. *)
val with_duplication : Tfree_util.Rng.t -> k:int -> dup_p:float -> Graph.t -> t

(** Every player holds the whole graph (worst-case duplication). *)
val replicate : k:int -> Graph.t -> t

(** Edge assigned by a hash of its lower endpoint: locality-flavoured. *)
val by_endpoint_hash : Tfree_util.Rng.t -> k:int -> Graph.t -> t

(** Player 0 takes each edge with probability [bias]; the rest spread
    uniformly over the other players — exercises the
    relevant/irrelevant-player analysis (§3.4.3).  With [k = 1] player 0
    takes every edge. *)
val skewed : Tfree_util.Rng.t -> k:int -> bias:float -> Graph.t -> t

(** Player 0 holds everything, the others nothing. *)
val all_to_one : k:int -> Graph.t -> t

(** Do any two players share an edge? *)
val has_duplication : t -> bool
