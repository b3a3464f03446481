(** Shared-sample membership tables for the simultaneous players
    (Algorithms 7, 8 and 11).  A shared vertex sample is a keyed Bernoulli
    mark per vertex, [Rng.hash_float rng v < p]; a table records it for
    every vertex with one hash each, so a player's kernel tests membership
    by a byte lookup instead of re-hashing a vertex once per incident edge.
    [Rng.hash_float] is stateless, so building a table draws nothing from
    any stream: the marks, and every message built from them, are the ones
    the per-edge test gives.  A table is built inside one player's message
    function and never shared with another player, so the player stays a
    function of its own input and the shared randomness. *)

open Tfree_util
open Tfree_graph

(** One small integer (a bit set) per vertex; 0 is unmarked. *)
type t

(** All [n] vertices unmarked. *)
val create : n:int -> t

(** [mark t rng ~p ~bit] adds [bit] to the mark of every vertex [v] with
    [Rng.hash_float rng v < p], evaluating the hash once per vertex.
    [bit] is one of 1, 2, 4, ..., 128. *)
val mark : t -> Rng.t -> p:float -> bit:int -> unit

(** [sample rng ~n ~p] is [create ~n] marked with bit 1 at probability [p]. *)
val sample : Rng.t -> n:int -> p:float -> t

(** An independent copy: marking one leaves the other as it was. *)
val copy : t -> t

(** The mark of a vertex. *)
val get : t -> int -> int

(** [fold_edges t g ~init ~f] folds [f] over every edge [(u, v)], [u < v],
    of [g] whose two endpoints are both marked, in {!Graph.iter_edges}
    order.  The row of an unmarked vertex is never read.
    @raise Invalid_argument unless [t] and [g] have the same vertex count. *)
val fold_edges : t -> Graph.t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a
