(** Undirected simple graphs on vertices [0 .. n-1], the common substrate for
    the whole reproduction.

    A graph is immutable: sorted adjacency rows, giving O(log deg) edge
    membership, O(1) degree queries and cheap set intersections (the
    triangle algorithms rely on all three).  A player's private input in
    the communication protocols is itself a [t] on the same vertex set, so
    every local operation a player performs is a plain graph operation.

    {b Views.}  A partition's players are {e views} of the input graph
    ({!views}): a view shares the input's rows and arc offsets and holds
    one bit per arc saying which edges are its own, plus its edge count.
    Row [v] of a view is filtered out of the input's row the first time
    any accessor reads it and kept from then on, so a player whose protocol
    reads a few rows never pays for the rest.  Every accessor but {!equal}
    reads rows that way; on a row already there that costs one physical
    comparison and no allocation.  {!equal} compares an unread row in place
    and keeps nothing.  A view answers every function below exactly as the
    materialized graph of its edges would.

    {b Domains.}  Reading a view from several domains at once is safe.  Two
    domains that fill the same row race benignly: each builds an equal,
    fully initialised row and publishes it with one store, and a reader
    sees one of them whole. *)

type t

(** An edge is normalized as [(u, v)] with [u < v]. *)
type edge = int * int

val normalize_edge : int * int -> edge

(** [of_edges ~n edges] builds a graph; duplicate edges and self-loops are
    dropped.  Raises [Invalid_argument] on out-of-range endpoints.

    Cost O(n + m) with no comparison sort.  Input that is strictly
    ascending in [(u, v)] with [u < v] (the order {!edges} and
    {!iter_edges} produce) is recognized in O(1) per edge and filled
    straight into the rows; any other order is counting-sorted by source,
    transposed and deduplicated in linear passes. *)
val of_edges : n:int -> (int * int) list -> t

(** [of_edge_seq ~n seq] is {!of_edges} over a sequence, forced exactly once:
    endpoints stream into flat int chunks (no intermediate list cells), so
    million-edge parsers feed the CSR build incrementally.
    Semantics and cost are those of [of_edges ~n (List.of_seq seq)]. *)
val of_edge_seq : n:int -> (int * int) Seq.t -> t

(** Incremental construction: {!of_edges} one edge at a time, with the
    same checks, semantics and cost.  The generators stream their edges
    through it; a filter fed in {!iter_edges} order takes the ascending
    fast path. *)
module Builder : sig
  type graph := t
  type t

  val create : n:int -> t

  (** [add b u v] buffers edge [(u, v)]; a self-loop is dropped, an
      out-of-range endpoint raises [Invalid_argument]. *)
  val add : t -> int -> int -> unit

  (** [relabel b perm] renames every endpoint added so far: [x] becomes
      [perm.(x)].  One pass over the buffer, so a generator can add its
      edges before it draws its labels.
      @raise Invalid_argument unless [perm] is a permutation of [0, n). *)
  val relabel : t -> int array -> unit

  (** The graph of every edge added so far; [b] is left unchanged. *)
  val build : t -> graph
end

(** [views g ~k route] cuts [g] into [k] players that are views of [g].
    It walks [g]'s edges once in {!iter_edges} order and calls
    [route give u v] for each; [give j] hands the edge to player [j] by
    setting the bits of both its arcs (giving it twice is giving it once).
    Apart from [route]'s own work, it allocates the arc offsets ([n + 1]
    words, shared by all players), an [n]-word scratch cursor and, per
    player, one bit per arc and an [n]-word row table; no row is built
    until it is read.  A view [g] is read whole first. *)
val views : t -> k:int -> ((int -> unit) -> int -> int -> unit) -> t array

val empty : n:int -> t

(** Number of vertices. *)
val n : t -> int

(** Number of edges. *)
val m : t -> int

(** Average degree 2m/n (0 for the empty vertex set). *)
val avg_degree : t -> float

val degree : t -> int -> int

(** Sorted array of neighbours; physically shared, do not mutate.  On a
    view, the first read of a row builds it ({!views}). *)
val neighbors : t -> int -> int array

(** O(log min-degree) membership probe of the shorter sorted adjacency;
    both vertices must be in range. *)
val mem_edge : t -> int -> int -> bool

(** All edges, each once, normalized, in lexicographic order. *)
val edges : t -> edge list

val iter_edges : t -> (int -> int -> unit) -> unit

val fold_edges : t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

(** Union of edge sets (same [n] required); linear merge of the sorted
    adjacency arrays. *)
val union : t -> t -> t

(** Subgraph keeping only edges with both endpoints in the given set. *)
val induced : t -> int list -> t

(** Subgraph keeping edges on which [f u v] holds. *)
val filter_edges : t -> (int -> int -> bool) -> t

(** [relabel g perm] renames vertex [v] to [perm.(v)] in O(n + m), mapping
    the sorted rows directly.  Raises [Invalid_argument] unless [perm] is a
    permutation of [0 .. n-1] (a repeated target would merge vertices). *)
val relabel : t -> int array -> t

(** [embed g perm] is {!relabel} into a larger vertex set: [perm] is a
    permutation of [0 .. N-1] with [N >= n g], vertex [v] of [g] becomes
    [perm.(v)], and the [N - n g] labels no vertex of [g] maps to are
    isolated.  Raises [Invalid_argument] if [perm] is shorter than [n g] or
    not a permutation. *)
val embed : t -> int array -> t

(** Structural equality of edge sets.  Builds no row of a view. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
