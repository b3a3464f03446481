(** Constant-factor approximate counting of the distinct elements held
    jointly by the players — Theorem 3.1 (duplication-tolerant: MSB phase +
    geometric guesses with shared-randomness Bernoulli experiments) and
    Lemma 3.2 (duplication-free: truncated exact counts).  Instantiated for
    vertex degrees and for the total edge count.

    Threshold note: the paper's constant-picking passage has typos; we use
    the statistically equivalent midpoint threshold documented in the
    implementation header and DESIGN.md §2. *)

open Tfree_comm
open Tfree_graph

(** Index of the most significant set bit; -1 for nonpositive input. *)
val msb_index : int -> int

(** The stop threshold θ and separation margin for approximation factor
    [alpha] (both in (0,1)). *)
val thresholds : alpha:float -> float * float

(** Theorem 3.1: an α-approximation, with probability >= 1-τ, of the
    number of distinct elements the players hold jointly; 0 when nobody
    holds any.  [elements input] is a player's elements as an [int array]
    (ids agreed upon by all players, repeats allowed), read in place and
    never written.  Each phase-2 guess is one {!Runtime.ask_all} round with
    an empty request: every player answers all of the guess's experiments
    at once, one bit each (whether its array holds an element marked in
    that experiment, scanned up to the first one), packed LSB-first into
    range-coded words of at most 61 bits, so it is charged exactly one bit
    per experiment.  The coordinator ORs the words and counts the set bits.
    Rounds are this batching's choice; marks, bits and the estimate are
    those of one round per experiment.
    @raise Invalid_argument when [alpha <= 1], before any round. *)
val approx_distinct :
  Runtime.t -> key:int -> alpha:float -> tau:float -> boost:float -> elements:(Graph.t -> int array) -> int

(** Lemma 3.2: without duplication, the truncated-count sum — never
    over-counts, within factor [alpha], O(k·log log) bits, deterministic.
    @raise Invalid_argument when [alpha <= 1]. *)
val approx_distinct_nodup : Runtime.t -> key:int -> alpha:float -> elements:(Graph.t -> int list) -> int

(** α-approximate deg(v) under duplication: {!approx_distinct} over each
    player's neighbour row of v, as the player's graph stores it. *)
val approx_degree : Runtime.t -> key:int -> alpha:float -> tau:float -> boost:float -> int -> int

(** α-approximate total edge count m (Corollary 3.22's degree estimate). *)
val approx_edge_count : Runtime.t -> key:int -> alpha:float -> tau:float -> boost:float -> int
