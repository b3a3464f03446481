(** Small-subgraph containment for the H-freeness extension (§5): patterns,
    embedding search (backtracking with degree pruning), verification, and
    greedy edge-disjoint packing. *)

(** A pattern graph on vertices [0 .. vertices-1].  Patterns should list
    well-connected vertices first (the built-ins do); embeddings are
    not-necessarily-induced subgraph copies. *)
type pattern = { name : string; vertices : int; edges : (int * int) list }

val triangle : pattern
val four_cycle : pattern
val four_clique : pattern
val four_path : pattern
val diamond : pattern
val five_cycle : pattern

(** An embedding [a] (with [a.(pattern vertex) = graph vertex]) if one
    exists. *)
val find : Graph.t -> pattern -> int array option

val contains : Graph.t -> pattern -> bool

val is_free : Graph.t -> pattern -> bool

(** Does the assignment really embed the pattern (injective, all pattern
    edges present)?  Referees verify candidate outputs with this to stay
    one-sided. *)
val is_embedding : Graph.t -> pattern -> int array -> bool

(** Greedy edge-disjoint packing of pattern copies; certifies farness from
    H-freeness as triangle packings do. *)
val greedy_packing : Graph.t -> pattern -> int array list
