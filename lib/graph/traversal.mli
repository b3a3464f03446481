(** Centralized traversals used by referees, verifiers and the additional
    property testers. *)

(** Distance array from the source (-1 = unreachable). *)
val bfs : Graph.t -> int -> int array

(** (component label per vertex, number of components). *)
val components : Graph.t -> int array * int

val is_connected : Graph.t -> bool

(** Proper 2-coloring when bipartite. *)
val two_color : Graph.t -> int array option

val is_bipartite : Graph.t -> bool

(** An odd cycle (vertex list, consecutive entries and the wrap-around pair
    adjacent) when the graph is not bipartite. *)
val odd_cycle : Graph.t -> int list option
