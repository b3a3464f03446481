(** Streaming DIMACS reader/writer (the [p edge] / [e u v] dialect the
    aegypti-style triangle tools consume).

    The parser is strict and fail-closed: a [p edge N M] header must
    precede every edge line, vertices are 1-based and must lie in
    [1..N], the number of [e]-lines must equal the declared [M], and any
    line that is not a comment ([c]), a header or an edge is an error —
    every violation raises {!Dataset_error.Dataset_error}.  Edges stream
    straight into {!Graph.of_edge_seq}; no intermediate edge list is
    materialized, so million-edge files parse in one pass.  Self-loops
    and duplicate edges are legal input and collapse exactly as
    {!Graph.of_edges} collapses them. *)

open Tfree_graph

val parse_string : string -> Graph.t

(** Parse a file, reading line by line.
    @raise Dataset_error.Dataset_error on unreadable or malformed input. *)
val load : string -> Graph.t

(** Render in canonical form: a [c] banner, the [p edge n m] header, then
    one [e u v] line per edge (1-based, lexicographic).  [parse_string]
    inverts it exactly. *)
val to_string : Graph.t -> string

val save : Graph.t -> string -> unit
