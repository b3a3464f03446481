(** Whitespace edge-list reader/writer: one [u v] pair per line, 0-based,
    with [#] comments and blank lines ignored — the lingua franca of SNAP
    and most published graph corpora.

    Fail-closed like {!Dimacs}: a line that is not exactly two integers,
    a negative endpoint, or (under an explicit [?n]) an endpoint at or
    beyond [n] raises {!Dataset_error.Dataset_error}.  Endpoints are
    buffered in a growable flat int array (no list cells) because the
    vertex count is only known once the whole file has streamed past —
    unless [?n] pins it up front.  Without [?n] the vertex count is
    inferred as [1 + max endpoint] (trailing isolated vertices are not
    representable; pass [?n] to keep them). *)

open Tfree_graph

val parse_string : ?n:int -> string -> Graph.t

(** @raise Dataset_error.Dataset_error on unreadable or malformed input. *)
val load : ?n:int -> string -> Graph.t

(** One [u v] line per edge (0-based, lexicographic) under a [#] banner.
    [parse_string ~n:(Graph.n g)] inverts it exactly. *)
val to_string : Graph.t -> string
