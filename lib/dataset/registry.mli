(** The named-dataset registry: [name -> path/format/metadata], backed by a
    JSON manifest ([tfree-datasets/v1]) that [tfree serve --datasets] loads
    at startup and the [tfree dataset] CLI verbs maintain.

    Loaded graphs are memoized per registry, so every connection of a
    daemon shares one in-memory copy of each corpus; {!graph} also
    cross-checks the loaded vertex/edge counts against the manifest and
    fails closed on disagreement.  Generated datasets ([tfree dataset
    gen]) carry their generation parameters in the manifest so a
    dataset-backed query can be proven byte-identical to the equivalent
    generated-instance query. *)

open Tfree_graph

type format = Dimacs | Edges | Snapshot

val format_to_string : format -> string

(** Decide a file's format from its content: the snapshot magic, else a
    DIMACS [p]-line among the leading lines, else an edge list.
    @raise Dataset_error.Dataset_error when the file cannot be read. *)
val sniff : string -> format

(** Parse a graph file. [format] defaults to {!sniff}'s verdict. *)
val load_graph : ?format:format -> string -> Graph.t

(** How a generated dataset was built (the [tfree dataset gen] parameters,
    in the service's instance-builder vocabulary). *)
type gen_meta = { gen_family : string; gen_n : int; gen_d : float; gen_eps : float; gen_seed : int }

type entry = {
  name : string;
  path : string;  (** relative paths resolve against the manifest's directory *)
  format : format;
  n : int;
  m : int;
  gen : gen_meta option;
}

type t

(** An empty registry; [dir] (default ".") anchors relative entry paths. *)
val create : ?dir:string -> unit -> t

(** Parse and validate a manifest file; entry paths resolve against the
    manifest's own directory.
    @raise Dataset_error.Dataset_error on an unreadable or invalid manifest. *)
val load : string -> t

val save : t -> string -> unit

(** Add or replace (by name) an entry. *)
val add : t -> entry -> unit

(** Manifest order, replaced entries in place. *)
val entries : t -> entry list

val find : t -> string -> entry option
val resolve_path : t -> entry -> string

(** The loaded graph for a registered name, memoized; the first load
    cross-checks n/m against the manifest entry.
    @raise Dataset_error.Dataset_error on an unknown name, an unreadable or
    malformed file, or a metadata mismatch. *)
val graph : t -> string -> Graph.t

(** Eagerly load every registered dataset (daemon startup). *)
val preload : t -> unit
