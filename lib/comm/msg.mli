(** Messages with exact bit accounting.  Every value crossing a channel in
    any model is a [Msg.t]: a typed payload plus its cost under the
    {!Tfree_util.Bits} schema.  Protocols construct messages only through the
    smart constructors, keeping the cost model centralized and auditable.

    Every message also carries its {!layout} — the exact bit-level encoding
    (field widths, length prefixes, flag bits) that its constructor committed
    to.  The wire codec ([Tfree_wire.Codec]) serializes payloads from the
    layout, so an encoded message occupies exactly {!bits} physical bits:
    the cost model and the wire format are one schema. *)

type value =
  | Unit
  | Bool of bool
  | Int of int
  | Vertex of int
  | No_vertex
  | Edge of int * int
  | Vertices of int list
  | Edges of (int * int) list
  | Tuple of value list

(** Bit-level encoding schema of a message.  [n] fixes the vertex-identifier
    width ceil(log2 n); [lo, hi] fix a range-coded integer's width; lists are
    length-prefixed with an Elias-gamma code. *)
type layout =
  | L_unit
  | L_bool
  | L_int_in of { lo : int; hi : int }
  | L_nat
  | L_vertex of { n : int }
  | L_vertex_opt of { n : int }
  | L_edge of { n : int }
  | L_vertices of { n : int }
  | L_edges of { n : int }
  | L_tuple of layout list

(** A message is immutable.  The constant ones — {!empty}, both {!bool}
    replies, and what {!of_layout} rebuilds under [L_unit] and [L_bool] —
    are single shared values, so a reply costs no allocation; which
    messages are shared is not part of the interface, so never compare
    messages with [==]: use {!equal}. *)
type t

(** Cost in bits. *)
val bits : t -> int

val value : t -> value

(** The encoding schema committed to by the constructor. *)
val layout : t -> layout

(** Rebuild a message from a layout and a payload value; [bits] is
    recomputed from the layout, so a decoded message equals the original.
    @raise Invalid_argument if the value does not fit the layout (a codec
    bug, not a recoverable condition). *)
val of_layout : layout -> value -> t

(** Zero-bit placeholder (structurally implied requests). *)
val empty : t

(** One bit. *)
val bool : bool -> t

(** Integer known by both sides to lie in [lo, hi]; costs
    ceil(log2 (hi-lo+1)).  @raise Invalid_argument outside the range. *)
val int_in : lo:int -> hi:int -> int -> t

(** Nonnegative integer, self-delimiting code. *)
val nat : int -> t

(** Vertex identifier: ceil(log2 n) bits. *)
val vertex : n:int -> int -> t

(** Optional vertex: 1 flag bit plus the identifier when present. *)
val vertex_opt : n:int -> int option -> t

(** Edge: two vertex identifiers. *)
val edge : n:int -> int * int -> t

(** Length-prefixed vertex list. *)
val vertices : n:int -> int list -> t

(** Length-prefixed edge list — the dominant message type everywhere. *)
val edges : n:int -> (int * int) list -> t

(** Concatenation; cost is the sum of the parts. *)
val tuple : t list -> t

(** Same value, same bit count and same layout, compared field by field at
    their own types (no polymorphic compare).  Layouts count: a vertex
    under [L_vertex {n = 300}] and the same vertex under [{n = 512}] are
    different messages, though both cost 9 bits. *)
val equal : t -> t -> bool

(** Extractors; a mismatch is a protocol bug and raises [Invalid_argument]. *)

val get_bool : t -> bool
val get_int : t -> int
val get_vertex_opt : t -> int option
val get_edge : t -> int * int
val get_vertices : t -> int list
val get_edges : t -> (int * int) list

(** The edges of every message in the array, message by message, each in
    its own order: the union a referee or coordinator builds from a round's
    edge-list replies. *)
val all_edges : t array -> (int * int) list

(** Parts of a tuple, each carrying its own layout and bit count. *)
val get_tuple : t -> t list
