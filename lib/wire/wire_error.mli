(** The wire stack's typed failure taxonomy: every [Tfree_wire] layer fails
    closed through {!Wire_error} — truncated streams, corrupt frames,
    oversized lengths, closed peers, expired deadlines and detected injected
    faults — so callers never match on exception message strings, and no
    fault can turn into a wrong verdict (only into a categorized error). *)

type kind =
  | Truncated of string  (** the stream ended before the bytes the frame promised *)
  | Corrupt of string  (** bytes arrived but do not decode (checksum, varint, layout, bit count) *)
  | Oversized of { limit : int; got : int }  (** a length field beyond the frame-size cap *)
  | Peer_closed of string  (** the other side of the transport went away *)
  | Timeout of string  (** a read deadline expired *)
  | Injected of string  (** a scheduled {!Fault} fired and was detected as such *)
  | Unavailable of string  (** a transport could not be opened (e.g. no descriptor left) *)

exception Wire_error of kind

val message : kind -> string

(** The {!Tfree_wire.Metrics} bucket: ["timeout"] for deadlines,
    ["transport"] for everything else. *)
val category : kind -> string

(** Raise {!Wire_error}. *)
val error : kind -> 'a

(** [Printf]-style raisers for the two decode-side kinds. *)
val errorf_corrupt : ('a, unit, string, 'b) format4 -> 'a

val errorf_truncated : ('a, unit, string, 'b) format4 -> 'a
