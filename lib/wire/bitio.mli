(** Bit-granular I/O over byte buffers: MSB-first bit packing, so the codec
    can emit exactly the bit counts the cost model charges.  Fields of up
    to 62 bits move through a word-sized accumulator a byte at a time.
    Byte-boundary padding happens only at {!align} / {!to_bytes}; the frame
    layer accounts for it as framing overhead, never as payload. *)

(** A growable, reusable output buffer.  The writer owns its storage:
    {!reset} empties it without freeing it, so one writer kept by its owner
    (e.g. one per wire network) encodes frame after frame without
    allocating once it has grown to the largest frame.  A writer is not
    safe to share between domains. *)
type writer

val writer : unit -> writer

(** Forget everything written; the storage is kept for reuse. *)
val reset : writer -> unit

(** Bits written since creation or the last {!reset}, including any pad
    bits {!align} added. *)
val bits_written : writer -> int

(** Bytes the written bits occupy, a final partial byte included. *)
val byte_length : writer -> int

(** The writer's storage; bytes [0, byte_length w) hold the written
    stream once it is {!align}ed.  The buffer is the writer's own: it is
    overwritten by the next {!reset} and writes, and replaced (so a saved
    reference goes stale) whenever a write outgrows it.  Copy out what
    must outlive the next write. *)
val storage : writer -> Bytes.t

val put_bit : writer -> bool -> unit

(** Write the low 8 bits of the int (a single store at a byte
    boundary). *)
val put_byte : writer -> int -> unit

(** Write [v] in exactly [width] (0..62) bits, most significant first.
    @raise Invalid_argument if [width] is out of range or [v] does not
    fit. *)
val put_bits : writer -> width:int -> int -> unit

(** Elias-gamma code: exactly {!Tfree_util.Bits.elias_gamma}[ v] bits.
    @raise Invalid_argument on a negative [v] or [v = max_int]. *)
val put_gamma : writer -> int -> unit

(** Zero-pad the final partial byte on the right; the pad bits count as
    written. *)
val align : writer -> unit

(** {!align}, then a fresh copy of the written bytes. *)
val to_bytes : writer -> Bytes.t

type reader

(** [reader data ~off ~len] reads bits from the [len] bytes of [data]
    starting at byte [off], and never looks outside that range.  The
    arguments are plain labels, not optional ones, so a reader built per
    frame boxes nothing but itself.
    @raise Invalid_argument if the range is not inside [data]. *)
val reader : Bytes.t -> off:int -> len:int -> reader

val bits_read : reader -> int

(** Bits between the read position and the end of the range. *)
val bits_left : reader -> int

(** The readers raise [Invalid_argument] on a read past the end of the
    range (consuming nothing), on a width outside 0..62, and on a gamma
    code whose value cannot be an [int]. *)
val get_bit : reader -> bool

val get_bits : reader -> width:int -> int
val get_gamma : reader -> int
