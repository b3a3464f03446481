(** Length-prefixed framing over a {!Transport}: varint length, varint
    payload bit count, layout descriptor, a payload of exactly [Msg.bits]
    bits, and a 2-byte mod-2^16 checksum that detects every single bit-flip
    in the body.  Everything except the payload bits is framing overhead,
    so [8 * frame_bytes - payload_bits] per frame reconciles wire bytes
    against the cost ledger.  Parsing fails closed with typed
    {!Wire_error.Wire_error}s ([Oversized] / [Truncated] / [Corrupt]) —
    never out-of-bounds reads, unbounded allocation, or string-matched
    exceptions. *)

open Tfree_comm

(** Hard cap (64 MiB) on the body length a reader will believe; a corrupted
    length prefix beyond it raises [Oversized]. *)
val max_frame_bytes : int

(** {2 The frame image} *)

(** The reusable buffers of one sender: the image of the frame being sent
    and the buffer {!exchange} reads it back into.  Its owner (one
    {!Wire_runtime} network) encodes every frame into the same scratch, so
    a delivery allocates no buffer once the scratch has grown to the
    largest frame.  A scratch serves one frame at a time and is not safe
    to share between domains.

    The scratch also remembers which header its image holds — the length
    prefix, the payload bit count and the layout descriptor — keyed by the
    message's layout, {e by physical equality}, and its payload bit count.
    Those two fix every header byte, and a layout is immutable, so the
    same layout value is the same descriptor.  A frame whose key matches
    leaves the previous frame's header in place and writes only its
    payload and checksum; any other writes its header afresh.  Only the
    constant layouts of {!Msg.empty} and {!Msg.bool} (and a message resent
    unchanged) share a layout value between messages: every other smart
    constructor of {!Msg} builds a fresh layout, so those frames miss and
    cost one comparison more than with no memo.  On an unrestricted query,
    whose frames are nearly all one-bit replies, about 99% of frames hit.
    Either way the image is byte-for-byte the frame {!encode} builds.
    Nothing is remembered on the decoding side: {!exchange} parses every
    field of the bytes it reads back. *)
type scratch

val scratch : unit -> scratch

(** Write the whole frame for the message into the scratch, replacing the
    previous frame: the header (kept from the last frame if the message's
    layout and bit count are the last frame's), then the payload, then the
    checksum, written once, front to back.  This is the only frame
    encoder; {!encode}, {!write} and {!exchange} all go through it.
    @raise Invalid_argument as {!Codec.encode_into}, or if the body comes
    out at another length than its header announces. *)
val encode_into : scratch -> Msg.t -> unit

(** The scratch's image: the current frame is bytes [0, frame_len s).  The
    buffer belongs to the scratch — the next {!encode_into} or {!exchange}
    on it overwrites it or replaces it with a larger one — so copy out any
    bytes that must outlive that.  Read it only: the next frame may keep
    this one's header bytes where they are. *)
val image : scratch -> Bytes.t

(** Size in bytes of the frame currently in the scratch. *)
val frame_len : scratch -> int

(** The whole frame for a message, in fresh bytes the caller owns. *)
val encode : Msg.t -> Bytes.t

(** {2 Parsing} *)

(** Parse one frame from a buffer at [!pos]; advances [pos] past it.
    @raise Wire_error.Wire_error on truncation, an oversized or inconsistent
    length, a checksum mismatch, or an undecodable payload. *)
val decode : Bytes.t -> int ref -> Msg.t

val overhead_bits : frame_bytes:int -> payload_bits:int -> int

(** {2 Over a transport} *)

(** Send one frame; returns its size in bytes. *)
val write : Transport.t -> Msg.t -> int

(** Receive one frame; returns the message and its size in bytes.
    @raise Wire_error.Wire_error as for {!decode}, plus whatever the
    transport raises ([Truncated] / [Peer_closed]). *)
val read : Transport.t -> Msg.t * int

(** Loopback round trip through the scratch: encode the frame into its
    image, cross the transport into its read-back buffer, decode.  Returns
    the delivered message, a fresh value that shares no memory with the
    scratch; the frame's size is {!frame_len} afterwards.
    @raise Wire_error.Wire_error as for {!read}, or if bytes trail the
    frame. *)
val exchange : scratch -> Transport.t -> Msg.t -> Msg.t
