(** A player's message in the lib/wire frame envelope ({!Proto}'s varint
    length, body, 2-byte mod-2^16 checksum and 64 MiB cap, shared with the
    v2 serve frames).  The body is a varint payload bit count, a layout
    descriptor, and a payload of exactly [Msg.bits] bits.  Everything
    except the payload bits is framing overhead, so
    [8 * frame_bytes - payload_bits] per frame reconciles wire bytes
    against the cost ledger.  Player frames are read only by {!decode} and
    {!exchange}; both run {!Proto.try_frame}, the one envelope check, and
    then parse the body.  Parsing fails closed with typed
    {!Wire_error.Wire_error}s ([Oversized] / [Truncated] / [Corrupt]) —
    never out-of-bounds reads, unbounded allocation, or string-matched
    exceptions. *)

open Tfree_comm

(** {2 The frame image} *)

(** The reusable buffers of one sender: the image of the frame being sent
    and the buffer {!exchange} reads it back into.  Its owner (one
    {!Wire_runtime} network) encodes every frame into the same scratch, so
    a delivery allocates no buffer once the scratch has grown to the
    largest frame.  A scratch serves one frame at a time and is not safe
    to share between domains.

    The frames of the three constant messages, {!Msg.empty} and both
    {!Msg.bool} replies, are built once by {!encode}.  {!exchange} sends
    such a message's frame as it is, writing nothing into the scratch, and
    hands back the constant when the bytes come back equal to that frame;
    every other frame is encoded, and every other read-back parsed, in
    full.  On an
    unrestricted query, about 99% of frames are constant. *)
type scratch

val scratch : unit -> scratch

(** Write the whole frame for the message into the scratch, replacing the
    previous frame: header, payload, then checksum, written once, front to
    back.  This is the only frame encoder; {!encode} and {!exchange} go
    through it.
    @raise Invalid_argument as {!Codec.encode_into}, or if the body comes
    out at another length than its header announces. *)
val encode_into : scratch -> Msg.t -> unit

(** The frame last built or sent through the scratch: bytes
    [0, frame_len s).  The buffer is the scratch's own, which the next
    frame overwrites or replaces, or a constant frame shared by every
    scratch: read it only, and copy out any bytes that must outlive the
    next frame. *)
val image : scratch -> Bytes.t

(** Size in bytes of the frame last built or sent through the scratch. *)
val frame_len : scratch -> int

(** The whole frame for a message, in fresh bytes the caller owns. *)
val encode : Msg.t -> Bytes.t

(** {2 Parsing} *)

(** Parse one frame from a buffer at [!pos]; advances [pos] past it.
    @raise Wire_error.Wire_error as {!Proto.try_frame} for the envelope
    (a frame the buffer cannot supply is [Truncated]), and [Corrupt] on a
    body shorter than any frame, inconsistent lengths or an undecodable
    payload. *)
val decode : Bytes.t -> int ref -> Msg.t

(** [8 * frame_bytes - payload_bits]: the framing overhead of frames
    carrying that many payload bits, one frame or a whole run's. *)
val overhead_bits : frame_bytes:int -> payload_bits:int -> int

(** {2 Over a transport} *)

(** Loopback round trip through the scratch: encode the frame into its
    image (or take a constant frame), cross the transport into its
    read-back buffer, decode.  Returns the delivered message, which shares
    no memory with the scratch; the frame's size is {!frame_len}
    afterwards.
    @raise Wire_error.Wire_error as for {!decode}, plus whatever the
    transport raises ([Truncated] / [Peer_closed]), or if bytes trail the
    frame. *)
val exchange : scratch -> Transport.t -> Msg.t -> Msg.t
