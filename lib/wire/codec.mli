(** Self-delimiting binary codec for {!Tfree_comm.Msg} values, driven by the
    message {!Tfree_comm.Msg.layout}: the encoded payload occupies exactly
    [Msg.bits] bits (asserted), so wire bytes reconcile with the cost model
    by construction.  The layout descriptor serializes separately and is
    framing overhead, never payload.  It travels inside a {!Frame}'s body,
    in the envelope {!Proto} owns, and is read back through a
    {!Proto.cursor}: this module has no varint reader of its own. *)

open Tfree_comm

(** Append the message's payload bits to [w] (no padding).  Allocates
    nothing.  @raise Invalid_argument if the emitted bit count disagrees
    with [Msg.bits] — a codec/cost-model divergence, the bug this subsystem
    exists to catch. *)
val encode_into : Bitio.writer -> Msg.t -> unit

(** {!encode_into} a fresh writer: the payload bytes (right-padded to a
    byte boundary) and the exact payload bit count. *)
val encode_payload : Msg.t -> Bytes.t * int

(** Decode the [bits]-bit payload at byte [off] of [data] under [layout],
    rebuilding the message via {!Msg.of_layout}; reads no byte beyond
    [off + ceil (bits / 8)].  Fails closed: any decode failure — a read past
    the end, a value that does not fit its layout, a bit-count mismatch —
    raises {!Wire_error.Wire_error} ([Corrupt]), never a bare
    [Invalid_argument]. *)
val decode_payload : Msg.layout -> Bytes.t -> off:int -> bits:int -> Msg.t

(** Append the byte-aligned layout descriptor (tags + LEB128 varints,
    zigzag for the possibly-negative range bounds) to [w], which must be at
    a byte boundary. *)
val put_layout : Bitio.writer -> Msg.layout -> unit

(** Bytes {!put_layout} writes for this layout. *)
val layout_size : Msg.layout -> int

(** The descriptor alone, in fresh bytes. *)
val layout_to_bytes : Msg.layout -> Bytes.t

(** Parse a descriptor at the cursor, moving it past the descriptor.
    @raise Wire_error.Wire_error — [Truncated] at the cursor's limit,
    [Corrupt] on an unknown tag, a bad varint, an empty range or one of
    more than 2^62 values, or nesting deeper than 64. *)
val get_layout : Proto.cursor -> Msg.layout

(** Unsigned LEB128 varint of a length, count or tag into a bit writer,
    shared with the frame header; {!Proto.get_varint} reads it.  Allocates
    nothing.
    @raise Invalid_argument on a negative value. *)
val put_varint : Bitio.writer -> int -> unit
