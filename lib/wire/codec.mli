(** Self-delimiting binary codec for {!Tfree_comm.Msg} values, driven by the
    message {!Tfree_comm.Msg.layout}: the encoded payload occupies exactly
    [Msg.bits] bits (asserted), so wire bytes reconcile with the cost model
    by construction.  The layout descriptor serializes separately and is
    framing overhead, never payload. *)

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

(** Parse a descriptor from [data] starting at [!pos], advancing [pos];
    reads no byte at or beyond [limit].
    @raise Wire_error.Wire_error — [Truncated] at [limit], [Corrupt] on an
    unknown tag, a bad varint, an empty or unrepresentable range, or
    nesting deeper than 64. *)
val get_layout : Bytes.t -> limit:int -> int ref -> Msg.layout

(** Unsigned LEB128 varint, shared with the frame header.  Allocates
    nothing. *)
val put_varint : Bitio.writer -> int -> unit

(** Bytes {!put_varint} writes for [v]. *)
val varint_size : int -> int

(** Parse a varint at [!pos], advancing [pos]; reads no byte at or beyond
    [limit].
    @raise Wire_error.Wire_error — [Truncated] at [limit], [Corrupt] on a
    varint longer than 10 bytes, one whose tenth byte carries payload bits
    (they would overflow 63 bits), or one overflowing into the sign bit. *)
val get_varint : Bytes.t -> limit:int -> int ref -> int
