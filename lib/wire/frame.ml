(** A player's message in the lib/wire frame envelope.

    The envelope (varint length, body, 2-byte mod-2^16 checksum, 64 MiB
    cap) is {!Proto}'s, shared with the v2 serve frames; this module puts
    a {!Msg} in its body, all fields byte-aligned:

    {v
    varint  L              length in bytes of everything after this varint
    varint  payload_bits   exact payload length in bits
    layout  descriptor     self-delimiting (Codec.put_layout)
    payload bytes          ceil(payload_bits / 8), right-padded
    2 bytes checksum       Proto.sum16 of every body byte before it
    v}

    The payload occupies exactly [Msg.bits] bits ({!Codec.encode_into}
    asserts it); everything else — length prefix, bit count, descriptor,
    final padding, checksum — is framing overhead.  Per frame,
    [8 * total_bytes - payload_bits] is that overhead ({!overhead_bits}),
    so over a run [wire_bytes * 8 - framing_overhead_bits = accounted_bits]
    holds exactly when the ledger and the transport agree.

    Every frame is built by {!encode_into}: the body length is known before
    the first byte is written (the bit count is [Msg.bits], the descriptor
    size is {!Codec.layout_size}), so the whole image — prefix, header,
    descriptor, payload, checksum — is written once, front to back, into a
    reusable {!scratch}.  The frames of the three constant messages are
    built that way once, at module initialisation, and {!exchange} sends
    and recognises them without encoding or parsing.

    Parsing runs {!Proto.try_frame}, the one envelope check, and then
    reads the body alone: the bit count, the descriptor and the payload,
    through a {!Proto.cursor}.  It fails closed: a length beyond
    {!Proto.max_frame_bytes} raises [Oversized], a frame the bytes cannot
    supply raises [Truncated], and a checksum mismatch, impossible length
    combination or undecodable payload raises [Corrupt] — all typed
    {!Wire_error.Wire_error}s, so a fault injected below this layer can
    abort a run but never smuggle a wrong message past it. *)

open Tfree_comm

(* Smallest possible body: 1-byte bit count + 1-byte layout + checksum. *)
let min_body_bytes = 4

(* ------------------------------------------------------------- encoding *)

type scratch = {
  writer : Bitio.writer;  (** where {!encode_into} builds a frame *)
  mutable frame : Bytes.t;  (** the frame last built or sent: bytes [0, len) *)
  mutable len : int;
  mutable back : Bytes.t;  (** where {!exchange} reads the frame back *)
  pos : int ref;  (** {!exchange}'s parse position in [back] *)
  cur : Proto.cursor;  (** reads the body of the frame being parsed *)
}

let scratch () =
  let writer = Bitio.writer () in
  {
    writer;
    frame = Bitio.storage writer;
    len = 0;
    back = Bytes.create 64;
    pos = ref 0;
    cur = Proto.cursor ();
  }

(** Write the whole frame for [msg] into [s], replacing the previous one. *)
let encode_into s msg =
  let w = s.writer in
  let payload_bits = Msg.bits msg and layout = Msg.layout msg in
  let body_len =
    Proto.varint_size payload_bits + Codec.layout_size layout + ((payload_bits + 7) / 8) + 2
  in
  Bitio.reset w;
  Codec.put_varint w body_len;
  let start = Bitio.byte_length w in
  Codec.put_varint w payload_bits;
  Codec.put_layout w layout;
  Codec.encode_into w msg;
  Bitio.align w;
  let ck = Proto.sum16 (Bitio.storage w) start (Bitio.byte_length w - start) in
  Bitio.put_byte w ck;
  Bitio.put_byte w (ck lsr 8);
  s.frame <- Bitio.storage w;
  s.len <- Bitio.byte_length w;
  if s.len - start <> body_len then
    invalid_arg
      (Printf.sprintf "Frame.encode_into: wrote a %d-byte body, sized it at %d" (s.len - start)
         body_len)

let image s = s.frame
let frame_len s = s.len

(** The whole frame for [msg], in fresh bytes. *)
let encode msg =
  let s = scratch () in
  encode_into s msg;
  Bytes.sub (image s) 0 (frame_len s)

(* The frames of the three constant messages — the empty requests and
   one-bit replies that make up ~99% of an unrestricted query's frames. *)
let constants = [| Msg.empty; Msg.bool false; Msg.bool true |]
let images = Array.map encode constants

(* The index of [msg] among [constants], or [Array.length constants].  The
   constant messages are shared values, so [==] finds every one of them. *)
let rec sent_index msg i =
  if i = Array.length constants || constants.(i) == msg then i else sent_index msg (i + 1)

let rec same_bytes img back i =
  i = Bytes.length img || (Bytes.get img i = Bytes.get back i && same_bytes img back (i + 1))

(* Are the first [len] bytes of [back] exactly image [i]?  The length
   first, then the bytes. *)
let is_image i back len = Bytes.length images.(i) = len && same_bytes images.(i) back 0

(* ------------------------------------------------------------- decoding *)

(* One frame from [data] at [!pos], reading no byte at or beyond [limit]:
   the envelope check, then the body — bit count, layout, payload — which
   must fill it exactly.  Leaves [pos] just past the frame. *)
let parse cur data ~limit pos =
  let start = !pos in
  match Proto.try_frame data ~pos:start ~limit cur with
  | -1 ->
      Wire_error.errorf_truncated "Frame.decode: frame runs past the %d bytes it was given"
        (limit - start)
  | len ->
      let body_len = Proto.remaining cur + 2 in
      if body_len < min_body_bytes then
        Wire_error.errorf_corrupt "Frame: body of %d bytes is shorter than any frame" body_len;
      let payload_bits = Proto.get_varint cur in
      let layout = Codec.get_layout cur in
      let payload_bytes = (payload_bits + 7) / 8 in
      if Proto.remaining cur <> payload_bytes then
        Wire_error.errorf_corrupt
          "Frame: inconsistent frame lengths (%d-bit payload in a %d-byte body)" payload_bits
          body_len;
      pos := start + len;
      Codec.decode_payload layout data ~off:(!pos - 2 - payload_bytes) ~bits:payload_bits

(** Parse one frame from [data] at [!pos]; advances [pos] past it. *)
let decode data pos = parse (Proto.cursor ()) data ~limit:(Bytes.length data) pos

(** Overhead of the frame [bytes] carrying a [payload_bits]-bit payload. *)
let overhead_bits ~frame_bytes ~payload_bits = (8 * frame_bytes) - payload_bits

(* ------------------------------------------------------------ transport *)

(** Loopback round trip through [s]: the frame, built in [s]'s writer or
    taken from the constant images, crosses the transport into [s]'s
    read-back buffer.  A constant's frame that comes back intact returns
    that constant, which is what parsing it returns; any other bytes are
    parsed. *)
let exchange s tr msg =
  let sent = sent_index msg 0 in
  if sent < Array.length images then begin
    s.frame <- images.(sent);
    s.len <- Bytes.length s.frame
  end
  else encode_into s msg;
  let len = s.len in
  if Bytes.length s.back < len then s.back <- Bytes.create (max len (2 * Bytes.length s.back));
  Transport.exchange tr s.frame 0 len s.back;
  if sent < Array.length images && is_image sent s.back len then constants.(sent)
  else begin
    let pos = s.pos in
    pos := 0;
    let delivered = parse s.cur s.back ~limit:len pos in
    if !pos <> len then
      Wire_error.errorf_corrupt "Frame.exchange: %d trailing bytes after the frame" (len - !pos);
    delivered
  end
