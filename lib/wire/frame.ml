(** Length-prefixed message framing.

    Frame format, all framing fields byte-aligned:

    {v
    varint  L              length in bytes of everything after this varint
    varint  payload_bits   exact payload length in bits
    layout  descriptor     self-delimiting (Codec.put_layout)
    payload bytes          ceil(payload_bits / 8), right-padded
    2 bytes checksum       sum mod 2^16 of every body byte before it
    v}

    The payload occupies exactly [Msg.bits] bits ({!Codec.encode_into}
    asserts it); everything else — length prefix, bit count, descriptor,
    final padding, checksum — is framing overhead.  Per frame,
    [8 * total_bytes - payload_bits] is that overhead, so over a run
    [wire_bytes * 8 - framing_overhead_bits = accounted_bits] holds exactly
    when the ledger and the transport agree.

    Every frame is built by {!encode_into}: the body length is known before
    the first byte is written (the bit count is [Msg.bits], the descriptor
    size is {!Codec.layout_size}), so the whole image — prefix, header,
    descriptor, payload, checksum — is written once, front to back, into a
    reusable {!scratch}.  The frames of the three constant messages are
    built that way once, at module initialisation, and {!exchange} sends
    and recognises them without encoding or parsing.

    Parsing fails closed: a length field beyond {!max_frame_bytes} raises
    [Oversized], a body the stream cannot supply raises [Truncated], and a
    checksum mismatch, impossible length combination or undecodable payload
    raises [Corrupt] — all typed {!Wire_error.Wire_error}s, so a fault
    injected below this layer can abort a run but never smuggle a wrong
    message past it.  The byte-sum checksum detects {e every} single
    bit-flip in the body (a flip changes one byte by ±2^k, k ≤ 7, which
    cannot vanish mod 2^16). *)

open Tfree_comm

(** Hard cap on the body length a reader will believe (64 MiB) — a
    corrupted length prefix must not make the receiver allocate or wait for
    gigabytes.  The largest honest frame in the repo is well under 1 MiB. *)
let max_frame_bytes = 1 lsl 26

(* Smallest possible body: 1-byte bit count + 1-byte layout + checksum. *)
let min_body_bytes = 4

let sum16 data off len =
  let s = ref 0 in
  for i = off to off + len - 1 do
    s := !s + Char.code (Bytes.unsafe_get data i)
  done;
  !s land 0xffff

(* ------------------------------------------------------------- encoding *)

type scratch = {
  writer : Bitio.writer;  (** where {!encode_into} builds a frame *)
  mutable frame : Bytes.t;  (** the frame last built or sent: bytes [0, len) *)
  mutable len : int;
  mutable back : Bytes.t;  (** where {!exchange} reads the frame back *)
  cursor : int ref;  (** {!exchange}'s parse position in [back] *)
}

let scratch () =
  let writer = Bitio.writer () in
  { writer; frame = Bitio.storage writer; len = 0; back = Bytes.create 64; cursor = ref 0 }

(** Write the whole frame for [msg] into [s], replacing the previous one. *)
let encode_into s msg =
  let w = s.writer in
  let payload_bits = Msg.bits msg and layout = Msg.layout msg in
  let body_len =
    Codec.varint_size payload_bits + Codec.layout_size layout + ((payload_bits + 7) / 8) + 2
  in
  Bitio.reset w;
  Codec.put_varint w body_len;
  let start = Bitio.byte_length w in
  Codec.put_varint w payload_bits;
  Codec.put_layout w layout;
  Codec.encode_into w msg;
  Bitio.align w;
  let ck = sum16 (Bitio.storage w) start (Bitio.byte_length w - start) in
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

(* Validate and decode one frame body of [body_len] bytes at [!pos]: verify
   the checksum, then the length arithmetic, then decode the payload, and
   leave [pos] just past the body.  The caller has already bounds-checked
   the body against the data; nothing outside it is read. *)
let parse_body data pos ~body_len =
  if body_len < min_body_bytes then
    Wire_error.errorf_corrupt "Frame: body of %d bytes is shorter than any frame" body_len;
  let start = !pos in
  let ck_off = start + body_len - 2 in
  let expect = sum16 data start (body_len - 2) in
  let got = Char.code (Bytes.get data ck_off) lor (Char.code (Bytes.get data (ck_off + 1)) lsl 8) in
  if expect <> got then
    Wire_error.errorf_corrupt "Frame: checksum mismatch (computed %04x, carried %04x)" expect got;
  let payload_bits = Codec.get_varint data ~limit:ck_off pos in
  let layout = Codec.get_layout data ~limit:ck_off pos in
  let payload_bytes = (payload_bits + 7) / 8 in
  if !pos + payload_bytes <> ck_off then
    Wire_error.errorf_corrupt "Frame: inconsistent frame lengths (%d-bit payload in a %d-byte body)"
      payload_bits body_len;
  let msg = Codec.decode_payload layout data ~off:!pos ~bits:payload_bits in
  pos := start + body_len;
  msg

let check_body_len body_len =
  if body_len > max_frame_bytes then
    Wire_error.error (Wire_error.Oversized { limit = max_frame_bytes; got = body_len })

(* One frame from [data] at [!pos], reading no byte at or beyond [limit]. *)
let decode_within data ~limit pos =
  let body_len = Codec.get_varint data ~limit pos in
  check_body_len body_len;
  if !pos + body_len > limit then
    Wire_error.errorf_truncated "Frame.decode: length field %d larger than the %d-byte buffer"
      body_len (limit - !pos);
  parse_body data pos ~body_len

(** Parse one frame from [data] at [!pos]; advances [pos] past it. *)
let decode data pos = decode_within data ~limit:(Bytes.length data) pos

(** Overhead of the frame [bytes] carrying a [payload_bits]-bit payload. *)
let overhead_bits ~frame_bytes ~payload_bits = (8 * frame_bytes) - payload_bits

(* ------------------------------------------------------------ transport *)

(** Send one frame; returns the frame size in bytes. *)
let write tr msg =
  let s = scratch () in
  encode_into s msg;
  Transport.send tr (image s) 0 (frame_len s);
  frame_len s

(* Read the length prefix one byte at a time (a stream has no lookahead):
   up to the first byte without a continuation bit, or ten bytes, whichever
   comes first; {!Codec.get_varint} then judges them. *)
let read_prefix tr =
  let prefix = Bytes.create 10 in
  let n = ref 0 and continue = ref true in
  while !continue do
    Transport.recv tr prefix !n 1;
    continue := Char.code (Bytes.get prefix !n) land 0x80 <> 0 && !n < 9;
    incr n
  done;
  let pos = ref 0 in
  let body_len = Codec.get_varint prefix ~limit:!n pos in
  (body_len, !n)

(** Receive one frame; returns the message and the frame size in bytes. *)
let read tr =
  let body_len, prefix_len = read_prefix tr in
  check_body_len body_len;
  let body = Bytes.create body_len in
  Transport.recv tr body 0 body_len;
  let msg = parse_body body (ref 0) ~body_len in
  (msg, prefix_len + body_len)

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
    let pos = s.cursor in
    pos := 0;
    let delivered = decode_within s.back ~limit:len pos in
    if !pos <> len then
      Wire_error.errorf_corrupt "Frame.exchange: %d trailing bytes after the frame" (len - !pos);
    delivered
  end
