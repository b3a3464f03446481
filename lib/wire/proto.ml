(** The frame envelope of lib/wire, and the serve protocol's binary v2.

    Every frame in lib/wire, a player's {!Frame} and a v2 serve frame
    alike, travels in one envelope:

    {v
    varint  L         length in bytes of everything after this varint
    body    L-2 bytes a player's Msg (Frame) or a tag + fields (Service)
    2 bytes checksum  sum mod 2^16 of the body bytes
    v}

    This module owns that envelope and every byte-level primitive it is
    built from, one copy each: the LEB128 reader and writer, {!varint_size},
    zigzag, {!sum16} and the {!max_frame_bytes} cap.  {!Codec} reads its
    layout descriptor and {!Frame} its header through the same {!cursor};
    {!try_frame} is the one envelope check, run by the v2 reader and by
    {!Frame.decode} alike.

    The JSON-per-line service protocol (v1) pays a parse/print cost and a
    5-10x byte inflation on every query, exactly the waste the repo's
    bit-accounting discipline exists to expose; v2 carries fixed binary
    layouts for the service's request/reply/batch/stats shapes in this
    envelope instead.  On top of the envelope this module keeps the v2
    pieces that do not depend on a frame's shape:

    - the negotiation handshake constants ({!magic}, {!max_version});
    - {!buf}, a reusable growable scratch buffer with a frame
      writer ({!begin_frame}/{!end_frame}) that seals a varint length
      prefix and a 2-byte mod-2^16 checksum around whatever was put;
    - {!reader}, the one way either end of a serve connection reads:
      chunked socket reads ({!fill}) into a self-shrinking buffer, split
      by {!next} into the hello answer, a v1 line or a v2 frame.

    Everything on the steady-state path is allocation-free: puts poke
    bytes into preallocated storage, gets read scalars out of it, and the
    only allocations are amortized buffer growth and the boxed
    float/int64 a 64-bit load cannot avoid.  The micro-benchmark gate
    ([bench/micro]) asserts this with a [Gc.minor_words]-per-query bound. *)

(* --------------------------------------------------------- negotiation *)

(* The first byte of any JSON value the v1 protocol can carry is an open
   brace/bracket, a double quote, [t]/[f]/[n], a digit, a minus sign or
   whitespace — all below 0x80.  0xBF can
   therefore never open a v1 request line, which is what makes the
   handshake backward-compatible: a server reading 0xBF first knows it has
   a v2-capable peer, and a v1 client's JSON is served unchanged. *)
let magic = '\xbf'
let max_version = 2

(** The client's protocol preference: [V1] speaks JSON lines without a
    handshake (wire-compatible with pre-v2 servers), [V2] and [Auto] send
    the magic+version hello and use whatever the server negotiates —
    binary v2 when both sides speak it, JSON v1 otherwise. *)
type pref = V1 | V2 | Auto

let pref_to_string = function V1 -> "v1" | V2 -> "v2" | Auto -> "auto"

(** The two-byte hello for [version], both directions: the client offers
    the highest version it speaks, the server answers with the version the
    connection will use (0 = refused; the connection falls back to v1). *)
let hello version = Printf.sprintf "%c%c" magic (Char.chr (version land 0xff))

(* ---------------------------------------------------------- primitives *)

(** Hard cap on the body length a reader will believe (64 MiB): a
    corrupted length prefix must not make a reader allocate or wait for
    gigabytes.  The largest honest frame in the repo is well under 1 MiB. *)
let max_frame_bytes = 1 lsl 26

let sum16 data off len =
  let s = ref 0 in
  for i = off to off + len - 1 do
    s := !s + Char.code (Bytes.unsafe_get data i)
  done;
  !s land 0xffff

(* Varints are unsigned: all 63 bits of an int, a negative int taking 9
   bytes. *)
let varint_size v =
  let rec go v acc = if v lsr 7 = 0 then acc else go (v lsr 7) (acc + 1) in
  go v 1

(* Zigzag, so that small negative integers take few varint bytes: 0, -1,
   1, -2, ... go to 0, 1, 2, 3, ..., a bijection of the 63-bit ints whose
   images from 2^62 up are the negative ints.  {!get_zigzag} inverts it. *)
let zigzag v = (v lsl 1) lxor (v asr 62)

(* ------------------------------------------------------- scratch buffer *)

(* Room reserved in front of the body for the sealed length varint: 64 MiB
   needs 4 varint bytes; 5 is safe for anything the cap admits. *)
let headroom = 5

type buf = {
  mutable data : Bytes.t;
  mutable len : int;  (** bytes written so far, including the headroom *)
  mutable off : int;  (** start of the sealed frame after {!end_frame} *)
}

let create_buf ?(capacity = 256) () =
  { data = Bytes.create (max capacity (headroom + 8)); len = headroom; off = headroom }

let ensure b extra =
  let need = b.len + extra in
  if need > Bytes.length b.data then begin
    let cap = ref (Bytes.length b.data) in
    while !cap < need do
      cap := !cap * 2
    done;
    let grown = Bytes.create !cap in
    Bytes.blit b.data 0 grown 0 b.len;
    b.data <- grown
  end

let put_u8 b v =
  ensure b 1;
  Bytes.unsafe_set b.data b.len (Char.unsafe_chr (v land 0xff));
  b.len <- b.len + 1

(* The one LEB128 writer into a {!buf}: the 63 bits of [v] at
   [data.[pos]], returning the position after it.  The caller has made
   room. *)
let rec write_varint data pos v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set data pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set data pos (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    write_varint data (pos + 1) (v lsr 7)
  end

let put_varint b v =
  if v < 0 then invalid_arg "Proto.put_varint: negative";
  ensure b 10;
  b.len <- write_varint b.data b.len v

let put_zigzag b v =
  ensure b 10;
  b.len <- write_varint b.data b.len (zigzag v)

let put_f64 b f =
  ensure b 8;
  Bytes.set_int64_le b.data b.len (Int64.bits_of_float f);
  b.len <- b.len + 8

let put_string b s =
  let n = String.length s in
  put_varint b n;
  ensure b n;
  Bytes.blit_string s 0 b.data b.len n;
  b.len <- b.len + n

let begin_frame b =
  b.len <- headroom;
  b.off <- headroom

let end_frame b =
  let body_len = b.len - headroom in
  let ck = sum16 b.data headroom body_len in
  ensure b 2;
  Bytes.unsafe_set b.data b.len (Char.unsafe_chr (ck land 0xff));
  Bytes.unsafe_set b.data (b.len + 1) (Char.unsafe_chr (ck lsr 8));
  b.len <- b.len + 2;
  (* seal the length varint flush against the body, inside the headroom *)
  let l = body_len + 2 in
  b.off <- headroom - varint_size l;
  ignore (write_varint b.data b.off l)

let storage b = b.data
let frame_off b = b.off
let frame_len b = b.len - b.off

(** Body bytes inside the sealed frame — the tag and layout fields, without
    the length prefix and checksum.  This is the "payload" side of the
    framed/payload byte split the load generator reports. *)
let frame_body_len b = b.len - headroom - 2

(* ---------------------------------------------------------------- cursor *)

type cursor = { mutable cdata : Bytes.t; mutable cpos : int; mutable clim : int }

let cursor () = { cdata = Bytes.empty; cpos = 0; clim = 0 }

(* The readers below use unchecked loads, so the range is checked here. *)
let set_cursor cur data ~pos ~limit =
  if pos < 0 || pos > limit || limit > Bytes.length data then
    invalid_arg "Proto.set_cursor: range outside the buffer";
  cur.cdata <- data;
  cur.cpos <- pos;
  cur.clim <- limit

let remaining cur = cur.clim - cur.cpos

let get_u8 cur =
  if cur.cpos >= cur.clim then
    Wire_error.errorf_truncated "Proto.get_u8: read past the end of the body";
  let v = Char.code (Bytes.unsafe_get cur.cdata cur.cpos) in
  cur.cpos <- cur.cpos + 1;
  v

(* The one LEB128 reader in lib/wire: the 63 bits of the varint at the
   cursor, which moves past it.  If the limit comes first the cursor goes
   back to [start] and the result is 0; as every varint takes a byte, a
   cursor that has not moved is how a caller tells a short read.  Nine
   7-bit groups cover every int, so a tenth byte may carry no payload bits
   (they would be shifted out) and an eleventh is garbage. *)
let rec scan_varint_from cur start v shift =
  if shift > 63 then Wire_error.errorf_corrupt "Proto.get_varint: varint longer than 10 bytes";
  if cur.cpos >= cur.clim then begin
    cur.cpos <- start;
    0
  end
  else begin
    let byte = Char.code (Bytes.unsafe_get cur.cdata cur.cpos) in
    cur.cpos <- cur.cpos + 1;
    if shift = 63 && byte land 0x7f <> 0 then
      Wire_error.errorf_corrupt "Proto.get_varint: varint overflows 63 bits";
    let v = v lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 <> 0 then scan_varint_from cur start v (shift + 7) else v
  end

let scan_varint cur =
  let p = cur.cpos in
  if p < cur.clim && Char.code (Bytes.unsafe_get cur.cdata p) < 0x80 then begin
    (* the common one-byte varint *)
    cur.cpos <- p + 1;
    Char.code (Bytes.unsafe_get cur.cdata p)
  end
  else scan_varint_from cur p 0 0

(* A length, count or tag: a varint whose ninth group reaches the sign
   bit (2^62 or more) is garbage. *)
let[@inline] non_negative v =
  if v < 0 then Wire_error.errorf_corrupt "Proto.get_varint: negative value";
  v

(* The varint at the cursor, all 63 bits, the limit coming first being a
   truncation. *)
let[@inline] get_bits_varint cur =
  let p = cur.cpos in
  let v = scan_varint cur in
  if cur.cpos = p then Wire_error.errorf_truncated "Proto.get_varint: truncated varint";
  v

let get_varint cur = non_negative (get_bits_varint cur)

(* The inverse of {!zigzag}: an even image is [z / 2], an odd one
   [-(z / 2) - 1], with [z] unsigned, so the [lsr]. *)
let get_zigzag cur =
  let z = get_bits_varint cur in
  (z lsr 1) lxor (-(z land 1))

let get_f64 cur =
  if cur.cpos + 8 > cur.clim then Wire_error.errorf_truncated "Proto.get_f64: truncated float";
  let f = Int64.float_of_bits (Bytes.get_int64_le cur.cdata cur.cpos) in
  cur.cpos <- cur.cpos + 8;
  f

let get_string cur =
  let n = get_varint cur in
  if n > remaining cur then
    Wire_error.errorf_truncated "Proto.get_string: %d-byte string in a %d-byte remainder" n
      (remaining cur);
  let s = if n = 0 then "" else Bytes.sub_string cur.cdata cur.cpos n in
  cur.cpos <- cur.cpos + n;
  s

let expect_end cur =
  if cur.cpos <> cur.clim then
    Wire_error.errorf_corrupt "Proto.expect_end: %d trailing bytes after the message"
      (remaining cur)

(* ------------------------------------------------------------ envelope *)

(** The one envelope check.  Scan [data[pos, limit)] for one complete
    frame: the length prefix, then the cap, then the shortest body (a tag
    byte and the checksum), then the bounds, then the checksum.  On
    success point [cur] at the body (checksum excluded) and return the
    total frame length to consume; return [-1] when the bytes so far are a
    prefix of a valid frame (read more).
    @raise Wire_error.Wire_error when the bytes can never become a valid
    frame.  A byte stream cannot resync after any of these, so the caller
    must fail the connection closed. *)
let try_frame data ~pos ~limit cur =
  set_cursor cur data ~pos ~limit;
  match scan_varint cur with
  | _ when cur.cpos = pos -> -1
  | l ->
      let l = non_negative l in
      if l > max_frame_bytes then
        Wire_error.error (Wire_error.Oversized { limit = max_frame_bytes; got = l });
      if l < 3 then
        Wire_error.errorf_corrupt "Proto.try_frame: %d-byte frame is shorter than any message" l;
      let body_start = cur.cpos in
      if l > limit - body_start then -1
      else begin
        let ck_off = body_start + l - 2 in
        let expect = sum16 data body_start (l - 2) in
        let got =
          Char.code (Bytes.unsafe_get data ck_off)
          lor (Char.code (Bytes.unsafe_get data (ck_off + 1)) lsl 8)
        in
        if expect <> got then
          Wire_error.errorf_corrupt
            "Proto.try_frame: checksum mismatch (computed %04x, carried %04x)" expect got;
        cur.clim <- ck_off;
        ck_off + 2 - pos
      end

(* ------------------------------------------------------------ the reader *)

(* A connection's reads: {!fill} puts socket bytes straight into
   [rdata[rend, ...)], {!next} takes them a hello, a line or a frame at a
   time from [rstart].  Capacity policy: grow by doubling to fit whatever
   arrives (the callers separately cap buffered bytes), but once
   consumption leaves at most a small tail, fall back to the default
   allocation — a connection that once carried a near-8MB batch must not
   pin that memory while it idles.  [scanned] counts the bytes past
   [rstart] known to hold no newline, so a long line is scanned once, not
   once per fill. *)

let rbuf_default_capacity = 4 * 1024

(** Retained capacity above this is released as soon as the buffered tail
    fits the default allocation again. *)
let rbuf_retain_capacity = 64 * 1024

type reader = {
  mutable rdata : Bytes.t;
  mutable rstart : int;
  mutable rend : int;
  body : cursor;
  mutable scanned : int;
}

let reader () =
  { rdata = Bytes.create rbuf_default_capacity; rstart = 0; rend = 0; body = cursor (); scanned = 0 }

let buffered r = r.rend - r.rstart
let capacity r = Bytes.length r.rdata
let body r = r.body

(* Discard [n] taken bytes from the front and apply the shrink policy. *)
let consume r n =
  r.rstart <- r.rstart + n;
  r.scanned <- 0;
  let avail = buffered r in
  if avail = 0 then begin
    r.rstart <- 0;
    r.rend <- 0;
    if Bytes.length r.rdata > rbuf_retain_capacity then r.rdata <- Bytes.create rbuf_default_capacity
  end
  else if Bytes.length r.rdata > rbuf_retain_capacity && avail <= rbuf_default_capacity then begin
    (* a big request went through but a small tail remains: keep the tail,
       release the oversized allocation *)
    let small = Bytes.create rbuf_default_capacity in
    Bytes.blit r.rdata r.rstart small 0 avail;
    r.rdata <- small;
    r.rstart <- 0;
    r.rend <- avail
  end

type fill = Data | Eof | Again

(* A free tail shorter than this is compacted before a read.  The buffer
   only grows, by doubling, once it is full, so a caller that checks its
   cap before each fill never allocates past it. *)
let min_read = 1024

let fill r fd =
  let avail = buffered r in
  if Bytes.length r.rdata - r.rend < min_read then begin
    if avail = Bytes.length r.rdata then begin
      (* full, so [rstart] is 0 *)
      let grown = Bytes.create (2 * avail) in
      Bytes.blit r.rdata 0 grown 0 avail;
      r.rdata <- grown
    end
    else if r.rstart > 0 then begin
      Bytes.blit r.rdata r.rstart r.rdata 0 avail;
      r.rstart <- 0;
      r.rend <- avail
    end
  end;
  match Unix.read fd r.rdata r.rend (Bytes.length r.rdata - r.rend) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Eof
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Again
  | 0 -> Eof
  | n ->
      r.rend <- r.rend + n;
      Data

type unit_read = Pending | Hello of int | Line of string | Frame of int

(* The first '\n' in [data[pos, lim)], or -1; [Bytes.index_from] would
   scan past the buffered region. *)
let find_newline data pos lim =
  let i = ref pos in
  while !i < lim && Bytes.unsafe_get data !i <> '\n' do
    incr i
  done;
  if !i < lim then !i else -1

let next r ~version =
  let data = r.rdata and start = r.rstart and limit = r.rend in
  if version >= 2 then (
    match try_frame data ~pos:start ~limit r.body with
    | -1 -> Pending
    | len ->
        consume r len;
        Frame len)
  else if version = 0 && start < limit && Bytes.unsafe_get data start = magic then
    if limit - start < 2 then Pending
    else begin
      let offered = Char.code (Bytes.unsafe_get data (start + 1)) in
      consume r 2;
      Hello offered
    end
  else
    match find_newline data (start + r.scanned) limit with
    | -1 ->
        r.scanned <- limit - start;
        Pending
    | nl ->
        let line = Bytes.sub_string data start (nl - start) in
        consume r (nl - start + 1);
        Line line
