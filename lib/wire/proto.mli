(** The frame envelope every lib/wire frame travels in, one copy of each
    byte-level primitive it is built from, and the serve protocol's binary
    v2 on top of it.

    The envelope is a varint length prefix, a body, and a 2-byte
    mod-2^16 checksum over the body.  {!Frame} puts a player's message in
    the body; {!Service} puts the tag and fields of a v2 serve frame.
    Both write with the primitives below, and both read through one
    {!cursor} and one envelope check, {!try_frame}.  The v2 pieces are the
    negotiation handshake constants, a reusable zero-alloc frame writer,
    and the one self-shrinking socket reader both ends of a serve
    connection read with.

    The service-shape layouts (query/reply/batch/stats) live in
    {!Service}; this module only knows bytes.  All reader failures raise
    the typed {!Wire_error.Wire_error}; nothing here fails open. *)

(** {2 Negotiation} *)

(** First byte of the client hello; chosen ([0xBF]) to be invalid as the
    first byte of any JSON line, which is what keeps v1 clients working
    unchanged against a v2 server. *)
val magic : char

(** Highest protocol version this build speaks. *)
val max_version : int

(** The client's protocol preference: [V1] speaks JSON lines without a
    handshake (wire-compatible with pre-v2 servers); [V2] and [Auto] send
    the hello and use whatever the server negotiates — binary when both
    sides speak v2, JSON lines otherwise. *)
type pref = V1 | V2 | Auto

val pref_to_string : pref -> string

(** The two-byte hello for [version], identical in both directions: the
    client offers the highest version it speaks, the server answers with
    the version the connection will use ([0] = refused, fall back to v1). *)
val hello : int -> string

(** {2 Byte-level primitives} *)

(** The largest frame length prefix a reader accepts, 64 MiB: a
    corrupted prefix must not make a reader allocate or wait for
    gigabytes.  The client caps a v1 reply line at the same size. *)
val max_frame_bytes : int

(** [sum16 data off len]: the sum mod 2^16 of [data.[off .. off+len-1]],
    the envelope's checksum.  It detects every single bit-flip (a flip
    changes one byte by ±2^k, k ≤ 7, which cannot vanish mod 2^16). *)
val sum16 : Bytes.t -> int -> int -> int

(** Bytes an unsigned LEB128 varint of the value takes. *)
val varint_size : int -> int

(** Zigzag map of a possibly-negative integer onto a non-negative one,
    small magnitudes to small values; {!get_zigzag} reads it back. *)
val zigzag : int -> int

(** {2 Writing: reusable scratch buffer}

    One {!buf} per connection (or per client), reused for every frame:
    {!begin_frame}, [put_*] the tag and fields, {!end_frame} — which seals
    the checksum and writes the length varint backwards into reserved
    headroom, so the finished frame is the contiguous byte range
    [{!frame_off}, {!frame_off} + {!frame_len}) of {!storage}.  No
    allocation happens on the steady-state path once the buffer has grown
    to its working size. *)

type buf

val create_buf : ?capacity:int -> unit -> buf
val begin_frame : buf -> unit
val put_u8 : buf -> int -> unit

(** Unsigned LEB128; negative is a programming error.
    @raise Invalid_argument on a negative value. *)
val put_varint : buf -> int -> unit

(** Zigzag-mapped varint for possibly-negative integers. *)
val put_zigzag : buf -> int -> unit

(** IEEE-754 binary64, little-endian. *)
val put_f64 : buf -> float -> unit

(** Varint byte length, then the bytes. *)
val put_string : buf -> string -> unit

val end_frame : buf -> unit
val storage : buf -> Bytes.t
val frame_off : buf -> int
val frame_len : buf -> int

(** Body bytes inside the sealed frame (tag + fields, without length
    prefix and checksum) — the "payload" side of the framed/payload byte
    split. *)
val frame_body_len : buf -> int

(** {2 Reading: reusable bounds-checked cursor} *)

type cursor

val cursor : unit -> cursor

(** Point the cursor at [data[pos, limit)].
    @raise Invalid_argument if the range is not inside [data]. *)
val set_cursor : cursor -> Bytes.t -> pos:int -> limit:int -> unit

(** Bytes left before the limit. *)
val remaining : cursor -> int

(** The [get_*] readers mirror the writers; each raises a typed
    {!Wire_error.Wire_error} ([Truncated] past the limit, [Corrupt] on an
    overlong, overflowing or negative varint) rather than reading out of
    bounds.  {!get_varint} is the one LEB128 reader of lib/wire: a varint
    longer than 10 bytes, one whose tenth byte carries payload bits (they
    would overflow 63 bits) or one reaching the sign bit is [Corrupt]. *)

val get_u8 : cursor -> int
val get_varint : cursor -> int
val get_zigzag : cursor -> int
val get_f64 : cursor -> float
val get_string : cursor -> string

(** Fail [Corrupt] if the cursor has not consumed its whole region — a
    layout mismatch, not trailing garbage to ignore. *)
val expect_end : cursor -> unit

(** {2 The envelope check} *)

(** [try_frame data ~pos ~limit cur] scans [data[pos, limit)] for one
    complete frame, checking in this order: the length prefix, the
    {!max_frame_bytes} cap ([Oversized]), a body too short for a tag and
    the checksum ([Corrupt]), the bounds, the checksum ([Corrupt]).  On
    success it points [cur] at the body (checksum excluded) and returns
    the total byte length to consume.  It returns [-1] while the bytes are
    still a prefix of a valid frame (read more); [cur] is then spent.
    Every frame reader in lib/wire runs this check: the v2 splitter
    ({!next}) and {!Frame.decode}.
    @raise Wire_error.Wire_error when the bytes can never become a valid
    frame — a byte stream cannot resync after these, so fail the
    connection closed.
    @raise Invalid_argument if [pos, limit) is not inside [data]. *)
val try_frame : Bytes.t -> pos:int -> limit:int -> cursor -> int

(** {2 The socket reader}

    The one way either end of a serve connection reads: {!fill} tops a
    read buffer up with one chunked [Unix.read], and {!next}, the one
    splitter, takes the next unit off its front.  The daemon fills once
    per readable event and drains; the client fills under its reply
    deadline and keeps one reader from its hello to the reply.

    The buffer grows by doubling to fit whatever arrives, is compacted in
    place, and — the part a long-lived daemon needs — shrinks back to the
    default allocation once taking a unit leaves at most a small tail, so
    one near-8MB batch does not pin megabytes for the connection's
    lifetime. *)

type reader

val reader : unit -> reader

(** A fresh reader's allocation. *)
val rbuf_default_capacity : int

(** Capacity above this is released as soon as the buffered tail fits the
    default allocation again. *)
val rbuf_retain_capacity : int

(** Bytes read but not yet taken. *)
val buffered : reader -> int

(** The current allocation (observable for the shrink tests). *)
val capacity : reader -> int

(** Covers the body of the last {!Frame} taken, until the next {!next}. *)
val body : reader -> cursor

(** [Eof]: the peer closed or reset; [Again]: [EINTR] or not ready. *)
type fill = Data | Eof | Again

(** One read into the buffer's free tail, compacted when short of room
    and grown only when full.
    @raise Unix.Unix_error on any other read failure. *)
val fill : reader -> Unix.file_descr -> fill

(** [Hello v] carries the version byte of a {!hello}; [Line] is a v1
    line without its newline; [Frame len] a v2 frame of [len] bytes. *)
type unit_read = Pending | Hello of int | Line of string | Frame of int

(** Take the next complete unit, or return [Pending] and take nothing.
    [version] is what the connection speaks: [0] while negotiating (a
    first byte of {!magic} opens a hello, anything else a line), [1] v1
    lines, [2] v2 frames.
    @raise Wire_error.Wire_error on a frame stream that can never resync
    (as {!try_frame}). *)
val next : reader -> version:int -> unit_read
