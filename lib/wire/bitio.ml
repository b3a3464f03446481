(** Bit-granular I/O over byte buffers.

    The cost model charges messages in bits, not bytes ({!Tfree_util.Bits}),
    so the wire codec must be able to emit a 1-bit boolean as one bit.  The
    writer packs bits MSB-first into bytes; the reader walks the same stream.
    Both move whole bytes at a time: a field of up to 62 bits is shifted into
    (or out of) a word-sized accumulator and crosses the buffer a byte per
    step, never a bit per step.  Padding to the byte boundary happens only
    where the caller asks for it ({!align}, {!to_bytes}), and the frame layer
    accounts for it as framing overhead — never folded into the payload. *)

type writer = {
  mutable buf : Bytes.t;
  mutable pos : int;  (* whole bytes written *)
  mutable acc : int;  (* the pending bits, right-aligned *)
  mutable pending : int;  (* number of pending bits, < 8 *)
}

let writer () = { buf = Bytes.create 64; pos = 0; acc = 0; pending = 0 }

let reset w =
  w.pos <- 0;
  w.acc <- 0;
  w.pending <- 0

let bits_written w = (8 * w.pos) + w.pending
let byte_length w = w.pos + if w.pending > 0 then 1 else 0
let storage w = w.buf

let grow w need =
  let cap = ref (Bytes.length w.buf) in
  while !cap < w.pos + need do
    cap := 2 * !cap
  done;
  let fresh = Bytes.create !cap in
  Bytes.blit w.buf 0 fresh 0 w.pos;
  w.buf <- fresh

(* Append the low [width] <= 55 bits of [v].  With fewer than 8 bits
   already pending the accumulator never exceeds 62 bits, and at most 7
   whole bytes leave it. *)
let put_small w width v =
  let acc = (w.acc lsl width) lor v and n = w.pending + width in
  if n < 8 then begin
    w.acc <- acc;
    w.pending <- n
  end
  else begin
    if w.pos + 8 > Bytes.length w.buf then grow w 8;
    let n = ref n and pos = ref w.pos in
    while !n >= 8 do
      n := !n - 8;
      Bytes.unsafe_set w.buf !pos (Char.unsafe_chr ((acc lsr !n) land 0xff));
      incr pos
    done;
    w.pos <- !pos;
    w.pending <- !n;
    w.acc <- acc land ((1 lsl !n) - 1)
  end

let put_bit w b = put_small w 1 (if b then 1 else 0)

(** Write the low 8 bits of [b]: one store when the writer is at a byte
    boundary, as it is for every byte-aligned framing field. *)
let put_byte w b =
  if w.pending = 0 then begin
    if w.pos >= Bytes.length w.buf then grow w 1;
    Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (b land 0xff));
    w.pos <- w.pos + 1
  end
  else put_small w 8 (b land 0xff)

(** Write [v] in exactly [width] bits, most significant first.
    @raise Invalid_argument if [v] needs more than [width] bits. *)
let put_bits w ~width v =
  if width < 0 || width > 62 then invalid_arg "Bitio.put_bits: width out of range";
  if v < 0 || (width < 62 && v lsr width <> 0) then
    invalid_arg "Bitio.put_bits: value does not fit width";
  if width <= 55 then put_small w width v
  else begin
    put_small w (width - 32) (v lsr 32);
    put_small w 32 (v land 0xffff_ffff)
  end

(** Elias-gamma code for a nonnegative integer: exactly
    {!Tfree_util.Bits.elias_gamma}[ v] bits — [floor (log2 (v+1))] zeros,
    then [v+1] in binary. *)
let put_gamma w v =
  if v < 0 then invalid_arg "Bitio.put_gamma: negative";
  if v = max_int then invalid_arg "Bitio.put_gamma: value too large";
  let x = v + 1 in
  let nb = Tfree_util.Bits.floor_log2 x in
  put_bits w ~width:nb 0;
  put_bits w ~width:(nb + 1) x

(** Zero-pad to the next byte boundary; the pad counts as written. *)
let align w = if w.pending > 0 then put_small w (8 - w.pending) 0

(** Align, then copy the written bytes out. *)
let to_bytes w =
  align w;
  Bytes.sub w.buf 0 w.pos

type reader = { data : Bytes.t; off : int; mutable pos : int; limit : int }

(** Read bits from [len] bytes of [data] starting at byte [off]. *)
let reader data ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length data then
    invalid_arg "Bitio.reader: range outside the buffer";
  { data; off; pos = 0; limit = len * 8 }

let bits_read r = r.pos
let bits_left r = r.limit - r.pos

(* The unread bits of the current byte, right-aligned: [8 - pos mod 8] of
   them. *)
let unread r =
  let byte = Char.code (Bytes.unsafe_get r.data (r.off + (r.pos lsr 3))) in
  byte land ((1 lsl (8 - (r.pos land 7))) - 1)

let get_bit r =
  if r.pos >= r.limit then invalid_arg "Bitio.get_bit: past end of stream";
  let b = unread r lsr (7 - (r.pos land 7)) in
  r.pos <- r.pos + 1;
  b = 1

let get_bits r ~width =
  if width < 0 || width > 62 then invalid_arg "Bitio.get_bits: width out of range";
  if width > r.limit - r.pos then invalid_arg "Bitio.get_bits: past end of stream";
  let v = ref 0 and need = ref width in
  while !need > 0 do
    let avail = 8 - (r.pos land 7) in
    let take = if avail < !need then avail else !need in
    v := (!v lsl take) lor (unread r lsr (avail - take));
    need := !need - take;
    r.pos <- r.pos + take
  done;
  !v

let get_gamma r =
  (* skip the zero prefix a byte at a time, up to and including its 1 *)
  let nb = ref 0 and found = ref false in
  while not !found do
    if r.pos >= r.limit then invalid_arg "Bitio.get_gamma: past end of stream";
    let avail = 8 - (r.pos land 7) and bits = unread r in
    if bits = 0 then begin
      nb := !nb + avail;
      r.pos <- r.pos + avail
    end
    else begin
      let zeros = avail - 1 - Tfree_util.Bits.floor_log2 bits in
      nb := !nb + zeros;
      r.pos <- r.pos + zeros + 1;
      found := true
    end
  done;
  if !nb > 61 then invalid_arg "Bitio.get_gamma: code longer than any int";
  (* the 1 bit just consumed is the MSB of v+1 *)
  let rest = get_bits r ~width:!nb in
  ((1 lsl !nb) lor rest) - 1
