(** Bit-size arithmetic for the communication cost model.

    The paper charges O(log n) bits per vertex or edge identifier; this module
    fixes the exact accounting used everywhere: a value ranging over [c]
    possibilities costs [ceil (log2 c)] bits (minimum 1). *)

(* floor (log2 x) for x >= 1, by halving the candidate shift: six steps
   for any int, where a bit-at-a-time loop takes up to 62.  Every message
   width goes through here, a few times per message sent. *)
let floor_log2 x =
  if x < 1 then invalid_arg "Bits.floor_log2: nonpositive";
  let r = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin
    r := 32;
    x := !x lsr 32
  end;
  if !x lsr 16 <> 0 then begin
    r := !r + 16;
    x := !x lsr 16
  end;
  if !x lsr 8 <> 0 then begin
    r := !r + 8;
    x := !x lsr 8
  end;
  if !x lsr 4 <> 0 then begin
    r := !r + 4;
    x := !x lsr 4
  end;
  if !x lsr 2 <> 0 then begin
    r := !r + 2;
    x := !x lsr 2
  end;
  if !x lsr 1 <> 0 then !r + 1 else !r

(** Smallest [b] with [2^b >= c]; at least 1 (and at most 62: every int
    is below 2^62). *)
let for_card c = if c <= 2 then 1 else 1 + floor_log2 (c - 1)

(** Bits to name a vertex of an n-vertex graph. *)
let vertex ~n = for_card (Int.max n 2)

(** Bits to name an (unordered) edge: two vertex identifiers. *)
let edge ~n = 2 * vertex ~n

(** Bits for an integer known to lie in [lo, hi]: the width of the offset
    [hi - lo], computed without forming the count [hi - lo + 1], which
    wraps at [lo = 0, hi = max_int].  [hi - lo] itself wraps (reads
    negative) exactly when the range holds more than 2^62 values. *)
let int_in_range ~lo ~hi =
  if hi < lo then invalid_arg "Bits.int_in_range: hi < lo";
  let span = hi - lo in
  if span < 0 then invalid_arg "Bits.int_in_range: more than 2^62 values";
  if span = 0 then 1 else 1 + floor_log2 span

(** Bits for a nonnegative integer sent with a self-delimiting (Elias-gamma
    style) code: 2*floor(log2 (v+1)) + 1. *)
let elias_gamma v =
  if v < 0 then invalid_arg "Bits.elias_gamma: negative";
  let x = v + 1 in
  if x <= 1 then 1 else (2 * floor_log2 x) + 1

(** ceil (log2 x) for floats, used in cost formulas. *)
let log2 x = Float.log x /. Float.log 2.0
