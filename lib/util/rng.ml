(** Splittable pseudo-random number generator.

    The paper's protocols rely on {e shared randomness}: all players and the
    coordinator interpret the same public random bits, e.g. to agree on a
    random priority order over vertices (Algorithm 1) or on a sampled vertex
    set (Algorithms 7--10) without communicating.  We realize this with a
    SplitMix64 generator: a stream is identified by a 64-bit state, and
    [split] derives a statistically independent child stream from a parent
    stream and an integer key.  Two parties holding the same root seed derive
    identical streams for identical key paths, which is exactly the shared-
    randomness abstraction.

    In addition to stateful streams we expose {e stateless keyed hashing}
    ([hash_float], [hash_bool], ...): a pure function of (stream, key) used to
    implement shared random priorities and shared Bernoulli marks over huge
    index spaces without materializing them. *)

(* The 64-bit state is kept as two 32-bit halves in immediate int fields
   rather than in one mutable [int64] field, which boxed a fresh value on
   every step.  With [mix64] and the drawing functions inlined, a draw runs
   on unboxed values and allocates nothing. *)
type t = { mutable hi : int; mutable lo : int; salt : int64 }

let[@inline] state t = Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)
let[@inline] high s = Int64.to_int (Int64.shift_right_logical s 32)
let[@inline] low s = Int64.to_int (Int64.logand s 0xFFFF_FFFFL)
let make s salt = { hi = high s; lo = low s; salt }

let golden = 0x9E3779B97F4A7C15L

(* SplitMix64 finalizer: a strong 64-bit mixing permutation. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = make (mix64 (Int64.of_int seed)) (mix64 (Int64.add (Int64.of_int seed) golden))

let copy t = make (state t) t.salt

let[@inline] next_int64 t =
  let s = Int64.add (state t) golden in
  t.hi <- high s;
  t.lo <- low s;
  mix64 (Int64.logxor s t.salt)

(** [split t key] derives an independent child stream.  The child depends
    only on the {e current} state of [t] and [key]; it does not advance [t],
    so parties that agree on [t]'s state and the key derive the same child. *)
let split t key =
  let k = mix64 (Int64.logxor t.salt (Int64.of_int key)) in
  make (mix64 (Int64.logxor (state t) k)) (mix64 (Int64.add k golden))

(* The top 53 bits of [h], an int in [0, 2^53). *)
let[@inline] top53 h = Int64.to_int (Int64.shift_right_logical h 11)

(* [top53 h] as a float in [0, 1).  An int below 2^53 converts exactly
   (inline, where [Int64.to_float] calls into C), and multiplying by 2^-53
   is exact, so it equals dividing by 2^53, without the division. *)
let[@inline] unit_float h = float_of_int (top53 h) *. 0x1p-53

(* The integer form of [unit_float h < p]: it holds exactly when
   [top53 h < threshold p].  [unit_float h] is [top53 h · 2^-53] exactly,
   and [p · 2^53] is exact too, so the test is [top53 h < p · 2^53], which
   for an integer [top53 h] is [top53 h < ⌈p · 2^53⌉].  No [h] passes
   0 (p <= 0 or NaN) and every [h] passes 2^53 (p >= 1). *)
let threshold p =
  if p >= 1.0 then 1 lsl 53 else if p > 0.0 then int_of_float (Float.ceil (p *. 0x1p53)) else 0

(* The keyed hash of [key] under the stream with state [s] and salt
   [salt]. *)
let[@inline] keyed s salt key = mix64 (Int64.logxor (Int64.add s (Int64.of_int key)) salt)

(** Stateless keyed hash in [0, 1). *)
let[@inline] hash_float t key = unit_float (keyed (state t) t.salt key)

(** Stateless keyed hash over a pair of keys, in [0, 1). *)
let hash_float2 t key1 key2 =
  let h1 = keyed (state t) t.salt key1 in
  unit_float (mix64 (Int64.add h1 (Int64.of_int key2)))

let hash_bool t key ~p = hash_float t key < p

(* Split children kept for keyed hashing only, 16 bytes a slot: the
   child's state, then its salt.  Read and written through the compiler's
   unboxed 64-bit primitives, so a slot costs no record and no boxed salt,
   where [split] allocates both. *)
type splits = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splits count =
  if count < 0 then invalid_arg "Rng.splits: negative count";
  Bytes.create (16 * count)

(** Slot [i] becomes [split t key], by the same arithmetic. *)
let set_split c i t key =
  if i < 0 || i >= Bytes.length c / 16 then invalid_arg "Rng.set_split: slot out of range";
  let k = mix64 (Int64.logxor t.salt (Int64.of_int key)) in
  set64 c (16 * i) (mix64 (Int64.logxor (state t) k));
  set64 c ((16 * i) + 8) (mix64 (Int64.add k golden))

(* The most bits {!mark_word} packs into one int. *)
let word_bits = 61

(** Bit [b] of the word is whether some key of [keys] is marked under slot
    [first + b]: [hash_bool] under that slot's child, as an integer test
    against the threshold of [p].  The slot range is checked once; each
    slot's state and salt are read into unboxed locals, its scan stops at
    the first marked key, and nothing is allocated. *)
let mark_word c ~first ~count ~p keys =
  if count < 0 || count > word_bits || first < 0 || first > (Bytes.length c / 16) - count then
    invalid_arg "Rng.mark_word: slot range out of bounds";
  let thr = threshold p in
  let len = Array.length keys in
  let word = ref 0 in
  for b = 0 to count - 1 do
    let at = 16 * (first + b) in
    let s = get64 c at and salt = get64 c (at + 8) in
    let j = ref 0 in
    while !j < len && top53 (keyed s salt (Array.unsafe_get keys !j)) >= thr do
      incr j
    done;
    if !j < len then word := !word lor (1 lsl b)
  done;
  !word

(** The key first in ([hash_float t key], key) order, or -1 if [keys] is
    empty.  [hash_float] is monotone in [top53], so comparing the [top53]
    ints, ties to the smaller key, gives the same order without a float. *)
let first_key t keys =
  let s = state t and salt = t.salt in
  let best = ref (-1) and best_h = ref max_int in
  for x = 0 to Array.length keys - 1 do
    let v = Array.unsafe_get keys x in
    let h = top53 (keyed s salt v) in
    if h < !best_h || (h = !best_h && v < !best) then begin
      best := v;
      best_h := h
    end
  done;
  !best

(** Uniform integer in [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem r (Int64.of_int bound))

let[@inline] float t = unit_float (next_int64 t)

let[@inline] bool t ~p = float t < p

(** [geometric] for p in (0, 1), given [log_q] = log1p (-p): a caller
    drawing many skips at one [p] computes the logarithm once. *)
let[@inline] geometric_log t ~log_q =
  let u = float t in
  let u = if u <= 0.0 then 1e-300 else u in
  let g = Float.to_int (Float.floor (Float.log u /. log_q)) in
  if g < 0 then 0 else g

(** Geometric number of failures before first success with parameter [p];
    used for fast Bernoulli-subset sampling by skipping. *)
let geometric t ~p =
  if p >= 1.0 then 0
  else if p <= 0.0 then max_int
  else geometric_log t ~log_q:(Float.log1p (-.p))
