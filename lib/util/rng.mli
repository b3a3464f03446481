(** Splittable pseudo-random number generator (SplitMix64).

    The protocols' {e shared randomness} (§2): parties holding the same root
    seed derive identical streams for identical key paths, so agreeing on
    samples, priorities or Bernoulli marks costs no communication.  The
    stateless keyed hashes implement shared random functions over large
    index spaces without materializing them. *)

type t

(** Fresh generator from an integer seed. *)
val create : int -> t

(** Independent copy: advancing one does not affect the other. *)
val copy : t -> t

(** Next raw 64-bit output; advances the stream. *)
val next_int64 : t -> int64

(** [split t key] derives an independent child stream from [t]'s current
    state and [key] without advancing [t]: same state + same key = same
    child, for all parties. *)
val split : t -> int -> t

(** Stateless keyed hash in [0, 1): a pure function of (stream state, key),
    the hash's top 53 bits times 2^-53.  Used for shared random priorities
    and Bernoulli marks. *)
val hash_float : t -> int -> float

(** Stateless keyed hash of a pair of keys, in [0, 1); order-sensitive. *)
val hash_float2 : t -> int -> int -> float

(** [hash_bool t key ~p]: shared Bernoulli(p) mark for [key]. *)
val hash_bool : t -> int -> p:float -> bool

(** A table of split children used only for keyed Bernoulli marks, held
    unboxed: filling a slot and scanning under it allocate nothing, where
    each {!split} allocates a stream. *)
type splits

(** A table of [count] slots, each unset until {!set_split} fills it.
    @raise Invalid_argument if [count < 0]. *)
val splits : int -> splits

(** [set_split c i t key]: slot [i] of [c] becomes the child [split t key].
    @raise Invalid_argument if [i] is not a slot of [c]. *)
val set_split : splits -> int -> t -> int -> unit

(** [mark_word c ~first ~count ~p keys]: bit [b] (for [b < count]) is set
    exactly when [hash_bool (split t key) x ~p] holds for some [x] of
    [keys], where slot [first + b] holds [split t key]; the other bits are
    0.  The test compares integers: the hash's top 53 bits against
    ⌈p·2^53⌉ (0 when p <= 0 or p is NaN, 2^53 when p >= 1), which is exactly
    [hash_float < p].  Reads [keys] in place, stops each slot's scan at its
    first marked key, and allocates nothing.
    @raise Invalid_argument unless [0 <= count <= 61] and slots [first] to
    [first + count - 1] are slots of [c]. *)
val mark_word : splits -> first:int -> count:int -> p:float -> int array -> int

(** [first_key t keys]: the key of [keys] first in
    ([hash_float t key], key) order, a hash tie going to the smaller key; -1
    if [keys] is empty.  Compares the hashes' top 53 bits as integers (the
    same order) and allocates nothing. *)
val first_key : t -> int array -> int

(** Uniform integer in [0, bound); advances the stream.
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** Uniform float in [0, 1); advances the stream. *)
val float : t -> float

(** Bernoulli(p); advances the stream. *)
val bool : t -> p:float -> bool

(** Number of failures before the first success of a Bernoulli(p) sequence;
    O(1) regardless of the outcome (inverse-CDF).  Used for subset sampling
    by skipping. *)
val geometric : t -> p:float -> int

(** [geometric_log t ~log_q] is [geometric t ~p] for p in (0, 1), given
    [log_q = Float.log1p (-.p)]: the same draw and the same result, with the
    logarithm left to the caller. *)
val geometric_log : t -> log_q:float -> int
