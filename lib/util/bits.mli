(** Bit-size arithmetic for the communication cost model: a value ranging
    over [c] possibilities costs ceil(log2 c) bits (minimum 1). *)

(** [floor (log2 x)].  @raise Invalid_argument if [x < 1]. *)
val floor_log2 : int -> int

(** Bits to name a vertex of an n-vertex graph: ceil(log2 n). *)
val vertex : n:int -> int

(** Bits to name an unordered edge: two vertex identifiers. *)
val edge : n:int -> int

(** Bits for an integer known by both sides to lie in [lo, hi]:
    [1 + floor_log2 (hi - lo)], and 1 when [hi = lo].  At most 62: the
    range [0, max_int] costs 62 bits.
    @raise Invalid_argument if [hi < lo] or the range holds more than 2^62
    values (as [min_int, max_int] does). *)
val int_in_range : lo:int -> hi:int -> int

(** Self-delimiting (Elias-gamma style) code length for a nonnegative
    integer: 2·floor(log2 (v+1)) + 1.
    @raise Invalid_argument on negatives. *)
val elias_gamma : int -> int

(** log base 2, for floats (cost formulas). *)
val log2 : float -> float
