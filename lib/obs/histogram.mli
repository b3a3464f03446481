(** Bounded log-linear latency histogram (HdrHistogram-style).

    Fixed bucket array over non-negative integer microseconds: exact
    unit-width buckets below [2^sub_bits], then [2^sub_bits] sub-buckets
    per power-of-two octave, so memory is O(buckets) — [(64 - sub_bits) *
    2^sub_bits] counters (~15 KB at the default [sub_bits = 5]) — no
    matter how many samples are recorded.  Exact count and sum are kept
    alongside, recording allocates nothing (int-array counters, float-array
    scalars), and histograms with equal [sub_bits] merge exactly.

    Documented quantile precision against
    {!Tfree_util.Stats.quantile} over the raw samples:
    [|quantile t q - exact| <= max_error t exact], i.e. one microsecond of
    floor quantization plus twice the relative bucket width
    [2^-sub_bits]. *)

type t

(** [create ~sub_bits ()] — [sub_bits] (default 5) is the log2 of
    sub-buckets per octave; relative bucket width is [2^-sub_bits].
    @raise Invalid_argument outside 1..16. *)
val create : ?sub_bits:int -> unit -> t

(** Total bucket count — the memory bound, independent of samples. *)
val num_buckets : t -> int

(** Upper bound on [|quantile t q - exact_q|] for an exact quantile value
    [exact]: [1.0 +. |exact| *. 2^(1 - sub_bits)]. *)
val max_error : t -> float -> float

(** Record a sample in microseconds.  Negative and nan values clamp to 0;
    values are floored to integers for bucketing while exact float
    min/max/sum are kept. *)
val record : t -> float -> unit

(** [record] for an integer sample — the zero-allocation hot-path entry
    (no float boxing at the call boundary). *)
val record_int : t -> int -> unit

val count : t -> int

(** Exact sum of recorded values (microseconds). *)
val sum : t -> float

(** [nan] when empty. *)
val mean : t -> float

(** Exact smallest recorded sample; [nan] when empty. *)
val min_value : t -> float

(** Exact largest recorded sample; [nan] when empty. *)
val max_value : t -> float

(** Empirical quantile mirroring {!Tfree_util.Stats.quantile}: [nan] when
    empty, the sample itself when [count = 1], otherwise linear
    interpolation between bucket representatives at the straddling ranks,
    clamped into the exact recorded [min, max] (so q=0 and q=1 are exact).
    O(buckets).  [q] is clamped into [0, 1]. *)
val quantile : t -> float -> float

(** Fold [other] into [t], bucket-wise — exact: merging split histograms
    equals the histogram of the concatenated samples.
    @raise Invalid_argument when [sub_bits] differ. *)
val merge : t -> t -> unit

(** Deep copy (snapshot). *)
val copy : t -> t

(** Reset to empty, keeping the bucket array. *)
val clear : t -> unit

(** Same [sub_bits] and identical bucket counts (sum/min/max excluded:
    float sums depend on addition order). *)
val equal : t -> t -> bool

(** Sparse non-empty buckets as [(index, count)], ascending index. *)
val buckets : t -> (int * int) list

val to_json : t -> Tfree_util.Jsonout.t

(** Single-token text codec (no spaces; hex floats for exactness) for
    shipping histograms through the load generator's tally pipe. *)
val to_compact : t -> string

(** Parse {!to_compact}'s form.  [Error] on anything else, including a
    negative bucket count or bucket counts that do not sum to the total
    (a histogram {!merge} would then fold inexactly). *)
val of_compact : string -> (t, string) result
