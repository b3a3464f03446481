(** Sampling primitives shared by the protocols and the generators. *)

(** [iter_bernoulli rng n ~p f] calls [f] on each index in [0, n) selected
    independently with probability [p], in ascending order.  Geometric
    skips make the cost proportional to the output.  The draws are exactly
    [bernoulli_subset]'s, in the same order, so either one leaves [rng] in
    the same state: none for [p <= 0] or [p >= 1], otherwise one per
    selected index plus one for the skip past [n]. *)
val iter_bernoulli : Rng.t -> int -> p:float -> (int -> unit) -> unit

(** The indices {!iter_bernoulli} visits, as a sorted list. *)
val bernoulli_subset : Rng.t -> int -> p:float -> int list

(** [m] distinct uniform indices from [0, n), sorted (Floyd's algorithm).
    @raise Invalid_argument if [m > n]. *)
val without_replacement : Rng.t -> int -> int -> int list

(** Fisher–Yates shuffle, in place. *)
val shuffle_in_place : Rng.t -> 'a array -> unit

(** Shuffled copy of a list. *)
val shuffle : Rng.t -> 'a list -> 'a list

(** Uniform element.  @raise Invalid_argument on the empty list. *)
val choose : Rng.t -> 'a list -> 'a

(** Uniform sample of [m] items from a sequence of unknown length (keeps
    everything when the sequence is shorter than [m]). *)
val reservoir : Rng.t -> int -> 'a Seq.t -> 'a list

(** Number of successes in [n] iid Bernoulli(p) trials (exact summation). *)
val binomial : Rng.t -> n:int -> p:float -> int
