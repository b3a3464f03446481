(** Random finite distributions and joints for information-theory property
    tests over {!Tfree_lowerbound.Info}.  Every atom is strictly positive
    and masses are normalized exactly, so KL divergences are finite and
    [Info.check_joint] accepts every generated joint. *)

val arb_dist : ?max_n:int -> unit -> float array QCheck.arbitrary
val arb_dist_pair : ?max_n:int -> unit -> (float array * float array) QCheck.arbitrary
val arb_joint : ?max_n:int -> unit -> float array array QCheck.arbitrary

(** Bernoulli parameter pairs [(q, p)] with [p < 1/2] (Lemma 4.3's
    hypothesis). *)
val arb_lemma43_params : (float * float) QCheck.arbitrary
