(** Protocol parameters: farness ǫ, error δ, and the constants inside the
    sampling formulas, under two profiles — [Paper] (the worst-case formulas
    verbatim) and [Practical] (the same asymptotic terms with reduced
    constant/1/ǫ² safety factors; deviations documented per formula in the
    implementation and in DESIGN.md §2). *)

type profile = Paper | Practical

type t = {
  eps : float;  (** farness parameter ǫ *)
  delta : float;  (** error probability bound δ *)
  profile : profile;
  boost : float;  (** extra multiplier on sample counts and caps *)
}

(** Worst-case constants, ǫ = 0.1, δ = 1/3. *)
val paper : t

(** Laptop-scale constants, ǫ = 0.1, δ = 1/3. *)
val practical : t

val with_eps : t -> float -> t

(** [Ok ()] when ǫ lies in (0, 1], the range the testers are defined on;
    otherwise the one error a served request carrying such an ǫ is
    refused with: ["eps must be in (0, 1], got E"].  NaN and the
    infinities are out of range. *)
val check_eps : float -> (unit, string) result

val with_delta : t -> float -> t
val with_boost : t -> float -> t

(** log2 n floored at 1 — the polylog unit in cost formulas. *)
val log_n : n:int -> float

val ln_n : n:int -> float

(** ln (6/δ). *)
val ln6d : t -> float

(** Candidate samples per bucket (Algorithm 3's q). *)
val bucket_samples : t -> k:int -> n:int -> int

(** Cap on retained candidates per bucket (Algorithm 3's |C| bound). *)
val candidate_cap : t -> n:int -> int

(** Edge-sampling probability around a degree-d candidate (Algorithm 4). *)
val edge_sample_prob : t -> n:int -> d:float -> float

(** Sample-count multiplier for the degree-approximation experiments. *)
val degree_approx_boost : t -> float

(** The simultaneous protocols' Chebyshev constant (Theorem 3.26), scaled
    with 1/ǫ; equals the paper's 8/(9δ) at ǫ = 0.1. *)
val sim_c : t -> float
