(** Protocol parameters.

    Every protocol in the paper is governed by the farness parameter ǫ, the
    error bound δ, and worst-case constants inside the sampling formulas.
    Two profiles are provided:

    - [Paper]: the formulas verbatim, e.g. q = ln(6/δ)·108·log²n·k/ǫ²
      candidate samples per bucket (Algorithm 3).  Correct on adversarial
      inputs but astronomically conservative (millions of samples at n=10³,
      ǫ=0.1) — usable only for tiny n or as documentation.
    - [Practical]: the same asymptotic terms with the worst-case 1/ǫ² and
      squared-log safety factors reduced (documented per formula below).
      This preserves every n-, d- and k-dependent term — which is what the
      scaling experiments measure — and suffices w.h.p. on the benign planted
      and random instances the experiments use; the δ-failures that remain
      are handled by amplification (repetition), as in the paper.

    EXPERIMENTS.md records the profile of every experiment. *)

type profile = Paper | Practical

type t = {
  eps : float;  (** farness parameter ǫ *)
  delta : float;  (** error probability bound δ *)
  profile : profile;
  boost : float;  (** extra multiplier on sample counts and caps (default 1) *)
}

let paper = { eps = 0.1; delta = 1.0 /. 3.0; profile = Paper; boost = 1.0 }

let practical = { eps = 0.1; delta = 1.0 /. 3.0; profile = Practical; boost = 1.0 }

let with_eps t eps = { t with eps }

(* Outside (0, 1] the constants above mean nothing, and NaN fails every
   comparison. *)
let check_eps eps =
  if eps > 0.0 && eps <= 1.0 then Ok ()
  else Error (Printf.sprintf "eps must be in (0, 1], got %g" eps)

let with_delta t delta = { t with delta }
let with_boost t boost = { t with boost }

(** log2 n, floored at 1 — the polylog unit in the cost formulas. *)
let log_n ~n = Float.max 1.0 (Tfree_util.Bits.log2 (float_of_int (max 2 n)))

let ln_n ~n = Float.max 1.0 (Float.log (float_of_int (max 2 n)))

let ln6d t = Float.log (6.0 /. t.delta)

let ceil_pos x = max 1 (int_of_float (Float.ceil x))

(** Candidate samples per bucket (Algorithm 3's q).
    Paper: ln(6/δ)·108·log²n·k/ǫ².  Practical: 6·k·ln n. *)
let bucket_samples t ~k ~n =
  let logn = log_n ~n in
  match t.profile with
  | Paper ->
      ceil_pos (t.boost *. ln6d t *. 108.0 *. logn *. logn *. float_of_int k /. (t.eps *. t.eps))
  | Practical -> ceil_pos (t.boost *. 6.0 *. float_of_int k *. ln_n ~n)

(** Cap on retained candidates per bucket (Algorithm 3's |C| bound).
    Paper: ln(6/δ)·312·log²n/ǫ².  Practical: 5·ln n. *)
let candidate_cap t ~n =
  let logn = log_n ~n in
  match t.profile with
  | Paper -> ceil_pos (t.boost *. ln6d t *. 312.0 *. logn *. logn /. (t.eps *. t.eps))
  | Practical -> ceil_pos (t.boost *. 5.0 *. ln_n ~n)

(** Edge-sampling probability around a candidate of (approx) degree d
    (Algorithm 4).  Paper: 4·sqrt(ln(6/δ))·sqrt(12·log n/(ǫ·d)).
    Practical: 2·sqrt(ln n/(ǫ·d)) — same Θ(sqrt(log n/ǫd)). *)
let edge_sample_prob t ~n ~d =
  let d = Float.max 1.0 d in
  match t.profile with
  | Paper ->
      Float.min 1.0
        (t.boost *. 4.0 *. sqrt (ln6d t) *. sqrt (12.0 *. log_n ~n /. (t.eps *. d)))
  | Practical -> Float.min 1.0 (t.boost *. 2.0 *. sqrt (ln_n ~n /. (t.eps *. d)))

(** Sample-count multiplier for degree-approximation experiments. *)
let degree_approx_boost t = match t.profile with Paper -> t.boost | Practical -> 0.2 *. t.boost

(** Multiplier c in the simultaneous protocols' sample sizes.  Theorem 3.26
    picks c = 8/(9δ) treating ǫ as a constant; the Chebyshev argument behind
    it needs the expected sampled-triangle count ǫ·c³/6 to stay large, so we
    scale the constant by 1/ǫ (conservative: 1/ǫ^{1/3} would suffice for the
    expectation alone, but the variance term also grows).  At the default
    ǫ = 0.1 this is exactly the paper's 8/(9δ). *)
let sim_c t = Float.max 2.0 (t.boost *. 0.8 /. (9.0 *. t.delta *. t.eps))
