(** Random CONGEST-run cases for the congest property suite: a QCheck
    arbitrary over (instance family, size, seed, round budget) tuples, with
    the graph derived deterministically from the case so a printed
    counterexample reproduces the exact run.  Families cover the three
    regimes the tester meets: ǫ-far (many disjoint triangles), triangle-free
    (must never report), and sparse G(n, p) (either way).  Shrinking walks n
    and the budget down, so a minimal counterexample is the smallest graph
    and fewest rounds that still break the property. *)

open Tfree_util
open Tfree_graph

type family = Far | Free | Gnp

type case = {
  family : family;
  n : int;
  seed : int;  (** drives both the instance rng and the simulator *)
  budget : int;  (** hard round budget for the run *)
}

let family_to_string = function Far -> "far" | Free -> "free" | Gnp -> "gnp"

let print { family; n; seed; budget } =
  Printf.sprintf "{%s; n=%d; seed=%d; budget=%d}" (family_to_string family) n seed budget

(** The case's instance, derived from the case alone (the rng stream is
    keyed off [seed] and [n]) — properties rebuild it at will. *)
let graph { family; n; seed; _ } =
  let rng = Rng.create (515_000 + (7919 * seed) + n) in
  match family with
  | Far -> Gen.far_with_degree rng ~n ~d:5.0 ~eps:0.1
  | Free -> Gen.free_with_degree rng ~n ~d:5.0
  | Gnp -> Gen.gnp rng ~n ~p:(3.0 /. float_of_int n)

let gen : case QCheck.Gen.t =
  let open QCheck.Gen in
  map
    (fun (family, n, seed, budget) -> { family; n; seed; budget })
    (quad (oneofl [ Far; Free; Gnp ]) (int_range 12 120) (int_range 1 1_000_000) (int_range 1 48))

(* Shrink toward small graphs and short budgets; family and seed stay put
   (changing them changes the instance, not its size). *)
let shrink c yield =
  if c.n > 12 then yield { c with n = max 12 (c.n / 2) };
  if c.budget > 1 then yield { c with budget = c.budget / 2 }

(** Cases over all three families, n ≤ 120, budgets ≤ 48. *)
let arbitrary = QCheck.make ~print ~shrink gen
