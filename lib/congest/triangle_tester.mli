(** The CONGEST triangle-freeness tester in the style of Censor-Hillel et
    al. [10]: every round each vertex probes a random neighbour pair (u, w)
    by sending u's id to w, who checks {u, w} locally — any hit is a real
    triangle (one-sided).  Θ(1/ǫ²) rounds, O(log n)-bit messages.

    Runs halt the round a triangle is first recorded, so the round budget is
    an upper bound, not the execution count; the message schedule is
    budget-independent (a node's probes depend only on its seeded rng and
    inbox history), so one halted run answers every budget question. *)

open Tfree_graph

type state = { found : Triangle.triangle option }

val algorithm : state Simulator.algorithm

type result = {
  triangle : Triangle.triangle option;
  rounds : int;  (** rounds actually executed (= [stats.rounds_run]), not the budget *)
  budget : int;  (** the hard round budget the run was given *)
  stats : Simulator.stats;
}

(** The default CONGEST bandwidth, ⌈log₂ n⌉ + 1 bits. *)
val default_b_bits : n:int -> int

(** Run under a hard round budget ([rounds], default ceil(c/ǫ²)) with
    [b_bits]-bit bandwidth (default ⌈log₂ n⌉ + 1), halting on first
    detection; [stats.outcome] is [Halted] on detection, [Budget_exhausted]
    when the budget ran out first.  [tap] observes every charged message and
    attributes it to its round's trace span. *)
val test :
  ?c:float ->
  ?rounds:int ->
  ?b_bits:int ->
  ?tap:Tfree_comm.Channel.tap ->
  Graph.t ->
  eps:float ->
  seed:int ->
  result

(** First round at which any node records a triangle (one halted run at
    budget [max_rounds]); [None] if no detection within it.  Detection
    within budget R ⟺ [first_detection_round <= R].
    @raise Invalid_argument when [max_rounds < 1]. *)
val first_detection_round : ?b_bits:int -> Graph.t -> seed:int -> max_rounds:int -> int option

(** Smallest budget on the geometric grid {1, 2, 4, ...} (capped at
    [max_rounds]) at which the seeded run detects a triangle, [None] if the
    largest grid point within the cap does not detect — the reproducible
    statistic E19 and E27 plot.
    @raise Invalid_argument when [max_rounds < 1]. *)
val rounds_to_detect : ?b_bits:int -> Graph.t -> seed:int -> max_rounds:int -> int option
