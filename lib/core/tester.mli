(** Top-level API: test triangle-freeness of a distributed graph.

    Every tester is one-sided (§3): on a triangle-free input the verdict is
    always [Triangle_free] (no false witnesses, ever); on an ǫ-far input a
    real triangle is found with probability >= 1-δ. *)

open Tfree_graph
open Tfree_comm

type verdict =
  | Triangle of Triangle.triangle  (** witness found: the graph has a triangle *)
  | Triangle_free  (** nothing found: triangle-free, or the δ-failure on a far input *)

type report = {
  verdict : verdict;
  bits : int;  (** total communication *)
  rounds : int;  (** communication rounds (1 for simultaneous) *)
  max_message : int;
      (** max player upload: the most bits one player sent over the run
          ({!Tfree_comm.Cost.max_player_upload} for the unrestricted tester,
          where a player sends many messages; a simultaneous player sends
          one) *)
}

(** Unrestricted-communication tester (§3.3), degree-oblivious:
    O~(k·(nd)^¼ + k²) bits. *)
val unrestricted :
  ?mode:Runtime.mode -> ?tap:Channel.tap -> seed:int -> Params.t -> Partition.t -> report

(** Simultaneous tester for known average degree [d]: Algorithm 8 when
    d <= √n, Algorithm 7 otherwise (§3.4.2: they coincide at d = Θ(√n)). *)
val simultaneous : ?tap:Channel.tap -> seed:int -> Params.t -> d:float -> Partition.t -> report

(** Degree-oblivious simultaneous tester (Algorithm 11). *)
val simultaneous_oblivious : ?tap:Channel.tap -> seed:int -> Params.t -> Partition.t -> report

(** Exact baseline [38]: always correct, Θ(k·n·d) bits. *)
val exact : ?tap:Channel.tap -> seed:int -> Partition.t -> report

(** The four testers above, by name. *)
type protocol = Unrestricted | Sim | Oblivious | Exact

(** Each protocol with its CLI name, in v2 wire-code order: a protocol's
    position is its code (Unrestricted = 0). *)
val protocols : (string * protocol) list

val protocol_to_string : protocol -> string
val protocol_of_string : string -> protocol option

(** Run [protocol]: {!unrestricted} (in [mode], default coordinator),
    {!simultaneous} at average degree [d], {!simultaneous_oblivious} or
    {!exact}.  [mode] reaches only the unrestricted tester, [d] only the
    simultaneous one, and the params every tester but the exact baseline. *)
val run :
  ?mode:Runtime.mode ->
  ?tap:Channel.tap ->
  seed:int ->
  Params.t ->
  d:float ->
  protocol ->
  Partition.t ->
  report

(** All tester entry points accept an optional {!Channel.tap}: with a
    byte-moving tap installed (see [Tfree_wire]) every charged message also
    crosses a real transport and the protocol consumes the decoded copies,
    so verdict and bits can be reconciled wire-vs-model.

    Repeat a randomized tester with independent seeds; any found triangle
    wins (sound by one-sidedness).  Bits are summed over the runs made. *)
val amplify : reps:int -> seed:int -> (seed:int -> report) -> report
