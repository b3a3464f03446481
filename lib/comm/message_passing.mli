(** The message-passing model and its §2 equivalence with the coordinator
    model: pairwise private channels; a coordinator can simulate any
    message-passing run at 2·CC + (#messages)·ceil(log k) bits (forwarding
    with recipient ids), and the reverse simulation is free. *)

open Tfree_graph

(** A directed message record. *)
type sent = { src : int; dst : int; bits : int }

type t

val make : seed:int -> Partition.t -> t

val input : t -> int -> Graph.t
val shared_rng : t -> key:int -> Tfree_util.Rng.t

(** Send over the private channel; recorded on the transcript and returned
    unchanged.  @raise Invalid_argument on self-sends or bad indices. *)
val send : t -> src:int -> dst:int -> Msg.t -> Msg.t

val total_bits : t -> int
val message_count : t -> int

(** Cost of replaying the recorded run through a coordinator relay. *)
val simulate_in_coordinator : t -> int

(** §2's claimed bound 2·CC + messages·ceil(log k) — equals
    {!simulate_in_coordinator} by construction; tests assert it. *)
val coordinator_bound : t -> int
