(** Coordinator-model runtime (§2): k players with private edge-set inputs
    and a coordinator with none, exchanging messages over private channels —
    or over a blackboard, where every posted message is visible to all
    (Theorem 3.23's model).

    All parties run in one process; player code is a function of the
    player's own input and the shared randomness, and the runtime charges
    the declared size of everything that crosses a channel.  The model is
    the accounting.

    An optional {!Channel.tap} is invoked once per physical channel crossing
    at exactly the charging points; replies flow back to the protocol through
    the tap's return value, so a byte-moving tap (the wire subsystem) routes
    every protocol-visible datum through its codec and transport. *)

open Tfree_graph

type mode = Coordinator | Blackboard

type t

val make : ?mode:mode -> ?tap:Channel.tap -> seed:int -> Partition.t -> t

val k : t -> int
val n : t -> int
val mode : t -> mode
val cost : t -> Cost.t

(** Player [j]'s private input. *)
val input : t -> int -> Graph.t

(** Shared-randomness sub-stream for protocol step [key]; identical for all
    parties, free of communication. *)
val shared_rng : t -> key:int -> Tfree_util.Rng.t

(** [shared_split t c i ~key]: slot [i] of [c] becomes
    [shared_rng t ~key], for keyed marks only ({!Tfree_util.Rng.mark_word});
    allocates nothing. *)
val shared_split : t -> Tfree_util.Rng.splits -> int -> key:int -> unit

(** Player [j]'s private randomness. *)
val private_rng : t -> int -> Tfree_util.Rng.t

(** One round: the coordinator sends [req] to player [j], who answers with
    [respond input]; both directions charged. *)
val query : t -> int -> req:Msg.t -> (Graph.t -> Msg.t) -> Msg.t

(** One parallel round: the same request to every player, one response each.
    The request is charged k times on private channels, once on a
    blackboard. *)
val ask_all : t -> req:Msg.t -> (int -> Graph.t -> Msg.t) -> Msg.t array

(** Like {!ask_all}, but on a blackboard each player also sees the replies
    of the players before it — the "post in turns, no edge twice" mechanism
    of Theorem 3.23.  On private channels the visible list is empty. *)
val ask_all_visible : t -> req:Msg.t -> (int -> Graph.t -> Msg.t list -> Msg.t) -> Msg.t array

(** Coordinator announcement (no responses): charged k-fold on private
    channels, once on a blackboard. *)
val tell_all : t -> Msg.t -> unit

(** OR of one bit per player: "does anyone have it".  One round with an
    empty request; player [j] answers [predicate j input].  Every player
    answers and is charged and tapped in player order, even after a yes: it
    never short-circuits, so its ledger and its channel crossings are those
    of {!ask_all} with one-bit replies. *)
val any_player : t -> (int -> Graph.t -> bool) -> bool
