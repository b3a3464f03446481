(** Channels and transport taps: a tap is a hook invoked at every point
    where a runtime charges communication, receiving the crossing message
    (plus the channel and the current round) and returning the copy the
    receiver observes.  The identity tap is the pure accounting model; the
    wire subsystem installs a tap that moves the message through a real byte
    transport, the trace subsystem one that records a phase-attributed event
    per crossing.  Taps compose.

    A tap either returns a faithful copy or raises (the wire tap fails
    closed with a typed [Tfree_wire.Wire_error.Wire_error] on transport
    faults, injected or real); it never returns an altered message, so a
    fault below a tapped runtime can abort a run but never flip its
    verdict. *)

type t =
  | To_player of int  (** coordinator (or referee) -> player [j] *)
  | From_player of int  (** player [j] -> coordinator/referee *)
  | Board  (** a broadcast posting, visible to all parties *)

type tap = { deliver : round:int -> t -> Msg.t -> Msg.t }

(** The pure-model tap: messages arrive untouched. *)
val identity : tap

(** Chain any number of taps, left to right; [compose_all []] = {!identity}. *)
val compose_all : tap list -> tap

(** Human-readable channel name ("coord->p3", "p3->coord", "board"). *)
val describe : t -> string

(** The player a channel touches; [None] for the board. *)
val player : t -> int option

(** Inverse of {!describe}; [None] on anything it never printed. *)
val parse : string -> t option
