(** Communication-cost ledger: CC(Π) is the total number of bits exchanged
    between the players and the coordinator (§2), tracked per direction, per
    player, and per round. *)

type t = {
  k : int;
  mutable to_players : int;  (** bits sent by the coordinator *)
  mutable from_players : int;  (** bits sent by all players *)
  per_player : int array;  (** upload per player *)
  mutable messages : int;
  mutable rounds : int;
}

val create : k:int -> t

(** Total bits in both directions. *)
val total : t -> int

val charge_to_player : t -> int -> unit
val charge_from_player : t -> int -> int -> unit
val next_round : t -> unit

(** Largest single player's upload — becomes streaming space in §4.2.2. *)
val max_player_upload : t -> int

(** Human-readable one-line summary, including the per-player upload
    watermark (max/min/spread). *)
val summary : t -> string
