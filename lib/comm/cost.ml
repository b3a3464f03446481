(** Communication-cost ledger.

    CC(Π) in the paper is the total number of bits exchanged between the
    players and the coordinator (§2).  The ledger tracks both directions,
    per-player upload (needed for the per-player caps of §3.4 and for the
    max-message statistic that becomes streaming space in §4.2.2), message
    count and round count (a simultaneous protocol must show exactly one
    round). *)

type t = {
  k : int;
  mutable to_players : int;     (* bits sent by the coordinator *)
  mutable from_players : int;   (* bits sent by all players *)
  per_player : int array;       (* upload per player *)
  mutable messages : int;
  mutable rounds : int;
}

let create ~k = { k; to_players = 0; from_players = 0; per_player = Array.make k 0; messages = 0; rounds = 0 }

let total t = t.to_players + t.from_players

let charge_to_player t bits =
  t.to_players <- t.to_players + bits;
  t.messages <- t.messages + 1

let charge_from_player t j bits =
  t.from_players <- t.from_players + bits;
  t.per_player.(j) <- t.per_player.(j) + bits;
  t.messages <- t.messages + 1

let next_round t = t.rounds <- t.rounds + 1

let max_player_upload t = Array.fold_left max 0 t.per_player

let min_player_upload t = Array.fold_left min max_int (if Array.length t.per_player = 0 then [| 0 |] else t.per_player)

(* Max − min upload: the per-player imbalance.  The max is the streaming
   bridge's space watermark (§4.2.2), so the summary line must show how far
   the ledger is from a balanced split. *)
let upload_spread t = max_player_upload t - min_player_upload t

let summary t =
  Printf.sprintf
    "total=%d bits (coord->players=%d, players->coord=%d), rounds=%d, messages=%d, player upload max=%d min=%d spread=%d"
    (total t) t.to_players t.from_players t.rounds t.messages (max_player_upload t)
    (min_player_upload t) (upload_spread t)
