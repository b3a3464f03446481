(** The message-passing model and its equivalence with the coordinator model
    (§2): every two players share a private channel; a message-passing
    protocol can be simulated by a coordinator at a log k overhead per
    message (append the recipient id so the coordinator can forward), and a
    coordinator protocol runs unchanged in the message-passing model (one
    player plays coordinator).

    The runtime records a transcript of directed messages with exact bit
    accounting; [simulate_in_coordinator] replays a transcript through the
    coordinator relay and returns the relayed cost, which the tests compare
    against the claimed [2·CC + messages·⌈log k⌉] bound. *)

open Tfree_util
open Tfree_graph

type sent = { src : int; dst : int; bits : int }

type t = {
  k : int;
  n : int;
  inputs : Partition.t;
  shared : Rng.t;
  mutable transcript : sent list;  (** newest first *)
}

let make ~seed inputs =
  {
    k = Partition.k inputs;
    n = Partition.n inputs;
    inputs;
    shared = Rng.split (Rng.create seed) 0;
    transcript = [];
  }

let input t j = Partition.player t.inputs j
let shared_rng t ~key = Rng.split t.shared key

(** Send [msg] from player [src] to player [dst] over their private
    channel. *)
let send t ~src ~dst msg =
  if src = dst || src < 0 || dst < 0 || src >= t.k || dst >= t.k then
    invalid_arg "Message_passing.send: bad endpoints";
  t.transcript <- { src; dst; bits = Msg.bits msg } :: t.transcript;
  msg

let total_bits t = List.fold_left (fun acc s -> acc + s.bits) 0 t.transcript

let message_count t = List.length t.transcript

(** Cost of simulating the recorded run with a coordinator: each message
    goes player→coordinator with the recipient id appended (⌈log k⌉ bits),
    then coordinator→recipient. *)
let simulate_in_coordinator t =
  let id_bits = Bits.for_card (max 2 t.k) in
  List.fold_left (fun acc s -> acc + (2 * s.bits) + id_bits) 0 t.transcript

(** §2's claimed bound on the simulation overhead. *)
let coordinator_bound t = (2 * total_bits t) + (message_count t * Bits.for_card (max 2 t.k))
