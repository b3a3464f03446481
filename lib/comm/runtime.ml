(** Coordinator-model runtime (§2).

    k players hold private edge-set inputs; a coordinator with no input
    exchanges messages with them over private channels.  In [`Blackboard]
    mode every posted message is visible to all parties, which changes the
    accounting of broadcasts (posted once rather than k times) — the source
    of the k-factor saving in Theorem 3.23.

    Fidelity note: all parties run in one process.  Player code is a function
    of the player's own input (and the shared randomness); the runtime merely
    invokes it and charges the declared size of whatever it returns.  This is
    the standard way to measure communication complexity — the model is the
    accounting, not process isolation.

    A {!Channel.tap} can be installed at construction time: it is invoked at
    exactly the points where the ledger charges bits, once per physical
    channel crossing (so a k-fold coordinator broadcast taps k times while
    being charged in one ledger entry, and a blackboard posting taps once).
    Replies flow back to the protocol {e through} the tap's return value, so
    a byte-moving tap (the wire subsystem) puts every protocol-visible datum
    through its codec and transport. *)

open Tfree_util
open Tfree_graph

type mode = Coordinator | Blackboard

type t = {
  k : int;
  n : int;
  inputs : Partition.t;
  shared : Rng.t;
  private_rngs : Rng.t array;
  cost : Cost.t;
  mode : mode;
  tap : Channel.tap;
  to_player : Channel.t array;  (** [Channel.To_player j], built once: a delivery allocates none *)
  from_player : Channel.t array;  (** [Channel.From_player j], likewise *)
}

let make ?(mode = Coordinator) ?(tap = Channel.identity) ~seed inputs =
  let k = Partition.k inputs in
  let root = Rng.create seed in
  {
    k;
    n = Partition.n inputs;
    inputs;
    shared = Rng.split root 0;
    private_rngs = Array.init k (fun j -> Rng.split root (j + 1));
    cost = Cost.create ~k;
    mode;
    tap;
    to_player = Array.init k (fun j -> Channel.To_player j);
    from_player = Array.init k (fun j -> Channel.From_player j);
  }

let k t = t.k
let n t = t.n
let cost t = t.cost
let input t j = Partition.player t.inputs j

(** Derive a shared-randomness sub-stream for protocol step [key]; both the
    coordinator and all players can derive the identical stream, so no
    communication is charged. *)
let shared_rng t ~key = Rng.split t.shared key

(** [shared_rng t ~key] into slot [i] of a split table, unboxed. *)
let shared_split t c i ~key = Rng.set_split c i t.shared key

let private_rng t j = t.private_rngs.(j)

(* Send [req] down every player channel (private mode) or post it once
   (blackboard); mirrors the ledger's k-vs-1 charging of broadcasts. *)
let deliver_request t ~round req =
  match t.mode with
  | Coordinator ->
      for j = 0 to t.k - 1 do
        ignore (t.tap.Channel.deliver ~round t.to_player.(j) req)
      done
  | Blackboard -> ignore (t.tap.Channel.deliver ~round Channel.Board req)

(** One communication round in which the coordinator sends [req] to player
    [j] and the player answers with [respond input].  Charges both
    directions. *)
let query t j ~req respond =
  Cost.next_round t.cost;
  let round = t.cost.Cost.rounds in
  Cost.charge_to_player t.cost (Msg.bits req);
  ignore (t.tap.Channel.deliver ~round t.to_player.(j) req);
  let reply = respond (input t j) in
  Cost.charge_from_player t.cost j (Msg.bits reply);
  t.tap.Channel.deliver ~round t.from_player.(j) reply

(** One parallel round: the same request to every player, one response each.
    In blackboard mode the request is posted once. *)
let ask_all t ~req respond =
  Cost.next_round t.cost;
  let round = t.cost.Cost.rounds in
  let req_bits = Msg.bits req in
  (match t.mode with
  | Coordinator -> if req_bits > 0 then Cost.charge_to_player t.cost (t.k * req_bits)
  | Blackboard -> if req_bits > 0 then Cost.charge_to_player t.cost req_bits);
  if req_bits > 0 then deliver_request t ~round req;
  Array.init t.k (fun j ->
      let reply = respond j (input t j) in
      Cost.charge_from_player t.cost j (Msg.bits reply);
      t.tap.Channel.deliver ~round t.from_player.(j) reply)

(** Like {!ask_all}, but in blackboard mode each player also sees the replies
    of the players before it (they are posted publicly, §2) — the mechanism
    behind Theorem 3.23's "post in turns, ensuring no edge is posted twice".
    In coordinator mode the previous-replies list is empty, preserving the
    private-channel semantics. *)
let ask_all_visible t ~req respond =
  Cost.next_round t.cost;
  let round = t.cost.Cost.rounds in
  let req_bits = Msg.bits req in
  (match t.mode with
  | Coordinator -> if req_bits > 0 then Cost.charge_to_player t.cost (t.k * req_bits)
  | Blackboard -> if req_bits > 0 then Cost.charge_to_player t.cost req_bits);
  if req_bits > 0 then deliver_request t ~round req;
  let replies = Array.make t.k Msg.empty in
  for j = 0 to t.k - 1 do
    let visible =
      match t.mode with
      | Blackboard -> List.init j (fun j' -> replies.(j'))
      | Coordinator -> []
    in
    let reply = respond j (input t j) visible in
    Cost.charge_from_player t.cost j (Msg.bits reply);
    (* Later players' [visible] lists read back the delivered copy — on a
       blackboard what they see is what was posted, not what was meant. *)
    replies.(j) <- t.tap.Channel.deliver ~round t.from_player.(j) reply
  done;
  replies

let mode t = t.mode

(** Coordinator announcement to all players (no responses). *)
let tell_all t msg =
  Cost.next_round t.cost;
  let round = t.cost.Cost.rounds in
  let bits = Msg.bits msg in
  (match t.mode with
  | Coordinator -> Cost.charge_to_player t.cost (t.k * bits)
  | Blackboard -> Cost.charge_to_player t.cost bits);
  deliver_request t ~round msg

(** OR over one bit per player — the "does anyone have it" idiom used by the
    edge-query building block and the triangle-edge test.
    One round with an empty request: player [j] answers [predicate j input],
    charged and delivered through the tap in player order.  Every player
    answers, even after a yes, so the ledger and the tap see exactly what
    {!ask_all} would; no reply array is built. *)
let any_player t predicate =
  Cost.next_round t.cost;
  let round = t.cost.Cost.rounds in
  let found = ref false in
  for j = 0 to t.k - 1 do
    let reply = Msg.bool (predicate j (input t j)) in
    Cost.charge_from_player t.cost j (Msg.bits reply);
    if Msg.get_bool (t.tap.Channel.deliver ~round t.from_player.(j) reply) then found := true
  done;
  !found
