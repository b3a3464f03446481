(** Coordinator-model runtime over real byte transports.

    Where {!Tfree_comm.Runtime} declares costs ("the model is the
    accounting"), this module moves the bytes: every message a protocol
    sends is encoded ({!Codec}), framed ({!Frame}), pushed through a
    per-channel {!Transport}, read back on the far side and decoded — and
    the protocol consumes the decoded copy.  Per-channel byte and frame
    counters then {e reconcile} the measured traffic against the declared
    {!Tfree_comm.Cost} ledger:

    {v wire_bytes * 8 - framing_overhead_bits = accounted_bits v}

    holds exactly, because the codec emits exactly [Msg.bits] payload bits
    per message and the tap fires at exactly the ledger's charging points
    (k frames for a k-fold private-channel broadcast, one for a blackboard
    posting).

    {!create}/{!tap} build a network whose tap plugs into any tester entry
    point ([Tfree.Tester.unrestricted ~tap ...]) or [Runtime.make ~tap] —
    the whole protocol then runs over the wire unchanged. *)

open Tfree_comm

type kind = Pipe | Socketpair

let kinds = [ ("pipe", Pipe); ("socketpair", Socketpair) ]
let kind_to_string k = fst (List.find (fun (_, x) -> x = k) kinds)
let kind_of_string s = List.assoc_opt s kinds

type chan_stats = {
  mutable frames : int;
  mutable wire_bytes : int;
  mutable payload_bits : int;
}

let fresh_stats () = { frames = 0; wire_bytes = 0; payload_bits = 0 }

type net = {
  k : int;
  links : Transport.t array;  (** [0..k-1] player channels, [k] the board *)
  down : chan_stats array;  (** coordinator -> player j *)
  up : chan_stats array;  (** player j -> coordinator *)
  board : chan_stats;
  scratch : Frame.scratch;  (** every frame of the network is built and read back here *)
}

let create ?(fault = []) ?(transport = Pipe) ~k () =
  let mk () = match transport with Pipe -> Transport.pipe () | Socketpair -> Transport.socketpair () in
  (* One op counter shared across every link, so a schedule's [op] indexes
     the global frame sequence of the whole network, whichever channel each
     frame happens to cross. *)
  let counter = ref 0 in
  let wrap tr = if fault = [] then tr else Transport.faulty ~counter ~schedule:fault tr in
  (* A transport that fails to open (a socketpair past the descriptor
     limit) closes every link opened before it, so a refused network
     leaks nothing, and fails typed. *)
  let opened = ref [] in
  let link i =
    match mk () with
    | tr ->
        opened := tr :: !opened;
        wrap tr
    | exception Unix.Unix_error (err, fn, _) ->
        List.iter Transport.close !opened;
        Wire_error.error
          (Wire_error.Unavailable
             (Printf.sprintf "Wire_runtime: cannot open link %d of %d (%s: %s)" (i + 1) (k + 1) fn
                (Unix.error_message err)))
  in
  {
    k;
    links = Array.init (k + 1) link;
    down = Array.init k (fun _ -> fresh_stats ());
    up = Array.init k (fun _ -> fresh_stats ());
    board = fresh_stats ();
    scratch = Frame.scratch ();
  }

let close net = Array.iter Transport.close net.links

(* Route a channel to its link and direction counter. *)
let link net = function
  | Channel.To_player j | Channel.From_player j -> net.links.(j)
  | Channel.Board -> net.links.(net.k)

let stats net = function
  | Channel.To_player j -> net.down.(j)
  | Channel.From_player j -> net.up.(j)
  | Channel.Board -> net.board

(** The byte-moving tap: frame into the network's scratch, cross the
    transport, decode a fresh copy; count; hand the protocol the decoded
    copy.  A decode that does not reproduce the sent message — its value,
    bit count and layout, by {!Msg.equal} — whether from a codec bug or a
    fault the frame checksum somehow passed, fails closed with a typed
    [Corrupt], so a wire fault can abort a run but never hand the protocol
    a different message. *)
let tap net =
  let deliver ~round:_ ch msg =
    let delivered = Frame.exchange net.scratch (link net ch) msg in
    let stats = stats net ch in
    stats.frames <- stats.frames + 1;
    stats.wire_bytes <- stats.wire_bytes + Frame.frame_len net.scratch;
    stats.payload_bits <- stats.payload_bits + Msg.bits msg;
    if not (Msg.equal delivered msg) then
      Wire_error.errorf_corrupt "Wire_runtime: decoded message differs from sent one on %s"
        (Channel.describe ch);
    delivered
  in
  { Channel.deliver }

(* -------------------------------------------------------- reconciliation *)

type report = {
  wire_bytes : int;  (** every byte that crossed a transport *)
  frames : int;
  payload_bits : int;  (** bits of actual message payload inside the frames *)
  framing_overhead_bits : int;  (** length prefixes, descriptors, padding *)
  accounted_bits : int;  (** what the cost model charged *)
  ratio : float;  (** wire bits / accounted bits; 1.0 = framing-free *)
}

let totals net =
  let acc = fresh_stats () in
  let add (s : chan_stats) =
    acc.frames <- acc.frames + s.frames;
    acc.wire_bytes <- acc.wire_bytes + s.wire_bytes;
    acc.payload_bits <- acc.payload_bits + s.payload_bits
  in
  Array.iter add net.down;
  Array.iter add net.up;
  add net.board;
  acc

(** Reconcile the measured wire traffic against [accounted_bits] (typically
    [Cost.total] or a simultaneous outcome's [total_bits]). *)
let report net ~accounted_bits =
  let t = totals net in
  {
    wire_bytes = t.wire_bytes;
    frames = t.frames;
    payload_bits = t.payload_bits;
    framing_overhead_bits =
      Frame.overhead_bits ~frame_bytes:t.wire_bytes ~payload_bits:t.payload_bits;
    accounted_bits;
    ratio =
      (if accounted_bits = 0 then Float.infinity
       else float_of_int (8 * t.wire_bytes) /. float_of_int accounted_bits);
  }

(** The reconciliation identity: wire bytes minus framing equals exactly
    what the model charged. *)
let reconciles r =
  (8 * r.wire_bytes) - r.framing_overhead_bits = r.accounted_bits
  && r.payload_bits = r.accounted_bits

let report_summary r =
  Printf.sprintf "wire=%dB (%d frames), payload=%d bits, framing=%d bits, accounted=%d bits, ratio=%.3f%s"
    r.wire_bytes r.frames r.payload_bits r.framing_overhead_bits r.accounted_bits r.ratio
    (if reconciles r then "" else " [MISMATCH]")

(** Per-channel (name, stats) rows, coordinator->player and player->coordinator
    directions separately, plus the board. *)
let per_channel net =
  List.concat
    [
      List.init net.k (fun j -> (Channel.describe (Channel.To_player j), net.down.(j)));
      List.init net.k (fun j -> (Channel.describe (Channel.From_player j), net.up.(j)));
      [ (Channel.describe Channel.Board, net.board) ];
    ]
