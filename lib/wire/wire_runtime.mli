(** Coordinator-model runtime over real byte transports, reconciling
    measured wire traffic against the declared cost ledger:
    [wire_bytes * 8 - framing_overhead_bits = accounted_bits], exactly.

    Use {!create}/{!tap} to plug a wire network into any tester entry point
    ([Tfree.Tester.unrestricted ~tap ...]) or into [Runtime.make ~tap]. *)

open Tfree_comm

type kind = Pipe | Socketpair

(** Every kind with its name, in v2 wire-code order (pipe = 0). *)
val kinds : (string * kind) list

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type chan_stats = {
  mutable frames : int;
  mutable wire_bytes : int;
  mutable payload_bits : int;
}

(** A wire network: one duplex transport per player channel plus one for
    the blackboard, with per-channel, per-direction counters.  The network
    owns one {!Frame.scratch}: every frame it delivers is built in and read
    back through those reused buffers, so a delivery allocates only the
    decoded message, and an empty message or a one-bit reply nothing.  A network serves one protocol run at a time. *)
type net

(** [create ?fault ?transport ~k ()] builds the network.  A non-empty
    [fault] schedule wraps every link in {!Transport.faulty} with one shared
    op counter, so the schedule's op numbers index the global frame sequence
    of the whole network.
    @raise Wire_error.Wire_error ([Unavailable]) when a link cannot be
    opened (a socketpair past the descriptor limit); the links opened
    before it are closed first, so a refused network holds no
    descriptor. *)
val create : ?fault:Fault.schedule -> ?transport:kind -> k:int -> unit -> net

val close : net -> unit

(** The byte-moving {!Channel.tap}: frame into the network's scratch,
    cross the transport, decode, count; the protocol consumes the decoded
    copy, a fresh value that shares no memory with the scratch.  Fails closed
    with a typed {!Wire_error.Wire_error} ([Corrupt]) if a decode does not
    reproduce the sent message — a fault can abort a run, never alter it. *)
val tap : net -> Channel.tap

type report = {
  wire_bytes : int;  (** every byte that crossed a transport *)
  frames : int;
  payload_bits : int;  (** message payload bits inside the frames *)
  framing_overhead_bits : int;  (** length prefixes, descriptors, padding *)
  accounted_bits : int;  (** what the cost model charged *)
  ratio : float;  (** wire bits / accounted bits *)
}

(** Reconcile measured traffic against [accounted_bits] ([Cost.total] or a
    simultaneous outcome's [total_bits]). *)
val report : net -> accounted_bits:int -> report

(** [wire_bytes*8 - framing_overhead_bits = accounted_bits], and the payload
    bits agree with the ledger. *)
val reconciles : report -> bool

val report_summary : report -> string

(** Per-channel (name, stats) rows: both directions of each player channel,
    then the board. *)
val per_channel : net -> (string * chan_stats) list
