(** Byte transports: one loopback exchange per frame.  A transport takes a
    byte range, carries it across, and reads the same number of bytes back
    — one crossing of a coordinator–player channel.  {!pipe} is an
    in-memory copy (deterministic tests and experiments); {!socketpair}
    moves real bytes through a Unix-domain socket pair; {!faulty} wraps
    either with a deterministic fault-injection schedule.  All failure
    modes raise the typed {!Wire_error.Wire_error}.

    Buffers belong to the caller: an exchange uses its ranges only for the
    duration of the call and keeps no reference to them, and a transport
    never hands out a buffer of its own. *)

type t

(** [exchange t src off len into]: loopback round trip — write
    [src.[off .. off+len-1]], read the same number of bytes back into
    [into.[0 .. len-1]].  [into] may not overlap the source range.  On the
    socketpair it never blocks, however large the range.
    @raise Wire_error.Wire_error — [Truncated] when an injected fault
    starved the read, [Peer_closed] when the other side went away.
    @raise Invalid_argument if either range is not inside its buffer. *)
val exchange : t -> Bytes.t -> int -> int -> Bytes.t -> unit

val close : t -> unit

(** In-memory loopback: an exchange is one copy from the source range
    into [into]. *)
val pipe : unit -> t

(** A connected [AF_UNIX]/[SOCK_STREAM] pair in one process, both ends
    non-blocking: writes enter one end, reads drain the other. *)
val socketpair : unit -> t

(** [faulty ~schedule tr] injects the scheduled faults into [tr]: the
    [op]-th exchange through the wrapper (0-based; [counter] shares the op
    numbering across several wrapped transports, e.g. one per channel of a
    wire network) suffers the fault named for it.  [Delay] and [Partial]
    are fault-free on an exchange, which reads its own write straight
    back; [Corrupt] flips one bit of the read-back ({!Fault.flip_bit});
    [Drop] and [Truncate] raise [Truncated] for the bytes they withheld;
    [Close] closes [tr] and raises [Peer_closed], as does every later
    exchange.  Deterministic: same schedule, same traffic, same faults. *)
val faulty : ?counter:int ref -> schedule:Fault.schedule -> t -> t
