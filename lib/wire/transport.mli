(** Byte transports: duplex byte streams that loop back in-process.
    {!pipe} is an in-memory FIFO (deterministic tests/experiments);
    {!socketpair} moves real bytes through a Unix-domain socket pair;
    {!faulty} wraps either with a deterministic fault-injection schedule.
    All failure modes raise the typed {!Wire_error.Wire_error}.

    Buffers belong to the caller.  Every operation takes a byte range of a
    caller-owned buffer, uses it only for the duration of the call, and
    keeps no reference to it afterwards (a [Delay] or [Corrupt] fault of
    {!faulty} works on its own copy), so the caller may overwrite the
    buffer as soon as the call returns.  A transport never hands out a
    buffer of its own. *)

type t

(** [send t src off len] writes [src.[off .. off+len-1]].
    @raise Invalid_argument if the range is not inside [src]. *)
val send : t -> Bytes.t -> int -> int -> unit

(** [recv t dst off len] reads exactly [len] bytes into
    [dst.[off .. off+len-1]].
    @raise Wire_error.Wire_error — [Truncated] on a stream that cannot
    supply them, [Peer_closed] when the other side went away.
    @raise Invalid_argument if the range is not inside [dst]. *)
val recv : t -> Bytes.t -> int -> int -> unit

(** [exchange t src off len into]: loopback round trip — write
    [src.[off .. off+len-1]], read the same number of bytes back into
    [into.[0 .. len-1]].  [into] may not overlap the source range.
    Deadlock-free on the socketpair even for ranges larger than the kernel
    socket buffer ([select]-interleaved, reading straight into [into]).
    @raise Invalid_argument if either range is not inside its buffer. *)
val exchange : t -> Bytes.t -> int -> int -> Bytes.t -> unit

val close : t -> unit

(** In-memory FIFO of bytes over a reused ring.  Its {!exchange} on an
    empty ring is a single copy from the source range into [into]: exactly
    what pushing the range and popping it back would deliver, with the
    ring left empty as before.  With bytes still in flight (an unmatched
    {!send}) it pushes and pops, so those bytes come out first. *)
val pipe : unit -> t
val socketpair : unit -> t

(** [faulty ~schedule tr] injects the scheduled faults into [tr]: the
    [op]-th write through the wrapper (0-based; [counter] shares the op
    numbering across several wrapped transports, e.g. one per channel of a
    wire network) suffers the fault named for it — [Drop] swallows the
    bytes, [Corrupt] flips one bit, [Truncate] delivers a proper prefix,
    [Delay] holds the bytes back from later writes until the op counter
    passes (benign), [Partial] splits the write in two (benign), [Close]
    closes the stream.  A {!send} and an {!exchange} are one op each, so a
    frame is one op however it crosses.  Every read first delivers all
    held bytes, so only a {!send} can be held across another write: an
    {!exchange} reads its own write straight back, which makes [Delay]
    and [Partial] on an exchange fault-free.  The wrapper's read side raises a typed
    [Truncated] instead of blocking when injected faults starved the
    stream, so a chaos run can fail closed but never hang.  Deterministic:
    same schedule, same traffic, same faults. *)
val faulty : ?counter:int ref -> schedule:Fault.schedule -> t -> t
