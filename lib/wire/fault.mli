(** Deterministic fault schedules for the wire stack: a finite list of
    [(op, kind)] events naming which write operation each fault fires on.
    Built either from an explicit spec (["2:drop,5:corrupt@13"]) or from a
    seed and a rate (["seed=42,rate=0.05,ops=200"]), so every chaos run is
    reproducible.  Consumed by {!Transport.faulty} (ops = frames) and
    {!Service.serve} (ops = replies). *)

(** What each kind does to a reply of {!Service.serve}, and to an exchange
    of {!Transport.faulty}, which reads its own write straight back. *)
type kind =
  | Drop
      (** the reply is swallowed whole; the exchange raises [Truncated]
          with nothing in flight *)
  | Corrupt of { bit : int }
      (** bit [bit mod (8·len)] of the reply, or of the exchange's
          read-back, is flipped ({!flip_bit}) *)
  | Truncate of { keep : int }
      (** only the first [keep] bytes of the reply are sent; the exchange
          raises [Truncated] with [min keep (len - 1)] in flight *)
  | Delay of { amount : int }
      (** the reply is sent [amount] ms late; the exchange is fault-free *)
  | Partial of { at : int }
      (** the reply is split at byte [at] into two writes; the exchange is
          fault-free *)
  | Close
      (** the connection is closed, losing the reply; the exchange closes
          the transport and raises [Peer_closed], as does every later one *)

type event = { op : int; kind : kind }
type schedule = event list

val kind_name : kind -> string

(** Canonical explicit spec; {!parse} inverts it exactly. *)
val to_string : schedule -> string

(** Whether the kind delivers the same bytes it was given (split or late):
    [delay] and [partial].  A correct stack survives benign faults with an
    unchanged verdict; the other four may only produce typed errors. *)
val benign : kind -> bool

(** The fault scheduled at write operation [op], if any. *)
val find : schedule -> int -> kind option

(** [flip_bit b ~off ~len bit] flips bit [bit mod (8·len)] of
    [b.[off .. off+len-1]] (bit [i] is bit [i mod 8] of byte [i / 8]),
    taking the remainder non-negative; an empty range is left alone. *)
val flip_bit : Bytes.t -> off:int -> len:int -> int -> unit

(** Sort by op and drop duplicates. *)
val normalize : schedule -> schedule

(** Deterministic seeded schedule: each op in [0, ops) independently draws a
    Bernoulli([rate]) fault; kind and argument come from the same SplitMix64
    stream, so the result is a pure function of the arguments.  [kinds]
    restricts the palette (grammar names; default all six). *)
val random : seed:int -> rate:float -> ops:int -> ?kinds:string list -> unit -> schedule

(** Parse either grammar form ([OP:KIND,...] or [seed=..,rate=..,ops=..],
    with ops at most 1,000,000); [""] is the empty schedule.  Fails closed:
    any other string is an [Error], never an exception. *)
val parse : string -> (schedule, string) result
