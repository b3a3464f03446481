(** Deterministic fault schedules for the wire stack: a finite list of
    [(op, kind)] events naming which write operation each fault fires on.
    Built either from an explicit spec (["2:drop,5:corrupt@13"]) or from a
    seed and a rate (["seed=42,rate=0.05,ops=200"]), so every chaos run is
    reproducible.  Consumed by {!Transport.faulty} (ops = frames) and
    {!Service.serve} (ops = replies). *)

type kind =
  | Drop  (** the write is swallowed whole *)
  | Corrupt of { bit : int }  (** bit [bit mod (8·len)] is flipped *)
  | Truncate of { keep : int }  (** only the first [keep] bytes are delivered *)
  | Delay of { amount : int }  (** held back: ops (transport) / ms (service) *)
  | Partial of { at : int }  (** split at byte [at] into two deliveries; benign *)
  | Close  (** the connection is closed, losing the write *)

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
