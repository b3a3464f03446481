(** The wire stack's typed failure taxonomy.

    Every layer of [Tfree_wire] fails {e closed} through this one exception:
    a transport that cannot supply bytes, a frame that does not parse, a
    codec that reads garbage, a service read that exceeds its deadline — all
    raise {!Wire_error} with a {!kind} naming what went wrong, never a bare
    [Invalid_argument]/[Failure] that callers would have to match on message
    strings.  The paper's one-sidedness guarantee (a triangle is reported
    only when its three edges were really seen) extends to the wire this
    way: a fault can abort a run with a typed, categorized error, but it can
    never smuggle a wrong verdict past the decoder.

    {!category} collapses the kinds onto the five service-telemetry buckets
    ({!Tfree_wire.Metrics}). *)

type kind =
  | Truncated of string  (** the stream ended before the bytes the frame promised *)
  | Corrupt of string  (** bytes arrived but do not decode (checksum, varint, layout, bit count) *)
  | Oversized of { limit : int; got : int }  (** a length field beyond the frame-size cap *)
  | Peer_closed of string  (** the other side of the transport went away *)
  | Timeout of string  (** a read deadline expired *)
  | Injected of string  (** a scheduled {!Fault} fired and was detected as such *)
  | Unavailable of string  (** a transport could not be opened (e.g. no descriptor left) *)

exception Wire_error of kind

let message = function
  | Truncated m -> m
  | Corrupt m -> m
  | Peer_closed m -> m
  | Timeout m -> m
  | Injected m -> m
  | Unavailable m -> m
  | Oversized { limit; got } -> Printf.sprintf "frame of %d bytes exceeds the %d-byte cap" got limit

(** The service-telemetry bucket: truncated/corrupt/oversized/peer-closed,
    injected faults and unopenable transports are all ["transport"];
    deadlines are ["timeout"]. *)
let category = function
  | Timeout _ -> "timeout"
  | Truncated _ | Corrupt _ | Oversized _ | Peer_closed _ | Injected _ | Unavailable _ -> "transport"

let to_string k = Printf.sprintf "wire error (%s): %s" (category k) (message k)

(** Raise {!Wire_error}. *)
let error k = raise (Wire_error k)

let errorf_corrupt fmt = Printf.ksprintf (fun m -> error (Corrupt m)) fmt
let errorf_truncated fmt = Printf.ksprintf (fun m -> error (Truncated m)) fmt

let () =
  Printexc.register_printer (function Wire_error k -> Some (to_string k) | _ -> None)
