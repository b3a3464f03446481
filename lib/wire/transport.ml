(** Byte transports.

    A transport carries one frame per call: {!exchange} writes a
    caller-owned byte range and reads the same number of bytes back into a
    second caller-owned buffer — the loopback crossing of one
    coordinator–player channel.  Two implementations back the wire runtime
    — an in-memory {!pipe} for deterministic tests and a real Unix-domain
    {!socketpair} — and {!faulty} wraps either with a deterministic
    {!Fault.schedule}.

    All failure modes raise the typed {!Wire_error.Wire_error} — a starved
    read as [Truncated], a gone peer as [Peer_closed] — never a bare
    [Invalid_argument]/[Failure] callers would have to string-match. *)

type t = {
  exchange : Bytes.t -> int -> int -> Bytes.t -> unit;
      (** write the range, read as many bytes back into the second buffer *)
  close : unit -> unit;
}

let check_range b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Transport.exchange: range outside the buffer"

let exchange t src off len into =
  check_range src off len;
  check_range into 0 len;
  t.exchange src off len into

let close t = t.close ()

(** In-memory loopback: what is written is what is read back, so an
    exchange is one copy.  Deterministic and allocation-free — the default
    for tests and experiments. *)
let pipe () = { exchange = (fun src off len into -> Bytes.blit src off into 0 len); close = ignore }

(* Alternate non-blocking writes and reads until [len] bytes are back.
   Neither end can stall while the other has work: a full send buffer
   means there are bytes to read, and an empty read means every byte
   written has been read, so the next write goes through.  A range larger
   than the kernel's socket buffer therefore needs no readiness wait. *)
let exchange_fds ~wr ~rd src off len into =
  let w = ref 0 and r = ref 0 in
  while !r < len do
    (if !w < len then
       match Unix.single_write wr src (off + !w) (len - !w) with
       | n -> w := !w + n
       | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
    match Unix.read rd into !r (len - !r) with
    | 0 -> Wire_error.error (Wire_error.Peer_closed "Transport: peer closed mid-exchange")
    | n -> r := !r + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  done

(** A connected [AF_UNIX]/[SOCK_STREAM] pair in one process: writes enter
    one end, reads drain the other — real kernel-crossing bytes. *)
let socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  let closed = ref false in
  {
    exchange = exchange_fds ~wr:a ~rd:b;
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ()
        end);
  }

(* The fault-injecting wrapper.  Every exchange consumes one op of the
   shared [counter], so one frame is one op; the schedule names ops to
   sabotage.  A fault that withholds bytes raises [Truncated] instead of
   reading, so a chaos run can fail closed but never hang — the
   no-wrong-verdict half of the chaos contract lives in the frame checksum
   and the wire tap's echo check. *)
let faulty ?(counter = ref 0) ~schedule inner =
  let closed = ref false in
  let peer_closed () = Wire_error.error (Wire_error.Peer_closed "injected peer-close") in
  let starved len kept =
    Wire_error.errorf_truncated
      "Transport.faulty: read of %d bytes but an injected fault left only %d in flight" len kept
  in
  let exchange src off len into =
    if !closed then peer_closed ();
    let op = !counter in
    incr counter;
    match Fault.find schedule op with
    | None | Some (Fault.Delay _ | Fault.Partial _) -> inner.exchange src off len into
    | Some (Fault.Corrupt { bit }) ->
        inner.exchange src off len into;
        Fault.flip_bit into ~off:0 ~len bit
    | Some Fault.Drop -> starved len 0
    | Some (Fault.Truncate { keep }) -> starved len (max 0 (min keep (len - 1)))
    | Some Fault.Close ->
        closed := true;
        inner.close ();
        peer_closed ()
  in
  { exchange; close = inner.close }
