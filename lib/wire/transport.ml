(** Byte transports.

    A transport is a duplex byte stream that loops back in-process: what is
    written on it is read back from it.  Two implementations back the wire
    runtime — an in-memory {!pipe} for deterministic tests and a real
    Unix-domain {!socketpair}.

    Every operation works on a caller-owned byte range — [send] reads
    [src.[off .. off+len-1]], [recv] fills [dst.[off .. off+len-1]] — so a
    frame crosses without a buffer of the transport's own being handed
    out.  {!exchange} writes a range and reads the same number of bytes
    back into a second buffer; on the socketpair this is a
    [select]-interleaved loop, so a frame larger than the kernel socket
    buffer cannot deadlock the single-process sender/receiver pair.

    All failure modes raise the typed {!Wire_error.Wire_error} — underruns
    as [Truncated], a gone peer as [Peer_closed] — never a bare
    [Invalid_argument]/[Failure] callers would have to string-match.

    {!faulty} wraps any transport with a deterministic {!Fault.schedule}:
    the [op]-th write through the wrapper suffers the scheduled fault
    (drop, bit-flip, truncation, delay, split write, peer close), and the
    wrapper's read side refuses to block on bytes an injected fault made
    unavailable — so chaos runs can crash with a typed error but can never
    hang. *)

type t = {
  send : Bytes.t -> int -> int -> unit;  (** write the whole range *)
  recv : Bytes.t -> int -> int -> unit;  (** fill exactly the range *)
  exchange : Bytes.t -> int -> int -> Bytes.t -> unit;
      (** write the range, read as many bytes back into the second buffer *)
  close : unit -> unit;
}

let check_range who b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg (Printf.sprintf "Transport.%s: range outside the buffer" who)

let send t src off len =
  check_range "send" src off len;
  t.send src off len

let recv t dst off len =
  check_range "recv" dst off len;
  t.recv dst off len

let exchange t src off len into =
  check_range "exchange" src off len;
  check_range "exchange" into 0 len;
  t.exchange src off len into

let close t = t.close ()

(* ----------------------------------------------------------------- pipe *)

(* The pipe's bytes in flight: a circular buffer that grows (unwrapping)
   when a write does not fit, and is reused otherwise. *)
type ring = { mutable data : Bytes.t; mutable head : int; mutable size : int }

(* Copy the first [len] bytes in flight to [dst] at [off], leaving them in
   the ring. *)
let ring_peek r dst off len =
  let first = Int.min len (Bytes.length r.data - r.head) in
  Bytes.blit r.data r.head dst off first;
  if first < len then Bytes.blit r.data 0 dst (off + first) (len - first)

let ring_push r src off len =
  if r.size + len > Bytes.length r.data then begin
    let cap = ref (2 * Bytes.length r.data) in
    while !cap < r.size + len do
      cap := 2 * !cap
    done;
    let fresh = Bytes.create !cap in
    ring_peek r fresh 0 r.size;
    r.data <- fresh;
    r.head <- 0
  end;
  let cap = Bytes.length r.data in
  let tail = (r.head + r.size) mod cap in
  let first = Int.min len (cap - tail) in
  Bytes.blit src off r.data tail first;
  if first < len then Bytes.blit src (off + first) r.data 0 (len - first);
  r.size <- r.size + len

let ring_pop r dst off len =
  if r.size < len then
    Wire_error.errorf_truncated "Transport.pipe: read of %d bytes but only %d buffered" len r.size;
  ring_peek r dst off len;
  r.size <- r.size - len;
  r.head <- (if r.size = 0 then 0 else (r.head + len) mod Bytes.length r.data)

(* Push then pop.  On an empty ring that hands back exactly the bytes just
   pushed and leaves the ring empty again, so it is one copy from source to
   destination; bytes still in flight come out first otherwise. *)
let ring_exchange r src off len into =
  if r.size = 0 then Bytes.blit src off into 0 len
  else begin
    ring_push r src off len;
    ring_pop r into 0 len
  end

(** In-memory FIFO of bytes: writes append, reads consume in order.
    Deterministic, and allocation-free once the ring has grown to the
    largest burst in flight — the default for tests and experiments. *)
let pipe () =
  let r = { data = Bytes.create 256; head = 0; size = 0 } in
  {
    send = ring_push r;
    recv = ring_pop r;
    exchange = ring_exchange r;
    close = (fun () -> ());
  }

(* ------------------------------------------------------------- unix fds *)

let write_all fd src off len =
  let w = ref 0 in
  while !w < len do
    w := !w + Unix.write fd src (off + !w) (len - !w)
  done

let read_exact fd dst off len =
  let r = ref 0 in
  while !r < len do
    let got = Unix.read fd dst (off + !r) (len - !r) in
    if got = 0 then
      Wire_error.error
        (Wire_error.Peer_closed
           (Printf.sprintf "Transport: peer closed with %d of %d bytes read" !r len));
    r := !r + got
  done

(* Write the range while draining the read side straight into [into], so a
   buffer larger than the kernel's socket buffer cannot wedge a
   single-process loopback. *)
let exchange_fds ~wr ~rd src off len into =
  let w = ref 0 and r = ref 0 in
  while !w < len || !r < len do
    let ws = if !w < len then [ wr ] else [] in
    let rs = if !r < len then [ rd ] else [] in
    let readable, writable, _ = Unix.select rs ws [] (-1.0) in
    if writable <> [] then w := !w + Unix.write wr src (off + !w) (min 65536 (len - !w));
    if readable <> [] then begin
      let got = Unix.read rd into !r (len - !r) in
      if got = 0 then
        Wire_error.error (Wire_error.Peer_closed "Transport: peer closed mid-exchange");
      r := !r + got
    end
  done

(** A connected [AF_UNIX]/[SOCK_STREAM] pair in one process: writes enter
    one end, reads drain the other — real kernel-crossing bytes. *)
let socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let closed = ref false in
  {
    send = write_all a;
    recv = read_exact b;
    exchange = exchange_fds ~wr:a ~rd:b;
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ()
        end);
  }

(* --------------------------------------------------------------- faulty *)

(* The fault-injecting wrapper.  Every wrapper [send] (and every fast-path
   [exchange]) consumes one op of the shared [counter], so one frame is one
   op whichever way it crosses; the schedule names ops to sabotage.  The
   wrapper tracks delivered-minus-consumed bytes, so a read that an
   injected drop/truncate starved raises [Truncated] instead of blocking
   forever — the no-hang half of the chaos contract lives here, the
   no-wrong-verdict half in the frame checksum and the wire tap's echo
   check. *)
let faulty ?(counter = ref 0) ~schedule inner =
  let closed = ref false in
  let pending = Queue.create () in
  (* delayed sends: (release_op, bytes) — release once the op counter passes *)
  let delivered = ref 0 and consumed = ref 0 in
  let deliver b off len =
    inner.send b off len;
    delivered := !delivered + len
  in
  let deliver_all b = deliver b 0 (Bytes.length b) in
  let flush_due () =
    let rec go () =
      match Queue.peek_opt pending with
      | Some (due, b) when due <= !counter ->
          ignore (Queue.pop pending);
          deliver_all b;
          go ()
      | _ -> ()
    in
    go ()
  in
  let flush_all () =
    while not (Queue.is_empty pending) do
      deliver_all (snd (Queue.pop pending))
    done
  in
  let guard () =
    if !closed then Wire_error.error (Wire_error.Peer_closed "injected peer-close")
  in
  let send src off len =
    guard ();
    let op = !counter in
    incr counter;
    flush_due ();
    match Fault.find schedule op with
    | None -> deliver src off len
    | Some Fault.Drop -> ()
    | Some (Fault.Corrupt { bit }) ->
        let c = Bytes.sub src off len in
        if len > 0 then begin
          let bi = bit mod (8 * len) in
          Bytes.set c (bi / 8)
            (Char.chr (Char.code (Bytes.get c (bi / 8)) lxor (1 lsl (bi mod 8))))
        end;
        deliver_all c
    | Some (Fault.Truncate { keep }) -> deliver src off (min keep (max 0 (len - 1)))
    | Some (Fault.Delay { amount }) -> Queue.push (op + max 1 amount, Bytes.sub src off len) pending
    | Some (Fault.Partial { at }) ->
        let cut = min (max 1 at) (max 0 (len - 1)) in
        deliver src off cut;
        deliver src (off + cut) (len - cut)
    | Some Fault.Close ->
        closed := true;
        inner.close ()
  in
  let recv dst off len =
    guard ();
    flush_all ();
    if !delivered - !consumed < len then
      Wire_error.errorf_truncated
        "Transport.faulty: read of %d bytes but an injected fault left only %d in flight" len
        (!delivered - !consumed)
    else begin
      inner.recv dst off len;
      consumed := !consumed + len
    end
  in
  let exchange src off len into =
    guard ();
    if Fault.find schedule !counter = None && Queue.is_empty pending then begin
      (* fault-free op on a clean stream: delegate to the deadlock-free
         underlying exchange (matters for frames beyond the kernel buffer) *)
      incr counter;
      delivered := !delivered + len;
      inner.exchange src off len into;
      consumed := !consumed + len
    end
    else begin
      send src off len;
      recv into 0 len
    end
  in
  { send; recv; exchange; close = (fun () -> inner.close ()) }
