(* Micro-benchmark of the serve wire codecs: the JSON v1 line protocol
   against the binary v2 frame protocol, on the hot query shape.

   One "query" is a full exchange — one request out, one reply back — so
   every figure is per exchange:

     encode ns/query   build the request and reply wire images
     decode ns/query   parse both back into their records
     bytes/query       framed (what crosses the socket) and payload (the
                       body inside the framing: the JSON text for v1, the
                       frame body for v2), reported separately
     minor words/query words allocated by one v2 encode+decode round trip
                       over preallocated scratch buffers

   Every time is the fastest of {!Timing.loops} timed loops
   ({!Timing.row}), reported with the loops' spread, and every word count
   comes from the same loops.

   The v2 path is required to be zero-alloc in the steady state: after a
   warm-up pass grows the scratch buffers to working size, the round trip
   may allocate only the decoded records themselves — {!check} enforces a
   hard {!minor_words_limit} budget, and the v2-beats-v1 gates on both
   byte counts and both codec timings.  The measured round trip also
   records into a {!Tfree_obs.Histogram} (as the serve loop does for
   every query and phase) under the same unchanged budget, pinning the
   histogram's recording fast path at zero allocations.

   A second table times the protocol-side wire path: one delivery through
   [Wire_runtime.tap] on a pipe (encode, cross, parse, compare), in ns and
   words, for an empty message, a one-bit reply, an optional vertex (the
   unrestricted protocol's Algorithm 1 reply), 40 vertices and 200 edges.
   Every frame takes the same path, and {!check} holds the three
   fixed-width ones (the empty message, the bit and the optional vertex)
   to {!tap_words_limit} words per delivery.

   [bench/main.ml] embeds the rows in BENCH_results.json ([micro/serve-*],
   [micro/tap-frame]); [bench/micro.ml] runs the gate standalone behind the
   @micro-smoke alias; [bench/check_json.ml] re-validates the emitted
   rows. *)

open Tfree_util
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Wire = Tfree_wire.Wire_runtime
module Histogram = Tfree_obs.Histogram
module Msg = Tfree_comm.Msg
module Channel = Tfree_comm.Channel

(* ------------------------------------------------------------ fixtures *)

(* The hot shape: a default-ish query (no fault spec, so the decoder takes
   its fast path) and a reply whose wire report satisfies the
   reconciliation identity — the fixture must be a reply the server could
   actually send. *)
let fixture_request = { Service.default_request with n = 500; seed = 7 }

let fixture_response =
  let wire_bytes = 4583 and framing_overhead_bits = 1144 in
  let accounted_bits = (wire_bytes * 8) - framing_overhead_bits in
  {
    Service.verdict = Tfree.Tester.Triangle (12, 99, 431);
    bits = accounted_bits;
    rounds = 3;
    max_message = 1184;
    wire =
      {
        Wire.wire_bytes;
        frames = 37;
        payload_bits = accounted_bits;
        framing_overhead_bits;
        accounted_bits;
        ratio = float_of_int (wire_bytes * 8) /. float_of_int accounted_bits;
      };
  }

let () = assert (Wire.reconciles fixture_response.Service.wire)

(* ------------------------------------------------------------- results *)

type result = {
  iters : int;
  v1_encode : Timing.row;
  v2_encode : Timing.row;
  v1_decode : Timing.row;
  v2_decode : Timing.row;
  v1_framed_bytes : int;  (** request line + reply line, newlines included *)
  v1_payload_bytes : int;  (** the JSON text alone *)
  v2_framed_bytes : int;  (** both frames: length prefix + body + checksum *)
  v2_payload_bytes : int;  (** both frame bodies *)
  round_trip : Timing.row;  (** one v2 encode+decode round trip *)
  tap : tap_case list;  (** one delivery through the wire tap, per message shape *)
}

and tap_case = {
  case : string;
  budget : float option;  (** words per delivery, for a fixed-width frame *)
  delivery : Timing.row;
}

(** The zero-alloc budget: one v2 round trip may allocate the decoded
    request and response records (plus the boxed floats inside them) and
    nothing proportional to the message — no strings, no closures, no
    intermediate buffers. *)
let minor_words_limit = 256.0

(** The tap budget for a fixed-width frame: one delivery may allocate the
    payload reader, the decoded message, its value and its layout (13
    words for an optional vertex, 5 for the empty message or a bit, whose
    decoded message is the shared constant), and no buffer, no header and
    no parse cursor. *)
let tap_words_limit = 16.0

(* --------------------------------------------------------- measurement *)

(* The message shapes the tap is timed on: the unrestricted protocol's
   tiny messages, then a medium and a large list. *)
let tap_messages =
  [
    ("empty", Some tap_words_limit, Msg.empty);
    ("bool", Some tap_words_limit, Msg.bool true);
    ("vertex_opt", Some tap_words_limit, Msg.vertex_opt ~n:300 (Some 217));
    ("vertices40", None, Msg.vertices ~n:300 (List.init 40 (fun i -> (i * 7) mod 300)));
    ( "edges200",
      None,
      Msg.edges ~n:300 (List.init 200 (fun i -> ((i * 7) mod 300, (i * 13 + 1) mod 300))) );
  ]

(* One delivery through a one-player pipe network's tap, warmed up so the
   network's scratch and the pipe's ring have grown to the frame. *)
let measure_tap ~iters =
  let net = Wire.create ~transport:Wire.Pipe ~k:1 () in
  Fun.protect
    ~finally:(fun () -> Wire.close net)
    (fun () ->
      let tap = Wire.tap net in
      List.map
        (fun (case, budget, msg) ->
          let deliver () = tap.Channel.deliver ~round:0 (Channel.To_player 0) msg in
          if not (Msg.equal (deliver ()) msg) then failwith "micro: tap altered a message";
          { case; budget; delivery = Timing.row ~runs:iters deliver })
        tap_messages)

let measure ~iters =
  if iters < 1 then invalid_arg "Micro_wire.measure: iters must be positive";
  (* v1: the JSON line protocol exactly as client and server shape it *)
  let request_json () = Jsonout.to_line (Service.request_to_json fixture_request) in
  let response_json () = Jsonout.to_line (Service.response_to_json fixture_response) in
  let request_line = request_json () and response_line = response_json () in
  let v1_encode () = String.length (request_json ()) + String.length (response_json ()) in
  let v1_decode () =
    let req =
      match Jsonout.parse request_line with
      | Ok j -> Service.request_of_json j
      | Error msg -> failwith msg
    in
    let resp =
      match Jsonout.parse response_line with
      | Ok j -> Service.response_of_json j
      | Error msg -> failwith msg
    in
    match (req, resp) with
    | Ok r, Ok p -> (r, p)
    | Error msg, _ | _, Error msg -> failwith msg
  in
  (* v2: preallocated per-"connection" scratch, reused every iteration *)
  let qbuf = Proto.create_buf () and rbuf = Proto.create_buf () in
  let v2_encode () =
    Service.encode_query_frame qbuf fixture_request;
    Service.encode_response_frame rbuf fixture_response;
    Proto.frame_len qbuf + Proto.frame_len rbuf
  in
  ignore (v2_encode ());
  (* standalone copies of the sealed frames, as they arrive off a socket *)
  let frame_copy b =
    let c = Bytes.create (Proto.frame_len b) in
    Bytes.blit (Proto.storage b) (Proto.frame_off b) c 0 (Proto.frame_len b);
    c
  in
  let qframe = frame_copy qbuf and rframe = frame_copy rbuf in
  let cur = Proto.cursor () in
  let v2_decode () =
    let used = Proto.try_frame qframe ~pos:0 ~limit:(Bytes.length qframe) cur in
    if used <> Bytes.length qframe then failwith "micro: query frame did not consume";
    if Proto.get_u8 cur <> Service.tag_query then failwith "micro: bad query tag";
    let req =
      match Service.decode_request_body cur with Ok r -> r | Error msg -> failwith msg
    in
    Proto.expect_end cur;
    let used = Proto.try_frame rframe ~pos:0 ~limit:(Bytes.length rframe) cur in
    if used <> Bytes.length rframe then failwith "micro: reply frame did not consume";
    if Proto.get_u8 cur <> Service.tag_reply then failwith "micro: bad reply tag";
    let resp = Service.decode_response_body cur in
    Proto.expect_end cur;
    (req, resp)
  in
  (* correctness before speed: both decoders reproduce the fixtures *)
  let check_round (req, resp) =
    if req <> fixture_request then failwith "micro: decoded request differs";
    if resp <> fixture_response then failwith "micro: decoded response differs"
  in
  check_round (v1_decode ());
  check_round (v2_decode ());
  (* byte counts (the +1s are the newline framing of the line protocol) *)
  let v1_payload_bytes = String.length request_line + String.length response_line in
  let v1_framed_bytes = v1_payload_bytes + 2 in
  ignore (v2_encode ());
  let v2_framed_bytes = Proto.frame_len qbuf + Proto.frame_len rbuf in
  let v2_payload_bytes = Proto.frame_body_len qbuf + Proto.frame_body_len rbuf in
  (* allocation: one warmed v2 round trip, words per iteration.
     The round trip includes latency-histogram recording — the serve loop
     records every query and every phase — under the SAME budget: the
     histogram's int fast path must stay zero-alloc or the gate trips. *)
  let hist = Histogram.create () in
  let round_trip () =
    ignore (Sys.opaque_identity (v2_encode ()));
    Histogram.record_int hist (Proto.frame_len qbuf + Proto.frame_len rbuf);
    ignore (Sys.opaque_identity (v2_decode ()));
    Histogram.record_int hist 37
  in
  {
    iters;
    v1_encode = Timing.row ~runs:iters v1_encode;
    v2_encode = Timing.row ~runs:iters v2_encode;
    v1_decode = Timing.row ~runs:iters v1_decode;
    v2_decode = Timing.row ~runs:iters v2_decode;
    v1_framed_bytes;
    v1_payload_bytes;
    v2_framed_bytes;
    v2_payload_bytes;
    round_trip = Timing.row ~runs:iters round_trip;
    tap = measure_tap ~iters;
  }

(* ----------------------------------------------------------- the gate *)

(** Every way v2 is required to beat v1, as violation strings (empty =
    pass).  The byte gates are deterministic; the timing gates compare the
    fastest loops, run at iteration counts high enough that the
    two-orders-of-magnitude JSON/binary gap cannot flip on noise. *)
let violations r =
  let v = ref [] in
  let push fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  if r.v2_framed_bytes >= r.v1_framed_bytes then
    push "v2 framed bytes/query %d >= v1 %d" r.v2_framed_bytes r.v1_framed_bytes;
  if r.v2_payload_bytes >= r.v1_payload_bytes then
    push "v2 payload bytes/query %d >= v1 %d" r.v2_payload_bytes r.v1_payload_bytes;
  if r.v2_encode.ns >= r.v1_encode.ns then
    push "v2 encode %.0f ns/query >= v1 %.0f" r.v2_encode.ns r.v1_encode.ns;
  if r.v2_decode.ns >= r.v1_decode.ns then
    push "v2 decode %.0f ns/query >= v1 %.0f" r.v2_decode.ns r.v1_decode.ns;
  if r.round_trip.words > minor_words_limit then
    push "v2 round trip allocates %.1f words/query, budget %.0f" r.round_trip.words
      minor_words_limit;
  List.iter
    (fun c ->
      match c.budget with
      | Some budget when c.delivery.words > budget ->
          push "tap delivery of %s allocates %.1f words/frame, budget %.0f" c.case
            c.delivery.words budget
      | _ -> ())
    r.tap;
  List.rev !v

let check r = match violations r with [] -> Ok () | v -> Error v

(* ------------------------------------------------------------- output *)

let print_tap_table r =
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf "wire tap micro, pipe (%d deliveries/row, best of %d loops)" r.iters
            (min Timing.loops r.iters))
       ~header:[ "message"; "ns/frame"; "spread"; "words/frame"; "budget" ]
       (List.map
          (fun c ->
            [
              c.case;
              Printf.sprintf "%.1f" c.delivery.ns;
              Printf.sprintf "%.0f%%" (100.0 *. c.delivery.spread);
              Printf.sprintf "%.1f" c.delivery.words;
              (match c.budget with Some b -> Printf.sprintf "<= %.0f" b | None -> "-");
            ])
          r.tap))

let print_table r =
  (* a time with its spread: the slowest loop was that much slower *)
  let timed (x : Timing.row) = Printf.sprintf "%.1f (+%.0f%%)" x.ns (100.0 *. x.spread) in
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf "wire codec micro (%d iters/row, best of %d loops)" r.iters
            (min Timing.loops r.iters))
       ~header:[ "metric"; "v1 (json)"; "v2 (binary)"; "v2/v1" ]
       [
         [
           "encode ns/query";
           timed r.v1_encode;
           timed r.v2_encode;
           Printf.sprintf "%.3f" (r.v2_encode.ns /. r.v1_encode.ns);
         ];
         [
           "decode ns/query";
           timed r.v1_decode;
           timed r.v2_decode;
           Printf.sprintf "%.3f" (r.v2_decode.ns /. r.v1_decode.ns);
         ];
         [
           "framed bytes/query";
           string_of_int r.v1_framed_bytes;
           string_of_int r.v2_framed_bytes;
           Printf.sprintf "%.3f"
             (float_of_int r.v2_framed_bytes /. float_of_int r.v1_framed_bytes);
         ];
         [
           "payload bytes/query";
           string_of_int r.v1_payload_bytes;
           string_of_int r.v2_payload_bytes;
           Printf.sprintf "%.3f"
             (float_of_int r.v2_payload_bytes /. float_of_int r.v1_payload_bytes);
         ];
         [
           "minor words/query (v2)";
           "-";
           Printf.sprintf "%.1f" r.round_trip.words;
           Printf.sprintf "<= %.0f" minor_words_limit;
         ];
       ]);
  print_tap_table r

(* The BENCH_results.json rows.  Same array as the protocol rows (every
   row carries a "name"); the wire rows carry their own fields instead of
   ns_per_run, and check_json validates them by name. *)
let to_rows r =
  let num x = Jsonout.Num x in
  let int n = num (float_of_int n) in
  let v1_v2 name (v1 : Timing.row) (v2 : Timing.row) =
    Jsonout.Obj
      [
        ("name", Jsonout.Str name);
        ("v1", num v1.ns);
        ("v2", num v2.ns);
        ("v1_ns_spread", num v1.spread);
        ("v2_ns_spread", num v2.spread);
      ]
  in
  [
    v1_v2 "micro/serve-encode-ns" r.v1_encode r.v2_encode;
    v1_v2 "micro/serve-decode-ns" r.v1_decode r.v2_decode;
    Jsonout.Obj
      [
        ("name", Jsonout.Str "micro/serve-bytes-per-query");
        ("v1_framed", int r.v1_framed_bytes);
        ("v1_payload", int r.v1_payload_bytes);
        ("v2_framed", int r.v2_framed_bytes);
        ("v2_payload", int r.v2_payload_bytes);
      ];
    Jsonout.Obj
      [
        ("name", Jsonout.Str "micro/serve-minor-words-per-query");
        ("v2", num r.round_trip.words);
        ("limit", num minor_words_limit);
      ];
    Jsonout.Obj
      (("name", Jsonout.Str "micro/tap-frame")
      :: ("limit", num tap_words_limit)
      :: List.concat_map
           (fun c ->
             [
               (c.case ^ "_ns", num c.delivery.ns);
               (c.case ^ "_ns_spread", num c.delivery.spread);
               (c.case ^ "_words", num c.delivery.words);
             ])
           r.tap);
  ]
