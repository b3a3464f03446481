(* Differential and fail-closed tests for the wire encoders and decoders.

   A bit-at-a-time reference — the writer and reader the codec used to be
   built on, and the frame assembly that went with them (five Buffers and a
   body copy) — lives here as an oracle: over random bit sequences and
   random messages the word-wide Bitio, the in-place Frame.encode_into and
   one reused scratch must produce exactly the reference bytes, and decode
   back to what was sent.  Then structured mutations of valid frames and
   layout descriptors (splice, truncate, bit-flip, varint overflow, and the
   same mutations re-sealed under a correct length and checksum so they
   reach the inner parsers) must only ever raise the typed Wire_error. *)

open Tfree_comm
module Bitio = Tfree_wire.Bitio
module Codec = Tfree_wire.Codec
module Frame = Tfree_wire.Frame
module Transport = Tfree_wire.Transport
module Proto = Tfree_wire.Proto
module Wire_error = Tfree_wire.Wire_error
module Bits = Tfree_util.Bits
module Fault = Tfree_wire.Fault

(* ------------------------------------------------------------ reference *)

module Ref = struct
  type writer = { buf : Buffer.t; mutable acc : int; mutable pending : int; mutable written : int }

  let writer () = { buf = Buffer.create 64; acc = 0; pending = 0; written = 0 }

  let put_bit w b =
    w.acc <- (w.acc lsl 1) lor if b then 1 else 0;
    w.pending <- w.pending + 1;
    w.written <- w.written + 1;
    if w.pending = 8 then begin
      Buffer.add_char w.buf (Char.chr w.acc);
      w.acc <- 0;
      w.pending <- 0
    end

  let put_bits w ~width v =
    for i = width - 1 downto 0 do
      put_bit w ((v lsr i) land 1 = 1)
    done

  let put_gamma w v =
    let x = v + 1 in
    let rec log2floor acc y = if y <= 1 then acc else log2floor (acc + 1) (y lsr 1) in
    let nb = log2floor 0 x in
    for _ = 1 to nb do
      put_bit w false
    done;
    put_bits w ~width:(nb + 1) x

  let to_bytes w =
    if w.pending > 0 then begin
      Buffer.add_char w.buf (Char.chr (w.acc lsl (8 - w.pending)));
      w.acc <- 0;
      w.pending <- 0
    end;
    Buffer.to_bytes w.buf

  type reader = { data : Bytes.t; mutable pos : int }

  let reader data = { data; pos = 0 }

  let get_bit r =
    let byte = Char.code (Bytes.get r.data (r.pos lsr 3)) in
    let b = (byte lsr (7 - (r.pos land 7))) land 1 in
    r.pos <- r.pos + 1;
    b = 1

  let get_bits r ~width =
    let v = ref 0 in
    for _ = 1 to width do
      v := (!v lsl 1) lor if get_bit r then 1 else 0
    done;
    !v

  let get_gamma r =
    let nb = ref 0 in
    while not (get_bit r) do
      incr nb
    done;
    ((1 lsl !nb) lor get_bits r ~width:!nb) - 1

  let rec encode_value w layout (value : Msg.value) =
    match (layout, value) with
    | Msg.L_unit, Msg.Unit -> ()
    | Msg.L_bool, Msg.Bool b -> put_bit w b
    | Msg.L_int_in { lo; hi }, Msg.Int v -> put_bits w ~width:(Bits.int_in_range ~lo ~hi) (v - lo)
    | Msg.L_nat, Msg.Int v -> put_gamma w v
    | Msg.L_vertex { n }, Msg.Vertex v -> put_bits w ~width:(Bits.vertex ~n) v
    | Msg.L_vertex_opt _, Msg.No_vertex -> put_bit w false
    | Msg.L_vertex_opt { n }, Msg.Vertex v ->
        put_bit w true;
        put_bits w ~width:(Bits.vertex ~n) v
    | Msg.L_edge { n }, Msg.Edge (u, v) ->
        put_bits w ~width:(Bits.vertex ~n) u;
        put_bits w ~width:(Bits.vertex ~n) v
    | Msg.L_vertices { n }, Msg.Vertices vs ->
        put_gamma w (List.length vs);
        List.iter (put_bits w ~width:(Bits.vertex ~n)) vs
    | Msg.L_edges { n }, Msg.Edges es ->
        put_gamma w (List.length es);
        List.iter
          (fun (u, v) ->
            put_bits w ~width:(Bits.vertex ~n) u;
            put_bits w ~width:(Bits.vertex ~n) v)
          es
    | Msg.L_tuple ls, Msg.Tuple vs -> List.iter2 (encode_value w) ls vs
    | _ -> invalid_arg "Ref.encode_value"

  (* All 63 bits of [v], unsigned: a negative [v] takes 9 bytes. *)
  let put_varint b v =
    let rec go v =
      if v >= 0 && v < 0x80 then Buffer.add_char b (Char.chr v)
      else begin
        Buffer.add_char b (Char.chr (0x80 lor (v land 0x7f)));
        go (v lsr 7)
      end
    in
    go v

  (* Arithmetic mod 2^63: from |v| = 2^61 on, the image wraps to a
     negative int, which [put_varint] writes as the unsigned 63 bits. *)
  let zigzag v = if v >= 0 then 2 * v else (-2 * v) - 1

  let rec put_layout b (l : Msg.layout) =
    match l with
    | Msg.L_unit -> put_varint b 0
    | Msg.L_bool -> put_varint b 1
    | Msg.L_int_in { lo; hi } ->
        put_varint b 2;
        put_varint b (zigzag lo);
        put_varint b (zigzag hi)
    | Msg.L_nat -> put_varint b 3
    | Msg.L_vertex { n } -> put_varint b 4; put_varint b n
    | Msg.L_vertex_opt { n } -> put_varint b 5; put_varint b n
    | Msg.L_edge { n } -> put_varint b 6; put_varint b n
    | Msg.L_vertices { n } -> put_varint b 7; put_varint b n
    | Msg.L_edges { n } -> put_varint b 8; put_varint b n
    | Msg.L_tuple ls ->
        put_varint b 9;
        put_varint b (List.length ls);
        List.iter (put_layout b) ls

  let sum16 b =
    let s = ref 0 in
    Bytes.iter (fun c -> s := !s + Char.code c) b;
    !s land 0xffff

  (* Seal a body (bit count, descriptor, payload) into a frame: checksum,
     then the length prefix. *)
  let seal body =
    let ck = sum16 (Buffer.to_bytes body) in
    Buffer.add_char body (Char.chr (ck land 0xff));
    Buffer.add_char body (Char.chr (ck lsr 8));
    let frame = Buffer.create (Buffer.length body + 2) in
    put_varint frame (Buffer.length body);
    Buffer.add_buffer frame body;
    Buffer.to_bytes frame

  let frame msg =
    let w = writer () in
    encode_value w (Msg.layout msg) (Msg.value msg);
    let payload = to_bytes w in
    let body = Buffer.create 64 in
    put_varint body (Msg.bits msg);
    put_layout body (Msg.layout msg);
    Buffer.add_bytes body payload;
    seal body
end

(* ----------------------------------------------------------- generators *)

type op = Bit of bool | Fixed of int * int | Gamma of int

let print_op = function
  | Bit b -> Printf.sprintf "bit %b" b
  | Fixed (w, v) -> Printf.sprintf "bits %d:%d" w v
  | Gamma v -> Printf.sprintf "gamma %d" v

let gen_op =
  let open QCheck.Gen in
  let value_of_width w x = if w = 62 then x land max_int else x land ((1 lsl w) - 1) in
  frequency
    [
      (2, map (fun b -> Bit b) bool);
      (5, map2 (fun w x -> Fixed (w, value_of_width w x)) (int_range 0 62) int);
      (* all-ones at every width, the top bit of a field included *)
      (1, map (fun w -> Fixed (w, value_of_width w max_int)) (int_range 0 62));
      ( 3,
        map2
          (fun s x -> Gamma (Int.min (1 lsl 61) ((x land max_int) lsr s)))
          (int_range 0 62) int );
      (1, oneofl [ Gamma 0; Gamma (1 lsl 61); Gamma ((1 lsl 61) - 1) ]);
    ]

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 0 60) gen_op)

(* Messages beyond Msg_gen's: range codes up to the full 62-bit width,
   naturals up to 2^61, empty and long lists, deeper tuples. *)
let gen_msg : Msg.t QCheck.Gen.t =
  let open QCheck.Gen in
  let wide_int =
    (* every width 1..62; a 62-bit range within +-2^61, or one reaching
       min_int or max_int *)
    int_range 1 62 >>= fun width ->
    int >>= fun x ->
    int >>= fun y ->
    let lo, hi =
      if width = 62 then
        match (x lsr 8) land 3 with
        | 0 -> (min_int + (x land 0xff), (x land 0xff) - 1)
        | 1 -> (-(x land 0xff), max_int - (x land 0xff))
        | _ -> (-(1 lsl 60) - (x land 0xff), (1 lsl 61) - 1)
      else
        let lo = -(x land 0xff) in
        (lo, lo + (1 lsl width) - 1)
    in
    return (Msg.int_in ~lo ~hi (lo + ((y land max_int) mod (hi - lo + 1))))
  in
  let big_nat =
    int_range 0 61 >>= fun s ->
    int >>= fun x -> return (Msg.nat (Int.min (1 lsl 61) ((x land max_int) lsr s)))
  in
  let long_list =
    int_range 2 5000 >>= fun n ->
    int_range 0 3000 >>= fun len ->
    bool >>= fun edges ->
    if edges then
      list_repeat len (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun es ->
      return (Msg.edges ~n es)
    else list_repeat len (int_bound (n - 1)) >>= fun vs -> return (Msg.vertices ~n vs)
  in
  let leaf =
    frequency
      [
        (4, Tfree_proptest.Msg_gen.gen);
        (2, wide_int);
        (2, big_nat);
        (1, long_list);
        (1, oneofl [ Msg.vertices ~n:7 []; Msg.edges ~n:7 []; Msg.tuple []; Msg.empty ]);
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, list_size (int_range 0 5) (go (depth - 1)) >>= fun ps -> return (Msg.tuple ps));
        ]
  in
  go 3

let arb_msg = QCheck.make ~print:Tfree_proptest.Msg_gen.print gen_msg

(* ---------------------------------------------------------- differential *)

let write_ops ops =
  let w = Bitio.writer () and rw = Ref.writer () in
  List.iter
    (function
      | Bit b ->
          Bitio.put_bit w b;
          Ref.put_bit rw b
      | Fixed (width, v) ->
          Bitio.put_bits w ~width v;
          Ref.put_bits rw ~width v
      | Gamma v ->
          Bitio.put_gamma w v;
          Ref.put_gamma rw v)
    ops;
  (w, rw)

let read_op_new r = function
  | Bit _ -> Bit (Bitio.get_bit r)
  | Fixed (width, _) -> Fixed (width, Bitio.get_bits r ~width)
  | Gamma _ -> Gamma (Bitio.get_gamma r)

let read_op_ref r = function
  | Bit _ -> Bit (Ref.get_bit r)
  | Fixed (width, _) -> Fixed (width, Ref.get_bits r ~width)
  | Gamma _ -> Gamma (Ref.get_gamma r)

let prop_bitio_matches_reference ops =
  let w, rw = write_ops ops in
  let bits = rw.Ref.written in
  Bitio.bits_written w = bits
  && Bitio.byte_length w = (bits + 7) / 8
  &&
  let bytes = Bitio.to_bytes w in
  Bytes.equal bytes (Ref.to_bytes rw)
  && (let r = Bitio.reader bytes ~off:0 ~len:(Bytes.length bytes) in
      List.map (read_op_new r) ops = ops && Bitio.bits_read r = bits && Bitio.bits_left r < 8)
  && List.map (read_op_ref (Ref.reader bytes)) ops = ops

let prop_frame_matches_reference msg =
  let frame = Frame.encode msg in
  Bytes.equal frame (Ref.frame msg)
  &&
  let pos = ref 0 in
  let back = Frame.decode frame pos in
  !pos = Bytes.length frame && Msg.value back = Msg.value msg && Msg.bits back = Msg.bits msg
  && Msg.layout back = Msg.layout msg

let prop_payload_and_descriptor msg =
  let payload, bits = Codec.encode_payload msg in
  let rw = Ref.writer () in
  Ref.encode_value rw (Msg.layout msg) (Msg.value msg);
  let d = Codec.layout_to_bytes (Msg.layout msg) in
  let rd = Buffer.create 16 in
  Ref.put_layout rd (Msg.layout msg);
  bits = Msg.bits msg
  && Bytes.equal payload (Ref.to_bytes rw)
  && Bytes.equal d (Buffer.to_bytes rd)
  && Codec.layout_size (Msg.layout msg) = Bytes.length d

(* One scratch across a long sequence mixing large and small messages: a
   frame left behind by a larger predecessor must never leak into the next
   image, and the frame that comes back through the transport into the
   reused read-back buffer must be the one just sent. *)
let prop_scratch_reuse msgs =
  let s = Frame.scratch () and tr = Transport.pipe () in
  List.for_all
    (fun msg ->
      Frame.encode_into s msg;
      let image = Bytes.sub (Frame.image s) 0 (Frame.frame_len s) in
      let fresh = Ref.frame msg in
      Bytes.equal image fresh
      &&
      let back = Frame.exchange s tr msg in
      Frame.frame_len s = Bytes.length fresh
      && Msg.value back = Msg.value msg
      && Msg.bits back = Msg.bits msg)
    msgs

let arb_msg_sequence =
  let open QCheck.Gen in
  let small =
    oneofl [ Msg.empty; Msg.bool true; Msg.vertex_opt ~n:300 (Some 5); Msg.vertex_opt ~n:9 None ]
  in
  QCheck.make
    ~print:(fun ms -> String.concat " | " (List.map Tfree_proptest.Msg_gen.print ms))
    (list_size (int_range 20 80) (frequency [ (3, small); (2, gen_msg) ]))

(* Sequences that mix the constant messages with other ones on one
   scratch.  Each layout below is one physical value, so the messages built
   on it share their layout by [==]: runs of them (a round's replies), the
   same layout at different payload bit counts ([L_nat], an optional
   vertex present or absent, lists of different lengths, a nested tuple),
   structurally equal layouts built afresh by the smart constructors, and
   arbitrary messages in between. *)
let shared_vertex_opt = Msg.L_vertex_opt { n = 300 }
let shared_vertices = Msg.L_vertices { n = 40 }

let shared_tuple =
  Msg.L_tuple [ Msg.L_bool; Msg.L_tuple [ Msg.L_vertex { n = 9 }; Msg.L_nat ]; shared_vertices ]

let gen_memo_msg : Msg.t QCheck.Gen.t =
  let open QCheck.Gen in
  let vertex = int_bound 39 in
  let vertex_list = list_size (int_range 0 12) vertex in
  frequency
    [
      (3, map Msg.bool bool);
      (1, return Msg.empty);
      (2, map Msg.nat (int_range 0 100_000));
      ( 3,
        opt (int_bound 299) >|= fun vo ->
        Msg.of_layout shared_vertex_opt
          (match vo with Some v -> Msg.Vertex v | None -> Msg.No_vertex) );
      (2, opt (int_bound 299) >|= Msg.vertex_opt ~n:300);
      (2, vertex_list >|= fun vs -> Msg.of_layout shared_vertices (Msg.Vertices vs));
      (1, vertex_list >|= Msg.vertices ~n:40);
      ( 2,
        quad bool (int_bound 8) (int_range 0 5000) vertex_list >|= fun (b, v, k, vs) ->
        Msg.of_layout shared_tuple
          (Msg.Tuple [ Msg.Bool b; Msg.Tuple [ Msg.Vertex v; Msg.Int k ]; Msg.Vertices vs ]) );
      ( 1,
        pair bool vertex_list >|= fun (b, vs) ->
        Msg.tuple [ Msg.bool b; Msg.tuple [ Msg.vertices ~n:40 vs ] ] );
      (2, gen_msg);
    ]

let arb_memo_sequence =
  let open QCheck.Gen in
  let run = pair gen_memo_msg (int_range 1 4) >|= fun (m, reps) -> List.init reps (fun _ -> m) in
  QCheck.make
    ~print:(fun ms -> String.concat " | " (List.map Tfree_proptest.Msg_gen.print ms))
    (list_size (int_range 10 60) run >|= List.concat)

(* Every image one reused scratch builds is byte-for-byte the frame a fresh
   encoder builds, and crosses a pipe back to the message sent. *)
let prop_scratch_matches_fresh msgs =
  let s = Frame.scratch () and tr = Transport.pipe () in
  List.for_all
    (fun msg ->
      Frame.encode_into s msg;
      let fresh = Frame.encode msg in
      Bytes.equal (Bytes.sub (Frame.image s) 0 (Frame.frame_len s)) fresh
      &&
      let back = Frame.exchange s tr msg in
      Bytes.equal (Bytes.sub (Frame.image s) 0 (Frame.frame_len s)) fresh
      && Msg.value back = Msg.value msg
      && Msg.bits back = Msg.bits msg
      && Msg.layout back = Msg.layout msg)
    msgs

(* A frame of about 360 KB, larger than a socket buffer. *)
let big = Msg.edges ~n:4096 (List.init 120_000 (fun i -> (i mod 4096, (i * 7) mod 4096)))

let test_scratch_reuse_socketpair () =
  (* the same reuse through real kernel-crossing bytes, a frame larger than
     the socket buffer in the middle *)
  let s = Frame.scratch () and tr = Transport.socketpair () in
  List.iter
    (fun msg ->
      let back = Frame.exchange s tr msg in
      Alcotest.(check bool) "delivered = sent" true (Msg.value back = Msg.value msg);
      Alcotest.(check int) "frame size" (Bytes.length (Ref.frame msg)) (Frame.frame_len s))
    [ Msg.vertex_opt ~n:300 (Some 7); big; Msg.empty; Msg.nat 41; big; Msg.bool false ];
  Transport.close tr

(* A frame larger than the socket buffer with each fault kind scheduled on
   its exchange: the benign two deliver it, the other four fail typed, and
   none blocks.  An alarm fails the case instead of letting it hang. *)
let test_faults_past_socket_buffer () =
  let expect kind =
    match (kind : Fault.kind) with
    | Delay _ | Partial _ -> "delivered"
    | Corrupt _ -> "corrupt"
    | Drop | Truncate _ -> "truncated"
    | Close -> "peer_closed"
  in
  let watchdog = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> failwith "watchdog: hung")) in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm watchdog)
    (fun () ->
      List.iter
        (fun kind ->
          let s = Frame.scratch () and inner = Transport.socketpair () in
          let tr = Transport.faulty ~schedule:[ { Fault.op = 0; kind } ] inner in
          ignore (Unix.alarm 20);
          let got =
            match Frame.exchange s tr big with
            | back -> if Msg.equal back big then "delivered" else "another message"
            | exception Wire_error.Wire_error (Wire_error.Corrupt _) -> "corrupt"
            | exception Wire_error.Wire_error (Wire_error.Truncated _) -> "truncated"
            | exception Wire_error.Wire_error (Wire_error.Peer_closed _) -> "peer_closed"
          in
          ignore (Unix.alarm 0);
          Transport.close tr;
          Alcotest.(check bool) "frame past the socket buffer" true (Frame.frame_len s > 300_000);
          Alcotest.(check string) (Fault.kind_name kind) (expect kind) got)
        Fault.
          [
            Drop; Corrupt { bit = 8000 }; Truncate { keep = 100 }; Delay { amount = 1 };
            Partial { at = 1000 }; Close;
          ])

(* ---------------------------------------------------- constant frames *)

(* The shared constant messages: the smallest frames there are. *)
let constants = [ ("empty", Msg.empty); ("false", Msg.bool false); ("true", Msg.bool true) ]

(* A frame path built from the exported pieces: encode, cross, parse. *)
let parsed_exchange tr msg =
  let frame = Frame.encode msg in
  let len = Bytes.length frame in
  let back = Bytes.create len in
  Transport.exchange tr frame 0 len back;
  let pos = ref 0 in
  let delivered = Frame.decode back pos in
  if !pos <> len then
    Wire_error.errorf_corrupt "Frame.exchange: %d trailing bytes after the frame" (len - !pos);
  delivered

let outcome f = match f () with m -> Ok m | exception Wire_error.Wire_error e -> Error e

let test_constant_images () =
  (* the image a constant is sent as is the frame the encoder and the
     reference build, parses back to the constant, and sets [frame_len],
     also right after a larger frame went through the same scratch, whose
     longer bytes must not leak into it *)
  let s = Frame.scratch () and tr = Transport.pipe () in
  List.iter
    (fun (name, c) ->
      ignore (Frame.exchange s tr (Msg.vertices ~n:300 (List.init 40 Fun.id)));
      let back = Frame.exchange s tr c in
      let image = Bytes.sub (Frame.image s) 0 (Frame.frame_len s) in
      Alcotest.(check bool) (name ^ ": delivered") true (Msg.equal back c);
      Alcotest.(check bytes) (name ^ ": image = Frame.encode") (Frame.encode c) image;
      Alcotest.(check bytes) (name ^ ": image = reference") (Ref.frame c) image;
      Alcotest.(check int)
        (name ^ ": frame_len") (Bytes.length (Frame.encode c)) (Frame.frame_len s);
      let pos = ref 0 in
      Alcotest.(check bool) (name ^ ": decodes to it") true (Msg.equal (Frame.decode image pos) c);
      Alcotest.(check int) (name ^ ": whole frame read") (Bytes.length image) !pos)
    constants

let test_constant_faults () =
  (* every single-bit flip and every proper truncation of a constant frame,
     injected on its crossing, fails with exactly the error the parse of
     [parsed_exchange] raises; none comes back as a message *)
  let s = Frame.scratch () in
  List.iter
    (fun (name, c) ->
      let len = Bytes.length (Frame.encode c) in
      List.iter
        (fun kind ->
          let schedule = [ { Fault.op = 0; kind } ] in
          let faulty () = Transport.faulty ~schedule (Transport.pipe ()) in
          let what = Printf.sprintf "%s frame, %s" name (Fault.to_string schedule) in
          match
            ( outcome (fun () -> Frame.exchange s (faulty ()) c),
              outcome (fun () -> parsed_exchange (faulty ()) c) )
          with
          | Error got, Error want when got = want -> ()
          | Error got, Error want ->
              Alcotest.failf "%s: raised %s, the full parse %s" what (Wire_error.message got)
                (Wire_error.message want)
          | Ok _, _ -> Alcotest.failf "%s: delivered a message" what
          | Error _, Ok _ -> Alcotest.failf "%s: the full parse delivered a message" what)
        (List.init (8 * len) (fun bit -> Fault.Corrupt { bit })
        @ List.init len (fun keep -> Fault.Truncate { keep })))
    constants

let test_widest_fields () =
  (* a full 62-bit range code and the largest gamma value an int allows *)
  let w = Bitio.writer () in
  Bitio.put_bits w ~width:62 max_int;
  Bitio.put_gamma w (max_int - 1);
  Bitio.put_bits w ~width:3 5;
  let b = Bitio.to_bytes w in
  let r = Bitio.reader b ~off:0 ~len:(Bytes.length b) in
  Alcotest.(check int) "62-bit field" max_int (Bitio.get_bits r ~width:62);
  Alcotest.(check int) "largest gamma" (max_int - 1) (Bitio.get_gamma r);
  Alcotest.(check int) "trailing field" 5 (Bitio.get_bits r ~width:3);
  Alcotest.(check int) "range of 2^62 - 1 values costs 62 bits" 62
    (Bits.int_in_range ~lo:0 ~hi:(max_int - 1));
  Alcotest.(check int) "vertex of a huge graph costs 62 bits" 62 (Bits.vertex ~n:max_int);
  let msg = Msg.int_in ~lo:(-(1 lsl 60)) ~hi:((1 lsl 61) - 1) ((1 lsl 61) - 2) in
  Alcotest.(check int) "a 62-bit range" 62 (Msg.bits msg);
  Alcotest.(check bool) "62-bit message frames as the reference" true
    (prop_frame_matches_reference msg)

(* Range codes as wide as an int allows, the widths that packed words of
   bits travel in: each 61- and 62-bit message must come back equal from
   its payload alone, and from its frame, framed as the reference frames
   it; the descriptor's zigzag bounds reach [min_int] and [max_int]. *)
let test_wide_int_in () =
  List.iter
    (fun (lo, hi, v, width) ->
      let what = Printf.sprintf "int_in [%d,%d] carrying %d" lo hi v in
      let msg = Msg.int_in ~lo ~hi v in
      Alcotest.(check int) (what ^ ": bits") width (Msg.bits msg);
      let payload, bits = Codec.encode_payload msg in
      let back = Codec.decode_payload (Msg.layout msg) payload ~off:0 ~bits in
      Alcotest.(check bool) (what ^ ": payload round trip") true (Msg.equal back msg);
      Alcotest.(check bool) (what ^ ": frame round trip") true (prop_frame_matches_reference msg))
    [
      (0, (1 lsl 61) - 1, (1 lsl 61) - 1, 61);
      (0, (1 lsl 61) - 1, 0x0AAA_AAAA_AAAA_AAAA, 61);
      (-(1 lsl 61), (1 lsl 61) - 1, (1 lsl 61) - 1, 62);
      (-(1 lsl 61), (1 lsl 61) - 1, -(1 lsl 61), 62);
      (0, max_int, max_int, 62);
      (0, max_int, 0x1555_5555_5555_5555, 62);
      (min_int, -1, min_int, 62);
      (-1, max_int - 1, max_int - 1, 62);
    ]

let test_gamma_too_long () =
  (* 62 zeros then a 1: the value would be 2^62 - 1 + rest, past max_int *)
  let b = Bytes.of_string "\x00\x00\x00\x00\x00\x00\x00\x02\xff\xff\xff\xff\xff\xff\xff\xff" in
  let r = Bitio.reader b ~off:0 ~len:(Bytes.length b) in
  Alcotest.check_raises "gamma beyond an int"
    (Invalid_argument "Bitio.get_gamma: code longer than any int")
    (fun () -> ignore (Bitio.get_gamma r))

(* ------------------------------------------------------- varint overflow *)

let overflow_to_zero = "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"
let overflow_to_five = "\x85\x80\x80\x80\x80\x80\x80\x80\x80\x7e"

let corrupt name f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded instead of raising Corrupt" name
  | exception Wire_error.Wire_error (Wire_error.Corrupt _) -> ()
  | exception e -> Alcotest.failf "%s: raised %s instead of Corrupt" name (Printexc.to_string e)

let cursor_on b =
  let cur = Proto.cursor () in
  Proto.set_cursor cur b ~pos:0 ~limit:(Bytes.length b);
  cur

let test_varint_overflow () =
  List.iter
    (fun (name, s) ->
      let b = Bytes.of_string s in
      corrupt ("Proto.get_varint " ^ name) (fun () -> Proto.get_varint (cursor_on b));
      (* as a frame's length prefix, with enough bytes behind it to
         satisfy the bogus length: a player frame in a buffer, and a v2
         frame, where the zero bytes are a body whose checksum matches
         whatever length the prefix is read as *)
      let framed = Bytes.cat b (Bytes.make 16 '\x00') in
      corrupt ("Frame.decode " ^ name) (fun () -> Frame.decode framed (ref 0));
      corrupt ("Proto.try_frame " ^ name) (fun () ->
          Proto.try_frame framed ~pos:0 ~limit:(Bytes.length framed) (Proto.cursor ())))
    [ ("overflow to 0", overflow_to_zero); ("overflow to 5", overflow_to_five) ];
  (* the widest honest varints still decode: max_int in 9 bytes, and a
     zero tenth byte *)
  let w = Bitio.writer () in
  Codec.put_varint w max_int;
  let b = Bitio.to_bytes w in
  Alcotest.(check int) "max_int in 9 bytes" 9 (Bytes.length b);
  Alcotest.(check int) "max_int round-trips" max_int (Proto.get_varint (cursor_on b));
  let padded = Bytes.of_string "\x85\x80\x80\x80\x80\x80\x80\x80\x80\x00" in
  Alcotest.(check int) "zero tenth byte" 5 (Proto.get_varint (cursor_on padded));
  corrupt "eleven bytes" (fun () -> Proto.get_varint (cursor_on (Bytes.make 11 '\x80')));
  (* max_int as a v2 string length: the remainder cannot hold it, and the
     bounds check must not wrap round and let the copy raise a bare
     Invalid_argument *)
  match Proto.get_string (cursor_on (Bytes.cat b (Bytes.of_string "abc"))) with
  | _ -> Alcotest.fail "max_int-byte string: decoded"
  | exception Wire_error.Wire_error (Wire_error.Truncated _) -> ()
  | exception e ->
      Alcotest.failf "max_int-byte string: raised %s instead of Truncated" (Printexc.to_string e)

(* The zigzag varint is a bijection of the whole int range: the ends of
   the range and both sides of +-2^61, where the image first needs the
   sign bit, round-trip in at most 9 bytes, and every value the reference
   encodes, bounds of today's descriptors included, gets its bytes. *)
let test_zigzag_int_range () =
  let round_trip v =
    let b = Proto.create_buf () in
    Proto.begin_frame b;
    Proto.put_zigzag b v;
    Proto.end_frame b;
    let off = Proto.frame_off b and len = Proto.frame_len b and body = Proto.frame_body_len b in
    let cur = Proto.cursor () in
    ignore (Proto.try_frame (Proto.storage b) ~pos:off ~limit:(off + len) cur);
    let field = Bytes.sub (Proto.storage b) (off + len - 2 - body) body in
    let back = Proto.get_zigzag cur in
    Proto.expect_end cur;
    (back, field)
  in
  List.iter
    (fun v ->
      let back, field = round_trip v in
      let what = Printf.sprintf "zigzag %d" v in
      Alcotest.(check int) (what ^ ": round trip") v back;
      let want = Buffer.create 10 in
      Ref.put_varint want (Ref.zigzag v);
      Alcotest.(check string) (what ^ ": reference bytes") (Buffer.contents want)
        (Bytes.to_string field);
      Alcotest.(check int) (what ^ ": size") (Bytes.length field)
        (Proto.varint_size (Proto.zigzag v));
      Alcotest.(check bool) (what ^ ": at most 9 bytes") true (Bytes.length field <= 9))
    [
      min_int; min_int + 1; max_int; max_int - 1;
      1 lsl 61; (1 lsl 61) - 1; (1 lsl 61) + 1;
      -(1 lsl 61); -(1 lsl 61) - 1; -(1 lsl 61) + 1;
      0; -1; 1; 63; -64; 64; -65;
    ];
  Alcotest.(check int) "min_int's image" (-1) (Proto.zigzag min_int);
  Alcotest.(check int) "max_int's image" (-2) (Proto.zigzag max_int);
  (* a length varint still refuses 2^62, which a zigzag field reads *)
  let two_62 = Bytes.of_string "\x80\x80\x80\x80\x80\x80\x80\x80\x40" in
  corrupt "a 2^62 length" (fun () -> Proto.get_varint (cursor_on two_62));
  Alcotest.(check int) "2^62 as a zigzag field" (1 lsl 61) (Proto.get_zigzag (cursor_on two_62));
  Alcotest.check_raises "a negative length" (Invalid_argument "Codec.put_varint: negative")
    (fun () -> Codec.put_varint (Bitio.writer ()) (-1))

(* ----------------------------------------------------------- fail-closed *)

type mutation =
  | Splice of int * int  (** prefix of this frame, suffix of another from this offset *)
  | Truncate of int
  | Flip of int list
  | Overflow_varint of int  (** an overflowing varint spliced in at this offset *)
  | Overwrite of int * string

let print_mutation = function
  | Splice (i, j) -> Printf.sprintf "splice %d/%d" i j
  | Truncate i -> Printf.sprintf "truncate %d" i
  | Flip bits -> "flip " ^ String.concat "," (List.map string_of_int bits)
  | Overflow_varint i -> Printf.sprintf "overflow varint at %d" i
  | Overwrite (i, s) -> Printf.sprintf "overwrite %d %S" i s

let gen_mutation =
  let open QCheck.Gen in
  let pos = int_bound 4096 in
  frequency
    [
      (2, map2 (fun i j -> Splice (i, j)) pos pos);
      (2, map (fun i -> Truncate i) pos);
      (3, map (fun bits -> Flip bits) (list_size (int_range 1 3) (int_bound 32768)));
      (2, map (fun i -> Overflow_varint i) pos);
      (2, map2 (fun i s -> Overwrite (i, s)) pos (string_size ~gen:char (int_range 1 12)));
    ]

(* Positions are taken modulo the buffer, so every mutation applies. *)
let mutate data other m =
  let len = Bytes.length data in
  let at i = if len = 0 then 0 else i mod len in
  match m with
  | Splice (i, j) ->
      let olen = Bytes.length other in
      let j = if olen = 0 then 0 else j mod olen in
      Bytes.cat (Bytes.sub data 0 (at i)) (Bytes.sub other j (olen - j))
  | Truncate i -> Bytes.sub data 0 (at i)
  | Flip bits ->
      let c = Bytes.copy data in
      if len > 0 then
        List.iter
          (fun bit ->
            let bit = bit mod (8 * len) in
            let byte = Char.code (Bytes.get c (bit / 8)) in
            Bytes.set c (bit / 8) (Char.chr (byte lxor (1 lsl (bit mod 8)))))
          bits;
      c
  | Overflow_varint i ->
      let i = at i in
      Bytes.concat Bytes.empty
        [ Bytes.sub data 0 i; Bytes.of_string overflow_to_five; Bytes.sub data i (len - i) ]
  | Overwrite (i, s) ->
      let c = Bytes.copy data in
      let i = at i in
      Bytes.blit_string s 0 c i (Int.min (String.length s) (len - i));
      c

(* The body of a frame: everything between the length prefix and the
   checksum — what a re-sealed mutation rewrites. *)
let body_of frame =
  let body_len = Proto.get_varint (cursor_on frame) in
  Bytes.sub frame (Bytes.length frame - body_len) (body_len - 2)

let reseal body =
  let b = Buffer.create (Bytes.length body + 2) in
  Buffer.add_bytes b body;
  Ref.seal b

let only_wire_errors name f =
  match f () with
  | _ -> true
  | exception Wire_error.Wire_error _ -> true
  | exception e -> QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e)

let arb_frame_mutation =
  QCheck.make
    ~print:(fun (m1, m2, (mut, sealed)) ->
      Printf.sprintf "%s / %s / %s%s" (Tfree_proptest.Msg_gen.print m1)
        (Tfree_proptest.Msg_gen.print m2) (print_mutation mut)
        (if sealed then " (re-sealed)" else ""))
    QCheck.Gen.(triple gen_msg Tfree_proptest.Msg_gen.gen (pair gen_mutation bool))

let prop_frame_fails_closed (m1, m2, (mut, sealed)) =
  let f1 = Frame.encode m1 and f2 = Frame.encode m2 in
  let data =
    if sealed then reseal (mutate (body_of f1) (body_of f2) mut) else mutate f1 f2 mut
  in
  only_wire_errors "Frame.decode" (fun () -> Frame.decode data (ref 0))
  && only_wire_errors "Frame.decode of a read-back" (fun () ->
         (* the bytes an exchange of [m1] would read back with the mutated
            bytes ahead of its frame: as long as that frame *)
         let f1_len = Bytes.length f1 in
         Frame.decode (Bytes.sub (Bytes.cat data f1) 0 f1_len) (ref 0))

let prop_descriptor_fails_closed (m1, m2, (mut, _)) =
  let d1 = Codec.layout_to_bytes (Msg.layout m1) and d2 = Codec.layout_to_bytes (Msg.layout m2) in
  let data = mutate d1 d2 mut in
  only_wire_errors "Codec.get_layout" (fun () -> Codec.get_layout (cursor_on data))

let test_deep_descriptor_refused () =
  (* a tuple of a tuple of ... 10k deep, each level one [9, 1] pair *)
  let depth = 10_000 in
  let b = Bytes.create ((2 * depth) + 1) in
  for i = 0 to depth - 1 do
    Bytes.set b (2 * i) '\x09';
    Bytes.set b ((2 * i) + 1) '\x01'
  done;
  Bytes.set b (2 * depth) '\x00';
  corrupt "deep descriptor" (fun () -> Codec.get_layout (cursor_on b));
  (* an empty range is garbage, not an Invalid_argument later *)
  let w = Bitio.writer () in
  List.iter (Codec.put_varint w) [ 2; 10; 2 ];
  let d = Bitio.to_bytes w in
  corrupt "empty range" (fun () -> Codec.get_layout (cursor_on d))

let test_out_of_range_value_is_corrupt () =
  (* a range of 5 values coded in 3 bits, carrying 7: the checksum and the
     lengths are honest, the value is not *)
  let body = Buffer.create 8 in
  Ref.put_varint body 3;
  Ref.put_layout body (Msg.L_int_in { lo = 0; hi = 4 });
  Buffer.add_char body '\xe0';
  corrupt "value outside its range" (fun () -> Frame.decode (Ref.seal body) (ref 0))

(* ------------------------------------------------------ fault grammar *)

(* Valid specs of both forms, and edits that keep them close to the
   grammar: characters from its alphabet, deletions, and splices. *)
let fault_specs =
  [
    "";
    "2:drop,5:corrupt@13";
    " 0:truncate@3, 7:delay@2,9:partial@4 ,11:close";
    "4:corrupt,4:truncate,1:delay";
    "seed=42,rate=0.05,ops=200";
    "seed=7,rate=0.5,ops=40,kinds=drop+corrupt";
  ]

type spec_edit = Insert of int * string | Delete of int * int | Splice_spec of int * int * int

let print_spec_edit = function
  | Insert (i, t) -> Printf.sprintf "insert %d %S" i t
  | Delete (i, k) -> Printf.sprintf "delete %d+%d" i k
  | Splice_spec (i, j, k) -> Printf.sprintf "splice %d with spec %d from %d" i j k

let grammar_char =
  QCheck.Gen.(
    frequency
      [
        (4, oneofl (List.init 10 (fun d -> Char.chr (48 + d))));
        (4, oneofl [ ':'; ','; '@'; '='; '+'; '-'; '.'; ' '; 'e' ]);
        (2, char_range 'a' 'z');
        (1, char);
      ])

let gen_spec_edit =
  QCheck.Gen.(
    let pos = int_bound 64 in
    frequency
      [
        (3, map2 (fun i t -> Insert (i, t)) pos (string_size ~gen:grammar_char (int_range 1 6)));
        (2, map2 (fun i k -> Delete (i, k)) pos (int_range 1 6));
        (1, map3 (fun i j k -> Splice_spec (i, j, k)) pos (int_bound 5) pos);
      ])

let apply_spec_edit s e =
  let len = String.length s in
  let at i = if len = 0 then 0 else i mod (len + 1) in
  match e with
  | Insert (i, t) -> String.sub s 0 (at i) ^ t ^ String.sub s (at i) (len - at i)
  | Delete (i, k) ->
      let i = at i in
      let k = min k (len - i) in
      String.sub s 0 i ^ String.sub s (i + k) (len - i - k)
  | Splice_spec (i, j, k) ->
      let other = List.nth fault_specs (j mod List.length fault_specs) in
      let olen = String.length other in
      let k = if olen = 0 then 0 else k mod olen in
      String.sub s 0 (at i) ^ String.sub other k (olen - k)

let arb_fault_string =
  QCheck.make
    ~print:(fun (base, edits, raw) ->
      match raw with
      | Some r -> Printf.sprintf "raw %S" r
      | None ->
          Printf.sprintf "%S edited by [%s]" (List.nth fault_specs base)
            (String.concat "; " (List.map print_spec_edit edits)))
    QCheck.Gen.(
      triple
        (int_bound (List.length fault_specs - 1))
        (list_size (int_range 1 4) gen_spec_edit)
        (opt ~ratio:0.3 (string_size ~gen:grammar_char (int_range 0 40))))

(* Fails closed: an [Ok] schedule prints back to a spec that parses to
   itself, anything else is an [Error], and nothing raises. *)
let prop_fault_parse_fails_closed (base, edits, raw) =
  let spec =
    match raw with
    | Some r -> r
    | None -> List.fold_left apply_spec_edit (List.nth fault_specs base) edits
  in
  match Fault.parse spec with
  | Ok sched -> Fault.parse (Fault.to_string sched) = Ok sched
  | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "Fault.parse %S raised %s" spec (Printexc.to_string e)

let test_fault_parse_bounds_ops () =
  let is_error s = match Fault.parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "a million ops" false (is_error "seed=1,rate=0,ops=1000000");
  Alcotest.(check bool) "past a million ops" true (is_error "seed=1,rate=0,ops=1000001");
  Alcotest.(check bool) "ops past max_int" true (is_error "seed=1,rate=0,ops=99999999999999999999")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "tfree_wire_codec"
    [
      ( "codec-reference",
        [
          qc
            (QCheck.Test.make ~name:"bitio = bit-at-a-time reference" ~count:1000 arb_ops
               prop_bitio_matches_reference);
          qc
            (QCheck.Test.make ~name:"frame = reference frame, decodes back" ~count:400 arb_msg
               prop_frame_matches_reference);
          qc
            (QCheck.Test.make ~name:"payload and descriptor = reference" ~count:400 arb_msg
               prop_payload_and_descriptor);
          qc
            (QCheck.Test.make ~name:"one scratch, many frames = fresh frames" ~count:30
               arb_msg_sequence prop_scratch_reuse);
          qc
            (QCheck.Test.make ~name:"reused scratch image = fresh Frame.encode" ~count:300
               arb_memo_sequence prop_scratch_matches_fresh);
          Alcotest.test_case "scratch reuse over socketpair" `Quick test_scratch_reuse_socketpair;
          Alcotest.test_case "faults on a frame past the socket buffer" `Quick
            test_faults_past_socket_buffer;
          Alcotest.test_case "constant images" `Quick test_constant_images;
          Alcotest.test_case "constant frames under flips and truncations" `Quick
            test_constant_faults;
          Alcotest.test_case "62-bit fields" `Quick test_widest_fields;
          Alcotest.test_case "61- and 62-bit int_in round trips" `Quick test_wide_int_in;
          Alcotest.test_case "gamma code past an int" `Quick test_gamma_too_long;
        ] );
      ( "varint-overflow",
        [
          Alcotest.test_case "tenth byte payload is corrupt" `Quick test_varint_overflow;
          Alcotest.test_case "zigzag over the whole int range" `Quick test_zigzag_int_range;
        ] );
      ( "fail-closed",
        [
          qc
            (QCheck.Test.make ~name:"mutated frames raise only Wire_error" ~count:1500
               arb_frame_mutation prop_frame_fails_closed);
          qc
            (QCheck.Test.make ~name:"mutated descriptors raise only Wire_error" ~count:1500
               arb_frame_mutation prop_descriptor_fails_closed);
          Alcotest.test_case "deep or empty descriptors" `Quick test_deep_descriptor_refused;
          Alcotest.test_case "out-of-range value" `Quick test_out_of_range_value_is_corrupt;
          qc
            (QCheck.Test.make ~name:"fault specs parse or fail closed" ~count:3000
               arb_fault_string prop_fault_parse_fails_closed);
          Alcotest.test_case "fault spec ops are bounded" `Quick test_fault_parse_bounds_ops;
        ] );
    ]
