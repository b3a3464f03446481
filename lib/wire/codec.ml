(** Self-delimiting binary codec for {!Tfree_comm.Msg} values.

    The payload encoding is driven by the message's {!Msg.layout} — the same
    schema {!Tfree_util.Bits} charges — so an encoded payload occupies
    {e exactly} [Msg.bits] bits; {!encode_payload} asserts this on every
    message, making "wire bytes reconcile with the cost model" a checked
    invariant rather than a hope.

    The layout descriptor itself is serialized separately ({!layout_to_bytes},
    byte-aligned tag + varint form).  On the wire it travels in the frame
    header and is accounted as framing overhead: the model charges for the
    payload because both parties know the protocol structure; the descriptor
    is what a byte transport needs to be self-delimiting without that shared
    knowledge. *)

open Tfree_comm

(* ------------------------------------------------------------- payload *)

(* The list walks are top-level recursions rather than [List.iter]
   closures, so encoding a message allocates nothing. *)
let rec put_vertex_list w width = function
  | [] -> ()
  | v :: rest ->
      Bitio.put_bits w ~width v;
      put_vertex_list w width rest

let rec put_edge_list w width = function
  | [] -> ()
  | (u, v) :: rest ->
      Bitio.put_bits w ~width u;
      Bitio.put_bits w ~width v;
      put_edge_list w width rest

let rec encode_value w layout (value : Msg.value) =
  match (layout, value) with
  | Msg.L_unit, Msg.Unit -> ()
  | Msg.L_bool, Msg.Bool b -> Bitio.put_bit w b
  | Msg.L_int_in { lo; hi }, Msg.Int v ->
      Bitio.put_bits w ~width:(Tfree_util.Bits.int_in_range ~lo ~hi) (v - lo)
  | Msg.L_nat, Msg.Int v -> Bitio.put_gamma w v
  | Msg.L_vertex { n }, Msg.Vertex v -> Bitio.put_bits w ~width:(Tfree_util.Bits.vertex ~n) v
  | Msg.L_vertex_opt _, Msg.No_vertex -> Bitio.put_bit w false
  | Msg.L_vertex_opt { n }, Msg.Vertex v ->
      Bitio.put_bit w true;
      Bitio.put_bits w ~width:(Tfree_util.Bits.vertex ~n) v
  | Msg.L_edge { n }, Msg.Edge (u, v) ->
      let width = Tfree_util.Bits.vertex ~n in
      Bitio.put_bits w ~width u;
      Bitio.put_bits w ~width v
  | Msg.L_vertices { n }, Msg.Vertices vs ->
      Bitio.put_gamma w (List.length vs);
      put_vertex_list w (Tfree_util.Bits.vertex ~n) vs
  | Msg.L_edges { n }, Msg.Edges es ->
      Bitio.put_gamma w (List.length es);
      put_edge_list w (Tfree_util.Bits.vertex ~n) es
  | Msg.L_tuple ls, Msg.Tuple vs -> encode_tuple w ls vs
  | _ -> invalid_arg "Codec.encode_value: value does not fit layout"

and encode_tuple w ls vs =
  match (ls, vs) with
  | [], [] -> ()
  | l :: ls, v :: vs ->
      encode_value w l v;
      encode_tuple w ls vs
  | _ -> invalid_arg "Codec.encode_value: tuple arity"

(* A list of [len] elements of [width] bits each must fit in what is left
   of the payload; checked before anything is allocated for it. *)
let check_list_fits r ~len ~width =
  if len > Bitio.bits_left r / width then
    invalid_arg (Printf.sprintf "a %d-element list cannot fit in %d bits" len (Bitio.bits_left r))

let rec decode_value r layout : Msg.value =
  match layout with
  | Msg.L_unit -> Msg.Unit
  | Msg.L_bool -> if Bitio.get_bit r then Msg.Bool true else Msg.Bool false
  | Msg.L_int_in { lo; hi } ->
      Msg.Int (lo + Bitio.get_bits r ~width:(Tfree_util.Bits.int_in_range ~lo ~hi))
  | Msg.L_nat -> Msg.Int (Bitio.get_gamma r)
  | Msg.L_vertex { n } -> Msg.Vertex (Bitio.get_bits r ~width:(Tfree_util.Bits.vertex ~n))
  | Msg.L_vertex_opt { n } ->
      if Bitio.get_bit r then Msg.Vertex (Bitio.get_bits r ~width:(Tfree_util.Bits.vertex ~n))
      else Msg.No_vertex
  | Msg.L_edge { n } ->
      let width = Tfree_util.Bits.vertex ~n in
      let u = Bitio.get_bits r ~width in
      Msg.Edge (u, Bitio.get_bits r ~width)
  | Msg.L_vertices { n } ->
      let width = Tfree_util.Bits.vertex ~n in
      let len = Bitio.get_gamma r in
      check_list_fits r ~len ~width;
      Msg.Vertices (List.init len (fun _ -> Bitio.get_bits r ~width))
  | Msg.L_edges { n } ->
      let width = Tfree_util.Bits.vertex ~n in
      let len = Bitio.get_gamma r in
      check_list_fits r ~len ~width:(2 * width);
      Msg.Edges
        (List.init len (fun _ ->
             let u = Bitio.get_bits r ~width in
             (u, Bitio.get_bits r ~width)))
  | Msg.L_tuple ls -> Msg.Tuple (List.map (decode_value r) ls)

(** Append a message's payload to [w]: exactly [Msg.bits msg] bits, which
    is asserted — the codec's central contract. *)
let encode_into w msg =
  let before = Bitio.bits_written w in
  encode_value w (Msg.layout msg) (Msg.value msg);
  let emitted = Bitio.bits_written w - before in
  if emitted <> Msg.bits msg then
    invalid_arg
      (Printf.sprintf "Codec.encode_into: emitted %d bits but the cost model charges %d" emitted
         (Msg.bits msg))

(** The payload alone, in fresh bytes (right-padded), with its bit count. *)
let encode_payload msg =
  let w = Bitio.writer () in
  encode_into w msg;
  (Bitio.to_bytes w, Msg.bits msg)

(** Decode a payload of [bits] bits at byte [off] of [data] under [layout];
    the decoder must consume exactly [bits] and never reads past
    [ceil (bits / 8)] bytes.  All decode failures — a read past the end, a
    value that does not fit its layout, a bit-count mismatch — raise the
    typed {!Wire_error} ([Corrupt]): bytes that arrived but do not decode
    are a wire fault, never a crash. *)
let decode_payload layout data ~off ~bits =
  try
    let r = Bitio.reader data ~off ~len:((bits + 7) / 8) in
    let value = decode_value r layout in
    if Bitio.bits_read r <> bits then
      Wire_error.errorf_corrupt "Codec.decode_payload: consumed %d bits of a %d-bit payload"
        (Bitio.bits_read r) bits;
    Msg.of_layout layout value
  with
  | Invalid_argument msg -> Wire_error.errorf_corrupt "Codec.decode_payload: %s" msg
  | Failure msg -> Wire_error.errorf_corrupt "Codec.decode_payload: %s" msg

(* ---------------------------------------------------- layout descriptor *)

(* Unsigned LEB128, a byte per 7 bits, into a bit writer; {!Proto.get_varint}
   reads it back. *)
let put_varint w v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  let v = ref v in
  while !v >= 0x80 do
    Bitio.put_byte w (0x80 lor (!v land 0x7f));
    v := !v lsr 7
  done;
  Bitio.put_byte w !v

(* Every layout is a tag varint, then its parameters: [L_int_in] its two
   zigzagged bounds, the vertex layouts their [n], [L_tuple] its arity and
   parts.  [put_layout] and [layout_size] walk the same shape. *)
let tag : Msg.layout -> int = function
  | Msg.L_unit -> 0
  | Msg.L_bool -> 1
  | Msg.L_int_in _ -> 2
  | Msg.L_nat -> 3
  | Msg.L_vertex _ -> 4
  | Msg.L_vertex_opt _ -> 5
  | Msg.L_edge _ -> 6
  | Msg.L_vertices _ -> 7
  | Msg.L_edges _ -> 8
  | Msg.L_tuple _ -> 9

let rec put_layout w (l : Msg.layout) =
  put_varint w (tag l);
  match l with
  | Msg.L_unit | Msg.L_bool | Msg.L_nat -> ()
  | Msg.L_int_in { lo; hi } ->
      put_varint w (Proto.zigzag lo);
      put_varint w (Proto.zigzag hi)
  | Msg.L_vertex { n }
  | Msg.L_vertex_opt { n }
  | Msg.L_edge { n }
  | Msg.L_vertices { n }
  | Msg.L_edges { n } ->
      put_varint w n
  | Msg.L_tuple ls ->
      put_varint w (List.length ls);
      put_layouts w ls

and put_layouts w = function
  | [] -> ()
  | l :: ls ->
      put_layout w l;
      put_layouts w ls

let rec layout_size (l : Msg.layout) =
  1
  +
  match l with
  | Msg.L_unit | Msg.L_bool | Msg.L_nat -> 0
  | Msg.L_int_in { lo; hi } ->
      Proto.varint_size (Proto.zigzag lo) + Proto.varint_size (Proto.zigzag hi)
  | Msg.L_vertex { n }
  | Msg.L_vertex_opt { n }
  | Msg.L_edge { n }
  | Msg.L_vertices { n }
  | Msg.L_edges { n } ->
      Proto.varint_size n
  | Msg.L_tuple ls -> Proto.varint_size (List.length ls) + layouts_size ls

and layouts_size = function [] -> 0 | l :: ls -> layout_size l + layouts_size ls

(* Descriptors nest no deeper than this; a deeper one is garbage, and
   refusing it keeps a forged descriptor from exhausting the stack. *)
let max_layout_depth = 64

let rec get_layout_at cur depth : Msg.layout =
  if depth > max_layout_depth then
    Wire_error.errorf_corrupt "Codec.get_layout: layout nested deeper than %d" max_layout_depth;
  match Proto.get_varint cur with
  | 0 -> Msg.L_unit
  | 1 -> Msg.L_bool
  | 2 ->
      let lo = Proto.get_zigzag cur in
      let hi = Proto.get_zigzag cur in
      (* the range must be non-empty and its size hi - lo + 1 an int *)
      if hi < lo || hi - lo < 0 || hi - lo = max_int then
        Wire_error.errorf_corrupt "Codec.get_layout: empty or unrepresentable range [%d, %d]" lo hi;
      Msg.L_int_in { lo; hi }
  | 3 -> Msg.L_nat
  | 4 -> Msg.L_vertex { n = Proto.get_varint cur }
  | 5 -> Msg.L_vertex_opt { n = Proto.get_varint cur }
  | 6 -> Msg.L_edge { n = Proto.get_varint cur }
  | 7 -> Msg.L_vertices { n = Proto.get_varint cur }
  | 8 -> Msg.L_edges { n = Proto.get_varint cur }
  | 9 ->
      let len = Proto.get_varint cur in
      Msg.L_tuple (List.init len (fun _ -> get_layout_at cur (depth + 1)))
  | tag -> Wire_error.errorf_corrupt "Codec.get_layout: unknown tag %d" tag

let get_layout cur = get_layout_at cur 0

let layout_to_bytes l =
  let w = Bitio.writer () in
  put_layout w l;
  Bitio.to_bytes w
