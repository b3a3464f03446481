(** Messages with exact bit accounting.

    Every value crossing a channel in any of the models is a [Msg.t]: a typed
    payload plus the number of bits it costs under the schema of
    {!Tfree_util.Bits} (a vertex costs ceil(log2 n), an edge twice that, a
    list additionally carries a self-delimiting length).  Protocols construct
    messages only through the smart constructors here, so the cost model is
    centralized and auditable.

    Each message also records its {!layout}: the exact bit-level encoding its
    constructor committed to (field widths, length prefixes, flag bits).  The
    layout is what lets the wire subsystem ([Tfree_wire.Codec]) serialize the
    payload into exactly [bits] physical bits and decode it back — the cost
    model and the wire format are the same schema by construction, not two
    schemas kept in sync by hand. *)

open Tfree_util

type value =
  | Unit
  | Bool of bool
  | Int of int
  | Vertex of int
  | No_vertex
  | Edge of int * int
  | Vertices of int list
  | Edges of (int * int) list
  | Tuple of value list

type layout =
  | L_unit
  | L_bool
  | L_int_in of { lo : int; hi : int }
  | L_nat
  | L_vertex of { n : int }
  | L_vertex_opt of { n : int }
  | L_edge of { n : int }
  | L_vertices of { n : int }
  | L_edges of { n : int }
  | L_tuple of layout list

type t = { value : value; bits : int; layout : layout }

let bits t = t.bits
let value t = t.value
let layout t = t.layout

(* The single source of truth for cost: the bit-length of [value] encoded
   under [layout].  Every smart constructor goes through here, so [bits] can
   never drift from what the wire codec emits. *)
let rec measure layout value =
  match (layout, value) with
  | L_unit, Unit -> 0
  | L_bool, Bool _ -> 1
  | L_int_in { lo; hi }, Int v ->
      if v < lo || v > hi then invalid_arg "Msg.int_in: out of declared range";
      Bits.int_in_range ~lo ~hi
  | L_nat, Int v -> Bits.elias_gamma v
  | L_vertex { n }, Vertex _ -> Bits.vertex ~n
  | L_vertex_opt _, No_vertex -> 1
  | L_vertex_opt { n }, Vertex _ -> 1 + Bits.vertex ~n
  | L_edge { n }, Edge _ -> Bits.edge ~n
  | L_vertices { n }, Vertices vs ->
      Bits.elias_gamma (List.length vs) + (List.length vs * Bits.vertex ~n)
  | L_edges { n }, Edges es ->
      Bits.elias_gamma (List.length es) + (List.length es * Bits.edge ~n)
  | L_tuple ls, Tuple vs ->
      if List.length ls <> List.length vs then invalid_arg "Msg.measure: tuple arity mismatch";
      List.fold_left2 (fun acc l v -> acc + measure l v) 0 ls vs
  | _ -> invalid_arg "Msg.measure: value does not fit layout"

(* The constant messages, built once and shared: a message is immutable,
   so every empty message and every one-bit reply can be the same value. *)
let empty = { value = Unit; bits = 0; layout = L_unit }
let bool_true = { value = Bool true; bits = 1; layout = L_bool }
let bool_false = { value = Bool false; bits = 1; layout = L_bool }
let bool b = if b then bool_true else bool_false

(** Rebuild a message from its layout and payload — the decoder's
    constructor.  The bit count is recomputed from the layout, so a decoded
    message is indistinguishable from the original (same value, bits,
    layout); a value/layout mismatch is a codec bug and fails loudly. *)
let of_layout layout value =
  match (layout, value) with
  | L_unit, Unit -> empty
  | L_bool, Bool b -> bool b
  | _ -> { value; bits = measure layout value; layout }

(** Integer known by both sides to lie in [lo, hi]. *)
let int_in ~lo ~hi v = of_layout (L_int_in { lo; hi }) (Int v)

(** Nonnegative integer with a self-delimiting code. *)
let nat v = of_layout L_nat (Int v)

let vertex ~n v = of_layout (L_vertex { n }) (Vertex v)

(** Optional vertex: 1 flag bit plus the identifier when present. *)
let vertex_opt ~n vo =
  match vo with
  | None -> of_layout (L_vertex_opt { n }) No_vertex
  | Some v -> of_layout (L_vertex_opt { n }) (Vertex v)

let edge ~n (u, v) = of_layout (L_edge { n }) (Edge (u, v))

(** Length-prefixed vertex list. *)
let vertices ~n vs = of_layout (L_vertices { n }) (Vertices vs)

(** Length-prefixed edge list — the dominant message type in every protocol. *)
let edges ~n es = of_layout (L_edges { n }) (Edges es)

let tuple parts =
  { value = Tuple (List.map (fun p -> p.value) parts);
    bits = List.fold_left (fun acc p -> acc + p.bits) 0 parts;
    layout = L_tuple (List.map (fun p -> p.layout) parts) }

(* Equality without the polymorphic compare: each constructor compares
   its own fields at their own types. *)

let equal_edge (u, v) (u', v') = Int.equal u u' && Int.equal v v'

let rec equal_value a b =
  match (a, b) with
  | Unit, Unit | No_vertex, No_vertex -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y | Vertex x, Vertex y -> Int.equal x y
  | Edge (u, v), Edge (u', v') -> Int.equal u u' && Int.equal v v'
  | Vertices xs, Vertices ys -> List.equal Int.equal xs ys
  | Edges xs, Edges ys -> List.equal equal_edge xs ys
  | Tuple xs, Tuple ys -> List.equal equal_value xs ys
  | (Unit | Bool _ | Int _ | Vertex _ | No_vertex | Edge _ | Vertices _ | Edges _ | Tuple _), _ ->
      false

let rec equal_layout a b =
  match (a, b) with
  | L_unit, L_unit | L_bool, L_bool | L_nat, L_nat -> true
  | L_int_in { lo; hi }, L_int_in { lo = lo'; hi = hi' } -> Int.equal lo lo' && Int.equal hi hi'
  | L_vertex { n }, L_vertex { n = n' }
  | L_vertex_opt { n }, L_vertex_opt { n = n' }
  | L_edge { n }, L_edge { n = n' }
  | L_vertices { n }, L_vertices { n = n' }
  | L_edges { n }, L_edges { n = n' } ->
      Int.equal n n'
  | L_tuple xs, L_tuple ys -> List.equal equal_layout xs ys
  | ( ( L_unit | L_bool | L_int_in _ | L_nat | L_vertex _ | L_vertex_opt _ | L_edge _
      | L_vertices _ | L_edges _ | L_tuple _ ),
      _ ) ->
      false

let equal a b =
  a == b
  || (Int.equal a.bits b.bits && equal_layout a.layout b.layout && equal_value a.value b.value)

(* Extraction: a mismatch is a protocol bug, so we fail loudly. *)

let get_bool t = match t.value with Bool b -> b | _ -> invalid_arg "Msg.get_bool"

let get_int t = match t.value with Int v -> v | _ -> invalid_arg "Msg.get_int"

let get_vertex_opt t =
  match t.value with
  | Vertex v -> Some v
  | No_vertex -> None
  | _ -> invalid_arg "Msg.get_vertex_opt"

let get_edge t = match t.value with Edge (u, v) -> (u, v) | _ -> invalid_arg "Msg.get_edge"

let get_vertices t = match t.value with Vertices vs -> vs | _ -> invalid_arg "Msg.get_vertices"

let get_edges t = match t.value with Edges es -> es | _ -> invalid_arg "Msg.get_edges"
let all_edges ms = List.concat_map get_edges (Array.to_list ms)

let get_tuple t =
  match (t.value, t.layout) with
  | Tuple vs, L_tuple ls when List.length vs = List.length ls ->
      List.map2 (fun l v -> of_layout l v) ls vs
  | _ -> invalid_arg "Msg.get_tuple"
