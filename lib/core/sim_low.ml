(** Simultaneous protocol for low degrees d = O(√n) — Algorithm 8
    (Theorem 3.26).  Algorithm 10, its uncapped variant, is not a protocol
    of its own here: {!Sim_oblivious} runs it as Algorithm 11's AlgLow
    instances through {!r_table} and {!select}, under their own keys and
    per-instance caps.

    Two shared random vertex sets: S (each vertex with probability min(c/d,1))
    targets the few possibly-high-degree triangle sources, and R (probability
    c/√n) catches the two low-degree corners of each triangle by the birthday
    paradox.  Players send their edges with one endpoint in R and the other
    in R ∪ S; the referee looks for a triangle in the union.  Cost
    O(k·√n·log n) with constant error (Theorem 3.26). *)

open Tfree_graph
open Tfree_comm

let c_const (p : Params.t) = Params.sim_c p

let p1 (p : Params.t) ~d = Float.min 1.0 (c_const p /. Float.max 1.0 d)

let p2 (p : Params.t) ~n = Float.min 1.0 (c_const p /. sqrt (float_of_int n))

(** Per-player cap q = 2c²(√n + d)·(2/δ) (Algorithm 8 step 3). *)
let edge_cap (p : Params.t) ~n ~d =
  let c = c_const p in
  let q = 2.0 *. c *. c *. (sqrt (float_of_int n) +. Float.max 1.0 d) *. 2.0 /. p.delta in
  max 8 (int_of_float (Float.ceil q))

(* Mark bits of the shared R/S table. *)
let s_bit = 1

let r_bit = 2

(* The R half of the R/S table: one hash per vertex. *)
let r_table ~n (rng_r, p_r) =
  let marks = Marks.create ~n in
  Marks.mark marks rng_r ~p:p_r ~bit:r_bit;
  marks

(* An edge is wanted when both endpoints are in R ∪ S and one is in R.
   Each vertex is hashed once per sample (Marks); only rows of vertices in
   R ∪ S are walked. *)
let select marks ~s:(rng_s, p_s) ~cap input =
  Marks.mark marks rng_s ~p:p_s ~bit:s_bit;
  let selected =
    Marks.fold_edges marks input ~init:[] ~f:(fun acc u v ->
        if (Marks.get marks u lor Marks.get marks v) land r_bit <> 0 then (u, v) :: acc else acc)
  in
  List.filteri (fun idx _ -> idx < cap) selected

let player_message (p : Params.t) ~d ctx _j input =
  let n = ctx.Simultaneous.n in
  let s = (Simultaneous.shared_rng ctx ~key:21, p1 p ~d) in
  let r = r_table ~n:(Graph.n input) (Simultaneous.shared_rng ctx ~key:22, p2 p ~n) in
  Msg.edges ~n (select r ~s ~cap:(edge_cap p ~n ~d) input)

let referee ctx messages = Triangle.find (Graph.of_edges ~n:ctx.Simultaneous.n (Msg.all_edges messages))

let protocol (p : Params.t) ~d = { Simultaneous.player = player_message p ~d; referee }

(* The whole protocol is one simultaneous round, so a single "upload" phase
   covers every charged bit (per-player structure lives in the trace's
   player rows). *)
let run ?tap ~seed (p : Params.t) ~d inputs =
  Tfree_trace.Trace.span "upload" (fun () -> Simultaneous.run ?tap ~seed (protocol p ~d) inputs)
