(** Simultaneous protocol for high degrees d = Ω(√n) — Algorithm 7
    (Theorem 3.24).  Algorithm 9, its uncapped variant, is not a protocol
    of its own here: {!Sim_oblivious} runs it as Algorithm 11's AlgHigh
    instances through {!select}, under their own keys and per-instance
    caps.

    A shared random vertex set S of ~c·(n²/(ǫd))^{1/3} vertices is sampled;
    every player sends its edges inside S (paying only for edges that exist,
    unlike the query model); the referee looks for a triangle in the union.
    If the graph is ǫ-far, the induced subgraph contains a triangle with
    constant probability ([3]'s dense tester, Theorem 3.24). *)

open Tfree_graph
open Tfree_comm

(** Sample-set size |S| = c·(n²/(ǫ·d))^{1/3}; [c] grows with 1/δ. *)
let sample_size (p : Params.t) ~n ~d =
  let c = Params.sim_c p in
  let raw = c *. Float.pow (float_of_int n *. float_of_int n /. (p.eps *. Float.max 1.0 d)) (1.0 /. 3.0) in
  max 3 (min n (int_of_float (Float.ceil raw)))

(** Per-player edge cap l = 4·|S|²·d/(δ·n) (Algorithm 7 step 2). *)
let edge_cap (p : Params.t) ~n ~d ~s =
  let l = 4.0 *. float_of_int (s * s) *. Float.max 1.0 d /. (p.delta *. float_of_int n) in
  max 8 (int_of_float (Float.ceil l))

(* S is a keyed Bernoulli mark per vertex with probability s/n: it
   reproduces a uniform sample of expected size s while letting players
   test membership without materializing S.  [select] marks every vertex
   once (Marks), walks only the rows of marked vertices, and keeps the
   first [cap] edges of the newest-first list. *)
let select rng ~p ~cap input =
  let marks = Marks.sample rng ~n:(Graph.n input) ~p in
  let selected = Marks.fold_edges marks input ~init:[] ~f:(fun acc u v -> (u, v) :: acc) in
  List.filteri (fun idx _ -> idx < cap) selected

let player_message (p : Params.t) ~d ctx _j input =
  let n = ctx.Simultaneous.n in
  let s = sample_size p ~n ~d in
  let rng = Simultaneous.shared_rng ctx ~key:11 in
  Msg.edges ~n (select rng ~p:(float_of_int s /. float_of_int n) ~cap:(edge_cap p ~n ~d ~s) input)

let referee ctx messages = Triangle.find (Graph.of_edges ~n:ctx.Simultaneous.n (Msg.all_edges messages))

(** The protocol, for average degree [d] known to the players. *)
let protocol (p : Params.t) ~d = { Simultaneous.player = player_message p ~d; referee }

(* One simultaneous round: a single "upload" phase covers every charged bit. *)
let run ?tap ~seed (p : Params.t) ~d inputs =
  Tfree_trace.Trace.span "upload" (fun () -> Simultaneous.run ?tap ~seed (protocol p ~d) inputs)
