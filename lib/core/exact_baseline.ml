(** Exact triangle detection baseline.

    Woodruff–Zhang [38] show that exact triangle detection in this model
    essentially requires every player to send its whole input — Ω(k·n·d)
    bits.  The trivial protocol below realizes that cost: each player sends
    all of its edges and the referee answers exactly.  Every experiment that
    quantifies how much the property-testing relaxation buys (§5, Table 1's
    headline gap) compares against this baseline. *)

open Tfree_graph
open Tfree_comm

let protocol =
  {
    Simultaneous.player = (fun ctx _j input -> Msg.edges ~n:ctx.Simultaneous.n (Graph.edges input));
    referee =
      (fun ctx messages -> Triangle.find (Graph.of_edges ~n:ctx.Simultaneous.n (Msg.all_edges messages)));
  }

(* One simultaneous round of full inputs: a single "full-upload" phase. *)
let run ?tap ~seed inputs =
  Tfree_trace.Trace.span "full-upload" (fun () -> Simultaneous.run ?tap ~seed protocol inputs)

(** Exact bit cost of the baseline on a given partition (no randomness). *)
let cost inputs =
  let n = Partition.n inputs in
  Array.fold_left
    (fun acc g -> acc + Msg.bits (Msg.edges ~n (Graph.edges g)))
    0
    (Array.init (Partition.k inputs) (Partition.player inputs))
