(* Differential tests for the simultaneous testers' player kernels: the
   per-edge originals of the five kernels (Algorithm 8's R/S selection,
   Algorithm 7's S selection, both branches of Algorithm 11's instances,
   the H-freeness sampler and the budgeted Algorithm 7) are kept below as a
   reference, each testing shared-sample membership once per incident edge.
   Every player message the library computes must be [Msg.equal] to the
   reference's: the same edges, in the same order, with the same
   truncation, over sparse samples (large n), samples that mark every
   vertex (small n, boosted constants, huge budgets) and empty inputs. *)

open Tfree_util
open Tfree_graph
open Tfree_comm
module Service = Tfree_wire.Service
module Params = Tfree.Params

(* ------------------------------------------------------------ reference *)

module Ref = struct
  let sim_low (p : Params.t) ~d ctx input =
    let n = ctx.Simultaneous.n in
    let rng_s = Simultaneous.shared_rng ctx ~key:21 in
    let rng_r = Simultaneous.shared_rng ctx ~key:22 in
    let in_s v = Rng.hash_float rng_s v < Tfree.Sim_low.p1 p ~d in
    let in_r v = Rng.hash_float rng_r v < Tfree.Sim_low.p2 p ~n in
    let wanted u v = (in_r u && (in_r v || in_s v)) || (in_r v && (in_r u || in_s u)) in
    let cap = Tfree.Sim_low.edge_cap p ~n ~d in
    let selected =
      Graph.fold_edges input ~init:[] ~f:(fun acc u v -> if wanted u v then (u, v) :: acc else acc)
    in
    Msg.edges ~n (List.filteri (fun idx _ -> idx < cap) selected)

  let sim_high (p : Params.t) ~d ctx input =
    let n = ctx.Simultaneous.n in
    let s = Tfree.Sim_high.sample_size p ~n ~d in
    let rng = Simultaneous.shared_rng ctx ~key:11 in
    let in_sample v = Rng.hash_float rng v < float_of_int s /. float_of_int n in
    let cap = Tfree.Sim_high.edge_cap p ~n ~d ~s in
    let selected =
      Graph.fold_edges input ~init:[] ~f:(fun acc u v ->
          if in_sample u && in_sample v then (u, v) :: acc else acc)
    in
    Msg.edges ~n (List.filteri (fun idx _ -> idx < cap) selected)

  let instance_edges (p : Params.t) ctx ~t ~d_bar input =
    let n = ctx.Simultaneous.n in
    let k = ctx.Simultaneous.k in
    let d_guess = Float.pow 2.0 (float_of_int t) in
    if d_guess >= sqrt (float_of_int n) then begin
      let s = Tfree.Sim_high.sample_size p ~n ~d:d_guess in
      let rng = Simultaneous.shared_rng ctx ~key:(1000 + t) in
      let in_s v = Rng.hash_float rng v < float_of_int s /. float_of_int n in
      let selected =
        Graph.fold_edges input ~init:[] ~f:(fun acc u v ->
            if in_s u && in_s v then (u, v) :: acc else acc)
      in
      List.filteri (fun idx _ -> idx < Tfree.Sim_oblivious.cap_high p ~k ~n d_bar) selected
    end
    else begin
      let rng_s = Simultaneous.shared_rng ctx ~key:(2000 + t) in
      let rng_r = Simultaneous.shared_rng ctx ~key:22 in
      let c = Tfree.Sim_low.c_const p in
      let ps = Float.min 1.0 (c /. Float.max 1.0 d_guess) in
      let pr = Float.min 1.0 (c /. sqrt (float_of_int n)) in
      let in_s v = Rng.hash_float rng_s v < ps in
      let in_r v = Rng.hash_float rng_r v < pr in
      let wanted u v = (in_r u && (in_r v || in_s v)) || (in_r v && (in_r u || in_s u)) in
      let selected =
        Graph.fold_edges input ~init:[] ~f:(fun acc u v -> if wanted u v then (u, v) :: acc else acc)
      in
      List.filteri (fun idx _ -> idx < Tfree.Sim_oblivious.cap_low p ~k ~n) selected
    end

  let oblivious (p : Params.t) ctx input =
    let n = ctx.Simultaneous.n in
    let k = ctx.Simultaneous.k in
    let d_bar = Tfree.Sim_oblivious.observed_avg_degree ~n input in
    let guesses = if Graph.m input = 0 then [] else Tfree.Sim_oblivious.guess_range p ~k ~n d_bar in
    Msg.tuple
      (List.concat_map
         (fun t -> [ Msg.nat t; Msg.edges ~n (instance_edges p ctx ~t ~d_bar input) ])
         guesses)

  let subgraph (prm : Params.t) ~d pattern ctx input =
    let n = ctx.Simultaneous.n in
    let s = Tfree.Sim_subgraph.sample_size prm ~n ~d pattern in
    let rng = Simultaneous.shared_rng ctx ~key:61 in
    let in_s v = Rng.hash_float rng v < float_of_int s /. float_of_int n in
    let cap = Tfree.Sim_subgraph.edge_cap prm ~n ~d ~s in
    let selected =
      Graph.fold_edges input ~init:[] ~f:(fun acc u v -> if in_s u && in_s v then (u, v) :: acc else acc)
    in
    Msg.edges ~n (List.filteri (fun idx _ -> idx < cap) selected)

  let budgeted ~budget_bits ~d ctx input =
    let n = ctx.Simultaneous.n in
    let eb = Bits.edge ~n in
    let cap_edges = max 1 (budget_bits / eb) in
    let s =
      let raw = sqrt (2.0 *. float_of_int n *. float_of_int cap_edges /. Float.max 1.0 d) in
      max 2 (min n (int_of_float raw))
    in
    let rng = Simultaneous.shared_rng ctx ~key:31 in
    let in_s v = Rng.hash_float rng v < float_of_int s /. float_of_int n in
    let selected =
      Graph.fold_edges input ~init:[] ~f:(fun acc u v -> if in_s u && in_s v then (u, v) :: acc else acc)
    in
    Msg.edges ~n (List.filteri (fun idx _ -> idx < cap_edges) selected)
end

(* ------------------------------------------------------------- instances *)

type case = {
  family : Service.family;
  partition : Service.partition_kind;
  n : int;
  d : float;  (** the degree the instance is built at *)
  d_kernel : float;  (** the degree the kernels are told *)
  k : int;
  eps : float;
  boost : float;
  budget : int;
  seed : int;
  empty : bool;  (** replace every player's input by the empty graph *)
}

let print_case (c : case) =
  Printf.sprintf "%s/%s n=%d d=%g d_kernel=%g k=%d eps=%g boost=%g budget=%d seed=%d empty=%b"
    (Service.family_to_string c.family)
    (Service.partition_to_string c.partition)
    c.n c.d c.d_kernel c.k c.eps c.boost c.budget c.seed c.empty

(* n from 4 (R and S mark everything) to 2500 (R marks ~5% of vertices). *)
let gen_case =
  QCheck.Gen.(
    let* family = oneofl (List.map snd Service.families) in
    let* partition = oneofl (List.map snd Service.partitions) in
    let* n = oneofl [ 4; 6; 12; 40; 150; 600; 2500 ] in
    let* d = oneofl [ 1.0; 3.0; 8.0; 24.0; 60.0 ] in
    let* d_kernel = oneofl [ 0.5; 2.0; 8.0; 30.0; 200.0 ] in
    let* k = int_range 2 5 in
    let* eps = oneofl [ 0.1; 0.3; 0.5; 1.0 ] in
    let* boost = oneofl [ 1.0; 1.0; 60.0 ] in
    let* budget = oneofl [ 16; 400; 5_000; 1_000_000 ] in
    let* seed = int_range 0 1_000_000 in
    let* empty = frequencyl [ (9, false); (1, true) ] in
    return { family; partition; n; d; d_kernel; k; eps; boost; budget; seed; empty })

let build (c : case) =
  let rng = Rng.create c.seed in
  let g =
    try Service.build_instance c.family (Rng.split rng 1) ~n:c.n ~d:c.d ~eps:c.eps
    with Invalid_argument _ -> Graph.empty ~n:c.n
  in
  let parts = Service.build_partition c.partition (Rng.split rng 2) ~k:c.k g in
  let n = Partition.n parts in
  let inputs =
    Array.init c.k (fun j -> if c.empty then Graph.empty ~n else Partition.player parts j)
  in
  let ctx = { Simultaneous.k = c.k; n; shared = Rng.split (Rng.create (c.seed + 7)) 0 } in
  (ctx, inputs)

(* Every kernel, as the library runs it and as the reference computes it. *)
let kernels (c : case) =
  let p = Params.(with_boost (with_eps practical c.eps) c.boost) in
  let d = c.d_kernel in
  let sub pattern =
    ( "sim_subgraph/" ^ pattern.Subgraph.name,
      (Tfree.Sim_subgraph.protocol p ~d pattern).Simultaneous.player,
      fun ctx _ input -> Ref.subgraph p ~d pattern ctx input )
  in
  [
    ( "sim_low",
      (Tfree.Sim_low.protocol p ~d).Simultaneous.player,
      fun ctx _ input -> Ref.sim_low p ~d ctx input );
    ( "sim_high",
      (Tfree.Sim_high.protocol p ~d).Simultaneous.player,
      fun ctx _ input -> Ref.sim_high p ~d ctx input );
    ( "sim_oblivious",
      (Tfree.Sim_oblivious.protocol p).Simultaneous.player,
      fun ctx _ input -> Ref.oblivious p ctx input );
    sub Subgraph.triangle;
    sub Subgraph.four_cycle;
    ( "budgeted",
      (Tfree_lowerbound.Budgeted.sim_high_budgeted ~budget_bits:c.budget ~d).Simultaneous.player,
      fun ctx _ input -> Ref.budgeted ~budget_bits:c.budget ~d ctx input );
  ]

let agree (c : case) =
  let ctx, inputs = build c in
  List.for_all
    (fun (name, player, reference) ->
      Array.for_all
        (fun j ->
          let got = player ctx j inputs.(j) and want = reference ctx j inputs.(j) in
          Msg.equal got want
          || QCheck.Test.fail_reportf "%s, player %d: %d bits against the reference's %d" name j
               (Msg.bits got) (Msg.bits want))
        (Array.init c.k Fun.id))
    (kernels c)

let prop_agree =
  QCheck.Test.make ~count:300 ~name:"every player kernel matches its per-edge reference"
    (QCheck.make ~print:print_case gen_case)
    agree

(* Fixed corners the generator reaches only by chance. *)
let corner name c = Alcotest.test_case name `Quick (fun () -> Alcotest.(check bool) name true (agree c))

let base =
  {
    family = Service.Far;
    partition = Service.Dup;
    n = 2000;
    d = 24.0;
    d_kernel = 24.0;
    k = 4;
    eps = 0.1;
    boost = 1.0;
    budget = 5_000;
    seed = 11;
    empty = false;
  }

let corners =
  [
    corner "cold-build shape" base;
    corner "d above sqrt n" { base with n = 300; d = 40.0; d_kernel = 40.0 };
    corner "every vertex marked" { base with n = 6; d = 3.0; d_kernel = 0.5; boost = 60.0; budget = 1_000_000 };
    corner "empty inputs" { base with empty = true };
    corner "one player holds everything" { base with n = 150; partition = Service.Replicate; k = 1 };
  ]

let () =
  Alcotest.run "tfree_player_kernels"
    [ ("corners", corners); ("reference", [ QCheck_alcotest.to_alcotest prop_agree ]) ]
