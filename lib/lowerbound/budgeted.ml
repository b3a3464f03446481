(** Budget-capped protocol variants for the threshold experiments (E6).

    The lower bounds of §4.2 cannot be "run", but their *shape* can be
    exhibited: cap the per-player communication budget of the matching upper
    bound and locate the budget at which the success probability collapses.
    Theorem 3.24 is tight at d = Θ(√n) against the Ω((nd)^{1/3}) simultaneous
    bound (Theorem 4.1(2)), so the measured threshold should scale as
    (nd)^{1/3} = n^{1/2}: the experiment fits that exponent. *)

open Tfree_graph
open Tfree_comm
open Tfree_util

(** Sim_high-style protocol whose sample size is derived from a per-player
    bit budget: |S| chosen so the expected per-player message just fits, and
    messages are hard-truncated at the budget. *)
let sim_high_budgeted ~budget_bits ~d : Triangle.triangle option Simultaneous.protocol =
  {
    Simultaneous.player =
      (fun ctx _j input ->
        let n = ctx.Simultaneous.n in
        let eb = Bits.edge ~n in
        let cap_edges = max 1 (budget_bits / eb) in
        (* Expected edges in S² is d·s²/(2n); pick s to fill the budget. *)
        let s =
          let raw = sqrt (2.0 *. float_of_int n *. float_of_int cap_edges /. Float.max 1.0 d) in
          max 2 (min n (int_of_float raw))
        in
        let rng = Simultaneous.shared_rng ctx ~key:31 in
        Msg.edges ~n
          (Tfree.Sim_high.select rng ~p:(float_of_int s /. float_of_int n) ~cap:cap_edges input));
    referee =
      (fun ctx messages -> Triangle.find (Graph.of_edges ~n:ctx.Simultaneous.n (Msg.all_edges messages)));
  }

(** One-way chain variant for the Ω((nd)^{1/6}) one-way bound (E7): Alice
    forwards a budget-capped sample of her edges, Bob adds his own capped
    sample plus anything that closes a vee, Charlie answers. *)
let oneway_budgeted ~budget_bits : Triangle.triangle option Oneway.chain =
  let sample_msg ctx input key =
    let n = Graph.n input in
    let eb = Bits.edge ~n in
    let cap_edges = max 1 (budget_bits / eb) in
    let rng = Oneway.shared_rng ctx ~key in
    let m = max 1 (Graph.m input) in
    let p = Float.min 1.0 (float_of_int cap_edges /. float_of_int m) in
    let selected =
      Graph.fold_edges input ~init:[] ~f:(fun acc u v ->
          if Rng.hash_float2 rng u v < p then (u, v) :: acc else acc)
    in
    Msg.edges ~n (List.filteri (fun idx _ -> idx < cap_edges) selected)
  in
  {
    Oneway.alice = (fun ctx input -> sample_msg ctx input 41);
    bob =
      (fun ctx input m1 ->
        let n = Graph.n input in
        let own = sample_msg ctx input 42 in
        (* Forward Alice's sample along with Bob's, both within budget. *)
        let merged = Msg.get_edges m1 @ Msg.get_edges own in
        let eb = Bits.edge ~n in
        let cap_edges = max 1 (2 * budget_bits / eb) in
        Msg.edges ~n (List.filteri (fun idx _ -> idx < cap_edges) merged));
    charlie =
      (fun _ctx input _m1 m2 ->
        let n = Graph.n input in
        let received = Graph.of_edges ~n (Msg.get_edges m2) in
        let union = Graph.union received input in
        (* Charlie may use his own input for free; he must still output a
           real triangle, so search the union but verify each candidate. *)
        Triangle.find union);
  }

(** Success rate of a budgeted simultaneous protocol over [trials] fresh far
    inputs produced by [gen : seed -> Partition.t * Graph.t]. *)
let success_rate ~trials ~gen ~protocol =
  let ok = ref 0 in
  for t = 1 to trials do
    let inputs, g = gen t in
    let outcome = Simultaneous.run ~seed:(7919 * t) protocol inputs in
    match outcome.Simultaneous.result with
    | Some tri -> if Triangle.is_triangle g tri then incr ok
    | None -> ()
  done;
  float_of_int !ok /. float_of_int trials

(** Smallest power-of-two-stepped budget whose success rate reaches [target];
    scans geometrically from [lo] up to [hi]. *)
let threshold_budget ~trials ~gen ~protocol_of_budget ~target ~lo ~hi =
  let rec scan b =
    if b > hi then None
    else begin
      let rate = success_rate ~trials ~gen ~protocol:(protocol_of_budget b) in
      if rate >= target then Some (b, rate) else scan (b * 2)
    end
  in
  scan lo
