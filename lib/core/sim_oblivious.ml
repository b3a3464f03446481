(** Degree-oblivious simultaneous protocol — Algorithm 11 / Theorem 3.32.

    No player knows the global average degree d, and being simultaneous they
    cannot estimate it first.  Following §3.4.3: each player j computes its
    observed average degree d̄ⱼ = 2|Eⱼ|/n; if j is "relevant"
    (d̄ⱼ ≥ (ǫ/4k)·d) then the true d lies in [d̄ⱼ, (4k/ǫ)·d̄ⱼ].  The player
    participates in the O(log k) protocol instances whose degree guesses
    (powers of two, shared across players) fall in that window — AlgHigh
    (uncapped Sim_high sampling) for guesses ≥ √n, AlgLow below — with a
    per-instance edge budget tied to d̄ⱼ (Lemmas 3.30/3.31), which is what
    prevents the k-factor blow-up.  The referee unions the messages per
    guess and checks each union for a triangle; the instance at the correct
    guess receives every edge it needs from all relevant players. *)

open Tfree_util
open Tfree_graph
open Tfree_comm

let observed_avg_degree ~n input = 2.0 *. float_of_int (Graph.m input) /. float_of_int (max 1 n)

(* Shared guess grid: exponent t encodes the degree guess 2^t.  A window
   whose top falls below its bottom (an eps past 1 with a small k) is
   empty, not an error. *)
let guess_range (p : Params.t) ~k ~n d_bar =
  let lo = Float.max 1.0 d_bar in
  let hi = Float.min (float_of_int n) (4.0 *. float_of_int k /. p.eps *. Float.max 1.0 d_bar) in
  let t_lo = int_of_float (Float.floor (Bits.log2 lo)) in
  let t_hi = int_of_float (Float.ceil (Bits.log2 (Float.max 2.0 hi))) in
  List.init (max 0 (t_hi - t_lo + 1)) (fun i -> t_lo + i)

(* Per-instance caps of Lemmas 3.30 and 3.31, scaled by boost. *)
let cap_high (p : Params.t) ~k ~n d_bar =
  let logn = Params.log_n ~n in
  let logk = Float.max 1.0 (Bits.log2 (float_of_int (max 2 k))) in
  let base = Float.pow (float_of_int n *. Float.max 1.0 d_bar) (1.0 /. 3.0) in
  max 8 (int_of_float (Float.ceil (4.0 *. p.boost /. p.delta *. base *. logn *. (1.0 +. logk))))

let cap_low (p : Params.t) ~k ~n =
  let logn = Params.log_n ~n in
  let logk = Float.max 1.0 (Bits.log2 (float_of_int (max 2 k))) in
  max 8
    (int_of_float
       (Float.ceil (4.0 *. p.boost /. p.delta *. sqrt (float_of_int n) *. logn *. (1.0 +. logk))))

(* Edges this player contributes to the instance with guess 2^t: the
   Sim_high or Sim_low selection, under the guess's own keys.  [r] is the
   player's R table, built at most once per message. *)
let instance_edges (p : Params.t) ctx ~t ~d_bar ~r input =
  let n = ctx.Simultaneous.n in
  let k = ctx.Simultaneous.k in
  let d_guess = Float.pow 2.0 (float_of_int t) in
  if d_guess >= sqrt (float_of_int n) then
    (* AlgHigh sampling at guessed density, shared stream keyed by t. *)
    let s = Sim_high.sample_size p ~n ~d:d_guess in
    Sim_high.select
      (Simultaneous.shared_rng ctx ~key:(1000 + t))
      ~p:(float_of_int s /. float_of_int n) ~cap:(cap_high p ~k ~n d_bar) input
  else
    (* AlgLow sampling: S keyed by the guess, R shared across instances (the
       paper notes players can reuse the same R). *)
    Sim_low.select (Marks.copy (Lazy.force r))
      ~s:(Simultaneous.shared_rng ctx ~key:(2000 + t), Sim_low.p1 p ~d:d_guess)
      ~cap:(cap_low p ~k ~n) input

let player_message (p : Params.t) ctx _j input =
  let n = ctx.Simultaneous.n in
  let k = ctx.Simultaneous.k in
  let d_bar = observed_avg_degree ~n input in
  let guesses = if Graph.m input = 0 then [] else guess_range p ~k ~n d_bar in
  let r =
    lazy (Sim_low.r_table ~n:(Graph.n input) (Simultaneous.shared_rng ctx ~key:22, Sim_low.p2 p ~n))
  in
  let parts =
    List.concat_map
      (fun t -> [ Msg.nat t; Msg.edges ~n (instance_edges p ctx ~t ~d_bar ~r input) ])
      guesses
  in
  Msg.tuple parts

let referee ctx messages =
  let n = ctx.Simultaneous.n in
  (* Group the received edge lists by guess exponent and test each union. *)
  let by_guess : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun msg ->
      let rec pairs = function
        | [] -> ()
        | tag :: payload :: rest ->
            let t = Msg.get_int tag in
            let es = Msg.get_edges payload in
            (match Hashtbl.find_opt by_guess t with
            | Some r -> r := es @ !r
            | None -> Hashtbl.add by_guess t (ref es));
            pairs rest
        | [ _ ] -> invalid_arg "Sim_oblivious.referee: odd tuple"
      in
      pairs (Msg.get_tuple msg))
    messages;
  let guesses = Hashtbl.fold (fun t _ acc -> t :: acc) by_guess [] in
  List.fold_left
    (fun acc t ->
      match acc with
      | Some _ -> acc
      | None ->
          let es = !(Hashtbl.find by_guess t) in
          Triangle.find (Graph.of_edges ~n es))
    None
    (List.sort compare guesses)

let protocol (p : Params.t) = { Simultaneous.player = player_message p; referee }

(* One simultaneous round: a single "upload" phase covers every charged bit. *)
let run ?tap ~seed (p : Params.t) inputs =
  Tfree_trace.Trace.span "upload" (fun () -> Simultaneous.run ?tap ~seed (protocol p) inputs)
