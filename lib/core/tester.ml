(** Top-level API: test triangle-freeness of a distributed graph.

    Each protocol is a one-sided tester (§3): a triangle is output only when
    one is actually found, so on a triangle-free input the verdict is always
    [Triangle_free]; on an ǫ-far input a triangle is found with probability
    at least 1-δ.  [Verdict] reports the triangle as the witness. *)

open Tfree_graph
open Tfree_comm

type verdict =
  | Triangle of Triangle.triangle  (** witness found: the graph has a triangle *)
  | Triangle_free  (** no triangle found: triangle-free, or the δ-failure on a far input *)

let of_option = function Some t -> Triangle t | None -> Triangle_free

type report = {
  verdict : verdict;
  bits : int;  (** total communication in bits *)
  rounds : int;  (** communication rounds (1 for simultaneous) *)
  max_message : int;  (** max player upload: the most bits one player sent over the run *)
}

(** Unrestricted-communication tester (§3.3), degree-oblivious.  O~(k·(nd)^¼
    + k²) bits. *)
let unrestricted ?(mode = Runtime.Coordinator) ?tap ~seed (p : Params.t) inputs =
  let rt = Runtime.make ~mode ?tap ~seed inputs in
  let result, _stats = Unrestricted.find_triangle rt p in
  let cost = Runtime.cost rt in
  {
    verdict = of_option result;
    bits = Cost.total cost;
    rounds = cost.Cost.rounds;
    max_message = Cost.max_player_upload cost;
  }

let of_sim_outcome (o : Triangle.triangle option Simultaneous.outcome) =
  {
    verdict = of_option o.Simultaneous.result;
    bits = o.Simultaneous.total_bits;
    rounds = 1;
    max_message = o.Simultaneous.max_message_bits;
  }

(** Simultaneous tester for known average degree [d]: Algorithm 8 when
    d = O(√n), Algorithm 7 otherwise (they coincide at d = Θ(√n), §3.4.2). *)
let simultaneous ?tap ~seed (p : Params.t) ~d inputs =
  let n = Partition.n inputs in
  let outcome =
    if d <= sqrt (float_of_int n) then Sim_low.run ?tap ~seed p ~d inputs
    else Sim_high.run ?tap ~seed p ~d inputs
  in
  of_sim_outcome outcome

(** Degree-oblivious simultaneous tester (Algorithm 11). *)
let simultaneous_oblivious ?tap ~seed (p : Params.t) inputs =
  of_sim_outcome (Sim_oblivious.run ?tap ~seed p inputs)

(** Exact baseline [38]: always correct, Θ(k·n·d) bits. *)
let exact ?tap ~seed inputs = of_sim_outcome (Exact_baseline.run ?tap ~seed inputs)

(** The four testers of Table 1, in their v2 wire-code order: a protocol's
    position in {!protocols} is its code, so the order never changes. *)
type protocol = Unrestricted | Sim | Oblivious | Exact

let protocols =
  [ ("unrestricted", Unrestricted); ("sim", Sim); ("oblivious", Oblivious); ("exact", Exact) ]

let protocol_to_string p = fst (List.find (fun (_, q) -> q = p) protocols)
let protocol_of_string s = List.assoc_opt s protocols

let run ?mode ?tap ~seed p ~d protocol inputs =
  match protocol with
  | Unrestricted -> unrestricted ?mode ?tap ~seed p inputs
  | Sim -> simultaneous ?tap ~seed p ~d inputs
  | Oblivious -> simultaneous_oblivious ?tap ~seed p inputs
  | Exact -> exact ?tap ~seed inputs

(** Error amplification: repeat a randomized tester [reps] times with
    independent seeds; any found triangle wins (one-sidedness makes this
    sound).  Returns the combined verdict and the summed bits. *)
let amplify ~reps ~seed run =
  let rec go i bits =
    if i >= reps then { verdict = Triangle_free; bits; rounds = 0; max_message = 0 }
    else begin
      let r = run ~seed:(seed + (1_000_003 * i)) in
      match r.verdict with
      | Triangle _ -> { r with bits = bits + r.bits }
      | Triangle_free -> go (i + 1) (bits + r.bits)
    end
  in
  go 0 0
