(** Graph generators: every input family used by the paper's analysis and by
    our experiments.

    Farness guarantees: [planted_far] and [hub_far] produce instances whose
    complete triangle set is the planted edge-disjoint family, so their
    distance to triangle-freeness is exactly the number of planted triangles
    (as a count of forced removals) and ǫ-farness is known by construction.
    Random families ([gnp], [tripartite_gnp]) are far with high probability
    (Lemma 4.5); tests certify them with {!Distance.certified_far}. *)

open Tfree_util

(* The generators once enumerated their vertex ranges with [List.init], so a
   negative range length failed with [Invalid_argument "List.init"].  Served
   replies report that text; the streamed generators keep it. *)
let check_length len = if len < 0 then invalid_arg "List.init"

(* A randomly relabelled family adds its edges to one builder, then draws
   a uniform relabelling of [0, n), its last draws, and renames the
   buffered edges through it before the build. *)
let permuted_graph rng b ~n =
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  Graph.Builder.relabel b perm;
  Graph.Builder.build b

(* [f u v] for the pair u < v of [0, n) at each row-major index that
   [indices] yields, in ascending order.  The row advances with the index,
   so one pass costs O(n + pairs). *)
let iter_pairs ~n indices f =
  let u = ref 0 and first = ref 0 (* the index of the pair (u, u + 1) *) in
  indices (fun idx ->
      while idx - !first >= n - 1 - !u do
        first := !first + (n - 1 - !u);
        incr u
      done;
      f !u (!u + 1 + (idx - !first)))

let gnp rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  if n < 0 then invalid_arg "Gen.gnp: negative n";
  let b = Graph.Builder.create ~n in
  iter_pairs ~n (Sampling.iter_bernoulli rng (n * (n - 1) / 2) ~p) (Graph.Builder.add b);
  Graph.Builder.build b

let gnm rng ~n ~m =
  if n < 0 then invalid_arg "Gen.gnm: negative n";
  let total = n * (n - 1) / 2 in
  if m > total then invalid_arg "Gen.gnm: too many edges";
  let chosen = Sampling.without_replacement rng total m in
  let b = Graph.Builder.create ~n in
  iter_pairs ~n (fun f -> List.iter f chosen) (Graph.Builder.add b);
  Graph.Builder.build b

(** Tripartite random graph on parts U, V1, V2 of [part] vertices each (3·part
    total), each cross-part pair an edge iid with probability [p] — the hard
    distribution µ of §4.2.1 when p = γ/√n. *)
let tripartite_gnp rng ~part ~p =
  if part < 0 then invalid_arg "Gen.tripartite_gnp: negative part";
  let b = Graph.Builder.create ~n:(3 * part) in
  let cross offset1 offset2 =
    Sampling.iter_bernoulli rng (part * part) ~p (fun idx ->
        Graph.Builder.add b (offset1 + (idx / part)) (offset2 + (idx mod part)))
  in
  cross 0 part;
  cross 0 (2 * part);
  cross part (2 * part);
  Graph.Builder.build b

(** Triangle-free bipartite noise on the vertex range [lo, lo + len): the
    range is split in halves, each cross pair an edge iid with probability
    [p]. *)
let bipartite_noise rng b ~lo ~len ~p =
  let half = len / 2 in
  let right = len - half in
  Sampling.iter_bernoulli rng (half * right) ~p (fun idx ->
      Graph.Builder.add b (lo + (idx / right)) (lo + half + (idx mod right)))

(* About [noise] bipartite edges on [lo, lo + len), as both far branches
   draw them: none without a target or without two vertices. *)
let add_noise rng b ~lo ~len ~noise =
  if noise > 0 && len >= 2 then begin
    let half = len / 2 in
    let total = max 1 (half * (len - half)) in
    bipartite_noise rng b ~lo ~len
      ~p:(Float.min 1.0 (float_of_int noise /. float_of_int total))
  end

(** [planted_far rng ~n ~triangles ~noise] plants [triangles] vertex-disjoint
    triangles on the first 3·triangles vertices and adds ~[noise] bipartite
    (hence triangle-free) edges among the remaining vertices.  The triangle
    set of the result is exactly the planted family, so the graph is
    ǫ-far with ǫ = triangles / m. *)
let planted_far rng ~n ~triangles ~noise =
  if 3 * triangles > n then invalid_arg "Gen.planted_far: too many triangles";
  check_length triangles;
  let b = Graph.Builder.create ~n in
  for t = 0 to triangles - 1 do
    Graph.Builder.add b (3 * t) ((3 * t) + 1);
    Graph.Builder.add b ((3 * t) + 1) ((3 * t) + 2);
    Graph.Builder.add b (3 * t) ((3 * t) + 2)
  done;
  add_noise rng b ~lo:(3 * triangles) ~len:(n - (3 * triangles)) ~noise;
  (* Shuffle labels so structure is not positional. *)
  permuted_graph rng b ~n

(** The adversarial low-degree instance of §3.4.2: [hubs] high-degree vertices
    are the sources of all triangle-vees.  Leaves are grouped in pairs; each
    pair (a, b) attaches to a round-robin hub u with edges {u,a}, {u,b},
    {a,b}, yielding [pairs] edge-disjoint triangles all incident to the small
    hub set.  Average degree is ~6·pairs/n while hub degree is ~2·pairs/hubs. *)
let hub_far rng ~n ~hubs ~pairs =
  if hubs + (2 * pairs) > n then invalid_arg "Gen.hub_far: n too small";
  let b = Graph.Builder.create ~n in
  for i = 0 to pairs - 1 do
    let x = hubs + (2 * i) and y = hubs + (2 * i) + 1 in
    let u = i mod hubs in
    Graph.Builder.add b u x;
    Graph.Builder.add b u y;
    Graph.Builder.add b x y
  done;
  permuted_graph rng b ~n

(** Lemma 4.17 embedding: pad a graph with isolated vertices up to [n] and
    shuffle labels; triangles and farness-in-edges are preserved while the
    average degree drops to 2m/n. *)
let embed rng g ~n =
  let n' = Graph.n g in
  if n < n' then invalid_arg "Gen.embed: target smaller than source";
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  Graph.embed g perm

let shuffle_labels rng g =
  let perm = Array.init (Graph.n g) (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  Graph.relabel g perm

(* Small deterministic graphs for tests. *)

let complete ~n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let cycle ~n =
  if n < 3 then invalid_arg "Gen.cycle: n < 3";
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let path ~n = Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let star ~n = Graph.of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let complete_bipartite ~left ~right =
  let n = left + right in
  let edges = ref [] in
  for u = 0 to left - 1 do
    for v = left to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

(** [tripartite_planted rng builder ~n_part ~rounds offset] plants [rounds]
    "triangle factors" on three parts A, B, C of [n_part] vertices each
    (vertex ids starting at [offset]): round r matches part A to parts B and
    C by random permutations, creating n_part vertex-disjoint triangles per
    round.  Rounds reuse vertices, so the number of planted triangles is not
    bounded by n/3 — this is how we reach high average degree while staying
    ǫ-far.  Adds each distinct edge to [builder] once and returns (distinct
    edge count, lower bound on the edge-disjoint triangle count); the bound
    discounts every cross-round edge collision conservatively.

    Every permutation is drawn first, in the order rounds always drew them;
    each part pair is then deduplicated vertex by vertex with one stamp per
    vertex, in time and space linear in the rounds' edge slots. *)
let tripartite_planted rng builder ~n_part ~rounds offset =
  let rounds = max 0 rounds in
  let identity () = Array.init n_part (fun i -> i) in
  let pis = Array.make rounds [||] and sigmas = Array.make rounds [||] in
  for r = 0 to rounds - 1 do
    let pi = identity () and sigma = identity () in
    Sampling.shuffle_in_place rng pi;
    Sampling.shuffle_in_place rng sigma;
    pis.(r) <- pi;
    sigmas.(r) <- sigma
  done;
  (* the B-C matching of round r, indexed by the B side *)
  let taus =
    Array.init rounds (fun r ->
        let tau = Array.make n_part 0 in
        Array.iteri (fun i b -> tau.(b) <- sigmas.(r).(i)) pis.(r);
        tau)
  in
  let stamp = Array.make (max 0 n_part) (-1) in
  let distinct = ref 0 in
  (* Rows [x] of [matchings] over all rounds: the edges (x, y) not yet seen
     at [x], as ids [base_x + x] and [base_y + y]. *)
  let part_pair matchings base_x base_y =
    Array.fill stamp 0 (Array.length stamp) (-1);
    for x = 0 to n_part - 1 do
      for r = 0 to rounds - 1 do
        let y = matchings.(r).(x) in
        if stamp.(y) <> x then begin
          stamp.(y) <- x;
          Graph.Builder.add builder (base_x + x) (base_y + y);
          incr distinct
        end
      done
    done
  in
  let a = offset and b = offset + n_part and c = offset + (2 * n_part) in
  part_pair pis a b;
  part_pair taus b c;
  part_pair sigmas a c;
  let collisions = (3 * rounds * n_part) - !distinct in
  (* A colliding edge invalidates at most the two triangles using it. *)
  (!distinct, max 0 ((rounds * n_part) - (2 * collisions)))

(** A graph that is ǫ-far by construction at target average degree [d]:
    an ǫ fraction of the m = nd/2 edges comes from planted edge-disjoint
    triangles (vertex-disjoint singles for small d, tripartite triangle
    factors for large d), the rest is bipartite (triangle-free) noise on
    separate vertices.  Triangle structure can only exceed the planted
    family, so the packing bound certifies at least the planted farness. *)
let far_with_degree rng ~n ~d ~eps =
  let m_target = max 3 (int_of_float (float_of_int n *. d /. 2.0)) in
  let triangles = max 1 (int_of_float (Float.ceil (eps *. float_of_int m_target))) in
  if (3 * triangles) + 2 <= n - (n / 4) then begin
    let noise = max 0 (m_target - (3 * triangles)) in
    planted_far rng ~n ~triangles ~noise
  end
  else begin
    (* Dense regime: triangle factors on half the vertices, noise on the rest. *)
    let n_part = max 1 (n / 6) in
    let rounds = max 1 (int_of_float (Float.ceil (float_of_int triangles /. float_of_int n_part))) in
    let len = n - (3 * n_part) in
    check_length len;
    let b = Graph.Builder.create ~n in
    let planted, _ = tripartite_planted rng b ~n_part ~rounds 0 in
    add_noise rng b ~lo:(3 * n_part) ~len ~noise:(max 0 (m_target - planted));
    permuted_graph rng b ~n
  end

(** [planted_pattern_far rng ~n ~pattern ~copies ~noise] plants [copies]
    vertex-disjoint copies of the pattern and up to [noise] matching edges on
    the remaining vertices.  A matching contains no copy of any connected
    pattern with ≥ 3 vertices, so the packing of pattern copies is exactly the
    planted family: the instance is copies/m-far from pattern-freeness.  Used
    by the H-freeness extension (§5 / [19]-style patterns). *)
let planted_pattern_far rng ~n ~(pattern : Subgraph.pattern) ~copies ~noise =
  let h = pattern.Subgraph.vertices in
  if copies * h > n then invalid_arg "Gen.planted_pattern_far: too many copies";
  check_length copies;
  let b = Graph.Builder.create ~n in
  for c = 0 to copies - 1 do
    List.iter
      (fun (x, y) -> Graph.Builder.add b ((c * h) + x) ((c * h) + y))
      pattern.Subgraph.edges
  done;
  let rest = Array.init (n - (copies * h)) (fun i -> (copies * h) + i) in
  Sampling.shuffle_in_place rng rest;
  let matched = min noise (Array.length rest / 2) in
  check_length matched;
  for i = 0 to matched - 1 do
    Graph.Builder.add b rest.(2 * i) rest.((2 * i) + 1)
  done;
  permuted_graph rng b ~n

(** [diluted_far rng ~triangles ~extra_degree] plants [triangles]
    vertex-disjoint triangles and attaches [extra_degree] fresh leaves to
    every corner, so a corner's random neighbour-pair probe hits its
    triangle-vee with probability only ~2/extra_degree² — the hard regime
    for probe-based testers (farness ≈ 1/(3·(extra_degree+1))).  Returns the
    graph on 3·triangles·(1 + extra_degree) vertices. *)
let diluted_far rng ~triangles ~extra_degree =
  if extra_degree < 0 then invalid_arg "Gen.diluted_far: negative extra_degree";
  let corners = 3 * triangles in
  let n = corners * (1 + extra_degree) in
  let b = Graph.Builder.create ~n in
  for t = 0 to triangles - 1 do
    Graph.Builder.add b (3 * t) ((3 * t) + 1);
    Graph.Builder.add b ((3 * t) + 1) ((3 * t) + 2);
    Graph.Builder.add b (3 * t) ((3 * t) + 2)
  done;
  let next_leaf = ref corners in
  for corner = 0 to corners - 1 do
    for _ = 1 to extra_degree do
      Graph.Builder.add b corner !next_leaf;
      incr next_leaf
    done
  done;
  permuted_graph rng b ~n

(** Triangle-free graph with average degree ≈ d (bipartite random). *)
let free_with_degree rng ~n ~d =
  let m_target = max 1 (int_of_float (float_of_int n *. d /. 2.0)) in
  let half = n / 2 in
  let total = half * (n - half) in
  let p = Float.min 1.0 (float_of_int m_target /. float_of_int total) in
  check_length n;
  let b = Graph.Builder.create ~n in
  bipartite_noise rng b ~lo:0 ~len:n ~p;
  Graph.Builder.build b
