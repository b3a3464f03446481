(** Graph generators: every input family used by the paper's analysis and by
    our experiments.

    Farness guarantees: [planted_far] and [hub_far] produce instances whose
    complete triangle set is the planted edge-disjoint family, so their
    distance to triangle-freeness is exactly the number of planted triangles
    (as a count of forced removals) and ǫ-farness is known by construction.
    Random families ([gnp], [tripartite_gnp]) are far with high probability
    (Lemma 4.5); tests certify them with {!Distance.certified_far}. *)

open Tfree_util

let gnp rng ~n ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  (* Iterate over the n(n-1)/2 pairs with geometric skips. *)
  let total = n * (n - 1) / 2 in
  let pair_of_index idx =
    (* Row-major enumeration of pairs (u,v), u < v. *)
    let rec find_row u rem =
      let row = n - 1 - u in
      if rem < row then (u, u + 1 + rem) else find_row (u + 1) (rem - row)
    in
    find_row 0 idx
  in
  let selected = Sampling.bernoulli_subset rng total ~p in
  Graph.of_edges ~n (List.map pair_of_index selected)

let gnm rng ~n ~m =
  let total = n * (n - 1) / 2 in
  if m > total then invalid_arg "Gen.gnm: too many edges";
  let pair_of_index idx =
    let rec find_row u rem =
      let row = n - 1 - u in
      if rem < row then (u, u + 1 + rem) else find_row (u + 1) (rem - row)
    in
    find_row 0 idx
  in
  let chosen = Sampling.without_replacement rng total m in
  Graph.of_edges ~n (List.map pair_of_index chosen)

(** Tripartite random graph on parts U, V1, V2 of [part] vertices each (3·part
    total), each cross-part pair an edge iid with probability [p] — the hard
    distribution µ of §4.2.1 when p = γ/√n. *)
let tripartite_gnp rng ~part ~p =
  let n = 3 * part in
  let edges = ref [] in
  let cross offset1 offset2 =
    let total = part * part in
    let selected = Sampling.bernoulli_subset rng total ~p in
    List.iter
      (fun idx ->
        let a = offset1 + (idx / part) and b = offset2 + (idx mod part) in
        edges := (a, b) :: !edges)
      selected
  in
  cross 0 part;
  cross 0 (2 * part);
  cross part (2 * part);
  Graph.of_edges ~n !edges

(** Triangle-free bipartite noise among the given vertices (split in halves,
    each cross pair iid with probability [p]). *)
let bipartite_noise rng vertices ~p =
  let a = Array.of_list vertices in
  let len = Array.length a in
  let half = len / 2 in
  let total = half * (len - half) in
  let selected = Sampling.bernoulli_subset rng total ~p in
  List.map
    (fun idx ->
      let i = idx / (len - half) and j = idx mod (len - half) in
      (a.(i), a.(half + j)))
    selected

(* The graph on [n] vertices of [edges] with every endpoint renamed
   through [perm], built once. *)
let of_permuted_edges ~n perm edges =
  let b = Graph.Builder.create ~n in
  List.iter (fun (u, v) -> Graph.Builder.add b perm.(u) perm.(v)) edges;
  Graph.Builder.build b

(** [planted_far rng ~n ~triangles ~noise] plants [triangles] vertex-disjoint
    triangles on the first 3·triangles vertices and adds ~[noise] bipartite
    (hence triangle-free) edges among the remaining vertices.  The triangle
    set of the result is exactly the planted family, so the graph is
    ǫ-far with ǫ = triangles / m. *)
let planted_far rng ~n ~triangles ~noise =
  if 3 * triangles > n then invalid_arg "Gen.planted_far: too many triangles";
  let tri_edges =
    List.concat_map
      (fun t ->
        let a = (3 * t) and b = (3 * t) + 1 and c = (3 * t) + 2 in
        [ (a, b); (b, c); (a, c) ])
      (List.init triangles (fun t -> t))
  in
  let rest = List.init (n - (3 * triangles)) (fun i -> (3 * triangles) + i) in
  let noise_edges =
    if noise <= 0 || List.length rest < 2 then []
    else begin
      let half = List.length rest / 2 in
      let total = max 1 (half * (List.length rest - half)) in
      bipartite_noise rng rest ~p:(Float.min 1.0 (float_of_int noise /. float_of_int total))
    end
  in
  (* Shuffle labels so structure is not positional. *)
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  of_permuted_edges ~n perm (tri_edges @ noise_edges)

(** The adversarial low-degree instance of §3.4.2: [hubs] high-degree vertices
    are the sources of all triangle-vees.  Leaves are grouped in pairs; each
    pair (a, b) attaches to a round-robin hub u with edges {u,a}, {u,b},
    {a,b}, yielding [pairs] edge-disjoint triangles all incident to the small
    hub set.  Average degree is ~6·pairs/n while hub degree is ~2·pairs/hubs. *)
let hub_far rng ~n ~hubs ~pairs =
  if hubs + (2 * pairs) > n then invalid_arg "Gen.hub_far: n too small";
  let edges = ref [] in
  for i = 0 to pairs - 1 do
    let a = hubs + (2 * i) and b = hubs + (2 * i) + 1 in
    let u = i mod hubs in
    edges := (u, a) :: (u, b) :: (a, b) :: !edges
  done;
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  of_permuted_edges ~n perm !edges

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

(** [tripartite_planted rng ~n_part ~rounds offset] plants [rounds]
    "triangle factors" on three parts of [n_part] vertices each (vertex ids
    starting at [offset]): round r matches part A to parts B and C by random
    permutations, creating n_part vertex-disjoint triangles per round.
    Rounds reuse vertices, so the number of planted triangles is not bounded
    by n/3 — this is how we reach high average degree while staying ǫ-far.
    Returns (edges, lower bound on the edge-disjoint triangle count); the
    bound discounts every cross-round edge collision conservatively. *)
let tripartite_planted rng ~n_part ~rounds offset =
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create (6 * n_part * rounds) in
  let edges = ref [] in
  let collisions = ref 0 in
  let add u v =
    let e = if u < v then (u, v) else (v, u) in
    if Hashtbl.mem seen e then incr collisions
    else begin
      Hashtbl.replace seen e ();
      edges := e :: !edges
    end
  in
  for _ = 1 to rounds do
    let pi = Array.init n_part (fun i -> i) in
    let sigma = Array.init n_part (fun i -> i) in
    Sampling.shuffle_in_place rng pi;
    Sampling.shuffle_in_place rng sigma;
    for i = 0 to n_part - 1 do
      let a = offset + i
      and b = offset + n_part + pi.(i)
      and c = offset + (2 * n_part) + sigma.(i) in
      add a b;
      add b c;
      add a c
    done
  done;
  (* A colliding edge invalidates at most the two triangles using it. *)
  let disjoint = max 0 ((rounds * n_part) - (2 * !collisions)) in
  (!edges, disjoint)

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
    let tri_edges, _ = tripartite_planted rng ~n_part ~rounds 0 in
    let rest = List.init (n - (3 * n_part)) (fun i -> (3 * n_part) + i) in
    let noise = max 0 (m_target - List.length tri_edges) in
    let noise_edges =
      if noise = 0 || List.length rest < 2 then []
      else begin
        let half = List.length rest / 2 in
        let total = max 1 (half * (List.length rest - half)) in
        bipartite_noise rng rest ~p:(Float.min 1.0 (float_of_int noise /. float_of_int total))
      end
    in
    let perm = Array.init n (fun i -> i) in
    Sampling.shuffle_in_place rng perm;
    of_permuted_edges ~n perm (tri_edges @ noise_edges)
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
  let planted =
    List.concat_map
      (fun c ->
        List.map (fun (a, b) -> ((c * h) + a, (c * h) + b)) pattern.Subgraph.edges)
      (List.init copies (fun c -> c))
  in
  let rest = Array.init (n - (copies * h)) (fun i -> (copies * h) + i) in
  Sampling.shuffle_in_place rng rest;
  let max_noise = Array.length rest / 2 in
  let noise_edges =
    List.init (min noise max_noise) (fun i -> (rest.(2 * i), rest.((2 * i) + 1)))
  in
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  of_permuted_edges ~n perm (planted @ noise_edges)

(** [diluted_far rng ~triangles ~extra_degree] plants [triangles]
    vertex-disjoint triangles and attaches [extra_degree] fresh leaves to
    every corner, so a corner's random neighbour-pair probe hits its
    triangle-vee with probability only ~2/extra_degree² — the hard regime
    for probe-based testers (farness ≈ 1/(3·(extra_degree+1))).  Returns the
    graph on 3·triangles·(1 + extra_degree) vertices. *)
let diluted_far rng ~triangles ~extra_degree =
  let corners = 3 * triangles in
  let n = corners * (1 + extra_degree) in
  let edges = ref [] in
  for t = 0 to triangles - 1 do
    let a = 3 * t and b = (3 * t) + 1 and c = (3 * t) + 2 in
    edges := (a, b) :: (b, c) :: (a, c) :: !edges
  done;
  let next_leaf = ref corners in
  for corner = 0 to corners - 1 do
    for _ = 1 to extra_degree do
      edges := (corner, !next_leaf) :: !edges;
      incr next_leaf
    done
  done;
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  of_permuted_edges ~n perm !edges

(** Triangle-free graph with average degree ≈ d (bipartite random). *)
let free_with_degree rng ~n ~d =
  let m_target = max 1 (int_of_float (float_of_int n *. d /. 2.0)) in
  let half = n / 2 in
  let total = half * (n - half) in
  let p = Float.min 1.0 (float_of_int m_target /. float_of_int total) in
  let edges = bipartite_noise rng (List.init n (fun i -> i)) ~p in
  Graph.of_edges ~n edges
