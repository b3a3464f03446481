(* Differential tests for the instance generators: the list-based
   generators as they were first written are kept below as a reference
   (far, free, planted, tripartite planting, bipartite noise, Gnp, Gnm,
   tripartite Gnp, hub, diluted and pattern instances), and
   every streamed generator must build the same graph from the same seed,
   report the same bounds, fail with the same exception and leave its
   random stream in the same state. *)

open Tfree_util
open Tfree_graph

(* ------------------------------------------------------------ reference *)

module Ref = struct
  let bernoulli_subset rng n ~p =
    if p <= 0.0 then []
    else if p >= 1.0 then List.init n (fun i -> i)
    else begin
      let rec loop i acc =
        let i = i + Rng.geometric rng ~p in
        if i >= n then List.rev acc else loop (i + 1) (i :: acc)
      in
      loop 0 []
    end

  let pair_of_index ~n idx =
    let rec find_row u rem =
      let row = n - 1 - u in
      if rem < row then (u, u + 1 + rem) else find_row (u + 1) (rem - row)
    in
    find_row 0 idx

  let gnp rng ~n ~p =
    if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
    let total = n * (n - 1) / 2 in
    Graph.of_edges ~n (List.map (pair_of_index ~n) (bernoulli_subset rng total ~p))

  let gnm rng ~n ~m =
    let total = n * (n - 1) / 2 in
    if m > total then invalid_arg "Gen.gnm: too many edges";
    Graph.of_edges ~n (List.map (pair_of_index ~n) (Sampling.without_replacement rng total m))

  let bipartite_noise rng vertices ~p =
    let a = Array.of_list vertices in
    let len = Array.length a in
    let half = len / 2 in
    let total = half * (len - half) in
    let selected = bernoulli_subset rng total ~p in
    List.map
      (fun idx ->
        let i = idx / (len - half) and j = idx mod (len - half) in
        (a.(i), a.(half + j)))
      selected

  let of_permuted_edges ~n perm edges =
    Graph.of_edges ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) edges)

  let planted_far rng ~n ~triangles ~noise =
    if 3 * triangles > n then invalid_arg "Gen.planted_far: too many triangles";
    let tri_edges =
      List.concat_map
        (fun t ->
          let a = 3 * t and b = (3 * t) + 1 and c = (3 * t) + 2 in
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
    let perm = Array.init n (fun i -> i) in
    Sampling.shuffle_in_place rng perm;
    of_permuted_edges ~n perm (tri_edges @ noise_edges)

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
    let disjoint = max 0 ((rounds * n_part) - (2 * !collisions)) in
    (!edges, disjoint)

  let far_with_degree rng ~n ~d ~eps =
    let m_target = max 3 (int_of_float (float_of_int n *. d /. 2.0)) in
    let triangles = max 1 (int_of_float (Float.ceil (eps *. float_of_int m_target))) in
    if (3 * triangles) + 2 <= n - (n / 4) then begin
      let noise = max 0 (m_target - (3 * triangles)) in
      planted_far rng ~n ~triangles ~noise
    end
    else begin
      let n_part = max 1 (n / 6) in
      let rounds =
        max 1 (int_of_float (Float.ceil (float_of_int triangles /. float_of_int n_part)))
      in
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

  let free_with_degree rng ~n ~d =
    let m_target = max 1 (int_of_float (float_of_int n *. d /. 2.0)) in
    let half = n / 2 in
    let total = half * (n - half) in
    let p = Float.min 1.0 (float_of_int m_target /. float_of_int total) in
    Graph.of_edges ~n (bipartite_noise rng (List.init n (fun i -> i)) ~p)

  let tripartite_gnp rng ~part ~p =
    let n = 3 * part in
    let edges = ref [] in
    let cross offset1 offset2 =
      List.iter
        (fun idx -> edges := (offset1 + (idx / part), offset2 + (idx mod part)) :: !edges)
        (bernoulli_subset rng (part * part) ~p)
    in
    cross 0 part;
    cross 0 (2 * part);
    cross part (2 * part);
    Graph.of_edges ~n !edges

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

  let planted_pattern_far rng ~n ~(pattern : Subgraph.pattern) ~copies ~noise =
    let h = pattern.Subgraph.vertices in
    if copies * h > n then invalid_arg "Gen.planted_pattern_far: too many copies";
    let planted =
      List.concat_map
        (fun c -> List.map (fun (a, b) -> ((c * h) + a, (c * h) + b)) pattern.Subgraph.edges)
        (List.init copies (fun c -> c))
    in
    let rest = Array.init (n - (copies * h)) (fun i -> (copies * h) + i) in
    Sampling.shuffle_in_place rng rest;
    let noise_edges =
      List.init (min noise (Array.length rest / 2)) (fun i -> (rest.(2 * i), rest.((2 * i) + 1)))
    in
    let perm = Array.init n (fun i -> i) in
    Sampling.shuffle_in_place rng perm;
    of_permuted_edges ~n perm (planted @ noise_edges)

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
end

(* -------------------------------------------------------------- helpers *)

(* Run [build] on a fresh stream for [seed]: the graph (or the exception
   text) and the next draw from the stream after the build. *)
let run seed build =
  let rng = Rng.create seed in
  match build rng with
  | g -> (Ok g, Rng.int rng 1_000_000_007)
  | exception e -> (Error (Printexc.to_string e), 0)

let same_run seed reference streamed =
  match (run seed reference, run seed streamed) with
  | (Ok g, a), (Ok h, b) -> Graph.equal g h && Graph.n g = Graph.n h && a = b
  | (Error e, _), (Error f, _) -> e = f
  | _ -> false

(* The streamed planting next to the reference, on twin streams: the
   graphs of the edges each kept, both distinct counts, both bounds, and
   whether the streams still agree. *)
let plant_both ~n_part ~rounds offset seed =
  let n = offset + (3 * n_part) in
  let rng = Rng.create seed and rng' = Rng.create seed in
  let edges, bound = Ref.tripartite_planted rng ~n_part ~rounds offset in
  let b = Graph.Builder.create ~n in
  let distinct, bound' = Gen.tripartite_planted rng' b ~n_part ~rounds offset in
  ( (Graph.of_edges ~n edges, List.length edges, bound),
    (Graph.Builder.build b, distinct, bound'),
    Rng.int rng 1_000_000_007 = Rng.int rng' 1_000_000_007 )

(* ----------------------------------------------------------- generators *)

(* Small and medium sizes, n < 12 and negative n included; degrees and
   farness span both branches of [far_with_degree] (eps near 1 leaves no
   room for noise, tiny n turns the noise probability to 1). *)
let far_input =
  QCheck.make
    ~print:(fun (n, d, eps, seed) -> Printf.sprintf "n=%d d=%g eps=%g seed=%d" n d eps seed)
    QCheck.Gen.(
      quad
        (oneof [ int_range (-6) 11; int_range 12 400 ])
        (oneof [ float_range 0.5 6.0; float_range 6.0 48.0 ])
        (oneof [ float_range 0.01 0.2; float_range 0.2 1.0 ])
        (int_range 0 100_000))

let planted_input =
  QCheck.make
    ~print:(fun (n, triangles, noise, seed) ->
      Printf.sprintf "n=%d triangles=%d noise=%d seed=%d" n triangles noise seed)
    QCheck.Gen.(
      int_range 0 300 >>= fun n ->
      int_range 0 (n / 3) >>= fun triangles ->
      oneof [ return 0; int_range 1 200; int_range 5_000 50_000 ] >>= fun noise ->
      int_range 0 100_000 >|= fun seed -> (n, triangles, noise, seed))

(* Few vertices per part and many rounds force cross-round collisions. *)
let tripartite_input =
  QCheck.make
    ~print:(fun (n_part, rounds, offset, seed) ->
      Printf.sprintf "n_part=%d rounds=%d offset=%d seed=%d" n_part rounds offset seed)
    QCheck.Gen.(
      quad (int_range 1 40) (int_range 1 24) (int_range 0 5) (int_range 0 100_000))

(* -------------------------------------------------------------- qcheck *)

let props =
  let open QCheck in
  let module Gen = Tfree_graph.Gen in
  [
    Test.make ~name:"far_with_degree = list reference" ~count:400 far_input
      (fun (n, d, eps, seed) ->
        same_run seed
          (fun rng -> Ref.far_with_degree rng ~n ~d ~eps)
          (fun rng -> Gen.far_with_degree rng ~n ~d ~eps));
    Test.make ~name:"free_with_degree = list reference" ~count:300 far_input
      (fun (n, d, _, seed) ->
        same_run seed
          (fun rng -> Ref.free_with_degree rng ~n ~d)
          (fun rng -> Gen.free_with_degree rng ~n ~d));
    Test.make ~name:"planted_far = list reference" ~count:300 planted_input
      (fun (n, triangles, noise, seed) ->
        same_run seed
          (fun rng -> Ref.planted_far rng ~n ~triangles ~noise)
          (fun rng -> Gen.planted_far rng ~n ~triangles ~noise));
    Test.make ~name:"tripartite_planted = list reference" ~count:300 tripartite_input
      (fun (n_part, rounds, offset, seed) ->
        let (g, count, bound), (g', distinct, bound'), same_stream =
          plant_both ~n_part ~rounds offset seed
        in
        Graph.equal g g' && count = distinct && Graph.m g = distinct && bound = bound'
        && same_stream);
    Test.make ~name:"bipartite_noise = list reference" ~count:300
      (quad (int_range 0 60) (int_range 0 60) (float_range (-0.1) 1.1) (int_range 0 100_000))
      (fun (lo, len, p, seed) ->
        let n = lo + len in
        let rng = Rng.create seed and rng' = Rng.create seed in
        let edges = Ref.bipartite_noise rng (List.init len (fun i -> lo + i)) ~p in
        let b = Graph.Builder.create ~n in
        Gen.bipartite_noise rng' b ~lo ~len ~p;
        Graph.equal (Graph.of_edges ~n edges) (Graph.Builder.build b)
        && Rng.int rng 1_000_000_007 = Rng.int rng' 1_000_000_007);
    (* p outside (0, 1) included: no draws at all there *)
    Test.make ~name:"iter_bernoulli = bernoulli_subset reference" ~count:500
      (triple (int_range 0 3_000) (float_range (-0.2) 1.2) (int_range 0 100_000))
      (fun (n, p, seed) ->
        let rng = Rng.create seed and rng' = Rng.create seed and rng'' = Rng.create seed in
        let expected = Ref.bernoulli_subset rng n ~p in
        let seen = ref [] in
        Sampling.iter_bernoulli rng' n ~p (fun i -> seen := i :: !seen);
        let listed = Sampling.bernoulli_subset rng'' n ~p in
        let next r = Rng.int r 1_000_000_007 in
        let after = next rng in
        List.rev !seen = expected && listed = expected
        && after = next rng' && after = next rng'');
    Test.make ~name:"gnp = list reference" ~count:200
      (triple (int_range 0 80) (float_range 0.0 1.0) (int_range 0 100_000))
      (fun (n, p, seed) ->
        same_run seed (fun rng -> Ref.gnp rng ~n ~p) (fun rng -> Gen.gnp rng ~n ~p));
    Test.make ~name:"tripartite_gnp = list reference" ~count:200
      (triple (int_range 0 30) (float_range (-0.1) 1.1) (int_range 0 100_000))
      (fun (part, p, seed) ->
        same_run seed
          (fun rng -> Ref.tripartite_gnp rng ~part ~p)
          (fun rng -> Gen.tripartite_gnp rng ~part ~p));
    Test.make ~name:"hub_far = list reference" ~count:200
      (quad (int_range 0 120) (int_range 1 6) (int_range 0 50) (int_range 0 100_000))
      (fun (n, hubs, pairs, seed) ->
        same_run seed
          (fun rng -> Ref.hub_far rng ~n ~hubs ~pairs)
          (fun rng -> Gen.hub_far rng ~n ~hubs ~pairs));
    Test.make ~name:"diluted_far = list reference" ~count:200
      (triple (int_range 0 12) (int_range 0 6) (int_range 0 100_000))
      (fun (triangles, extra_degree, seed) ->
        same_run seed
          (fun rng -> Ref.diluted_far rng ~triangles ~extra_degree)
          (fun rng -> Gen.diluted_far rng ~triangles ~extra_degree));
    Test.make ~name:"planted_pattern_far = list reference" ~count:200
      (quad (int_range 0 80) (int_range 0 12) (int_range (-2) 40) (int_range 0 100_000))
      (fun (n, copies, noise, seed) ->
        List.for_all
          (fun pattern ->
            same_run seed
              (fun rng -> Ref.planted_pattern_far rng ~n ~pattern ~copies ~noise)
              (fun rng -> Gen.planted_pattern_far rng ~n ~pattern ~copies ~noise))
          [ Subgraph.triangle; Subgraph.diamond; Subgraph.five_cycle ]);
    Test.make ~name:"gnm = list reference" ~count:200
      (triple (int_range 0 80) (int_range 0 3_200) (int_range 0 100_000))
      (fun (n, m, seed) ->
        same_run seed (fun rng -> Ref.gnm rng ~n ~m) (fun rng -> Gen.gnm rng ~n ~m));
  ]

(* ----------------------------------------------------------- unit tests *)

let checkb = Alcotest.(check bool)

(* The corner cases the properties reach only by chance, pinned. *)
let test_far_corners () =
  List.iter
    (fun (n, d, eps) ->
      List.iter
        (fun seed ->
          checkb
            (Printf.sprintf "far n=%d d=%g eps=%g seed=%d" n d eps seed)
            true
            (same_run seed
               (fun rng -> Ref.far_with_degree rng ~n ~d ~eps)
               (fun rng -> Gen.far_with_degree rng ~n ~d ~eps)))
        [ 1; 2; 11 ])
    [
      (-5, 6.0, 0.1) (* the served run failure: List.init *);
      (0, 3.0, 0.1);
      (2, 3.0, 0.1);
      (5, 3.0, 0.1) (* dense branch, noise probability 1 *);
      (12, 3.0, 0.1) (* sparse branch at its smallest *);
      (60, 24.0, 1.0) (* dense branch, no room for noise *);
      (2000, 24.0, 0.1) (* the cold-build shape *);
    ]

let test_planted_corners () =
  List.iter
    (fun (n, triangles, noise) ->
      checkb
        (Printf.sprintf "planted n=%d triangles=%d noise=%d" n triangles noise)
        true
        (same_run 3
           (fun rng -> Ref.planted_far rng ~n ~triangles ~noise)
           (fun rng -> Gen.planted_far rng ~n ~triangles ~noise)))
    [
      (30, 5, 0) (* no noise *);
      (30, 5, 1_000) (* noise probability 1 *);
      (31, 10, 5) (* one leftover vertex *);
      (9, 4, 0) (* too many triangles *);
      (9, -1, 0) (* negative count: List.init *);
    ]

let test_tripartite_collides () =
  let (g, count, bound), (g', distinct, bound'), same_stream =
    plant_both ~n_part:2 ~rounds:12 0 4
  in
  checkb "collisions happened" true (count < 3 * 2 * 12);
  checkb "same edges" true (Graph.equal g g');
  checkb "distinct count" true (distinct = count);
  checkb "same bound" true (bound = bound');
  checkb "same stream" true same_stream

let () =
  Alcotest.run "tfree_gen"
    [
      ( "corners",
        [
          Alcotest.test_case "far_with_degree" `Quick test_far_corners;
          Alcotest.test_case "planted_far" `Quick test_planted_corners;
          Alcotest.test_case "tripartite collisions" `Quick test_tripartite_collides;
        ] );
      ("reference", List.map QCheck_alcotest.to_alcotest props);
    ]
