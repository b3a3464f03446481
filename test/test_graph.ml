(* Tests for Tfree_graph: graphs, triangles, distance, generators,
   partitions, bucketing. *)

open Tfree_util
open Tfree_graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let triangle = Alcotest.testable (fun fmt (a, b, c) -> Format.fprintf fmt "(%d,%d,%d)" a b c) ( = )

(* ---------------------------------------------------------------- Graph *)

let test_graph_of_edges_dedup () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 0); (0, 1); (2, 3) ] in
  checki "m dedups" 2 (Graph.m g);
  checkb "edge present" true (Graph.mem_edge g 0 1);
  checkb "symmetric" true (Graph.mem_edge g 1 0)

let test_graph_self_loops_dropped () =
  let g = Graph.of_edges ~n:3 [ (1, 1); (0, 2) ] in
  checki "loop dropped" 1 (Graph.m g);
  checkb "no loop" false (Graph.mem_edge g 1 1)

let test_graph_out_of_range () =
  Alcotest.check_raises "vertex range"
    (Invalid_argument "Graph: vertex 5 out of range [0,3)") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 5) ]))

let test_graph_degrees () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (0, 3) ] in
  checki "hub degree" 3 (Graph.degree g 0);
  checki "leaf degree" 1 (Graph.degree g 1);
  checkb "avg degree" true (Float.abs (Graph.avg_degree g -. 1.5) < 1e-9)

let test_graph_neighbors_sorted () =
  let g = Graph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 3; 4 |] (Graph.neighbors g 2)

let test_graph_edges_normalized () =
  let g = Graph.of_edges ~n:4 [ (3, 1); (2, 0) ] in
  Alcotest.(check (list (pair int int))) "normalized sorted" [ (0, 2); (1, 3) ] (Graph.edges g)

let test_graph_iter_edges_each_once () =
  let g = Gen.complete ~n:6 in
  let count = ref 0 in
  Graph.iter_edges g (fun u v ->
      checkb "u<v" true (u < v);
      incr count);
  checki "each edge once" 15 !count

let test_graph_union () =
  let g1 = Graph.of_edges ~n:4 [ (0, 1) ] and g2 = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let u = Graph.union g1 g2 in
  checki "union m" 2 (Graph.m u)

let test_graph_union_mismatch () =
  Alcotest.check_raises "n mismatch" (Invalid_argument "Graph.union: vertex counts differ")
    (fun () -> ignore (Graph.union (Graph.empty ~n:3) (Graph.empty ~n:4)))

let test_graph_induced () =
  let g = Gen.complete ~n:5 in
  let sub = Graph.induced g [ 0; 1; 2 ] in
  checki "K3 inside K5" 3 (Graph.m sub);
  checkb "outside edge gone" false (Graph.mem_edge sub 3 4)

let test_graph_filter_edges () =
  let g = Gen.complete ~n:4 in
  let f = Graph.filter_edges g (fun u _ -> u = 0) in
  checki "star kept" 3 (Graph.m f)

let test_graph_relabel_preserves_structure () =
  let rng = Rng.create 3 in
  let g = Gen.gnp rng ~n:30 ~p:0.2 in
  let perm = Array.init 30 (fun i -> (i + 7) mod 30) in
  let h = Graph.relabel g perm in
  checki "m preserved" (Graph.m g) (Graph.m h);
  checki "triangles preserved" (Triangle.count g) (Triangle.count h);
  Graph.iter_edges g (fun u v -> checkb "edge mapped" true (Graph.mem_edge h perm.(u) perm.(v)))

let test_graph_equal () =
  let g1 = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let g2 = Graph.of_edges ~n:3 [ (1, 2); (0, 1) ] in
  checkb "equal" true (Graph.equal g1 g2);
  checkb "not equal" false (Graph.equal g1 (Graph.of_edges ~n:3 [ (0, 1) ]))

let test_graph_empty () =
  let g = Graph.empty ~n:5 in
  checki "no edges" 0 (Graph.m g);
  checkb "avg degree zero" true (Graph.avg_degree g = 0.0)

(* ------------------------------------------------------------- Triangle *)

let test_triangle_find_on_k3 () =
  Alcotest.(check (option triangle)) "K3" (Some (0, 1, 2)) (Triangle.find (Gen.complete ~n:3))

let test_triangle_none_on_bipartite () =
  checkb "bipartite free" true (Triangle.is_free (Gen.complete_bipartite ~left:5 ~right:5));
  checkb "star free" true (Triangle.is_free (Gen.star ~n:10));
  checkb "path free" true (Triangle.is_free (Gen.path ~n:10));
  checkb "C4 free" true (Triangle.is_free (Gen.cycle ~n:4));
  checkb "C3 not free" false (Triangle.is_free (Gen.cycle ~n:3))

let test_triangle_count_complete () =
  (* K_n has C(n,3) triangles *)
  checki "K4" 4 (Triangle.count (Gen.complete ~n:4));
  checki "K5" 10 (Triangle.count (Gen.complete ~n:5));
  checki "K7" 35 (Triangle.count (Gen.complete ~n:7))

let test_triangle_enumerate_distinct_and_valid () =
  let rng = Rng.create 5 in
  let g = Gen.gnp rng ~n:40 ~p:0.25 in
  let ts = Triangle.enumerate g in
  checki "count matches" (Triangle.count g) (List.length ts);
  checki "distinct" (List.length ts) (List.length (List.sort_uniq compare ts));
  List.iter (fun t -> checkb "valid" true (Triangle.is_triangle g t)) ts

let test_triangle_is_triangle_rejects () =
  let g = Gen.cycle ~n:5 in
  checkb "no triangle" false (Triangle.is_triangle g (0, 1, 2));
  checkb "degenerate" false (Triangle.is_triangle (Gen.complete ~n:4) (1, 1, 2))

let test_triangle_packing_disjoint_and_valid () =
  let rng = Rng.create 6 in
  let g = Gen.gnp rng ~n:50 ~p:0.2 in
  let packing = Triangle.greedy_packing g in
  let used = Hashtbl.create 64 in
  List.iter
    (fun (a, b, c) ->
      checkb "valid triangle" true (Triangle.is_triangle g (a, b, c));
      List.iter
        (fun e ->
          checkb "edge unused" false (Hashtbl.mem used e);
          Hashtbl.replace used e ())
        [ Graph.normalize_edge (a, b); Graph.normalize_edge (b, c); Graph.normalize_edge (a, c) ])
    packing

let test_triangle_packing_maximal_on_k4 () =
  (* K4's four triangles pairwise share edges, so the packing has exactly 1. *)
  checki "K4 packing" 1 (List.length (Triangle.greedy_packing (Gen.complete ~n:4)))

let test_triangle_packing_counts_planted () =
  let rng = Rng.create 7 in
  let g = Gen.planted_far rng ~n:100 ~triangles:20 ~noise:50 in
  checki "planted packing" 20 (List.length (Triangle.greedy_packing g));
  checki "planted count" 20 (Triangle.count g)

let test_vees_at_vertex () =
  (* wheel: hub 0 adjacent to cycle 1-2-3-4-1: link graph of 0 is C4; max
     matching 2. *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (2, 3); (3, 4); (1, 4) ] in
  let vees = Triangle.disjoint_vees_at g 0 in
  checki "two disjoint vees" 2 (List.length vees);
  List.iter (fun v -> checkb "valid vee" true (Triangle.is_vee g v)) vees

let test_vees_none_on_triangle_free () =
  let g = Gen.complete_bipartite ~left:4 ~right:4 in
  for v = 0 to 7 do
    checki "no vees" 0 (Triangle.count_disjoint_vees_at g v)
  done

let test_triangle_edge_detection () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (0, 2); (3, 4) ] in
  checkb "triangle edge" true (Triangle.is_triangle_edge g (0, 1));
  checkb "isolated edge" false (Triangle.is_triangle_edge g (3, 4));
  checkb "non-edge" false (Triangle.is_triangle_edge g (0, 3))

let test_triangle_edges_of_planted () =
  let rng = Rng.create 8 in
  let g = Gen.planted_far rng ~n:60 ~triangles:10 ~noise:0 in
  checki "3 per planted triangle" 30 (List.length (Triangle.triangle_edges g))

let test_close_vee () =
  let available = Graph.of_edges ~n:5 [ (1, 2) ] in
  let vees = [ { Triangle.source = 0; a = 3; b = 4 }; { Triangle.source = 0; a = 1; b = 2 } ] in
  (match Triangle.close_vee available vees with
  | Some (vee, e) ->
      checki "source" 0 vee.Triangle.source;
      Alcotest.(check (pair int int)) "closing edge" (1, 2) e
  | None -> Alcotest.fail "expected closure");
  checkb "no closure" true (Triangle.close_vee (Graph.empty ~n:5) vees = None)

(* ------------------------------------------------------------- Distance *)

let test_distance_bounds_order () =
  let rng = Rng.create 9 in
  let g = Gen.gnp rng ~n:40 ~p:0.3 in
  let lb = Distance.removal_lower_bound g and ub = Distance.removal_upper_bound g in
  checkb "lb <= ub" true (lb <= ub)

let test_distance_zero_on_free () =
  let g = Gen.complete_bipartite ~left:6 ~right:6 in
  checki "lb 0" 0 (Distance.removal_lower_bound g);
  checki "ub 0" 0 (Distance.removal_upper_bound g)

let test_distance_k4 () =
  (* K4: one removal leaves two triangles sharing edges; 2 removals needed. *)
  checki "K4 needs 2 removals" 2 (Distance.removal_upper_bound (Gen.complete ~n:4))

let test_distance_certified_far_planted () =
  let rng = Rng.create 10 in
  let g = Gen.planted_far rng ~n:120 ~triangles:20 ~noise:100 in
  checkb "certified far" true (Distance.certified_far g ~eps:0.1);
  checkb "not far at eps=0.5" false (Distance.certified_far g ~eps:0.5)

let test_distance_certified_close () =
  (* One triangle among many edges: removing 1 of 43 edges suffices. *)
  let edges = (0, 1) :: (1, 2) :: (0, 2) :: List.init 40 (fun i -> (10 + i, 51 + i)) in
  let g = Graph.of_edges ~n:100 edges in
  checkb "certified close" true (Distance.certified_close g ~eps:0.2)

let test_farness_interval () =
  let rng = Rng.create 11 in
  let g = Gen.planted_far rng ~n:90 ~triangles:10 ~noise:30 in
  let lo, hi = Distance.farness_interval g in
  checkb "interval ordered" true (lo <= hi && lo > 0.0)

(* ------------------------------------------------------------------ Gen *)

let test_gen_gnp_edge_count () =
  let rng = Rng.create 12 in
  let g = Gen.gnp rng ~n:100 ~p:0.1 in
  (* expected 495, sd ~21 *)
  checkb "plausible edge count" true (abs (Graph.m g - 495) < 120)

let test_gen_gnp_extremes () =
  let rng = Rng.create 13 in
  checki "p=0" 0 (Graph.m (Gen.gnp rng ~n:20 ~p:0.0));
  checki "p=1" 190 (Graph.m (Gen.gnp rng ~n:20 ~p:1.0))

let test_gen_gnm_exact () =
  let rng = Rng.create 14 in
  let g = Gen.gnm rng ~n:50 ~m:100 in
  checki "exact m" 100 (Graph.m g)

let test_gen_tripartite_structure () =
  let rng = Rng.create 15 in
  let g = Gen.tripartite_gnp rng ~part:30 ~p:0.2 in
  checki "n = 3 part" 90 (Graph.n g);
  Graph.iter_edges g (fun u v -> checkb "cross-part" true (u / 30 <> v / 30))

let test_gen_planted_far_triangles_exact () =
  let rng = Rng.create 16 in
  let g = Gen.planted_far rng ~n:150 ~triangles:25 ~noise:80 in
  checki "exactly the planted triangles" 25 (Triangle.count g);
  checkb "noise present" true (Graph.m g > 75)

let test_gen_planted_far_too_many () =
  let rng = Rng.create 16 in
  Alcotest.check_raises "too many" (Invalid_argument "Gen.planted_far: too many triangles")
    (fun () -> ignore (Gen.planted_far rng ~n:10 ~triangles:4 ~noise:0))

let test_gen_hub_far_structure () =
  let rng = Rng.create 17 in
  let g = Gen.hub_far rng ~n:200 ~hubs:4 ~pairs:40 in
  checki "one triangle per pair" 40 (Triangle.count g);
  checki "packing = pairs" 40 (List.length (Triangle.greedy_packing g));
  let max_deg = List.fold_left (fun acc v -> max acc (Graph.degree g v)) 0 (List.init 200 (fun i -> i)) in
  checkb "hubs are heavy" true (float_of_int max_deg > 3.0 *. Graph.avg_degree g)

let test_gen_far_with_degree_low () =
  let rng = Rng.create 18 in
  let g = Gen.far_with_degree rng ~n:600 ~d:4.0 ~eps:0.1 in
  checkb "degree near target" true (Float.abs (Graph.avg_degree g -. 4.0) < 1.0);
  checkb "certified far" true (Distance.certified_far g ~eps:0.08)

let test_gen_far_with_degree_high () =
  let rng = Rng.create 19 in
  let g = Gen.far_with_degree rng ~n:400 ~d:40.0 ~eps:0.1 in
  checkb "degree near target" true (Float.abs (Graph.avg_degree g -. 40.0) < 8.0);
  checkb "certified far" true (Distance.certified_far g ~eps:0.05)

let test_gen_free_with_degree () =
  let rng = Rng.create 20 in
  let g = Gen.free_with_degree rng ~n:500 ~d:8.0 in
  checkb "triangle free" true (Triangle.is_free g);
  checkb "degree near target" true (Float.abs (Graph.avg_degree g -. 8.0) < 2.0)

let test_gen_embed_preserves () =
  let rng = Rng.create 21 in
  let g = Gen.complete ~n:10 in
  let h = Gen.embed rng g ~n:100 in
  checki "n padded" 100 (Graph.n h);
  checki "m preserved" (Graph.m g) (Graph.m h);
  checki "triangles preserved" (Triangle.count g) (Triangle.count h)

let test_gen_tripartite_planted_disjoint_bound () =
  let rng = Rng.create 22 in
  let b = Graph.Builder.create ~n:120 in
  let _, disjoint = Gen.tripartite_planted rng b ~n_part:40 ~rounds:3 0 in
  let g = Graph.Builder.build b in
  checkb "claimed bound holds" true (List.length (Triangle.greedy_packing g) >= disjoint - 1);
  checkb "bound positive" true (disjoint > 0)

(* ------------------------------------------------------------ Partition *)

let test_partition_disjoint_random_union () =
  let rng = Rng.create 23 in
  let g = Gen.gnp rng ~n:60 ~p:0.1 in
  let parts = Partition.disjoint_random rng ~k:5 g in
  checki "k players" 5 (Partition.k parts);
  checkb "union reassembles" true (Graph.equal (Partition.union parts) g);
  checkb "no duplication" false (Partition.has_duplication parts)

let test_partition_with_duplication_union () =
  let rng = Rng.create 24 in
  let g = Gen.gnp rng ~n:60 ~p:0.1 in
  let parts = Partition.with_duplication rng ~k:4 ~dup_p:0.5 g in
  checkb "union reassembles" true (Graph.equal (Partition.union parts) g);
  checkb "duplication present" true (Partition.has_duplication parts)

let test_partition_replicate () =
  let rng = Rng.create 25 in
  let g = Gen.gnp rng ~n:30 ~p:0.2 in
  let parts = Partition.replicate ~k:3 g in
  Array.iter (fun p -> checkb "full copy" true (Graph.equal p g)) parts;
  checkb "union reassembles" true (Graph.equal (Partition.union parts) g)

let test_partition_by_endpoint_hash () =
  let rng = Rng.create 26 in
  let g = Gen.gnp rng ~n:60 ~p:0.1 in
  let parts = Partition.by_endpoint_hash rng ~k:4 g in
  checkb "union reassembles" true (Graph.equal (Partition.union parts) g);
  checkb "no duplication" false (Partition.has_duplication parts)

let test_partition_skewed () =
  let rng = Rng.create 27 in
  let g = Gen.gnp rng ~n:100 ~p:0.2 in
  let parts = Partition.skewed rng ~k:4 ~bias:0.9 g in
  checkb "union reassembles" true (Graph.equal (Partition.union parts) g);
  checkb "player 0 dominates" true (Graph.m (Partition.player parts 0) > Graph.m g / 2);
  (* a lone player takes every edge, whatever the bias *)
  List.iter
    (fun bias ->
      let parts = Partition.skewed rng ~k:1 ~bias g in
      checki "one player" 1 (Partition.k parts);
      checkb "player 0 holds every edge" true (Graph.equal (Partition.player parts 0) g))
    [ 0.0; 0.8; 1.0 ]

let test_partition_all_to_one () =
  let g = Gen.complete ~n:6 in
  let parts = Partition.all_to_one ~k:3 g in
  checki "others empty" 0 (Graph.m (Partition.player parts 1));
  checkb "union reassembles" true (Graph.equal (Partition.union parts) g)

(* --------------------------------------------------------------- Bucket *)

let test_bucket_index_of_degree () =
  checki "deg 1" 0 (Bucket.index_of_degree 1);
  checki "deg 2" 0 (Bucket.index_of_degree 2);
  checki "deg 3" 1 (Bucket.index_of_degree 3);
  checki "deg 8" 1 (Bucket.index_of_degree 8);
  checki "deg 9" 2 (Bucket.index_of_degree 9);
  checki "deg 27" 3 (Bucket.index_of_degree 27)

let test_bucket_bounds () =
  checki "d- of 0" 1 (Bucket.d_minus 0);
  checki "d+ of 0" 3 (Bucket.d_plus 0);
  checki "d- of 2" 9 (Bucket.d_minus 2);
  checki "d+ of 2" 27 (Bucket.d_plus 2);
  (* every index a bucket count reaches *)
  let pow3 e = int_of_float (Float.pow 3.0 (float_of_int e)) in
  for i = 0 to Bucket.count ~n:max_int - 1 do
    checki (Printf.sprintf "d- of %d" i) (pow3 i) (Bucket.d_minus i);
    checki (Printf.sprintf "d+ of %d" i) (pow3 (i + 1)) (Bucket.d_plus i)
  done;
  Alcotest.check_raises "d- of -1" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Bucket.d_minus (-1)));
  Alcotest.check_raises "d+ past the last bucket" (Invalid_argument "index out of bounds")
    (fun () -> ignore (Bucket.d_plus (Bucket.count ~n:max_int)))

let test_bucket_members_partition_nonisolated () =
  let rng = Rng.create 28 in
  let g = Gen.gnp rng ~n:80 ~p:0.08 in
  let buckets = Bucket.members g in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 buckets in
  let non_isolated =
    List.length (List.filter (fun v -> Graph.degree g v > 0) (List.init 80 (fun v -> v)))
  in
  checki "all non-isolated bucketed" non_isolated total;
  Array.iteri
    (fun i vs ->
      List.iter
        (fun v ->
          let d = Graph.degree g v in
          checkb "degree within bucket range" true (d >= Bucket.d_minus i && d < Bucket.d_plus i))
        vs)
    buckets

let test_bucket_full_vertex_on_planted () =
  (* In a bare planted triangle every corner has degree 2 fully covered by
     one vee: maximally full. *)
  let rng = Rng.create 29 in
  let g = Gen.planted_far rng ~n:30 ~triangles:5 ~noise:0 in
  let full = Bucket.full_vertices g ~eps:0.1 in
  checki "all 15 corners full" 15 (List.length full)

let test_bucket_full_vertex_absent_on_free () =
  let g = Gen.complete_bipartite ~left:5 ~right:5 in
  checki "no full vertices" 0 (List.length (Bucket.full_vertices g ~eps:0.1))

let test_bucket_b_min_exists_on_far_graph () =
  let rng = Rng.create 30 in
  let g = Gen.planted_far rng ~n:120 ~triangles:20 ~noise:40 in
  match Bucket.b_min g ~eps:0.1 with
  | Some i -> checkb "bucket index sane" true (i >= 0 && i < Bucket.count ~n:120)
  | None -> Alcotest.fail "expected a full bucket (Observation 3.3)"

let test_bucket_b_min_none_on_free () =
  let g = Gen.complete_bipartite ~left:10 ~right:10 in
  checkb "no full bucket" true (Bucket.b_min g ~eps:0.1 = None)

let test_bucket_degree_window () =
  let rng = Rng.create 31 in
  let g = Gen.planted_far rng ~n:120 ~triangles:20 ~noise:40 in
  let dl, dh = Bucket.degree_window g ~eps:0.1 in
  checkb "dl < dh" true (dl < dh);
  (* Lemma 3.12: B_min's degree range intersects the window. *)
  match Bucket.b_min g ~eps:0.1 with
  | Some i ->
      checkb "b_min above dl" true (float_of_int (Bucket.d_plus i) >= dl);
      checkb "b_min below dh" true (float_of_int (Bucket.d_minus i) <= dh)
  | None -> Alcotest.fail "expected full bucket"

let test_bucket_suspects () =
  checkb "suspects bucket 0" true (Bucket.suspects ~k:4 ~i:0 2);
  checkb "suspects bucket 1" true (Bucket.suspects ~k:4 ~i:1 2);
  checkb "not bucket 3" false (Bucket.suspects ~k:4 ~i:3 2);
  checkb "zero degree never suspects" false (Bucket.suspects ~k:4 ~i:0 0)

let test_bucket_membership_implies_suspect () =
  (* Correctness needs B_i ⊆ B̃_i: a vertex in bucket i globally is
     suspected by at least one player (pigeonhole, §3.3). *)
  let rng = Rng.create 32 in
  let g = Gen.gnp rng ~n:60 ~p:0.15 in
  let parts = Partition.disjoint_random rng ~k:4 g in
  let buckets = Bucket.members g in
  Array.iteri
    (fun i vs ->
      List.iter
        (fun v ->
          let suspected =
            Array.exists (fun pg -> Bucket.suspects ~k:4 ~i (Graph.degree pg v)) parts
          in
          checkb "some player suspects true bucket" true suspected)
        vs)
    buckets


(* -------------------------------------------------------------- Behrend *)

let test_behrend_ap_free_sets () =
  List.iter
    (fun (base, digits) ->
      let s = Behrend.ap_free_set ~base ~digits in
      checkb "non-empty" true (s <> []);
      checkb "ap-free" true (Behrend.is_ap_free s);
      let bound = int_of_float (Float.pow (float_of_int (2 * base)) (float_of_int digits)) in
      List.iter (fun x -> checkb "in range" true (x >= 0 && x < bound)) s)
    [ (2, 2); (3, 2); (4, 2); (3, 3); (5, 2) ]

let test_behrend_is_ap_free_detects () =
  checkb "AP detected" false (Behrend.is_ap_free [ 1; 3; 5 ]);
  checkb "no AP" true (Behrend.is_ap_free [ 1; 2; 4; 8 ]);
  checkb "empty fine" true (Behrend.is_ap_free [])

let test_behrend_graph_structure () =
  let t = Behrend.instance ~base:3 ~digits:2 () in
  let g = t.Behrend.graph in
  checki "6M vertices" (6 * t.Behrend.m_param) (Graph.n g);
  checki "3 edges per planted triangle" (3 * t.Behrend.planted) (Graph.m g);
  checki "triangle count minimal" t.Behrend.planted (Triangle.count g);
  checki "packing = count" t.Behrend.planted (List.length (Triangle.greedy_packing g));
  checkb "1/3-far certified" true (Distance.certified_far g ~eps:0.33);
  checkb "every edge is a triangle edge" true
    (List.length (Triangle.triangle_edges g) = Graph.m g);
  checkb "density statistic" true (Float.abs (Behrend.triangles_per_edge t -. (1.0 /. 3.0)) < 1e-9)

let test_behrend_shuffle_preserves () =
  let rng = Rng.create 55 in
  let t = Behrend.instance ~rng ~base:2 ~digits:2 () in
  checki "triangles preserved" t.Behrend.planted (Triangle.count t.Behrend.graph)

let test_behrend_rejects_bad_set () =
  Alcotest.check_raises "out of range" (Invalid_argument "Behrend.graph_of_set: set out of range")
    (fun () -> ignore (Behrend.graph_of_set ~m_param:4 [ 9 ]))

(* --------------------------------------------------------------- QCheck *)

let graph_gen =
  QCheck.Gen.(
    int_range 2 40 >>= fun n ->
    int_range 0 1000 >|= fun seed ->
    let rng = Rng.create seed in
    Gen.gnp rng ~n ~p:0.2)

let arb_graph = QCheck.make ~print:(fun g -> Format.asprintf "%a" Graph.pp g) graph_gen

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"handshake: sum of degrees = 2m" ~count:100 arb_graph (fun g ->
        let sum =
          List.fold_left (fun acc v -> acc + Graph.degree g v) 0 (List.init (Graph.n g) (fun v -> v))
        in
        sum = 2 * Graph.m g);
    Test.make ~name:"mem_edge consistent with edges list" ~count:100 arb_graph (fun g ->
        List.for_all (fun (u, v) -> Graph.mem_edge g u v) (Graph.edges g));
    Test.make ~name:"packing <= triangle count" ~count:100 arb_graph (fun g ->
        List.length (Triangle.greedy_packing g) <= Triangle.count g);
    Test.make ~name:"packing lb <= greedy ub" ~count:50 arb_graph (fun g ->
        Distance.removal_lower_bound g <= Distance.removal_upper_bound g);
    Test.make ~name:"triangle edges subset of edges" ~count:100 arb_graph (fun g ->
        List.for_all (fun (u, v) -> Graph.mem_edge g u v) (Triangle.triangle_edges g));
    Test.make ~name:"free graphs have no triangle edges" ~count:100 arb_graph (fun g ->
        (not (Triangle.is_free g)) || Triangle.triangle_edges g = []);
    Test.make ~name:"union idempotent" ~count:50 arb_graph (fun g -> Graph.equal (Graph.union g g) g);
    Test.make ~name:"vees at v <= deg v / 2" ~count:100 arb_graph (fun g ->
        List.for_all
          (fun v -> 2 * Triangle.count_disjoint_vees_at g v <= Graph.degree g v)
          (List.init (Graph.n g) (fun v -> v)));
    Test.make ~name:"partition union is input (disjoint)" ~count:50
      (pair arb_graph (int_range 1 6))
      (fun (g, k) ->
        let rng = Rng.create (Graph.m g + k) in
        Graph.equal (Partition.union (Partition.disjoint_random rng ~k g)) g);
    Test.make ~name:"partition union is input (duplicated)" ~count:50
      (pair arb_graph (int_range 1 6))
      (fun (g, k) ->
        let rng = Rng.create (Graph.m g + (13 * k)) in
        Graph.equal (Partition.union (Partition.with_duplication rng ~k ~dup_p:0.4 g)) g);
    Test.make ~name:"bucket index consistent with bounds" ~count:200 (int_range 1 100_000) (fun d ->
        let i = Bucket.index_of_degree d in
        d >= Bucket.d_minus i && d < Bucket.d_plus i);
  ]

let () =
  Alcotest.run "tfree_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "of_edges dedup" `Quick test_graph_of_edges_dedup;
          Alcotest.test_case "self loops dropped" `Quick test_graph_self_loops_dropped;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "degrees" `Quick test_graph_degrees;
          Alcotest.test_case "neighbors sorted" `Quick test_graph_neighbors_sorted;
          Alcotest.test_case "edges normalized" `Quick test_graph_edges_normalized;
          Alcotest.test_case "iter edges once" `Quick test_graph_iter_edges_each_once;
          Alcotest.test_case "union" `Quick test_graph_union;
          Alcotest.test_case "union mismatch" `Quick test_graph_union_mismatch;
          Alcotest.test_case "induced" `Quick test_graph_induced;
          Alcotest.test_case "filter edges" `Quick test_graph_filter_edges;
          Alcotest.test_case "relabel" `Quick test_graph_relabel_preserves_structure;
          Alcotest.test_case "equal" `Quick test_graph_equal;
          Alcotest.test_case "empty" `Quick test_graph_empty;
        ] );
      ( "triangle",
        [
          Alcotest.test_case "find on K3" `Quick test_triangle_find_on_k3;
          Alcotest.test_case "none on bipartite" `Quick test_triangle_none_on_bipartite;
          Alcotest.test_case "count complete" `Quick test_triangle_count_complete;
          Alcotest.test_case "enumerate distinct+valid" `Quick test_triangle_enumerate_distinct_and_valid;
          Alcotest.test_case "is_triangle rejects" `Quick test_triangle_is_triangle_rejects;
          Alcotest.test_case "packing disjoint+valid" `Quick test_triangle_packing_disjoint_and_valid;
          Alcotest.test_case "packing on K4" `Quick test_triangle_packing_maximal_on_k4;
          Alcotest.test_case "packing counts planted" `Quick test_triangle_packing_counts_planted;
          Alcotest.test_case "vees at vertex" `Quick test_vees_at_vertex;
          Alcotest.test_case "vees absent on free" `Quick test_vees_none_on_triangle_free;
          Alcotest.test_case "triangle edge detection" `Quick test_triangle_edge_detection;
          Alcotest.test_case "triangle edges of planted" `Quick test_triangle_edges_of_planted;
          Alcotest.test_case "close vee" `Quick test_close_vee;
        ] );
      ( "distance",
        [
          Alcotest.test_case "bounds ordered" `Quick test_distance_bounds_order;
          Alcotest.test_case "zero on free" `Quick test_distance_zero_on_free;
          Alcotest.test_case "K4 removals" `Quick test_distance_k4;
          Alcotest.test_case "certified far" `Quick test_distance_certified_far_planted;
          Alcotest.test_case "certified close" `Quick test_distance_certified_close;
          Alcotest.test_case "farness interval" `Quick test_farness_interval;
        ] );
      ( "gen",
        [
          Alcotest.test_case "gnp count" `Quick test_gen_gnp_edge_count;
          Alcotest.test_case "gnp extremes" `Quick test_gen_gnp_extremes;
          Alcotest.test_case "gnm exact" `Quick test_gen_gnm_exact;
          Alcotest.test_case "tripartite structure" `Quick test_gen_tripartite_structure;
          Alcotest.test_case "planted triangles exact" `Quick test_gen_planted_far_triangles_exact;
          Alcotest.test_case "planted too many" `Quick test_gen_planted_far_too_many;
          Alcotest.test_case "hub structure" `Quick test_gen_hub_far_structure;
          Alcotest.test_case "far_with_degree low" `Quick test_gen_far_with_degree_low;
          Alcotest.test_case "far_with_degree high" `Quick test_gen_far_with_degree_high;
          Alcotest.test_case "free_with_degree" `Quick test_gen_free_with_degree;
          Alcotest.test_case "embed preserves" `Quick test_gen_embed_preserves;
          Alcotest.test_case "tripartite planted bound" `Quick test_gen_tripartite_planted_disjoint_bound;
        ] );
      ( "partition",
        [
          Alcotest.test_case "disjoint random" `Quick test_partition_disjoint_random_union;
          Alcotest.test_case "with duplication" `Quick test_partition_with_duplication_union;
          Alcotest.test_case "replicate" `Quick test_partition_replicate;
          Alcotest.test_case "by endpoint hash" `Quick test_partition_by_endpoint_hash;
          Alcotest.test_case "skewed" `Quick test_partition_skewed;
          Alcotest.test_case "all to one" `Quick test_partition_all_to_one;
        ] );
      ( "bucket",
        [
          Alcotest.test_case "index of degree" `Quick test_bucket_index_of_degree;
          Alcotest.test_case "bounds" `Quick test_bucket_bounds;
          Alcotest.test_case "members partition" `Quick test_bucket_members_partition_nonisolated;
          Alcotest.test_case "full vertices planted" `Quick test_bucket_full_vertex_on_planted;
          Alcotest.test_case "no full vertices on free" `Quick test_bucket_full_vertex_absent_on_free;
          Alcotest.test_case "b_min exists on far" `Quick test_bucket_b_min_exists_on_far_graph;
          Alcotest.test_case "b_min none on free" `Quick test_bucket_b_min_none_on_free;
          Alcotest.test_case "degree window" `Quick test_bucket_degree_window;
          Alcotest.test_case "suspects" `Quick test_bucket_suspects;
          Alcotest.test_case "membership implies suspect" `Quick test_bucket_membership_implies_suspect;
        ] );
      ( "behrend",
        [
          Alcotest.test_case "ap-free sets" `Quick test_behrend_ap_free_sets;
          Alcotest.test_case "ap detection" `Quick test_behrend_is_ap_free_detects;
          Alcotest.test_case "graph structure" `Quick test_behrend_graph_structure;
          Alcotest.test_case "shuffle preserves" `Quick test_behrend_shuffle_preserves;
          Alcotest.test_case "rejects bad set" `Quick test_behrend_rejects_bad_set;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
