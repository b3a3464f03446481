(* Integration tests for the paper's protocols: the unrestricted tester
   (§3.3), the simultaneous testers (§3.4), the degree-oblivious combination,
   and the exact baseline.  The two pillars:

   - one-sided error: NO protocol ever reports a triangle on a triangle-free
     input, for any seed/partition (exhaustively exercised);
   - detection: on ǫ-far inputs each protocol finds a (verified real)
     triangle with probability well above 1-δ after amplification. *)

open Tfree_util
open Tfree_graph

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let params = Tfree.Params.practical

let found (r : Tfree.Tester.report) =
  match r.Tfree.Tester.verdict with Tfree.Tester.Triangle _ -> true | Tfree.Tester.Triangle_free -> false

let witness_ok g (r : Tfree.Tester.report) =
  match r.Tfree.Tester.verdict with
  | Tfree.Tester.Triangle t -> Triangle.is_triangle g t
  | Tfree.Tester.Triangle_free -> true

(* Run [runs] trials and count detections, asserting every witness is real. *)
let detection_rate g _parts runs run_one =
  let ok = ref 0 in
  for s = 1 to runs do
    let r = run_one s in
    checkb "witness is a real triangle" true (witness_ok g r);
    if found r then incr ok
  done;
  float_of_int !ok /. float_of_int runs

let far_fixture ?(n = 900) ?(d = 6.0) ?(k = 4) ?(dup = true) seed =
  let rng = Rng.create seed in
  let g = Gen.far_with_degree rng ~n ~d ~eps:0.1 in
  let parts =
    if dup then Partition.with_duplication rng ~k ~dup_p:0.3 g else Partition.disjoint_random rng ~k g
  in
  (g, parts)

let free_fixture ?(n = 900) ?(d = 6.0) ?(k = 4) seed =
  let rng = Rng.create seed in
  let g = Gen.free_with_degree rng ~n ~d in
  (g, Partition.with_duplication rng ~k ~dup_p:0.3 g)

(* ------------------------------------------------- one-sidedness (all) *)

let test_one_sided_all_protocols () =
  for s = 1 to 8 do
    let g, parts = free_fixture s in
    checkb "free input" true (Triangle.is_free g);
    checkb "unrestricted never lies" false (found (Tfree.Tester.unrestricted ~seed:s params parts));
    checkb "sim never lies" false
      (found (Tfree.Tester.simultaneous ~seed:s params ~d:(Graph.avg_degree g) parts));
    checkb "oblivious never lies" false (found (Tfree.Tester.simultaneous_oblivious ~seed:s params parts));
    checkb "exact never lies" false (found (Tfree.Tester.exact ~seed:s parts))
  done

let test_one_sided_dense_free () =
  (* complete bipartite: dense and triangle-free *)
  let g = Gen.complete_bipartite ~left:60 ~right:60 in
  let rng = Rng.create 5 in
  let parts = Partition.with_duplication rng ~k:3 ~dup_p:0.5 g in
  for s = 1 to 5 do
    checkb "sim high never lies" false
      (found (Tfree.Tester.simultaneous ~seed:s params ~d:(Graph.avg_degree g) parts));
    checkb "unrestricted never lies" false (found (Tfree.Tester.unrestricted ~seed:s params parts))
  done

(* ----------------------------------------------------------- detection *)

let test_unrestricted_detects () =
  let g, parts = far_fixture 11 in
  let rate = detection_rate g parts 10 (fun s -> Tfree.Tester.unrestricted ~seed:s params parts) in
  checkb (Printf.sprintf "rate %.2f" rate) true (rate >= 0.8)

let test_unrestricted_detects_without_duplication () =
  let g, parts = far_fixture ~dup:false 12 in
  let rate = detection_rate g parts 10 (fun s -> Tfree.Tester.unrestricted ~seed:s params parts) in
  checkb (Printf.sprintf "rate %.2f" rate) true (rate >= 0.8)

let test_sim_low_detects () =
  let g, parts = far_fixture 13 in
  let rate =
    detection_rate g parts 20 (fun s ->
        Tfree.Tester.simultaneous ~seed:s params ~d:(Graph.avg_degree g) parts)
  in
  checkb (Printf.sprintf "rate %.2f" rate) true (rate >= 0.6)

let test_sim_high_detects () =
  let g, parts = far_fixture ~n:500 ~d:50.0 14 in
  let rate =
    detection_rate g parts 20 (fun s ->
        Tfree.Tester.simultaneous ~seed:s params ~d:(Graph.avg_degree g) parts)
  in
  checkb (Printf.sprintf "rate %.2f" rate) true (rate >= 0.6)

let test_sim_oblivious_detects_low () =
  let g, parts = far_fixture 15 in
  let rate =
    detection_rate g parts 15 (fun s -> Tfree.Tester.simultaneous_oblivious ~seed:s params parts)
  in
  checkb (Printf.sprintf "rate %.2f" rate) true (rate >= 0.7)

let test_sim_oblivious_detects_high () =
  let g, parts = far_fixture ~n:500 ~d:50.0 16 in
  let rate =
    detection_rate g parts 15 (fun s -> Tfree.Tester.simultaneous_oblivious ~seed:s params parts)
  in
  checkb (Printf.sprintf "rate %.2f" rate) true (rate >= 0.7)

let test_detection_on_hub_instance () =
  (* The adversarial instance of §3.4.2: all triangles on few high-degree
     hubs.  Sim_low's S-set targets exactly this. *)
  let rng = Rng.create 17 in
  let g = Gen.hub_far rng ~n:1200 ~hubs:5 ~pairs:300 in
  let parts = Partition.disjoint_random rng ~k:4 g in
  let rate =
    detection_rate g parts 20 (fun s ->
        Tfree.Tester.simultaneous ~seed:s params ~d:(Graph.avg_degree g) parts)
  in
  checkb (Printf.sprintf "hub rate %.2f" rate) true (rate >= 0.55);
  let rate_u = detection_rate g parts 8 (fun s -> Tfree.Tester.unrestricted ~seed:s params parts) in
  checkb (Printf.sprintf "unrestricted hub rate %.2f" rate_u) true (rate_u >= 0.75)

let test_detection_with_skewed_partition () =
  let rng = Rng.create 18 in
  let g = Gen.far_with_degree rng ~n:900 ~d:6.0 ~eps:0.1 in
  let parts = Partition.skewed rng ~k:5 ~bias:0.85 g in
  let rate =
    detection_rate g parts 15 (fun s -> Tfree.Tester.simultaneous_oblivious ~seed:s params parts)
  in
  checkb (Printf.sprintf "skewed rate %.2f" rate) true (rate >= 0.6)

let test_amplification () =
  let g, parts = far_fixture 19 in
  ignore g;
  let r =
    Tfree.Tester.amplify ~reps:5 ~seed:100 (fun ~seed ->
        Tfree.Tester.simultaneous ~seed params ~d:(Graph.avg_degree g) parts)
  in
  checkb "amplified run detects" true (found r)

(* ------------------------------------------------------- cost structure *)

let test_simultaneous_is_one_round () =
  let g, parts = far_fixture 20 in
  let r = Tfree.Tester.simultaneous ~seed:1 params ~d:(Graph.avg_degree g) parts in
  checki "one round" 1 r.Tfree.Tester.rounds

let test_exact_costs_dominate () =
  let g, parts = far_fixture ~n:2000 ~d:8.0 21 in
  ignore g;
  let exact = Tfree.Tester.exact ~seed:1 parts in
  let sim = Tfree.Tester.simultaneous ~seed:1 params ~d:8.0 parts in
  checkb "testing is cheaper than exact" true (sim.Tfree.Tester.bits < exact.Tfree.Tester.bits / 2)

let test_exact_always_correct () =
  for s = 1 to 5 do
    let g, parts = far_fixture (30 + s) in
    let r = Tfree.Tester.exact ~seed:s parts in
    checkb "exact finds on far input" true (found r);
    checkb "witness real" true (witness_ok g r)
  done

let test_blackboard_cheaper () =
  let _, parts = far_fixture 22 in
  let rc = Tfree.Tester.unrestricted ~mode:Tfree_comm.Runtime.Coordinator ~seed:3 params parts in
  let rb = Tfree.Tester.unrestricted ~mode:Tfree_comm.Runtime.Blackboard ~seed:3 params parts in
  checkb "blackboard <= coordinator" true (rb.Tfree.Tester.bits <= rc.Tfree.Tester.bits)

let test_sim_caps_respected () =
  (* per-player message of capped sim_low never exceeds cap·edge_bits + slack *)
  let g, parts = far_fixture ~n:1200 ~d:10.0 23 in
  let d = Graph.avg_degree g in
  let outcome = Tfree.Sim_low.run ~seed:4 params ~d parts in
  let cap = Tfree.Sim_low.edge_cap params ~n:1200 ~d in
  Array.iter
    (fun bits ->
      checkb "per-player cap" true (bits <= (cap * Tfree_util.Bits.edge ~n:1200) + 64))
    outcome.Tfree_comm.Simultaneous.per_player_bits

let test_sim_high_caps_respected () =
  let g, parts = far_fixture ~n:600 ~d:60.0 24 in
  let d = Graph.avg_degree g in
  let outcome = Tfree.Sim_high.run ~seed:4 params ~d parts in
  let s = Tfree.Sim_high.sample_size params ~n:600 ~d in
  let cap = Tfree.Sim_high.edge_cap params ~n:600 ~d ~s in
  Array.iter
    (fun bits -> checkb "per-player cap" true (bits <= (cap * Tfree_util.Bits.edge ~n:600) + 64))
    outcome.Tfree_comm.Simultaneous.per_player_bits

let test_unrestricted_stats_populated () =
  let _, parts = far_fixture 25 in
  let rt = Tfree_comm.Runtime.make ~seed:9 parts in
  let result, stats = Tfree.Unrestricted.find_triangle rt params in
  checkb "tried at least one bucket" true (stats.Tfree.Unrestricted.buckets_tried >= 1);
  match result with
  | Some t -> checkb "real" true (Triangle.is_triangle (Partition.union parts) t)
  | None -> ()

let test_empty_input_no_crash () =
  let parts = Array.make 3 (Graph.empty ~n:50) in
  let r = Tfree.Tester.unrestricted ~seed:1 params parts in
  checkb "no triangle in empty graph" false (found r);
  let r2 = Tfree.Tester.simultaneous_oblivious ~seed:1 params parts in
  checkb "sim oblivious empty" false (found r2);
  let r3 = Tfree.Tester.exact ~seed:1 parts in
  checkb "exact empty" false (found r3)

let test_single_player () =
  let rng = Rng.create 26 in
  let g = Gen.far_with_degree rng ~n:400 ~d:5.0 ~eps:0.1 in
  let parts = Partition.all_to_one ~k:1 g in
  let r = Tfree.Tester.unrestricted ~seed:2 params parts in
  checkb "k=1 works" true (witness_ok g r)

let test_tiny_graph () =
  let g = Gen.complete ~n:3 in
  let rng = Rng.create 27 in
  let parts = Partition.disjoint_random rng ~k:2 g in
  let r = Tfree.Tester.exact ~seed:1 parts in
  checkb "K3 detected by exact" true (found r)

(* -------------------------------------------------- component behaviors *)

let test_sample_uniform_from_btilde_hits_bucket () =
  (* Every sample must come from B̃_i (some player suspects it); and over many
     samples the true bucket members must appear. *)
  let rng = Rng.create 28 in
  let g = Gen.gnp rng ~n:120 ~p:0.1 in
  let parts = Partition.disjoint_random rng ~k:4 g in
  let buckets = Bucket.members g in
  let i =
    (* pick a non-empty bucket *)
    let rec first j = if buckets.(j) <> [] then j else first (j + 1) in
    first 0
  in
  let btilde = Tfree.Unrestricted.btilde_members (Tfree_comm.Runtime.make ~seed:0 parts) in
  let seen = Hashtbl.create 16 in
  for s = 1 to 300 do
    let rt = Tfree_comm.Runtime.make ~seed:s parts in
    match Tfree.Unrestricted.sample_uniform_from_btilde ~btilde rt ~key:s ~i with
    | Some v ->
        Hashtbl.replace seen v ();
        let suspected =
          Array.exists
            (fun j -> Bucket.suspects ~k:4 ~i (Graph.degree (Partition.player parts j) v))
            (Array.init 4 (fun j -> j))
        in
        checkb "sample is suspected by someone" true suspected
    | None -> Alcotest.fail "bucket is non-empty, B̃ must be too"
  done;
  (* every true bucket member should eventually be sampled *)
  let missing = List.filter (fun v -> not (Hashtbl.mem seen v)) buckets.(i) in
  checkb "true members covered" true (List.length missing <= List.length buckets.(i) / 3)

let test_get_full_candidates_degree_filter () =
  let rng = Rng.create 29 in
  let g = Gen.gnp rng ~n:120 ~p:0.1 in
  let parts = Partition.disjoint_random rng ~k:4 g in
  let rt = Tfree_comm.Runtime.make ~seed:7 parts in
  let i = 2 in
  let btilde = Tfree.Unrestricted.btilde_members rt in
  let cands = Tfree.Unrestricted.get_full_candidates ~btilde rt params ~key:3 ~i in
  List.iter
    (fun (v, d_hat) ->
      checkb "v in range" true (v >= 0 && v < 120);
      let fd = float_of_int d_hat in
      checkb "d_hat within filter window" true
        (fd >= float_of_int (Bucket.d_minus i) /. sqrt 3.0
        && fd <= sqrt 3.0 *. float_of_int (Bucket.d_plus i)))
    cands

let test_sample_edges_returns_neighbors () =
  let rng = Rng.create 30 in
  let g = Gen.hub_far rng ~n:300 ~hubs:2 ~pairs:80 in
  let parts = Partition.disjoint_random rng ~k:3 g in
  let rt = Tfree_comm.Runtime.make ~seed:8 parts in
  let v =
    fst
      (List.fold_left
         (fun (bv, bd) u ->
           let d = Graph.degree g u in
           if d > bd then (u, d) else (bv, bd))
         (0, -1)
         (List.init 300 (fun i -> i)))
  in
  let ws = Tfree.Unrestricted.sample_edges rt params ~key:9 v ~d_hat:(Graph.degree g v) in
  List.iter (fun u -> checkb "sampled u is a real neighbor" true (Graph.mem_edge g v u)) ws;
  checkb "nonempty sample for heavy hub" true (List.length ws > 0)

(* --------------------------------------------------------------- QCheck *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"one-sided error on arbitrary free graphs" ~count:12
      (pair (int_range 1 10_000) (int_range 2 6))
      (fun (seed, k) ->
        let rng = Rng.create seed in
        let g = Tfree_graph.Gen.free_with_degree rng ~n:200 ~d:4.0 in
        let parts = Partition.with_duplication rng ~k ~dup_p:0.4 g in
        (not (found (Tfree.Tester.unrestricted ~seed params parts)))
        && (not (found (Tfree.Tester.simultaneous_oblivious ~seed params parts)))
        && not (found (Tfree.Tester.exact ~seed parts)));
    Test.make ~name:"witnesses are always real triangles" ~count:12
      (pair (int_range 1 10_000) (int_range 2 6))
      (fun (seed, k) ->
        let rng = Rng.create seed in
        let g = Tfree_graph.Gen.far_with_degree rng ~n:300 ~d:5.0 ~eps:0.1 in
        let parts = Partition.with_duplication rng ~k ~dup_p:0.4 g in
        witness_ok g (Tfree.Tester.unrestricted ~seed params parts)
        && witness_ok g (Tfree.Tester.simultaneous_oblivious ~seed params parts));
    Test.make ~name:"simultaneous cost independent of verdict path" ~count:10 (int_range 1 1000)
      (fun seed ->
        let rng = Rng.create seed in
        let g = Tfree_graph.Gen.far_with_degree rng ~n:300 ~d:5.0 ~eps:0.1 in
        let parts = Partition.disjoint_random rng ~k:3 g in
        let r = Tfree.Tester.simultaneous ~seed params ~d:(Graph.avg_degree g) parts in
        r.Tfree.Tester.rounds = 1 && r.Tfree.Tester.max_message <= r.Tfree.Tester.bits);
  ]

let () =
  Alcotest.run "tfree_protocols"
    [
      ( "one-sided",
        [
          Alcotest.test_case "all protocols on free inputs" `Slow test_one_sided_all_protocols;
          Alcotest.test_case "dense free inputs" `Quick test_one_sided_dense_free;
        ] );
      ( "detection",
        [
          Alcotest.test_case "unrestricted" `Slow test_unrestricted_detects;
          Alcotest.test_case "unrestricted no-dup" `Slow test_unrestricted_detects_without_duplication;
          Alcotest.test_case "sim low" `Slow test_sim_low_detects;
          Alcotest.test_case "sim high" `Slow test_sim_high_detects;
          Alcotest.test_case "oblivious low" `Slow test_sim_oblivious_detects_low;
          Alcotest.test_case "oblivious high" `Slow test_sim_oblivious_detects_high;
          Alcotest.test_case "hub instance" `Slow test_detection_on_hub_instance;
          Alcotest.test_case "skewed partition" `Slow test_detection_with_skewed_partition;
          Alcotest.test_case "amplification" `Quick test_amplification;
        ] );
      ( "cost",
        [
          Alcotest.test_case "simultaneous one round" `Quick test_simultaneous_is_one_round;
          Alcotest.test_case "exact dominates" `Quick test_exact_costs_dominate;
          Alcotest.test_case "exact correct" `Quick test_exact_always_correct;
          Alcotest.test_case "blackboard cheaper" `Quick test_blackboard_cheaper;
          Alcotest.test_case "sim low caps" `Quick test_sim_caps_respected;
          Alcotest.test_case "sim high caps" `Quick test_sim_high_caps_respected;
          Alcotest.test_case "stats populated" `Quick test_unrestricted_stats_populated;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "empty input" `Quick test_empty_input_no_crash;
          Alcotest.test_case "single player" `Quick test_single_player;
          Alcotest.test_case "tiny graph" `Quick test_tiny_graph;
        ] );
      ( "components",
        [
          Alcotest.test_case "btilde sampling" `Slow test_sample_uniform_from_btilde_hits_bucket;
          Alcotest.test_case "candidate degree filter" `Quick test_get_full_candidates_degree_filter;
          Alcotest.test_case "sample edges neighbors" `Quick test_sample_edges_returns_neighbors;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
