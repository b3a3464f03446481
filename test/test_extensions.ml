(* Tests for the H-freeness extension: patterns, packing and the
   generalized simultaneous protocol. *)

open Tfree_util
open Tfree_graph
open Tfree_comm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------- patterns *)

let test_pattern_shapes () =
  checki "K3 edges" 3 (List.length Subgraph.triangle.Subgraph.edges);
  checki "C4 vertices" 4 Subgraph.four_cycle.Subgraph.vertices;
  checki "K4 edges" 6 (List.length Subgraph.four_clique.Subgraph.edges);
  checki "P4 edges" 3 (List.length Subgraph.four_path.Subgraph.edges);
  checki "diamond edges" 5 (List.length Subgraph.diamond.Subgraph.edges);
  checki "C5 vertices" 5 Subgraph.five_cycle.Subgraph.vertices

let test_find_on_known_graphs () =
  let k5 = Gen.complete ~n:5 in
  List.iter
    (fun p -> checkb (p.Subgraph.name ^ " in K5") true (Subgraph.contains k5 p))
    [ Subgraph.triangle; Subgraph.four_cycle; Subgraph.four_clique; Subgraph.four_path;
      Subgraph.diamond; Subgraph.five_cycle ];
  let c6 = Gen.cycle ~n:6 in
  checkb "no K3 in C6" true (Subgraph.is_free c6 Subgraph.triangle);
  checkb "no C4 in C6" true (Subgraph.is_free c6 Subgraph.four_cycle);
  checkb "P4 in C6" true (Subgraph.contains c6 Subgraph.four_path);
  let c4 = Gen.cycle ~n:4 in
  checkb "C4 in C4" true (Subgraph.contains c4 Subgraph.four_cycle);
  checkb "no K4 in C4" true (Subgraph.is_free c4 Subgraph.four_clique);
  (* bipartite: C4 present, odd cycles absent *)
  let kb = Gen.complete_bipartite ~left:3 ~right:3 in
  checkb "C4 in K33" true (Subgraph.contains kb Subgraph.four_cycle);
  checkb "no C5 in K33" true (Subgraph.is_free kb Subgraph.five_cycle)

let test_find_returns_valid_embedding () =
  let rng = Rng.create 1 in
  let g = Gen.gnp rng ~n:40 ~p:0.25 in
  List.iter
    (fun p ->
      match Subgraph.find g p with
      | Some a -> checkb (p.Subgraph.name ^ " embedding valid") true (Subgraph.is_embedding g p a)
      | None -> ())
    [ Subgraph.triangle; Subgraph.four_cycle; Subgraph.four_clique; Subgraph.diamond ]

let test_triangle_agrees_with_triangle_module () =
  let rng = Rng.create 2 in
  for s = 1 to 20 do
    let g = Gen.gnp (Rng.split rng s) ~n:30 ~p:0.15 in
    checkb "same verdict" true (Subgraph.is_free g Subgraph.triangle = Triangle.is_free g)
  done

let test_is_embedding_rejects () =
  let g = Gen.cycle ~n:4 in
  checkb "repeated vertex" false (Subgraph.is_embedding g Subgraph.triangle [| 0; 0; 1 |]);
  checkb "non-edge" false (Subgraph.is_embedding g Subgraph.triangle [| 0; 1; 2 |]);
  checkb "wrong arity" false (Subgraph.is_embedding g Subgraph.triangle [| 0; 1 |])

let test_pattern_packing () =
  let rng = Rng.create 3 in
  let g = Gen.planted_pattern_far rng ~n:120 ~pattern:Subgraph.four_cycle ~copies:12 ~noise:20 in
  let packing = Subgraph.greedy_packing g Subgraph.four_cycle in
  checki "all planted copies packed" 12 (List.length packing);
  List.iter (fun a -> checkb "valid copy" true (Subgraph.is_embedding g Subgraph.four_cycle a)) packing

let test_planted_pattern_noise_is_clean () =
  (* matching noise introduces no extra copy of any >=3-vertex pattern *)
  let rng = Rng.create 4 in
  let g = Gen.planted_pattern_far rng ~n:100 ~pattern:Subgraph.four_clique ~copies:5 ~noise:30 in
  checki "only planted K4s" 5 (List.length (Subgraph.greedy_packing g Subgraph.four_clique));
  checkb "triangles only inside K4s" true (List.length (Triangle.greedy_packing g) <= 10)

(* ----------------------------------------------------- sim H-freeness *)

let params = Tfree.Params.practical

let test_sim_subgraph_one_sided () =
  (* A C4-free far-from-nothing graph: matchings and triangles only. *)
  let rng = Rng.create 5 in
  let g = Gen.planted_far rng ~n:400 ~triangles:40 ~noise:60 in
  checkb "input is C4-free" true (Subgraph.is_free g Subgraph.four_cycle);
  let parts = Partition.with_duplication rng ~k:4 ~dup_p:0.3 g in
  for s = 1 to 8 do
    let o = Tfree.Sim_subgraph.run ~seed:s params ~d:(Graph.avg_degree g) Subgraph.four_cycle parts in
    checkb "never fabricates a C4" true (o.Simultaneous.result = None)
  done

let detection_rate pattern ~copies ~noise ~n runs =
  let rng = Rng.create (1000 + n) in
  let g = Gen.planted_pattern_far rng ~n ~pattern ~copies ~noise in
  let parts = Partition.with_duplication rng ~k:4 ~dup_p:0.3 g in
  let hits = ref 0 in
  for s = 1 to runs do
    let o = Tfree.Sim_subgraph.run ~seed:s params ~d:(Graph.avg_degree g) pattern parts in
    match o.Simultaneous.result with
    | Some a ->
        checkb "embedding real" true (Subgraph.is_embedding g pattern a);
        incr hits
    | None -> ()
  done;
  float_of_int !hits /. float_of_int runs

let test_sim_subgraph_detects_c4 () =
  let rate = detection_rate Subgraph.four_cycle ~copies:60 ~noise:40 ~n:500 10 in
  checkb (Printf.sprintf "C4 rate %.2f" rate) true (rate >= 0.7)

let test_sim_subgraph_detects_k4 () =
  let rate = detection_rate Subgraph.four_clique ~copies:50 ~noise:40 ~n:500 10 in
  checkb (Printf.sprintf "K4 rate %.2f" rate) true (rate >= 0.7)

let test_sim_subgraph_specializes_to_triangle () =
  let rate = detection_rate Subgraph.triangle ~copies:80 ~noise:60 ~n:500 10 in
  checkb (Printf.sprintf "K3 rate %.2f" rate) true (rate >= 0.7)

let test_sim_subgraph_cap_respected () =
  let rng = Rng.create 6 in
  let g = Gen.planted_pattern_far rng ~n:600 ~pattern:Subgraph.four_cycle ~copies:60 ~noise:60 in
  let parts = Partition.disjoint_random rng ~k:4 g in
  let d = Graph.avg_degree g in
  let o = Tfree.Sim_subgraph.run ~seed:2 params ~d Subgraph.four_cycle parts in
  let s = Tfree.Sim_subgraph.sample_size params ~n:600 ~d Subgraph.four_cycle in
  let cap = Tfree.Sim_subgraph.edge_cap params ~n:600 ~d ~s in
  Array.iter
    (fun bits -> checkb "cap respected" true (bits <= (cap * Bits.edge ~n:600) + 64))
    o.Simultaneous.per_player_bits

let test_sim_subgraph_sample_grows_with_pattern () =
  (* catching 4-vertex copies needs a denser sample than 3-vertex ones *)
  let s3 = Tfree.Sim_subgraph.sample_size params ~n:2000 ~d:10.0 Subgraph.triangle in
  let s4 = Tfree.Sim_subgraph.sample_size params ~n:2000 ~d:10.0 Subgraph.four_cycle in
  checkb "sample grows with h" true (s4 > s3)

(* ------------------------------------------------------ sim C5-freeness *)

let test_sim_c5_one_sided () =
  (* a bipartite graph has no odd cycle, so the tester must never report a C5 *)
  let rng = Rng.create 10 in
  let g = Gen.free_with_degree rng ~n:400 ~d:6.0 in
  checkb "input is C5-free" true (Subgraph.is_free g Subgraph.five_cycle);
  let parts = Partition.with_duplication rng ~k:4 ~dup_p:0.3 g in
  for s = 1 to 8 do
    let o = Tfree.Sim_subgraph.run ~seed:s params ~d:(Graph.avg_degree g) Subgraph.five_cycle parts in
    checkb "never fabricates a C5" true (o.Simultaneous.result = None)
  done

let test_sim_c5_detects () =
  let rate = detection_rate Subgraph.five_cycle ~copies:60 ~noise:40 ~n:500 10 in
  checkb (Printf.sprintf "C5 rate %.2f" rate) true (rate >= 0.7)

(* --------------------------------------------------------------- QCheck *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"pattern find is sound" ~count:50 (int_range 1 1000) (fun seed ->
        let rng = Rng.create seed in
        let g = Tfree_graph.Gen.gnp rng ~n:25 ~p:0.25 in
        List.for_all
          (fun p ->
            match Subgraph.find g p with
            | Some a -> Subgraph.is_embedding g p a
            | None -> true)
          [ Subgraph.triangle; Subgraph.four_cycle; Subgraph.four_clique; Subgraph.four_path ]);
    Test.make ~name:"triangle pattern complete vs Triangle.find" ~count:50 (int_range 1 1000)
      (fun seed ->
        let rng = Rng.create seed in
        let g = Tfree_graph.Gen.gnp rng ~n:20 ~p:0.2 in
        Subgraph.contains g Subgraph.triangle = not (Triangle.is_free g));
    Test.make ~name:"packing copies are edge-disjoint" ~count:30 (int_range 1 1000) (fun seed ->
        let rng = Rng.create seed in
        let g = Tfree_graph.Gen.gnp rng ~n:25 ~p:0.3 in
        let packing = Subgraph.greedy_packing g Subgraph.four_cycle in
        let used = Hashtbl.create 16 in
        List.for_all
          (fun a ->
            List.for_all
              (fun (x, y) ->
                let e = Graph.normalize_edge (a.(x), a.(y)) in
                if Hashtbl.mem used e then false
                else begin
                  Hashtbl.replace used e ();
                  true
                end)
              Subgraph.four_cycle.Subgraph.edges)
          packing);
  ]

let () =
  Alcotest.run "tfree_extensions"
    [
      ( "patterns",
        [
          Alcotest.test_case "shapes" `Quick test_pattern_shapes;
          Alcotest.test_case "known graphs" `Quick test_find_on_known_graphs;
          Alcotest.test_case "valid embeddings" `Quick test_find_returns_valid_embedding;
          Alcotest.test_case "agrees with Triangle" `Quick test_triangle_agrees_with_triangle_module;
          Alcotest.test_case "is_embedding rejects" `Quick test_is_embedding_rejects;
          Alcotest.test_case "pattern packing" `Quick test_pattern_packing;
          Alcotest.test_case "clean noise" `Quick test_planted_pattern_noise_is_clean;
        ] );
      ( "sim-subgraph",
        [
          Alcotest.test_case "one-sided" `Quick test_sim_subgraph_one_sided;
          Alcotest.test_case "detects C4" `Slow test_sim_subgraph_detects_c4;
          Alcotest.test_case "detects K4" `Slow test_sim_subgraph_detects_k4;
          Alcotest.test_case "specializes to K3" `Slow test_sim_subgraph_specializes_to_triangle;
          Alcotest.test_case "cap respected" `Quick test_sim_subgraph_cap_respected;
          Alcotest.test_case "sample grows with h" `Quick test_sim_subgraph_sample_grows_with_pattern;
        ] );
      ( "sim-subgraph-c5",
        [
          Alcotest.test_case "one-sided" `Quick test_sim_c5_one_sided;
          Alcotest.test_case "detects C5" `Slow test_sim_c5_detects;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
