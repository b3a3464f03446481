(* Differential tests for graph construction: every builder against a naive
   List.sort_uniq reference, relabel/embed against a naive rebuild, and the
   partitioners against the list-based reference they must match draw for
   draw. *)

open Tfree_util
open Tfree_graph

let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------ reference *)

(* Each row as a sorted, duplicate-free list; self-loops dropped. *)
let ref_rows ~n edges =
  let rows = Array.make n [] in
  List.iter
    (fun (u, v) ->
      if u <> v then begin
        rows.(u) <- v :: rows.(u);
        rows.(v) <- u :: rows.(v)
      end)
    edges;
  Array.map (List.sort_uniq compare) rows

let rows g = Array.init (Graph.n g) (fun v -> Array.to_list (Graph.neighbors g v))

let matches_ref ~n edges g =
  let expected = ref_rows ~n edges in
  Graph.n g = n
  && rows g = expected
  && 2 * Graph.m g = Array.fold_left (fun s r -> s + List.length r) 0 expected

(* --------------------------------------------------------------- inputs *)

(* Random multigraph edge lists (duplicates, both orientations, self-loops,
   n = 0 included), the strictly ascending normal form the fast path
   recognizes, and that form broken in exactly one place. *)
type shape = Raw | Ascending | Ascending_but_one

let shape_name = function Raw -> "raw" | Ascending -> "ascending" | Ascending_but_one -> "ascending-but-one"

let ascending edges =
  List.sort_uniq compare
    (List.filter_map (fun (u, v) -> if u = v then None else Some (Graph.normalize_edge (u, v))) edges)

(* Swap two neighbours, flip one edge, or repeat one edge. *)
let break_once edges pick =
  let a = Array.of_list edges in
  let len = Array.length a in
  if len = 0 then edges
  else begin
    let i = pick mod len in
    match pick mod 3 with
    | 0 when len >= 2 ->
        let i = pick mod (len - 1) in
        let x = a.(i) in
        a.(i) <- a.(i + 1);
        a.(i + 1) <- x;
        Array.to_list a
    | 1 ->
        let u, v = a.(i) in
        a.(i) <- (v, u);
        Array.to_list a
    | _ -> List.concat (List.mapi (fun j e -> if j = i then [ e; e ] else [ e ]) edges)
  end

let input_gen =
  QCheck.Gen.(
    int_range 0 24 >>= fun n ->
    (if n = 0 then return []
     else list_size (int_range 0 90) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))
    >>= fun raw ->
    oneofl [ Raw; Ascending; Ascending_but_one ] >>= fun shape ->
    int_range 0 10_000 >|= fun pick ->
    let edges =
      match shape with
      | Raw -> raw
      | Ascending -> ascending raw
      | Ascending_but_one -> break_once (ascending raw) pick
    in
    (n, shape, edges))

let print_input (n, shape, edges) =
  Printf.sprintf "n=%d %s [%s]" n (shape_name shape)
    (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d,%d" u v) edges))

let arb_input = QCheck.make ~print:print_input input_gen

let arb_graph_seed =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 0 40) (int_range 0 100_000))

let random_graph (n, seed) =
  let rng = Rng.create seed in
  let g = Gen.gnp rng ~n ~p:0.25 in
  (g, rng)

let random_perm rng n =
  let perm = Array.init n (fun i -> i) in
  Sampling.shuffle_in_place rng perm;
  perm

(* ----------------------------------------------------- reference splits *)

(* The partitioners as they were written over edge lists: same draws, same
   order, players rebuilt by the reference builder. *)
let ref_split ~n ~k assign =
  let buckets = Array.make k [] in
  List.iter (fun (j, e) -> buckets.(j) <- e :: buckets.(j)) assign;
  Array.map (fun es -> ref_rows ~n es) buckets

let ref_partition name rng ~k g =
  let n = Graph.n g and es = Graph.edges g in
  match name with
  | "disjoint" -> ref_split ~n ~k (List.map (fun e -> (Rng.int rng k, e)) es)
  | "dup" ->
      ref_split ~n ~k
        (List.concat_map
           (fun e ->
             let owner = Rng.int rng k in
             let copies =
               List.filter_map
                 (fun j -> if j <> owner && Rng.bool rng ~p:0.3 then Some (j, e) else None)
                 (List.init k (fun j -> j))
             in
             (owner, e) :: copies)
           es)
  | "hash" ->
      let salt = Rng.int rng 1_000_000_007 in
      ref_split ~n ~k (List.map (fun (u, v) -> ((u + salt) mod k, (u, v))) es)
  | "skewed" ->
      ref_split ~n ~k
        (List.map
           (fun e -> if k = 1 || Rng.bool rng ~p:0.8 then (0, e) else (1 + Rng.int rng (k - 1), e))
           es)
  | _ -> invalid_arg name

let partitioners =
  [
    ("disjoint", fun rng ~k g -> Partition.disjoint_random rng ~k g);
    ("dup", fun rng ~k g -> Partition.with_duplication rng ~k ~dup_p:0.3 g);
    ("hash", fun rng ~k g -> Partition.by_endpoint_hash rng ~k g);
    ("skewed", fun rng ~k g -> Partition.skewed rng ~k ~bias:0.8 g);
    ("replicate", fun _ ~k g -> Partition.replicate ~k g);
    ("all-to-one", fun _ ~k g -> Partition.all_to_one ~k g);
  ]

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* -------------------------------------------------------------- qcheck *)

let props =
  let open QCheck in
  [
    Test.make ~name:"of_edges = sort_uniq reference" ~count:500 arb_input (fun (n, _, edges) ->
        matches_ref ~n edges (Graph.of_edges ~n edges));
    (* thousands of edges: the endpoint buffer spans several chunks *)
    Test.make ~name:"large inputs = reference" ~count:20
      (triple (int_range 1 400) (int_range 0 12_000) (int_range 0 100_000))
      (fun (n, m, seed) ->
        let rng = Rng.create seed in
        let raw = List.init m (fun _ -> (Rng.int rng n, Rng.int rng n)) in
        let sorted = ascending raw in
        matches_ref ~n raw (Graph.of_edges ~n raw)
        && matches_ref ~n sorted (Graph.of_edges ~n sorted)
        && matches_ref ~n sorted (Graph.of_edges ~n (break_once sorted seed)));
    Test.make ~name:"of_edge_seq = of_edges = reference" ~count:300 arb_input (fun (n, _, edges) ->
        let g = Graph.of_edge_seq ~n (List.to_seq edges) in
        matches_ref ~n edges g && Graph.equal g (Graph.of_edges ~n edges));
    Test.make ~name:"builder: build leaves the builder reusable" ~count:200
      (pair arb_input (small_list (pair small_nat small_nat)))
      (fun ((n, _, edges), more) ->
        let more = if n = 0 then [] else List.map (fun (u, v) -> (u mod n, v mod n)) more in
        let b = Graph.Builder.create ~n in
        List.iter (fun (u, v) -> Graph.Builder.add b u v) edges;
        let first = Graph.Builder.build b in
        List.iter (fun (u, v) -> Graph.Builder.add b u v) more;
        let second = Graph.Builder.build b in
        matches_ref ~n edges first && matches_ref ~n (edges @ more) second);
    Test.make ~name:"builder: relabel = renamed reference" ~count:300
      (triple arb_input (int_range 0 100_000) (small_list (pair small_nat small_nat)))
      (fun ((n, _, edges), seed, more) ->
        let more = if n = 0 then [] else List.map (fun (u, v) -> (u mod n, v mod n)) more in
        let perm = random_perm (Rng.create seed) n in
        let renamed = List.map (fun (u, v) -> (perm.(u), perm.(v))) edges in
        let b = Graph.Builder.create ~n in
        List.iter (fun (u, v) -> Graph.Builder.add b u v) edges;
        Graph.Builder.relabel b perm;
        let first = Graph.Builder.build b in
        List.iter (fun (u, v) -> Graph.Builder.add b u v) more;
        matches_ref ~n renamed first && matches_ref ~n (renamed @ more) (Graph.Builder.build b));
    Test.make ~name:"relabel = naive rebuild" ~count:200 arb_graph_seed (fun gs ->
        let g, rng = random_graph gs in
        let perm = random_perm rng (Graph.n g) in
        matches_ref ~n:(Graph.n g)
          (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g))
          (Graph.relabel g perm));
    Test.make ~name:"embed = naive padded rebuild" ~count:200
      (pair arb_graph_seed (int_range 0 20))
      (fun (gs, extra) ->
        let g, rng = random_graph gs in
        let n = Graph.n g + extra in
        let perm = random_perm rng n in
        matches_ref ~n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Graph.edges g)) (Graph.embed g perm));
    Test.make ~name:"partitioners: union = g, each player within g" ~count:100
      (pair arb_graph_seed (int_range 1 6))
      (fun (gs, k) ->
        let g, rng = random_graph gs in
        List.for_all
          (fun (_, split) ->
            let p = split rng ~k g in
            Array.length p = k
            && Graph.equal (Partition.union p) g
            && Array.for_all
                 (fun pl -> Graph.n pl = Graph.n g && Graph.fold_edges pl ~init:true ~f:(fun ok u v -> ok && Graph.mem_edge g u v))
                 p)
          partitioners);
    Test.make ~name:"partitioners = list reference, draw for draw" ~count:100
      (pair arb_graph_seed (int_range 1 6))
      (fun (gs, k) ->
        let g, _ = random_graph gs in
        List.for_all
          (fun (name, split) ->
            let seed = snd gs + k in
            let got = outcome (fun () -> Array.map rows (split (Rng.create seed) ~k g)) in
            let want = outcome (fun () -> ref_partition name (Rng.create seed) ~k g) in
            got = want)
          (List.filter (fun (name, _) -> List.mem name [ "disjoint"; "dup"; "hash"; "skewed" ]) partitioners));
  ]

(* ----------------------------------------------------------- unit tests *)

let test_relabel_rejects_repeated_target () =
  let g = Gen.path ~n:3 in
  Alcotest.check_raises "repeated target" (Invalid_argument "Graph.relabel: not a permutation of [0,3)")
    (fun () -> ignore (Graph.relabel g [| 0; 2; 2 |]))

let test_relabel_rejects_out_of_range () =
  let g = Gen.path ~n:3 in
  Alcotest.check_raises "target 3" (Invalid_argument "Graph.relabel: not a permutation of [0,3)")
    (fun () -> ignore (Graph.relabel g [| 0; 3; 1 |]));
  Alcotest.check_raises "target -1" (Invalid_argument "Graph.relabel: not a permutation of [0,3)")
    (fun () -> ignore (Graph.relabel g [| -1; 0; 1 |]));
  Alcotest.check_raises "size" (Invalid_argument "Graph.relabel: permutation size mismatch") (fun () ->
      ignore (Graph.relabel g [| 0; 1 |]))

let test_builder_relabel_checks () =
  let b = Graph.Builder.create ~n:3 in
  Graph.Builder.add b 0 1;
  Alcotest.check_raises "size"
    (Invalid_argument "Graph.Builder.relabel: permutation size mismatch") (fun () ->
      Graph.Builder.relabel b [| 0; 1 |]);
  Alcotest.check_raises "repeated"
    (Invalid_argument "Graph.Builder.relabel: not a permutation of [0,3)") (fun () ->
      Graph.Builder.relabel b [| 2; 2; 0 |]);
  Graph.Builder.relabel b [| 2; 0; 1 |];
  checkb "renamed" true (Graph.equal (Graph.Builder.build b) (Graph.of_edges ~n:3 [ (2, 0) ]))

let test_embed_checks () =
  let g = Gen.path ~n:3 in
  Alcotest.check_raises "too short" (Invalid_argument "Graph.embed: permutation smaller than the graph")
    (fun () -> ignore (Graph.embed g [| 0; 1 |]));
  Alcotest.check_raises "repeated" (Invalid_argument "Graph.embed: not a permutation of [0,4)") (fun () ->
      ignore (Graph.embed g [| 3; 1; 1; 0 |]));
  let h = Graph.embed g [| 3; 1; 0; 2 |] in
  checkb "padded path" true (Graph.equal h (Graph.of_edges ~n:4 [ (3, 1); (1, 0) ]))

let test_union_of_no_players () =
  checkb "empty union" true (Graph.equal (Partition.union [||]) (Graph.empty ~n:0))

let () =
  Alcotest.run "tfree_graph_build"
    [
      ( "relabel",
        [
          Alcotest.test_case "rejects repeated target" `Quick test_relabel_rejects_repeated_target;
          Alcotest.test_case "rejects out-of-range target" `Quick test_relabel_rejects_out_of_range;
          Alcotest.test_case "embed checks" `Quick test_embed_checks;
          Alcotest.test_case "builder relabel checks" `Quick test_builder_relabel_checks;
        ] );
      ("partition", [ Alcotest.test_case "union of no players" `Quick test_union_of_no_players ]);
      ("oracle", List.map QCheck_alcotest.to_alcotest props);
    ]
