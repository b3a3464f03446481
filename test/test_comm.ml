(* Tests for Tfree_comm: message accounting, cost ledger, coordinator /
   simultaneous / one-way runtimes. *)

open Tfree_util
open Tfree_graph
open Tfree_comm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ Msg *)

let test_msg_bool () = checki "1 bit" 1 (Msg.bits (Msg.bool true))

let test_msg_vertex () =
  checki "log2 1000 = 10" 10 (Msg.bits (Msg.vertex ~n:1000 7));
  checki "round trip" 7 (Option.get (Msg.get_vertex_opt (Msg.vertex_opt ~n:1000 (Some 7))))

let test_msg_vertex_opt () =
  checki "none is 1 bit" 1 (Msg.bits (Msg.vertex_opt ~n:1000 None));
  checki "some is 1+10" 11 (Msg.bits (Msg.vertex_opt ~n:1000 (Some 3)));
  checkb "none round trip" true (Msg.get_vertex_opt (Msg.vertex_opt ~n:1000 None) = None)

let test_msg_edge () =
  checki "edge is 2 vertices" 20 (Msg.bits (Msg.edge ~n:1000 (1, 2)));
  Alcotest.(check (pair int int)) "round trip" (1, 2) (Msg.get_edge (Msg.edge ~n:1000 (1, 2)))

let test_msg_edges_cost () =
  let es = [ (0, 1); (2, 3); (4, 5) ] in
  let m = Msg.edges ~n:1000 es in
  checki "length prefix + 3 edges" (Bits.elias_gamma 3 + (3 * 20)) (Msg.bits m);
  Alcotest.(check (list (pair int int))) "round trip" es (Msg.get_edges m)

let test_msg_empty_edges () =
  checki "empty list costs prefix only" (Bits.elias_gamma 0) (Msg.bits (Msg.edges ~n:1000 []))

let test_msg_vertices () =
  let m = Msg.vertices ~n:64 [ 1; 2; 3 ] in
  checki "cost" (Bits.elias_gamma 3 + (3 * 6)) (Msg.bits m);
  Alcotest.(check (list int)) "round trip" [ 1; 2; 3 ] (Msg.get_vertices m)

let test_msg_int_in () =
  let m = Msg.int_in ~lo:(-1) ~hi:62 5 in
  checki "6 bits" 6 (Msg.bits m);
  checki "value" 5 (Msg.get_int m)

let test_msg_int_in_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Msg.int_in: out of declared range") (fun () ->
      ignore (Msg.int_in ~lo:0 ~hi:3 9))

let test_msg_tuple () =
  let m = Msg.tuple [ Msg.bool true; Msg.vertex ~n:16 3 ] in
  checki "sum of parts" 5 (Msg.bits m);
  match Msg.get_tuple m with
  | [ a; b ] ->
      checkb "bool part" true (Msg.get_bool a);
      checkb "vertex part" true (Msg.get_vertex_opt b = Some 3)
  | _ -> Alcotest.fail "tuple arity"

let test_msg_getter_mismatch () =
  Alcotest.check_raises "wrong getter" (Invalid_argument "Msg.get_bool") (fun () ->
      ignore (Msg.get_bool (Msg.vertex ~n:4 1)))

let test_msg_nat () =
  checki "nat 0" 1 (Msg.bits (Msg.nat 0));
  checki "nat 7" 7 (Msg.bits (Msg.nat 7))

(* ----------------------------------------------------------------- Cost *)

let test_cost_ledger () =
  let c = Cost.create ~k:3 in
  Cost.charge_to_player c 10;
  Cost.charge_from_player c 0 5;
  Cost.charge_from_player c 2 7;
  Cost.next_round c;
  checki "total" 22 (Cost.total c);
  checki "max upload" 7 (Cost.max_player_upload c);
  checki "rounds" 1 c.Cost.rounds;
  checki "messages" 3 c.Cost.messages

(* -------------------------------------------------------------- Runtime *)

let fixture_partition k =
  let rng = Rng.create 99 in
  let g = Gen.gnp rng ~n:50 ~p:0.15 in
  (g, Partition.disjoint_random rng ~k g)

let test_runtime_basic_shape () =
  let _, parts = fixture_partition 4 in
  let rt = Runtime.make ~seed:1 parts in
  checki "k" 4 (Runtime.k rt);
  checki "n" 50 (Runtime.n rt)

let test_runtime_ask_all_costs () =
  let _, parts = fixture_partition 4 in
  let rt = Runtime.make ~seed:1 parts in
  let _ = Runtime.ask_all rt ~req:Msg.empty (fun _ _ -> Msg.bool true) in
  checki "k response bits" 4 (Cost.total (Runtime.cost rt));
  checki "one round" 1 (Runtime.cost rt).Cost.rounds

let test_runtime_ask_all_request_charged_per_player () =
  let _, parts = fixture_partition 4 in
  let rt = Runtime.make ~seed:1 parts in
  let _ = Runtime.ask_all rt ~req:(Msg.vertex ~n:50 3) (fun _ _ -> Msg.bool true) in
  (* vertex of n=50 is 6 bits; coordinator pays 4×6, players 4×1 *)
  checki "cost" ((4 * 6) + 4) (Cost.total (Runtime.cost rt))

let test_runtime_blackboard_broadcast_once () =
  let _, parts = fixture_partition 4 in
  let rt_c = Runtime.make ~mode:Runtime.Coordinator ~seed:1 parts in
  let rt_b = Runtime.make ~mode:Runtime.Blackboard ~seed:1 parts in
  Runtime.tell_all rt_c (Msg.vertices ~n:50 [ 1; 2; 3 ]);
  Runtime.tell_all rt_b (Msg.vertices ~n:50 [ 1; 2; 3 ]);
  checki "coordinator pays k-fold" (4 * Cost.total (Runtime.cost rt_b)) (Cost.total (Runtime.cost rt_c))

let test_runtime_query_single_player () =
  let _, parts = fixture_partition 3 in
  let rt = Runtime.make ~seed:1 parts in
  let reply = Runtime.query rt 1 ~req:(Msg.bool true) (fun input -> Msg.nat (Graph.m input)) in
  checki "reply value" (Graph.m (Partition.player parts 1)) (Msg.get_int reply);
  checkb "both directions charged" true (Cost.total (Runtime.cost rt) > 1)

let test_runtime_any_player () =
  let g, parts = fixture_partition 3 in
  let rt = Runtime.make ~seed:1 parts in
  let u, v = List.hd (Graph.edges g) in
  checkb "edge found" true (Runtime.any_player rt (fun _ input -> Graph.mem_edge input u v));
  checkb "absent everywhere" false (Runtime.any_player rt (fun _ _ -> false))

let test_runtime_shared_rng_agreement () =
  let _, parts = fixture_partition 3 in
  let rt = Runtime.make ~seed:5 parts in
  let r1 = Runtime.shared_rng rt ~key:9 and r2 = Runtime.shared_rng rt ~key:9 in
  Alcotest.check Alcotest.int64 "same stream" (Rng.next_int64 r1) (Rng.next_int64 r2)

let test_runtime_private_rngs_differ () =
  let _, parts = fixture_partition 3 in
  let rt = Runtime.make ~seed:5 parts in
  checkb "players have distinct private randomness" true
    (Rng.next_int64 (Runtime.private_rng rt 0) <> Rng.next_int64 (Runtime.private_rng rt 1))

(* --------------------------------------------------------- Simultaneous *)

let count_protocol : int Simultaneous.protocol =
  {
    Simultaneous.player =
      (fun ctx _j input ->
        Msg.vertices ~n:ctx.Simultaneous.n
          (List.filteri (fun i _ -> i < 3) (List.map fst (Graph.edges input))));
    referee =
      (fun _ msgs -> Array.fold_left (fun acc m -> acc + List.length (Msg.get_vertices m)) 0 msgs);
  }

let test_simultaneous_costs_and_result () =
  let _, parts = fixture_partition 4 in
  let outcome = Simultaneous.run ~seed:3 count_protocol parts in
  checkb "result computed" true (outcome.Simultaneous.result >= 0);
  checki "total = sum of per player" outcome.Simultaneous.total_bits
    (Array.fold_left ( + ) 0 outcome.Simultaneous.per_player_bits);
  checkb "max <= total" true (outcome.Simultaneous.max_message_bits <= outcome.Simultaneous.total_bits)

let test_simultaneous_shared_rng_same_for_all () =
  let _, parts = fixture_partition 3 in
  let seen = ref [] in
  let proto =
    {
      Simultaneous.player =
        (fun ctx _j _input ->
          let r = Simultaneous.shared_rng ctx ~key:7 in
          seen := Rng.next_int64 r :: !seen;
          Msg.empty);
      referee = (fun _ _ -> ());
    }
  in
  let _ = Simultaneous.run ~seed:4 proto parts in
  match !seen with
  | [ a; b; c ] -> checkb "all equal" true (a = b && b = c)
  | _ -> Alcotest.fail "expected 3 observations"

let test_simultaneous_deterministic_given_seed () =
  let _, parts = fixture_partition 3 in
  let o1 = Simultaneous.run ~seed:8 count_protocol parts in
  let o2 = Simultaneous.run ~seed:8 count_protocol parts in
  checki "same result" o1.Simultaneous.result o2.Simultaneous.result;
  checki "same bits" o1.Simultaneous.total_bits o2.Simultaneous.total_bits

(* --------------------------------------------------------------- Oneway *)

let test_oneway_chain () =
  let rng = Rng.create 7 in
  let g = Gen.gnp rng ~n:30 ~p:0.2 in
  let parts = Partition.disjoint_random rng ~k:3 g in
  let chain =
    {
      Oneway.alice = (fun _ input -> Msg.nat (Graph.m input));
      bob = (fun _ input m1 -> Msg.nat (Msg.get_int m1 + Graph.m input));
      charlie = (fun _ input _m1 m2 -> Msg.get_int m2 + Graph.m input);
    }
  in
  let o =
    Oneway.run_chain ~seed:1 chain ~alice_input:(Partition.player parts 0)
      ~bob_input:(Partition.player parts 1) ~charlie_input:(Partition.player parts 2)
  in
  checki "counts all edges" (Graph.m g) o.Oneway.result;
  checkb "bits counted" true (o.Oneway.total_bits > 0);
  checkb "max <= total" true (o.Oneway.max_message_bits <= o.Oneway.total_bits)

let test_oneway_extended_alternation () =
  let rng = Rng.create 8 in
  let g = Gen.gnp rng ~n:20 ~p:0.3 in
  let parts = Partition.disjoint_random rng ~k:3 g in
  let ext =
    {
      Oneway.speak = (fun _ ~turn input _transcript -> Msg.nat ((10 * turn) + (Graph.m input mod 10)));
      out = (fun _ _input transcript -> List.length transcript);
      turns = 5;
    }
  in
  let o =
    Oneway.run_extended ~seed:1 ext ~alice_input:(Partition.player parts 0)
      ~bob_input:(Partition.player parts 1) ~charlie_input:(Partition.player parts 2)
  in
  checki "five turns" 5 o.Oneway.result

let test_msg_equal_layouts () =
  let at n = Msg.vertex ~n 217 in
  checki "both cost 9 bits" (Msg.bits (at 300)) (Msg.bits (at 512));
  checkb "same vertex, different n" false (Msg.equal (at 300) (at 512));
  checkb "rebuilt from its layout" true
    (let m = at 300 in
     Msg.equal m (Msg.of_layout (Msg.layout m) (Msg.value m)));
  checkb "bits differ" false (Msg.equal (Msg.vertex_opt ~n:300 None) (Msg.bool false));
  checkb "the shared replies" true
    (Msg.equal (Msg.bool true) (Msg.of_layout Msg.L_bool (Msg.Bool true)))

(* --------------------------------------------------------------- QCheck *)

(* The reference for [Msg.equal]: the three fields, structurally. *)
let structurally_equal a b =
  Msg.value a = Msg.value b && Msg.bits a = Msg.bits b && Msg.layout a = Msg.layout b

(* A message one small step from [m]: the same message rebuilt, or one
   field of its value or layout nudged somewhere inside it (a vertex
   bound swapped for one of the same width, a flipped bit, a list one
   element longer or with its last element changed).  A nudge the layout
   refuses (a range code pushed out of its range) gives [m] rebuilt. *)
let near_miss m =
  let open QCheck.Gen in
  let nudge_n n = if n lxor 1 >= 2 then n lxor 1 else n + 1 in
  let rec layout (l : Msg.layout) =
    match l with
    | Msg.L_unit | Msg.L_bool | Msg.L_nat -> oneofl [ Msg.L_unit; Msg.L_bool; Msg.L_nat ]
    | Msg.L_int_in { lo; hi } -> oneofl [ Msg.L_int_in { lo; hi = hi + 1 }; Msg.L_nat ]
    | Msg.L_vertex { n } -> oneofl [ Msg.L_vertex { n = nudge_n n }; Msg.L_vertex_opt { n } ]
    | Msg.L_vertex_opt { n } -> oneofl [ Msg.L_vertex_opt { n = nudge_n n }; Msg.L_vertex { n } ]
    | Msg.L_edge { n } -> return (Msg.L_edge { n = nudge_n n })
    | Msg.L_vertices { n } -> return (Msg.L_vertices { n = nudge_n n })
    | Msg.L_edges { n } -> return (Msg.L_edges { n = nudge_n n })
    | Msg.L_tuple [] -> return (Msg.L_tuple [ Msg.L_unit ])
    | Msg.L_tuple ls -> nudge_one layout ls >|= fun ls -> Msg.L_tuple ls
  and value (v : Msg.value) =
    match v with
    | Msg.Unit -> return (Msg.Bool false)
    | Msg.Bool b -> return (Msg.Bool (not b))
    | Msg.Int x -> oneofl [ Msg.Int (x + 1); Msg.Int (x - 1) ]
    | Msg.Vertex x -> oneofl [ Msg.Vertex (x lxor 1); Msg.No_vertex ]
    | Msg.No_vertex -> return (Msg.Vertex 0)
    | Msg.Edge (u, v) -> oneofl [ Msg.Edge (v, u); Msg.Edge (u, v lxor 1) ]
    | Msg.Vertices vs -> (
        match List.rev vs with
        | [] -> return (Msg.Vertices [ 0 ])
        | x :: rest ->
            oneofl [ Msg.Vertices (List.rev ((x lxor 1) :: rest)); Msg.Vertices (vs @ [ x ]) ])
    | Msg.Edges es -> (
        match List.rev es with
        | [] -> return (Msg.Edges [ (0, 1) ])
        | (u, v) :: rest ->
            oneofl [ Msg.Edges (List.rev ((v, u) :: rest)); Msg.Edges (es @ [ (u, v) ]) ])
    | Msg.Tuple [] -> return (Msg.Tuple [ Msg.Unit ])
    | Msg.Tuple vs -> nudge_one value vs >|= fun vs -> Msg.Tuple vs
  and nudge_one : 'a. ('a -> 'a QCheck.Gen.t) -> 'a list -> 'a list QCheck.Gen.t =
   fun f xs ->
    int_bound (List.length xs - 1) >>= fun i ->
    flatten_l (List.mapi (fun j x -> if j = i then f x else return x) xs)
  in
  let rebuild l v =
    try Msg.of_layout l v with Invalid_argument _ -> Msg.of_layout (Msg.layout m) (Msg.value m)
  in
  frequency
    [
      (1, return (rebuild (Msg.layout m) (Msg.value m)));
      (2, value (Msg.value m) >|= rebuild (Msg.layout m));
      (2, layout (Msg.layout m) >|= fun l -> rebuild l (Msg.value m));
    ]

let arb_msg_pair =
  let open QCheck.Gen in
  let gen = Tfree_proptest.Msg_gen.gen in
  QCheck.make
    ~print:(fun (a, b) ->
      Tfree_proptest.Msg_gen.print a ^ " vs " ^ Tfree_proptest.Msg_gen.print b)
    (frequency [ (1, pair gen gen); (3, gen >>= fun m -> near_miss m >|= fun m' -> (m, m')) ])

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"edges msg cost is linear in length" ~count:100 (int_range 0 200) (fun len ->
        let es = List.init len (fun i -> (i, i + 201)) in
        Msg.bits (Msg.edges ~n:500 es) = Bits.elias_gamma len + (len * Bits.edge ~n:500));
    Test.make ~name:"tuple cost = sum of parts" ~count:100 (list (int_range 0 100)) (fun vs ->
        let parts = List.map (fun v -> Msg.int_in ~lo:0 ~hi:100 v) vs in
        Msg.bits (Msg.tuple parts) = List.fold_left (fun a p -> a + Msg.bits p) 0 parts);
    Test.make ~name:"vertex_opt some costs 1+vertex" ~count:50 (int_range 2 10_000) (fun n ->
        Msg.bits (Msg.vertex_opt ~n (Some 0)) = 1 + Bits.vertex ~n);
    Test.make ~name:"Msg.equal = structural equality of the fields" ~count:2000 arb_msg_pair
      (fun (a, b) -> Msg.equal a b = structurally_equal a b && Msg.equal b a = Msg.equal a b);
  ]

let () =
  Alcotest.run "tfree_comm"
    [
      ( "msg",
        [
          Alcotest.test_case "bool" `Quick test_msg_bool;
          Alcotest.test_case "vertex" `Quick test_msg_vertex;
          Alcotest.test_case "vertex_opt" `Quick test_msg_vertex_opt;
          Alcotest.test_case "edge" `Quick test_msg_edge;
          Alcotest.test_case "edges cost" `Quick test_msg_edges_cost;
          Alcotest.test_case "empty edges" `Quick test_msg_empty_edges;
          Alcotest.test_case "vertices" `Quick test_msg_vertices;
          Alcotest.test_case "int_in" `Quick test_msg_int_in;
          Alcotest.test_case "int_in range" `Quick test_msg_int_in_out_of_range;
          Alcotest.test_case "tuple" `Quick test_msg_tuple;
          Alcotest.test_case "getter mismatch" `Quick test_msg_getter_mismatch;
          Alcotest.test_case "nat" `Quick test_msg_nat;
          Alcotest.test_case "equal compares layouts" `Quick test_msg_equal_layouts;
        ] );
      ("cost", [ Alcotest.test_case "ledger" `Quick test_cost_ledger ]);
      ( "runtime",
        [
          Alcotest.test_case "basic shape" `Quick test_runtime_basic_shape;
          Alcotest.test_case "ask_all costs" `Quick test_runtime_ask_all_costs;
          Alcotest.test_case "request charged per player" `Quick
            test_runtime_ask_all_request_charged_per_player;
          Alcotest.test_case "blackboard broadcast" `Quick test_runtime_blackboard_broadcast_once;
          Alcotest.test_case "query single player" `Quick test_runtime_query_single_player;
          Alcotest.test_case "any_player" `Quick test_runtime_any_player;
          Alcotest.test_case "shared rng agreement" `Quick test_runtime_shared_rng_agreement;
          Alcotest.test_case "private rngs differ" `Quick test_runtime_private_rngs_differ;
        ] );
      ( "simultaneous",
        [
          Alcotest.test_case "costs and result" `Quick test_simultaneous_costs_and_result;
          Alcotest.test_case "shared rng same for all" `Quick test_simultaneous_shared_rng_same_for_all;
          Alcotest.test_case "deterministic" `Quick test_simultaneous_deterministic_given_seed;
        ] );
      ( "oneway",
        [
          Alcotest.test_case "chain" `Quick test_oneway_chain;
          Alcotest.test_case "extended alternation" `Quick test_oneway_extended_alternation;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
