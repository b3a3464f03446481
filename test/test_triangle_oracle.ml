(* The triangle kernels against an independent oracle: a naive triple loop
   over [Graph.mem_edge], on small instances of every family the daemon
   serves plus [Gen.diluted_far], [Gen.planted_pattern_far] and
   [Behrend.instance]. *)

open Tfree_util
open Tfree_graph
module Service = Tfree_wire.Service

(* Every triangle a < b < c, ascending, by brute force. *)
let naive_triangles g =
  let n = Graph.n g in
  let acc = ref [] in
  for c = n - 1 downto 0 do
    for b = c - 1 downto 0 do
      if Graph.mem_edge g b c then
        for a = b - 1 downto 0 do
          if Graph.mem_edge g a b && Graph.mem_edge g a c then acc := (a, b, c) :: !acc
        done
    done
  done;
  List.sort compare !acc

let tri_edges (a, b, c) = List.map Graph.normalize_edge [ (a, b); (b, c); (a, c) ]

(* Why the kernels disagree with the oracle on [g], if they do. *)
let disagreement g =
  let oracle = naive_triangles g in
  let real t = List.mem (Triangle.normalize t) oracle in
  let packing = Triangle.greedy_packing g in
  let packed = List.concat_map tri_edges packing in
  let uses_packed t = List.exists (fun e -> List.mem e packed) (tri_edges t) in
  if Triangle.count g <> List.length oracle then
    Some (Printf.sprintf "count %d, oracle %d" (Triangle.count g) (List.length oracle))
  else if List.sort compare (List.map Triangle.normalize (Triangle.enumerate g)) <> oracle then
    Some "enumerate differs from the oracle"
  else if Triangle.is_free g <> (oracle = []) then Some "is_free disagrees"
  else
    match (Triangle.find g, oracle) with
    | None, _ :: _ -> Some "find missed a triangle"
    | Some t, _ when not (real t) -> Some "find returned a non-triangle"
    | _ ->
        if not (List.for_all real packing) then Some "packing holds a non-triangle"
        else if List.length (List.sort_uniq compare packed) <> List.length packed then
          Some "packing is not edge-disjoint"
        else if not (List.for_all uses_packed oracle) then Some "packing is not maximal"
        else None

(* --------------------------------------------------------------- inputs *)

type source =
  | Served of Service.family * int * float  (** family, n, d *)
  | Diluted of int * int  (** triangles, extra degree *)
  | Pattern of int * int  (** n, copies of the diamond *)
  | Behrend_instance of int  (** base, two digits *)

let print_source seed = function
  | Served (f, n, d) -> Printf.sprintf "%s n=%d d=%g seed=%d" (Service.family_to_string f) n d seed
  | Diluted (t, x) -> Printf.sprintf "diluted triangles=%d extra=%d seed=%d" t x seed
  | Pattern (n, c) -> Printf.sprintf "pattern n=%d copies=%d seed=%d" n c seed
  | Behrend_instance b -> Printf.sprintf "behrend base=%d seed=%d" b seed

let build seed source =
  let rng = Rng.create seed in
  match source with
  | Served (family, n, d) -> Service.build_instance family rng ~n ~d ~eps:0.1
  | Diluted (triangles, extra_degree) -> Gen.diluted_far rng ~triangles ~extra_degree
  | Pattern (n, copies) ->
      Gen.planted_pattern_far rng ~n ~pattern:Subgraph.diamond ~copies ~noise:(n / 4)
  | Behrend_instance base -> (Behrend.instance ~rng ~base ~digits:2 ()).Behrend.graph

let arb_source =
  QCheck.make
    ~print:(fun (source, seed) -> print_source seed source)
    QCheck.Gen.(
      pair
        (frequency
           [
             ( 6,
               map3
                 (fun (_, f) n d -> Served (f, n, d))
                 (oneofl Service.families) (int_range 3 70) (float_range 1.0 16.0) );
             (1, map2 (fun t x -> Diluted (t, x)) (int_range 1 5) (int_range 1 4));
             (1, map2 (fun n c -> Pattern (n, c)) (int_range 8 60) (int_range 0 2));
             (1, map (fun b -> Behrend_instance b) (int_range 2 3));
           ])
        (int_range 0 100_000))

(* A family that rejects the size (hub_far needs room for its hubs) has
   nothing to check. *)
let prop_kernels_match_oracle (source, seed) =
  match build seed source with
  | exception Invalid_argument _ -> QCheck.assume_fail ()
  | g -> (
      match disagreement g with
      | None -> true
      | Some why -> QCheck.Test.fail_reportf "%s: %s" (print_source seed source) why)

(* ----------------------------------------------------------- unit tests *)

(* One fixed instance of every source, so each is checked on every run. *)
let test_every_source () =
  List.iter
    (fun source ->
      Alcotest.(check (option string)) (print_source 1 source) None (disagreement (build 1 source)))
    (List.map (fun (_, f) -> Served (f, 60, 6.0)) Service.families
    @ [ Diluted (4, 3); Pattern (40, 2); Behrend_instance 2 ])

let test_oracle_on_known_graphs () =
  Alcotest.(check int) "K5" 10 (List.length (naive_triangles (Gen.complete ~n:5)));
  Alcotest.(check int) "C5" 0 (List.length (naive_triangles (Gen.cycle ~n:5)));
  Alcotest.(check int) "K3,3" 0 (List.length (naive_triangles (Gen.complete_bipartite ~left:3 ~right:3)))

let () =
  Alcotest.run "tfree_triangle_oracle"
    [
      ( "oracle",
        [
          Alcotest.test_case "naive oracle on known graphs" `Quick test_oracle_on_known_graphs;
          Alcotest.test_case "every family once" `Quick test_every_source;
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"kernels = naive oracle" ~count:300 arb_source
               prop_kernels_match_oracle);
        ] );
    ]
