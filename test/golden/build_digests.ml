(* Golden build corpus: every instance family the daemon serves, split by
   every partition kind, over a small size grid (including the n=2000, d=24
   shape of the cold-build benchmark workload).  For each build it prints n,
   m and an MD5 digest of the adjacency arrays, for the graph and for each
   player, then one draw from the graph and the partition random streams
   after the build, which pins how much randomness each build consumed.  A
   build that raises prints the exception text instead.  A few rows cover
   the label-shuffling builders the daemon does not reach: [Gen.embed],
   [Gen.shuffle_labels], [Gen.planted_pattern_far], [Behrend.instance] and
   the Lemma 4.17 embedding.

   Run by the runtest alias and diffed against build_digests.expected; a
   deliberate change is accepted with [dune promote]. *)

open Tfree_util
open Tfree_graph
module Service = Tfree_wire.Service
module Embedding = Tfree_lowerbound.Embedding

let digest g =
  let b = Buffer.create 4096 in
  let n = Graph.n g in
  Buffer.add_int32_le b (Int32.of_int n);
  for v = 0 to n - 1 do
    let a = Graph.neighbors g v in
    Buffer.add_int32_le b (Int32.of_int (Array.length a));
    Array.iter (fun x -> Buffer.add_int32_le b (Int32.of_int x)) a
  done;
  Printf.sprintf "n=%d m=%d %s" n (Graph.m g) (Digest.to_hex (Digest.string (Buffer.contents b)))

let guard f = try f () with e -> print_endline ("  raised " ^ Printexc.to_string e)
let draw rng = Rng.int rng 1_000_000_007

let build_row family partition ~n ~d ~seed =
  Printf.printf "%s/%s n=%d d=%g seed=%d\n" (Service.family_to_string family)
    (Service.partition_to_string partition)
    n d seed;
  guard (fun () ->
      let grng = Service.graph_rng seed and prng = Service.partition_rng seed in
      let g = Service.build_instance family grng ~n ~d ~eps:0.1 in
      Printf.printf "  graph %s\n" (digest g);
      let parts = Service.build_partition partition prng ~k:4 g in
      Array.iteri (fun j p -> Printf.printf "  p%d %s\n" j (digest p)) parts;
      Printf.printf "  next graph_rng=%d partition_rng=%d\n" (draw grng) (draw prng))

let extra_row name f =
  Printf.printf "%s\n" name;
  guard (fun () ->
      let rng = Rng.create 5 in
      let gs = f rng in
      List.iteri (fun i g -> Printf.printf "  g%d %s\n" i (digest g)) gs;
      Printf.printf "  next rng=%d\n" (draw rng))

let () =
  let grid = [ (12, 3.0, [ 1; 2 ]); (60, 4.0, [ 1; 2 ]); (300, 6.0, [ 3 ]) ] in
  List.iter
    (fun (n, d, seeds) ->
      List.iter
        (fun (_, family) ->
          List.iter
            (fun (_, partition) ->
              List.iter (fun seed -> build_row family partition ~n ~d ~seed) seeds)
            Service.partitions)
        Service.families)
    grid;
  (* the cold-build shape: every family once, the benchmarked one twice *)
  List.iter
    (fun (_, family) ->
      let seeds = if family = Service.Far then [ 11; 12 ] else [ 11 ] in
      List.iter
        (fun (_, partition) ->
          List.iter (fun seed -> build_row family partition ~n:2000 ~d:24.0 ~seed) seeds)
        Service.partitions)
    Service.families;
  extra_row "gen/embed" (fun rng -> [ Gen.embed rng (Gen.complete ~n:7) ~n:40 ]);
  extra_row "gen/shuffle_labels" (fun rng -> [ Gen.shuffle_labels rng (Gen.cycle ~n:30) ]);
  extra_row "gen/planted_pattern_far" (fun rng ->
      [ Gen.planted_pattern_far rng ~n:80 ~pattern:Subgraph.diamond ~copies:6 ~noise:20 ]);
  extra_row "gen/embed (target too small)" (fun rng -> [ Gen.embed rng (Gen.complete ~n:7) ~n:5 ]);
  extra_row "behrend/instance" (fun rng -> [ (Behrend.instance ~rng ~base:3 ~digits:2 ()).Behrend.graph ]);
  extra_row "embedding/embed_at_degree" (fun rng ->
      let e =
        Embedding.embed_at_degree rng ~n:500 ~d':1.0 ~c:0.5 ~k:3
          ~make:(fun rng n' -> Gen.far_with_degree rng ~n:n' ~d:4.0 ~eps:0.1)
          ~split:(fun rng ~k g -> Partition.with_duplication rng ~k ~dup_p:0.3 g)
      in
      e.Embedding.graph :: Array.to_list e.Embedding.inputs)
