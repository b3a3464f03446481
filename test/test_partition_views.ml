(* Differential tests for the partitioners: the originals of all six, which
   push each player's edges through its own [Graph.Builder], are kept below
   as a reference.  From the same seed, every library partition must hold
   players [Graph.equal] to the reference's and leave its random stream in
   the same state, and every [Graph] accessor must answer on a library
   player exactly as on the reference player, whichever accessor reads the
   player's rows first.  A last case reads the same players from two
   domains at once. *)

open Tfree_util
open Tfree_graph
module Service = Tfree_wire.Service

(* ------------------------------------------------------------ reference *)

module Ref = struct
  let split ~k g route =
    let players = Array.init k (fun _ -> Graph.Builder.create ~n:(Graph.n g)) in
    Graph.iter_edges g (route players);
    Array.map Graph.Builder.build players

  let disjoint_random rng ~k g =
    split ~k g (fun players u v -> Graph.Builder.add players.(Rng.int rng k) u v)

  let with_duplication rng ~k ~dup_p g =
    split ~k g (fun players u v ->
        let owner = Rng.int rng k in
        Graph.Builder.add players.(owner) u v;
        for j = 0 to k - 1 do
          if j <> owner && Rng.bool rng ~p:dup_p then Graph.Builder.add players.(j) u v
        done)

  let replicate ~k g = Array.init k (fun _ -> g)

  let by_endpoint_hash rng ~k g =
    let salt = Rng.int rng 1_000_000_007 in
    split ~k g (fun players u v -> Graph.Builder.add players.((u + salt) mod k) u v)

  let skewed rng ~k ~bias g =
    split ~k g (fun players u v ->
        let j = if k = 1 || Rng.bool rng ~p:bias then 0 else 1 + Rng.int rng (k - 1) in
        Graph.Builder.add players.(j) u v)

  let all_to_one ~k g = Array.init k (fun j -> if j = 0 then g else Graph.empty ~n:(Graph.n g))
end

(* ----------------------------------------------------------- partitions *)

type part = Disjoint | Dup of float | Replicate | Hash | Skewed of float | All_to_one

let part_to_string = function
  | Disjoint -> "disjoint"
  | Dup p -> Printf.sprintf "dup %g" p
  | Replicate -> "replicate"
  | Hash -> "hash"
  | Skewed b -> Printf.sprintf "skewed %g" b
  | All_to_one -> "all-to-one"

let library part rng ~k g =
  match part with
  | Disjoint -> Partition.disjoint_random rng ~k g
  | Dup dup_p -> Partition.with_duplication rng ~k ~dup_p g
  | Replicate -> Partition.replicate ~k g
  | Hash -> Partition.by_endpoint_hash rng ~k g
  | Skewed bias -> Partition.skewed rng ~k ~bias g
  | All_to_one -> Partition.all_to_one ~k g

let reference part rng ~k g =
  match part with
  | Disjoint -> Ref.disjoint_random rng ~k g
  | Dup dup_p -> Ref.with_duplication rng ~k ~dup_p g
  | Replicate -> Ref.replicate ~k g
  | Hash -> Ref.by_endpoint_hash rng ~k g
  | Skewed bias -> Ref.skewed rng ~k ~bias g
  | All_to_one -> Ref.all_to_one ~k g

type case = { family : Service.family; part : part; n : int; d : float; k : int; seed : int }

let print_case c =
  Printf.sprintf "%s/%s n=%d d=%g k=%d seed=%d"
    (Service.family_to_string c.family)
    (part_to_string c.part) c.n c.d c.k c.seed

(* n from 0 to 2500, k from 1 to 12: past 8 players a byte per arc would
   no longer hold one bit per player. *)
let gen_case =
  QCheck.Gen.(
    let* family = oneofl (List.map snd Service.families) in
    let* part =
      oneofl
        [ Disjoint; Dup 0.0; Dup 0.3; Dup 1.0; Replicate; Hash; Skewed 0.8; Skewed 0.0; All_to_one ]
    in
    let* n =
      frequencyl [ (1, 0); (2, 1); (2, 5); (4, 12); (4, 60); (3, 300); (2, 1000); (1, 2500) ]
    in
    let* d = oneofl [ 1.0; 3.0; 8.0; 24.0 ] in
    let* k = frequency [ (2, return 1); (6, int_range 2 8); (3, int_range 9 12) ] in
    let* seed = int_range 0 1_000_000 in
    return { family; part; n; d; k; seed })

let instance c =
  try Service.build_instance c.family (Service.graph_rng c.seed) ~n:c.n ~d:c.d ~eps:0.1
  with Invalid_argument _ -> Graph.empty ~n:c.n

(* The library partition of a case and its stream afterwards. *)
let partition c g =
  let rng = Service.partition_rng c.seed in
  let parts = library c.part rng ~k:c.k g in
  (parts, rng)

let reference_partition c g =
  let rng = Service.partition_rng c.seed in
  let parts = reference c.part rng ~k:c.k g in
  (parts, rng)

(* ------------------------------------------------------------ accessors *)

let show g = Format.asprintf "%a" Graph.pp g

(* n, m and every row, read through [neighbors]. *)
let digest g =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "%d %d|" (Graph.n g) (Graph.m g));
  for v = 0 to Graph.n g - 1 do
    Array.iter (fun x -> Buffer.add_int32_le b (Int32.of_int x)) (Graph.neighbors g v);
    Buffer.add_char b '|'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pairs l =
  let b = Buffer.create 4096 in
  List.iter
    (fun (u, v) ->
      Buffer.add_int32_le b (Int32.of_int u);
      Buffer.add_int32_le b (Int32.of_int v))
    l;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A permutation of [0, size) fixed by [seed]. *)
let perm ~seed size =
  let p = Array.init size Fun.id in
  let rng = Rng.create seed in
  for i = size - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let row_text g v =
  String.concat "," (Array.to_list (Array.map string_of_int (Graph.neighbors g v)))

(* One accessor applied to a whole player, its answer rendered as text, so
   a library player and a reference player can be compared under any
   accessor.  [read whole g] is the call that may be the first to read
   [g]'s rows; [whole] is the partitioned input, so [mem_edge] is asked
   about every input edge, held by this player or not.  Per-vertex
   accessors visit the vertices in a shuffled order. *)
type probe = { name : string; read : Graph.t -> Graph.t -> string }

let probes ~seed =
  let order g = Array.to_list (perm ~seed (Graph.n g)) in
  let each g f = String.concat ";" (List.map f (order g)) in
  [
    { name = "neighbors"; read = (fun _ g -> each g (row_text g)) };
    { name = "degree"; read = (fun _ g -> each g (fun v -> string_of_int (Graph.degree g v))) };
    {
      name = "mem_edge";
      read =
        (fun whole g ->
          let b = Buffer.create 64 in
          Graph.iter_edges whole (fun u v ->
              Buffer.add_char b (if Graph.mem_edge g v u then '1' else '0');
              Buffer.add_char b (if Graph.mem_edge g u v then '1' else '0'));
          Buffer.contents b);
    };
    {
      name = "iter_edges";
      read =
        (fun _ g ->
          let acc = ref [] in
          Graph.iter_edges g (fun u v -> acc := (u, v) :: !acc);
          pairs !acc);
    };
    {
      name = "fold_edges";
      read = (fun _ g -> pairs (Graph.fold_edges g ~init:[] ~f:(fun acc u v -> (u, v) :: acc)));
    };
    { name = "edges"; read = (fun _ g -> pairs (Graph.edges g)) };
    {
      name = "n, m, avg_degree";
      read = (fun _ g -> Printf.sprintf "%d %d %h" (Graph.n g) (Graph.m g) (Graph.avg_degree g));
    };
    {
      name = "equal";
      read =
        (fun whole g ->
          Printf.sprintf "%b %b %b" (Graph.equal g g) (Graph.equal g whole) (Graph.equal whole g));
    };
    {
      name = "union";
      read =
        (fun whole g ->
          Printf.sprintf "%b %s"
            (Graph.equal (Graph.union g whole) whole)
            (digest (Graph.union g g)));
    };
    { name = "relabel"; read = (fun _ g -> digest (Graph.relabel g (perm ~seed (Graph.n g)))) };
    { name = "embed"; read = (fun _ g -> digest (Graph.embed g (perm ~seed (Graph.n g + 3)))) };
    {
      name = "induced";
      read =
        (fun _ g ->
          digest (Graph.induced g (List.filter (fun v -> v mod 3 <> seed mod 3) (order g))));
    };
    {
      name = "filter_edges";
      read = (fun _ g -> digest (Graph.filter_edges g (fun u v -> (u + v + seed) mod 2 = 0)));
    };
    { name = "pp"; read = (fun _ g -> show g) };
  ]

(* ---------------------------------------------------------------- checks *)

let fail fmt = QCheck.Test.fail_reportf fmt

(* Same players, and the same next draw from the partition stream. *)
let same_players_of c g =
  let got, rl = partition c g in
  let want, rr = reference_partition c g in
  if Array.length got <> Array.length want then
    fail "%d players against the reference's %d" (Array.length got) (Array.length want);
  Array.iteri
    (fun j p ->
      if not (Graph.equal p want.(j)) then
        fail "player %d: m=%d against the reference's m=%d" j (Graph.m p) (Graph.m want.(j)))
    got;
  let a = Rng.int rl 1_000_000_007 and b = Rng.int rr 1_000_000_007 in
  if a <> b then fail "next partition draw %d against the reference's %d" a b;
  true

let same_players c = same_players_of c (instance c)

(* A player cut again: the input is itself a view, partly read. *)
let nested c () =
  let g = instance c in
  let got, _ = partition c g and want, _ = reference_partition c g in
  Array.iteri
    (fun j p ->
      for v = 0 to Graph.n p - 1 do
        if v mod 5 = j mod 5 then ignore (Graph.neighbors p v)
      done;
      let again = { c with part = Dup 0.3; k = 3; seed = c.seed + j } in
      let cut, _ = partition again p and cut', _ = reference_partition again want.(j) in
      Array.iteri
        (fun i q ->
          Alcotest.(check bool)
            (Printf.sprintf "player %d, its player %d" j i)
            true
            (Graph.equal q cut'.(i)))
        cut)
    got

(* For every probe, on fresh library partitions: the probe reads each
   player first, or after [neighbors] has read a third of its rows; its
   answer and then every row must be the reference player's.  Last, every
   probe in turn on one more fresh partition, so the later probes read rows
   the earlier ones forced. *)
let accessors_agree c =
  let g = instance c in
  let want, _ = reference_partition c g in
  let probes = probes ~seed:c.seed in
  let expected = Array.map (fun p -> List.map (fun pr -> (pr.name, pr.read g p)) probes) want in
  let check ~after j p pr =
    if pr.read g p <> List.assoc pr.name expected.(j) then
      fail "player %d: %s (%s) differs from the reference" j pr.name after
  in
  List.iter
    (fun first ->
      List.iter
        (fun pretouch ->
          let got, _ = partition c g in
          Array.iteri
            (fun j p ->
              if pretouch then
                for v = 0 to Graph.n p - 1 do
                  if (v + c.seed) mod 3 = 0 then ignore (Graph.neighbors p v)
                done;
              let after = if pretouch then "a third of the rows read" else "first read" in
              check ~after j p first;
              if digest p <> digest want.(j) then
                fail "player %d: rows differ after %s read first" j first.name)
            got)
        [ false; true ])
    probes;
  let got, _ = partition c g in
  Array.iteri (fun j p -> List.iter (check ~after:"in turn" j p) probes) got;
  true

let prop_players =
  QCheck.Test.make ~count:300 ~name:"every partitioner builds the reference's players and draws"
    (QCheck.make ~print:print_case gen_case)
    same_players

let prop_accessors =
  QCheck.Test.make ~count:40
    ~name:"every accessor answers as on the reference, whatever reads first"
    (QCheck.make ~print:print_case gen_case)
    accessors_agree

(* Two domains read every row of the same fresh players at once, each in
   its own order; both must see the reference's rows. *)
let two_domains c () =
  let g = instance c in
  let want, _ = reference_partition c g in
  let expected = Array.map (fun p -> List.init (Graph.n p) (row_text p)) want in
  for round = 1 to 5 do
    let got, _ = partition c g in
    let seen =
      Pool.parallel_init ~jobs:2 2 (fun d ->
          Array.map
            (fun p ->
              let n = Graph.n p in
              let order = perm ~seed:(round + d) n in
              Array.iter (fun v -> ignore (Graph.degree p v)) order;
              List.init n (row_text p))
            got)
    in
    Array.iter
      (fun rows ->
        Array.iteri
          (fun j r ->
            Alcotest.(check (list string))
              (Printf.sprintf "round %d player %d" round j)
              expected.(j) r)
          rows)
      seen
  done

(* Fixed corners the generator reaches only by chance. *)
let cold_build = { family = Service.Far; part = Dup 0.3; n = 2000; d = 24.0; k = 4; seed = 11 }

let corner name c =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) (name ^ ": players") true (same_players c);
      Alcotest.(check bool) (name ^ ": accessors") true (accessors_agree c))

let corners =
  [
    corner "cold-build shape" cold_build;
    corner "empty vertex set" { cold_build with n = 0; part = Disjoint; k = 3 };
    corner "no edges" { cold_build with family = Service.Gnp; n = 40; d = 0.0; part = Dup 0.3 };
    corner "one player" { cold_build with n = 300; k = 1 };
    corner "one player, skewed" { cold_build with n = 300; k = 1; part = Skewed 0.8 };
    corner "one player holds everything" { cold_build with n = 300; part = All_to_one };
    corner "every copy goes out" { cold_build with n = 300; part = Dup 1.0; k = 12 };
    corner "no copy goes out" { cold_build with n = 300; part = Dup 0.0; k = 9 };
    corner "skewed onto player 0" { cold_build with n = 300; part = Skewed 1.0; k = 10 };
    Alcotest.test_case "a player cut again" `Quick (nested { cold_build with n = 300 });
    Alcotest.test_case "two domains read the same players" `Quick (two_domains cold_build);
    Alcotest.test_case "two domains, twelve players" `Quick
      (two_domains { cold_build with n = 600; d = 8.0; part = Dup 0.3; k = 12 });
  ]

let () =
  Alcotest.run "tfree_partition_views"
    [
      ("corners", corners);
      ( "reference",
        [ QCheck_alcotest.to_alcotest prop_players; QCheck_alcotest.to_alcotest prop_accessors ] );
    ]
