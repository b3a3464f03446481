(* Dataset smoke behind the @dataset-smoke alias — the lib/dataset
   pipeline end to end, deterministic in its seeds:

     1. import: a DIMACS fixture parses, snapshots, and registers in a
        fresh manifest; the manifest round-trips through Registry.load;
        a generated dataset (the service's generator stream) registers
        alongside it with its gen parameters recorded.

     2. scale: a >= 1M-edge corpus renders as an edge list, re-parses to
        the identical graph, snapshots, and loads back measurably faster
        than regenerating it.

     3. serve: a forked tfree-serve daemon loads the manifest and answers
        {"op": "dataset"} over JSON v1 and binary v2 with responses equal
        to each other and to the in-process run, byte-identical (v1 line)
        to the equivalent generated-instance query, and a repeat query
        must hit the instance cache; the stats telemetry must reconcile
        the per-dataset served gauge, the cache counters and the
        per-version split. *)

open Tfree_graph
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Snapshot = Tfree_dataset.Snapshot
module Dimacs = Tfree_dataset.Dimacs
module Edgelist = Tfree_dataset.Edgelist
module Registry = Tfree_dataset.Registry
module Fixture = Tfree_fixture

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("dataset_smoke: " ^ msg); exit 1) fmt

let dir =
  let d = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "tfree-dataset-smoke-%d" (Unix.getpid ())) in
  Unix.mkdir d 0o700;
  d

let cleanup () =
  Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) (Sys.readdir dir);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let in_dir f = Filename.concat dir f
let manifest = in_dir "datasets.json"
let same_graph a b = String.equal (Snapshot.encode a) (Snapshot.encode b)

(* the generated twin of the "gen" dataset: far n=300 d=6 seed=5 on the
   service's generator stream, so dataset and generated queries agree *)
let gen_n = 300
let gen_d = 6.0
let gen_seed = 5
let gen_graph () = Service.build_instance Service.Far (Service.graph_rng gen_seed) ~n:gen_n ~d:gen_d ~eps:0.1

(* ---------- part 1: import + manifest round trip ---------- *)

let fixture_dimacs =
  "c dataset_smoke fixture: K4 plus a pendant\n\
   p edge 5 7\n\
   e 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\ne 4 5\n"

let import () =
  let reg = Registry.create ~dir () in
  (* the DIMACS fixture, imported the way `tfree dataset import` does it *)
  let g_fix = Dimacs.parse_string fixture_dimacs in
  if Graph.n g_fix <> 5 || Graph.m g_fix <> 7 then
    fail "fixture parsed to n=%d m=%d, expected 5/7" (Graph.n g_fix) (Graph.m g_fix);
  Snapshot.save g_fix (in_dir "fixture.tfs");
  Registry.add reg
    { Registry.name = "fixture"; path = "fixture.tfs"; format = Registry.Snapshot;
      n = Graph.n g_fix; m = Graph.m g_fix; gen = None };
  (* the generated dataset, the way `tfree dataset gen` records it *)
  let g_gen = gen_graph () in
  Snapshot.save g_gen (in_dir "gen.tfs");
  Registry.add reg
    { Registry.name = "gen"; path = "gen.tfs"; format = Registry.Snapshot; n = Graph.n g_gen;
      m = Graph.m g_gen;
      gen = Some { Registry.gen_family = "far"; gen_n; gen_d; gen_eps = 0.1; gen_seed } };
  Registry.save reg manifest;
  (* reload: same entries, same graphs *)
  let reg' = Registry.load manifest in
  if List.length (Registry.entries reg') <> 2 then fail "manifest round trip lost entries";
  if not (same_graph g_fix (Registry.graph reg' "fixture")) then
    fail "fixture graph differs after manifest round trip";
  if not (same_graph g_gen (Registry.graph reg' "gen")) then
    fail "gen graph differs after manifest round trip";
  (match Registry.find reg' "gen" with
  | Some { Registry.gen = Some m; _ } when m.Registry.gen_seed = gen_seed -> ()
  | _ -> fail "gen metadata lost in manifest round trip");
  Printf.printf "dataset_smoke: import ok (2 datasets, manifest %s)\n%!" manifest;
  reg'

(* ---------- part 2: the million-edge corpus ---------- *)

let big_corpus reg =
  let n = 260_000 and d = 8.0 and seed = 42 in
  let regen () = Service.build_instance Service.Far (Service.graph_rng seed) ~n ~d ~eps:0.1 in
  let t0 = Unix.gettimeofday () in
  let g = regen () in
  let regen_s = Unix.gettimeofday () -. t0 in
  if Graph.m g < 1_000_000 then fail "big corpus has only %d edges, wanted >= 1M" (Graph.m g);
  (* the text parser at scale: render, stream back, identical graph *)
  let text = Edgelist.to_string g in
  if not (same_graph g (Edgelist.parse_string ~n:(Graph.n g) text)) then
    fail "big corpus edge-list round trip differs";
  Snapshot.save g (in_dir "big.tfs");
  let t1 = Unix.gettimeofday () in
  let loaded = Snapshot.load (in_dir "big.tfs") in
  let load_s = Unix.gettimeofday () -. t1 in
  if not (same_graph g loaded) then fail "big corpus snapshot round trip differs";
  if load_s >= regen_s then
    fail "big snapshot load (%.3fs) not faster than regeneration (%.3fs)" load_s regen_s;
  Registry.add reg
    { Registry.name = "big"; path = "big.tfs"; format = Registry.Snapshot; n = Graph.n g;
      m = Graph.m g;
      gen = Some { Registry.gen_family = "far"; gen_n = n; gen_d = d; gen_eps = 0.1; gen_seed = seed } };
  Registry.save reg manifest;
  Printf.printf
    "dataset_smoke: big corpus ok (m=%d, %d edge-list bytes, snapshot load %.3fs vs regen %.3fs)\n%!"
    (Graph.m g) (String.length text) load_s regen_s

(* ---------- part 3: the daemon ---------- *)

let serve () =
  let registry = Registry.load manifest in
  (* five protocol queries: gen over v2, over v1, a repeat (cache hit),
     the generated twin, and one over the big corpus *)
  Fixture.with_daemon ~tag:"dataset-smoke" ~expect_served:5
    (fun path -> Service.serve ~line_timeout_s:30.0 ~registry ~path ())
    (fun path ->
      (* the generated twin of the "gen" corpus: the same request runs
         over the dataset and as a generated query *)
      let twin =
        { Service.default_request with family = Service.Far; n = gen_n; d = gen_d; seed = gen_seed }
      in
      let ask ?protocol ~name req =
        match Service.client_dataset ?protocol ~path ~name req with
        | Ok r -> r
        | Error msg -> fail "dataset query failed: %s" msg
      in
      let via_v2 = ask ~protocol:Proto.V2 ~name:"gen" twin in
      let via_v1 = ask ~protocol:Proto.V1 ~name:"gen" twin in
      let repeat = ask ~protocol:Proto.V1 ~name:"gen" twin in
      if via_v2 <> via_v1 || via_v1 <> repeat then
        fail "dataset responses differ across wire versions or repeats";
      (* the in-process run and the generated twin, both bit-identical *)
      let local = Service.run_dataset_request ~registry ~name:"gen" twin in
      if via_v1 <> local then fail "served dataset response differs from the in-process run";
      (match Service.client_query ~protocol:Proto.V1 ~path twin with
      | Error msg -> fail "generated twin query failed: %s" msg
      | Ok r ->
          if r <> via_v1 then fail "generated twin response differs from the dataset response");
      (* the big corpus through the daemon *)
      let big = { Service.default_request with seed = 3 } in
      let served_big = ask ~name:"big" big in
      let local_big = Service.run_dataset_request ~registry ~name:"big" big in
      if served_big <> local_big then fail "big-corpus response differs from the in-process run";
      (* telemetry: per-dataset gauge, cache counters, version split *)
      let stat =
        match Service.client_stats ~path () with
        | Ok s -> Fixture.int_at s
        | Error msg -> fail "stats query: %s" msg
      in
      if stat [ "queries_served" ] <> 5 then
        fail "server served %d queries, expected 5" (stat [ "queries_served" ]);
      if stat [ "errors" ] <> 0 then fail "server counted %d errors" (stat [ "errors" ]);
      if stat [ "datasets"; "gen" ] <> 3 then
        fail "datasets gauge served gen %d times, expected 3" (stat [ "datasets"; "gen" ]);
      if stat [ "datasets"; "big" ] <> 1 then
        fail "datasets gauge served big %d times, expected 1" (stat [ "datasets"; "big" ]);
      (* gen misses once then hits twice; the twin shares the graph rng
         but keys separately (one miss); big misses once *)
      let hits = stat [ "cache"; "hits" ] and misses = stat [ "cache"; "misses" ] in
      if hits <> 2 || misses <> 3 then fail "cache hits/misses %d/%d, expected 2/3" hits misses;
      let v_served v = stat [ "protocol_versions"; v; "served" ] in
      if v_served "v1" <> 3 || v_served "v2" <> 2 then
        fail "version split v1=%d v2=%d, expected 3/2" (v_served "v1") (v_served "v2"));
  print_endline "dataset_smoke: serve ok (v1 = v2 = in-process = generated twin; stats reconcile)"

let () =
  Fun.protect ~finally:cleanup (fun () ->
      let reg = import () in
      big_corpus reg;
      serve ());
  print_endline "dataset_smoke: ok"
