(* The traced replay: the served request stream run again in-process, with
   every layer timed from the outside.  Nothing inside the program is
   instrumented — each span is a call into a layer's public functions:

     codec          Service.encode_query_frame / decode_request_body /
                    encode_response_frame / decode_response_body (v2),
                    request_to_json / Jsonout.parse / request_of_json /
                    response_to_json / response_of_json (v1)
     cache          Service.instance_pair ?cache (an LRU of 32, like the
                    daemon's), whose misses contain
     graph          Service.build_instance + Service.build_partition
     core           Tfree.Tester.* with no tap (lib/core over lib/comm)
     wire_runtime   the same tester run under Wire_runtime.create / tap /
                    report / close; its overhead is wired minus bare

   A query's layer times add up to codec + cache + wired run.  The replay
   also times the whole query in one piece — both codec legs around
   Service.run_request on a second cache in the same state — and the ratio
   of the two is the trace coverage. *)

module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Wire = Tfree_wire.Wire_runtime
module Graph = Tfree_graph.Graph
module Jsonout = Tfree_util.Jsonout

type build = { instance_ms : float; partition_ms : float; alloc_mw : float; edges : int }

type sample = {
  hit : bool;
  cache_ms : float;  (** the lookup, builds included on a miss *)
  build : build option;  (** the graph layer, on a miss *)
  core_ms : float;
  core_alloc_mw : float;
  report : Tfree.Tester.report;  (** the bare run's result *)
  wired_ms : float;
  response : Service.response;  (** the wired run's result *)
  v2_us : float;  (** one v2 request+reply round trip *)
  v1_us : float;  (** one v1 request+reply round trip *)
  v2_words : float;  (** minor words of one v2 round trip *)
  codec_us : float;  (** the round trip of the version the query was served on *)
  e2e_ms : float;  (** the same query, in one piece *)
}

let now_ms () = Unix.gettimeofday () *. 1000.0
let alloc_mw () = Gc.allocated_bytes () /. 8.0 /. 1e6

let timed f =
  let t0 = now_ms () in
  let r = f () in
  (r, now_ms () -. t0)

let fail fmt = Printf.ksprintf failwith fmt

(* ----------------------------------------------------------- codec legs *)

let qbuf = Proto.create_buf ()
let rbuf = Proto.create_buf ()
let cur = Proto.cursor ()

(* Seal a frame, then read it back as the peer would. *)
let through_frame b ~tag =
  let off = Proto.frame_off b and len = Proto.frame_len b in
  if Proto.try_frame (Proto.storage b) ~pos:off ~limit:(off + len) cur <> len then
    fail "replay: frame did not consume";
  if Proto.get_u8 cur <> tag then fail "replay: unexpected frame tag"

let v2_request req =
  Service.encode_query_frame qbuf req;
  through_frame qbuf ~tag:Service.tag_query;
  let r = match Service.decode_request_body cur with Ok r -> r | Error m -> fail "replay: %s" m in
  Proto.expect_end cur;
  r

let v2_response resp =
  Service.encode_response_frame rbuf resp;
  through_frame rbuf ~tag:Service.tag_reply;
  let r = Service.decode_response_body cur in
  Proto.expect_end cur;
  r

let parse_with of_json line =
  match Jsonout.parse line with
  | Error m -> fail "replay: %s" m
  | Ok j -> ( match of_json j with Ok v -> v | Error m -> fail "replay: %s" m)

let v1_request req =
  parse_with Service.request_of_json (Jsonout.to_line (Service.request_to_json req))

let v1_response resp =
  parse_with Service.response_of_json (Jsonout.to_line (Service.response_to_json resp))

let legs = function
  | Proto.V1 -> (v1_request, v1_response)
  | Proto.V2 | Proto.Auto -> (v2_request, v2_response)

(* Mean microseconds of [reps] calls. *)
let per_call_us ~reps f =
  let t0 = now_ms () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now_ms () -. t0) *. 1000.0 /. float_of_int reps

(* ------------------------------------------------------- protocol layer *)

let run_tester ?tap (req : Service.request) g inputs =
  let params = Tfree.Params.(with_eps practical req.eps) in
  let seed = req.seed in
  match req.protocol with
  | Service.Unrestricted -> Tfree.Tester.unrestricted ?tap ~seed params inputs
  | Service.Sim -> Tfree.Tester.simultaneous ?tap ~seed params ~d:(Graph.avg_degree g) inputs
  | Service.Oblivious -> Tfree.Tester.simultaneous_oblivious ?tap ~seed params inputs
  | Service.Exact -> Tfree.Tester.exact ?tap ~seed inputs

let run_wired (req : Service.request) g inputs =
  let net = Wire.create ~transport:req.transport ~k:req.k () in
  Fun.protect
    ~finally:(fun () -> Wire.close net)
    (fun () ->
      let r = run_tester ~tap:(Wire.tap net) req g inputs in
      {
        Service.verdict = r.Tfree.Tester.verdict;
        bits = r.Tfree.Tester.bits;
        rounds = r.Tfree.Tester.rounds;
        max_message = r.Tfree.Tester.max_message;
        wire = Wire.report net ~accounted_bits:r.Tfree.Tester.bits;
      })

(* The graph layer alone, rebuilding what the cache just built; the rebuild
   must be identical to the cached pair. *)
let rebuild (req : Service.request) (g, inputs) =
  let a0 = alloc_mw () in
  let g', instance_ms =
    timed (fun () ->
        Service.build_instance req.family (Service.graph_rng req.seed) ~n:req.n ~d:req.d
          ~eps:req.eps)
  in
  let inputs', partition_ms =
    timed (fun () ->
        Service.build_partition req.partition (Service.partition_rng req.seed) ~k:req.k g')
  in
  let alloc_mw = alloc_mw () -. a0 in
  if not (Graph.equal g g' && Array.for_all2 Graph.equal inputs inputs') then
    fail "replay: rebuilt instance differs from the cached one (seed %d)" req.seed;
  { instance_ms; partition_ms; alloc_mw; edges = Graph.m g' }

(* ----------------------------------------------------------- the replay *)

type t = { cache : Service.instance_cache; mirror : Service.instance_cache }

let create () =
  { cache = Service.create_cache ~capacity:32 (); mirror = Service.create_cache ~capacity:32 () }

let replay t (q : Workload.query) =
  let req = q.Workload.req in
  let hits0 = Tfree_util.Lru.hits t.cache in
  let pair, cache_ms = timed (fun () -> Service.instance_pair ~cache:t.cache req) in
  let hit = Tfree_util.Lru.hits t.cache > hits0 in
  let build = if hit then None else Some (rebuild req pair) in
  let g, inputs = pair in
  let a0 = alloc_mw () in
  let report, core_ms = timed (fun () -> run_tester req g inputs) in
  let core_alloc_mw = alloc_mw () -. a0 in
  let response, wired_ms = timed (fun () -> run_wired req g inputs) in
  let v2_us = per_call_us ~reps:16 (fun () -> (v2_request req, v2_response response)) in
  let v1_us = per_call_us ~reps:4 (fun () -> (v1_request req, v1_response response)) in
  let w0 = Gc.minor_words () in
  let decoded = Sys.opaque_identity (v2_request req, v2_response response) in
  let v2_words = Gc.minor_words () -. w0 in
  if fst decoded <> req || v1_request req <> req then fail "replay: request round trip differs";
  let request_leg, response_leg = legs q.Workload.pref in
  let e2e, e2e_ms =
    timed (fun () ->
        let r = request_leg req in
        response_leg (Service.run_request ~cache:t.mirror r))
  in
  if e2e.Service.verdict <> response.Service.verdict || e2e.Service.bits <> response.Service.bits
  then
    fail "replay: Service.run_request disagrees with the layered run (seed %d)" req.seed;
  {
    hit;
    cache_ms;
    build;
    core_ms;
    core_alloc_mw;
    report;
    wired_ms;
    response;
    v2_us;
    v1_us;
    v2_words;
    codec_us = (match q.Workload.pref with Proto.V1 -> v1_us | Proto.V2 | Proto.Auto -> v2_us);
    e2e_ms;
  }

(* Layer self times of one query, in ms: codec, cache (its own work, the
   builds it triggered excluded), graph, core, wire_runtime. *)
let self_times s =
  let graph = match s.build with Some b -> b.instance_ms +. b.partition_ms | None -> 0.0 in
  [
    ("codec", s.codec_us /. 1000.0);
    ("cache", Float.max 0.0 (s.cache_ms -. graph));
    ("graph", graph);
    ("core", s.core_ms);
    ("wire_runtime", Float.max 0.0 (s.wired_ms -. s.core_ms));
  ]

(* Layer times over the in-process end-to-end time of the same query. *)
let coverage s = ((s.codec_us /. 1000.0) +. s.cache_ms +. s.wired_ms) /. s.e2e_ms
