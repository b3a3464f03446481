(* tfree-serve — a query service over Unix-domain sockets.

   Every request unit goes through one pipeline: a codec decodes it into
   a {!wire_op} (query | dataset | batch | stats | health | shutdown),
   {!handle} maps the op to a {!wire_reply} plus the number of protocol
   queries it served, and the same codec encodes the reply.  There are
   two codecs: JSON v1 (one JSON value per line, both directions) and
   binary v2 (tagged {!Proto} frames).  The codecs only move bytes; every
   decision — metrics, the registry check, stopping on shutdown — lives
   in [handle], so the two wire versions cannot drift.

   A query names an instance family, an edge partition and a protocol (the
   same enums the tfree CLI exposes) plus size parameters; the server
   builds the instance, runs the protocol through a {!Wire_runtime}
   network — so every charged message crosses a real transport — and
   replies with the verdict, the accounted bits and the measured wire
   traffic, reconciled.  A batch runs many queries over one exchange and
   answers per item, errors included.

   The server is a single-threaded poll event loop: every open connection
   owns a read buffer and a per-unit deadline, so a slow, silent or
   chaos-faulted client costs at most its own connection while the loop
   keeps serving everyone else.  Admission is bounded by [max_clients]; a
   connection over the cap is shed with a typed [overload]-category error,
   never a hang.  Instances and partitions are memoized in a bounded
   {!Tfree_util.Lru} keyed by the request fields that determine them.

   The server is built to degrade, never die: a unit that fails to decode
   gets a structured, categorized error reply and the connection stays
   usable; a client killed mid-request, a reply write into a closed
   socket, or a silent client holding the line past the read deadline
   each cost one categorized error counter and at worst that one
   connection.  SIGPIPE is ignored for the same reason — a dead peer must
   surface as an [EPIPE] result, not a signal.

   The client mirrors this with one {!call} inside a bounded retry
   envelope: transient failures (connection refused, timeouts, garbled or
   truncated replies, server errors in the timeout/transport/overload
   categories) back off exponentially with deterministic jitter and try
   again; structured server rejections (malformed request, unknown op) are
   fatal immediately. *)

open Tfree_util
open Tfree_graph
module Phase = Tfree_obs.Phase
module Mono = Tfree_obs.Mono
module Logger = Tfree_obs.Logger
module Prom = Tfree_obs.Prom
module Trace = Tfree_trace.Trace

(* ------------------------------------------------------ the CLI's enums *)

type family = Far | Free | Hub | Mu | Gnp | Behrend | Diluted
type partition_kind = Disjoint | Dup | Replicate | Skewed | Hash
type protocol = Tfree.Tester.protocol = Unrestricted | Sim | Oblivious | Exact

(* One table per enum, in wire-code order: each value's CLI name sits next
   to its constructor, and its position is its stable v2 code.  Every
   conversion derives from the table, so the CLI, JSON v1 and binary v2
   cannot disagree.  The protocols' table is {!Tfree.Tester.protocols}. *)

let families =
  [
    ("far", Far); ("free", Free); ("hub", Hub); ("mu", Mu); ("gnp", Gnp); ("behrend", Behrend);
    ("diluted", Diluted);
  ]

let partitions =
  [
    ("disjoint", Disjoint); ("dup", Dup); ("replicate", Replicate); ("skewed", Skewed);
    ("hash", Hash);
  ]

(* Lookups by constructor compare with [==] (exact on constant
   constructors) and recurse at top level, so the v2 hot path allocates
   no closure for them. *)
let rec name_in table v =
  match table with
  | (s, x) :: rest -> if x == v then s else name_in rest v
  | [] -> invalid_arg "Service: value missing from its enum table"

let rec code_from i table v =
  match table with
  | (_, x) :: rest -> if x == v then i else code_from (i + 1) rest v
  | [] -> invalid_arg "Service: value missing from its enum table"

(* code -> value, every [Some] built once so a decode allocates none *)
let decoder table =
  let values = Array.of_list (List.map (fun (_, v) -> Some v) table) in
  fun i -> if i >= 0 && i < Array.length values then values.(i) else None

let family_to_string v = name_in families v
let family_of_string s = List.assoc_opt s families
let partition_to_string v = name_in partitions v
let partition_of_string s = List.assoc_opt s partitions
let family_code v = code_from 0 families v
let family_of_code = decoder families
let partition_code v = code_from 0 partitions v
let partition_of_code = decoder partitions
let protocol_code v = code_from 0 Tfree.Tester.protocols v
let protocol_of_code = decoder Tfree.Tester.protocols
let transport_code v = code_from 0 Wire_runtime.kinds v
let transport_of_code = decoder Wire_runtime.kinds

(* ------------------------------------------------------------- builders *)

let build_instance family rng ~n ~d ~eps =
  match family with
  | Far -> Gen.far_with_degree rng ~n ~d ~eps
  | Free -> Gen.free_with_degree rng ~n ~d
  | Hub ->
      Gen.hub_far rng ~n ~hubs:(max 1 (n / 400))
        ~pairs:(max 1 (int_of_float (eps *. float_of_int n *. d /. 2.0)))
  | Mu -> Tfree_lowerbound.Mu_dist.sample rng ~part:(n / 3) ~gamma:2.0
  | Gnp -> Gen.gnp rng ~n ~p:(Float.min 1.0 (d /. float_of_int n))
  | Behrend ->
      (* pick digits/base so 6·(2·base)^digits is near n *)
      let base = max 2 (int_of_float (sqrt (float_of_int n /. 24.0))) in
      (Behrend.instance ~rng ~base ~digits:2 ()).Behrend.graph
  | Diluted ->
      let extra = max 1 (int_of_float (1.0 /. (3.0 *. eps)) - 1) in
      let triangles = max 1 (n / (3 * (1 + extra))) in
      Gen.diluted_far rng ~triangles ~extra_degree:extra

let build_partition kind rng ~k g =
  match kind with
  | Disjoint -> Partition.disjoint_random rng ~k g
  | Dup -> Partition.with_duplication rng ~k ~dup_p:0.3 g
  | Replicate -> Partition.replicate ~k g
  | Skewed -> Partition.skewed rng ~k ~bias:0.8 g
  | Hash -> Partition.by_endpoint_hash rng ~k g

(* ------------------------------------------------------------- requests *)

type request = {
  family : family;
  partition : partition_kind;
  protocol : protocol;
  n : int;
  d : float;
  k : int;
  eps : float;
  seed : int;
  transport : Wire_runtime.kind;
  fault : string;  (** {!Fault.parse} spec injected below the framing; [""] = none *)
}

let default_request =
  {
    family = Far;
    partition = Dup;
    protocol = Oblivious;
    n = 300;
    d = 6.0;
    k = 4;
    eps = 0.1;
    seed = 1;
    transport = Wire_runtime.Pipe;
    fault = "";
  }

type response = {
  verdict : Tfree.Tester.verdict;
  bits : int;
  rounds : int;
  max_message : int;
  wire : Wire_runtime.report;
}

(* ----------------------------------------------------------------- JSON *)

let request_fields r =
  [
    ("family", Jsonout.Str (family_to_string r.family));
    ("partition", Jsonout.Str (partition_to_string r.partition));
    ("protocol", Jsonout.Str (Tfree.Tester.protocol_to_string r.protocol));
    ("n", Jsonout.Num (float_of_int r.n));
    ("d", Jsonout.Num r.d);
    ("k", Jsonout.Num (float_of_int r.k));
    ("eps", Jsonout.Num r.eps);
    ("seed", Jsonout.Num (float_of_int r.seed));
    ("transport", Jsonout.Str (Wire_runtime.kind_to_string r.transport));
    ("fault", Jsonout.Str r.fault);
  ]

let request_to_json r = Jsonout.Obj (request_fields r)

(* A [{"op": "dataset"}] query names a registered graph and carries the
   rest of its request's object: the generator fields (family/n/d) are
   neither sent nor read. *)
let generator_fields = [ "family"; "n"; "d" ]

let dataset_request_to_json ~name r =
  Jsonout.Obj
    (("op", Jsonout.Str "dataset") :: ("name", Jsonout.Str name)
    :: List.filter (fun (key, _) -> not (List.mem key generator_fields)) (request_fields r))

exception Bad of string

let require_object = function
  | Jsonout.Obj _ -> ()
  | _ -> raise (Bad "request must be a JSON object")

let num_field j k default =
  match Jsonout.member k j with
  | None -> default
  | Some v -> (
      match Jsonout.to_float v with
      | Some f -> f
      | None -> raise (Bad (Printf.sprintf "field %S must be a number" k)))

let int_field j k default = int_of_float (num_field j k (float_of_int default))

let str_field j k default =
  match Jsonout.member k j with
  | None -> default
  | Some (Jsonout.Str s) -> s
  | Some _ -> raise (Bad (Printf.sprintf "field %S must be a string" k))

let enum_field j k of_string default =
  match Jsonout.member k j with
  | None -> default
  | Some (Jsonout.Str s) -> (
      match of_string s with
      | Some v -> v
      | None -> raise (Bad (Printf.sprintf "unknown %s %S" k s)))
  | Some _ -> raise (Bad (Printf.sprintf "field %S must be a string" k))

(* Why a query's fault spec does not parse, for every decoder of either
   codec.  The [""] fast path keeps the no-fault hot query from paying a
   [Fault.parse]. *)
let fault_error spec =
  if spec = "" then None
  else match Fault.parse spec with Ok _ -> None | Error msg -> Some ("bad fault spec: " ^ msg)

(* The protocol-side fields of a query object, each defaulting to [r]'s:
   all a dataset query reads, and a generated query's fields but
   family/n/d. *)
let query_fields_of_json j r =
  {
    r with
    partition = enum_field j "partition" partition_of_string r.partition;
    protocol = enum_field j "protocol" Tfree.Tester.protocol_of_string r.protocol;
    k = int_field j "k" r.k;
    eps = num_field j "eps" r.eps;
    seed = int_field j "seed" r.seed;
    transport = enum_field j "transport" Wire_runtime.kind_of_string r.transport;
    fault =
      (let s = str_field j "fault" r.fault in
       match fault_error s with None -> s | Some msg -> raise (Bad msg));
  }

let request_of_json j =
  try
    require_object j;
    let r = query_fields_of_json j default_request in
    Ok
      {
        r with
        family = enum_field j "family" family_of_string r.family;
        n = int_field j "n" r.n;
        d = num_field j "d" r.d;
      }
  with Bad msg -> Error msg

let dataset_request_of_json j =
  try
    require_object j;
    let name =
      match Jsonout.member "name" j with
      | Some (Jsonout.Str "") -> raise (Bad "dataset name must be non-empty")
      | Some (Jsonout.Str s) -> s
      | Some _ -> raise (Bad "field \"name\" must be a string")
      | None -> raise (Bad "dataset request without a \"name\"")
    in
    Ok (name, query_fields_of_json j default_request)
  with Bad msg -> Error msg

let response_to_json r =
  let verdict_fields =
    match r.verdict with
    | Tfree.Tester.Triangle (a, b, c) ->
        [
          ("verdict", Jsonout.Str "triangle");
          ( "witness",
            Jsonout.List
              [
                Jsonout.Num (float_of_int a); Jsonout.Num (float_of_int b);
                Jsonout.Num (float_of_int c);
              ] );
        ]
    | Tfree.Tester.Triangle_free -> [ ("verdict", Jsonout.Str "triangle-free") ]
  in
  let w = r.wire in
  Jsonout.Obj
    (("ok", Jsonout.Bool true)
     :: verdict_fields
    @ [
        ("bits", Jsonout.Num (float_of_int r.bits));
        ("rounds", Jsonout.Num (float_of_int r.rounds));
        ("max_message", Jsonout.Num (float_of_int r.max_message));
        ("wire_bytes", Jsonout.Num (float_of_int w.Wire_runtime.wire_bytes));
        ("frames", Jsonout.Num (float_of_int w.Wire_runtime.frames));
        ("payload_bits", Jsonout.Num (float_of_int w.Wire_runtime.payload_bits));
        ("framing_overhead_bits", Jsonout.Num (float_of_int w.Wire_runtime.framing_overhead_bits));
        ("accounted_bits", Jsonout.Num (float_of_int w.Wire_runtime.accounted_bits));
        ("ratio", Jsonout.Num w.Wire_runtime.ratio);
        ("reconciled", Jsonout.Bool (Wire_runtime.reconciles w));
      ])

let response_of_json j =
  try
    (match Jsonout.member "ok" j with
    | Some (Jsonout.Bool true) -> ()
    | _ ->
        let msg =
          match Jsonout.member "error" j with Some (Jsonout.Str s) -> s | _ -> "server error"
        in
        raise (Bad msg));
    let verdict =
      match Jsonout.member "verdict" j with
      | Some (Jsonout.Str "triangle-free") -> Tfree.Tester.Triangle_free
      | Some (Jsonout.Str "triangle") -> (
          match Jsonout.member "witness" j with
          | Some (Jsonout.List [ a; b; c ]) ->
              let v x =
                match Jsonout.to_float x with
                | Some f -> int_of_float f
                | None -> raise (Bad "witness must be three vertices")
              in
              Tfree.Tester.Triangle (v a, v b, v c)
          | _ -> raise (Bad "triangle verdict without witness"))
      | _ -> raise (Bad "missing verdict")
    in
    let i k = int_field j k 0 in
    Ok
      {
        verdict;
        bits = i "bits";
        rounds = i "rounds";
        max_message = i "max_message";
        wire =
          {
            Wire_runtime.wire_bytes = i "wire_bytes";
            frames = i "frames";
            payload_bits = i "payload_bits";
            framing_overhead_bits = i "framing_overhead_bits";
            accounted_bits = i "accounted_bits";
            ratio = num_field j "ratio" 0.0;
          };
      }
  with Bad msg -> Error msg

(* ------------------------------------------- binary protocol v2 layout *)

(* Protocol v2 carries the same request/reply/batch/stats shapes as the
   JSON lines, as fixed binary layouts inside {!Proto} frames (varint
   length prefix + body + 2-byte checksum).  One tag byte opens every
   body; integers travel as zigzag varints, floats as little-endian
   binary64, strings as varint-length-prefixed bytes.  The layouts are
   fixed — unknown tags and trailing bytes are typed errors, not
   extensions — because a byte stream cannot resync on guesswork.

   Encoding pokes bytes into a caller-owned {!Proto.buf} and decoding
   reads scalars out of a caller-owned {!Proto.cursor}, so the serve hot
   path allocates nothing per query beyond the decoded request record
   itself (the micro benchmark holds this to a [Gc.minor_words] budget).

   Structural failures (bytes missing, varint overflow) raise the typed
   {!Wire_error.Wire_error}; semantic ones (enum code out of range, bad
   fault spec) return [Error msg] so the server can answer a malformed
   frame the way it answers a malformed line — typed reply, connection
   kept. *)

let tag_query = 1
let tag_reply = 2
let tag_error = 3
let tag_batch = 4
let tag_batch_reply = 5
let tag_stats = 6
let tag_stats_reply = 7
let tag_shutdown = 8
let tag_bye = 9
let tag_dataset = 10
let tag_health = 11
let tag_health_reply = 12

(* error categories travel as their index in {!Metrics.all_categories} *)

let category_code category =
  let rec go i = function [] -> 0 | c :: rest -> if c = category then i else go (i + 1) rest in
  go 0 Metrics.all_categories

let category_of_code i =
  match List.nth_opt Metrics.all_categories i with Some c -> c | None -> Metrics.Run_failure

(* The v2 query body, one layout for both query kinds: family, partition,
   protocol and transport bytes, zigzag n, k and seed, f64 d and eps, the
   fault spec.  A dataset query ([generated = false]) skips the generator
   fields (family, n, d); its frame puts the registered name where the
   family byte would be. *)
let put_query b ~generated r =
  if generated then Proto.put_u8 b (family_code r.family);
  Proto.put_u8 b (partition_code r.partition);
  Proto.put_u8 b (protocol_code r.protocol);
  Proto.put_u8 b (transport_code r.transport);
  if generated then Proto.put_zigzag b r.n;
  Proto.put_zigzag b r.k;
  Proto.put_zigzag b r.seed;
  if generated then Proto.put_f64 b r.d;
  Proto.put_f64 b r.eps;
  Proto.put_string b r.fault

(* The semantic half of the v2 query reader: enum codes to values and
   the fault spec checked.  [Error] makes a bad code or fault spec a
   per-request malformed reply, exactly like its JSON twin. *)
let request_of_codes family_c partition_c protocol_c transport_c ~n ~d ~k ~eps ~seed ~fault =
  match (family_of_code family_c, partition_of_code partition_c, protocol_of_code protocol_c,
         transport_of_code transport_c)
  with
  | Some family, Some partition, Some protocol, Some transport -> (
      match fault_error fault with
      | None -> Ok { family; partition; protocol; n; d; k; eps; seed; transport; fault }
      | Some msg -> Error msg)
  | None, _, _, _ -> Error (Printf.sprintf "unknown family code %d" family_c)
  | _, None, _, _ -> Error (Printf.sprintf "unknown partition code %d" partition_c)
  | _, _, None, _ -> Error (Printf.sprintf "unknown protocol code %d" protocol_c)
  | _, _, _, None -> Error (Printf.sprintf "unknown transport code %d" transport_c)

(* The reader of {!put_query}'s layout; a skipped generator field takes
   {!default_request}'s value.  Structural reads happen unconditionally (a
   failure raises and fails the whole frame) before the semantic checks. *)
let get_query cur ~generated =
  let r = default_request in
  let family_c = if generated then Proto.get_u8 cur else family_code r.family in
  let partition_c = Proto.get_u8 cur in
  let protocol_c = Proto.get_u8 cur in
  let transport_c = Proto.get_u8 cur in
  let n = if generated then Proto.get_zigzag cur else r.n in
  let k = Proto.get_zigzag cur in
  let seed = Proto.get_zigzag cur in
  let d = if generated then Proto.get_f64 cur else r.d in
  let eps = Proto.get_f64 cur in
  let fault = Proto.get_string cur in
  request_of_codes family_c partition_c protocol_c transport_c ~n ~d ~k ~eps ~seed ~fault

let decode_request_body cur = get_query cur ~generated:true

(* reply body: verdict (+ witness), the counters, the reconciled wire report *)
let put_response b r =
  (match r.verdict with
  | Tfree.Tester.Triangle_free -> Proto.put_u8 b 0
  | Tfree.Tester.Triangle (x, y, z) ->
      Proto.put_u8 b 1;
      Proto.put_zigzag b x;
      Proto.put_zigzag b y;
      Proto.put_zigzag b z);
  Proto.put_zigzag b r.bits;
  Proto.put_zigzag b r.rounds;
  Proto.put_zigzag b r.max_message;
  let w = r.wire in
  Proto.put_zigzag b w.Wire_runtime.wire_bytes;
  Proto.put_zigzag b w.Wire_runtime.frames;
  Proto.put_zigzag b w.Wire_runtime.payload_bits;
  Proto.put_zigzag b w.Wire_runtime.framing_overhead_bits;
  Proto.put_zigzag b w.Wire_runtime.accounted_bits;
  Proto.put_f64 b w.Wire_runtime.ratio

let decode_response_body cur =
  let verdict =
    match Proto.get_u8 cur with
    | 0 -> Tfree.Tester.Triangle_free
    | 1 ->
        let x = Proto.get_zigzag cur in
        let y = Proto.get_zigzag cur in
        let z = Proto.get_zigzag cur in
        Tfree.Tester.Triangle (x, y, z)
    | v -> Wire_error.errorf_corrupt "unknown verdict code %d" v
  in
  let bits = Proto.get_zigzag cur in
  let rounds = Proto.get_zigzag cur in
  let max_message = Proto.get_zigzag cur in
  let wire_bytes = Proto.get_zigzag cur in
  let frames = Proto.get_zigzag cur in
  let payload_bits = Proto.get_zigzag cur in
  let framing_overhead_bits = Proto.get_zigzag cur in
  let accounted_bits = Proto.get_zigzag cur in
  let ratio = Proto.get_f64 cur in
  {
    verdict;
    bits;
    rounds;
    max_message;
    wire =
      {
        Wire_runtime.wire_bytes;
        frames;
        payload_bits;
        framing_overhead_bits;
        accounted_bits;
        ratio;
      };
  }

let encode_query_frame b r =
  Proto.begin_frame b;
  Proto.put_u8 b tag_query;
  put_query b ~generated:true r;
  Proto.end_frame b

let encode_response_frame b r =
  Proto.begin_frame b;
  Proto.put_u8 b tag_reply;
  put_response b r;
  Proto.end_frame b

let put_error b ~category msg =
  Proto.put_u8 b tag_error;
  Proto.put_u8 b (category_code category);
  Proto.put_string b msg

let encode_error_frame b ~category msg =
  Proto.begin_frame b;
  put_error b ~category msg;
  Proto.end_frame b

let encode_batch_frame b reqs =
  Proto.begin_frame b;
  Proto.put_u8 b tag_batch;
  Proto.put_varint b (List.length reqs);
  List.iter (fun r -> put_query b ~generated:true r) reqs;
  Proto.end_frame b

(* A structural failure raises before the name is checked, as in
   {!get_query}. *)
let decode_dataset_request_body cur =
  let name = Proto.get_string cur in
  let req = get_query cur ~generated:false in
  if name = "" then Error "dataset name must be non-empty"
  else Result.map (fun req -> (name, req)) req

let encode_dataset_frame b ~name r =
  Proto.begin_frame b;
  Proto.put_u8 b tag_dataset;
  Proto.put_string b name;
  put_query b ~generated:false r;
  Proto.end_frame b

(* ------------------------------------------------- the instance cache *)

(* The fields of a request that determine the instance and its partition —
   and nothing else.  Protocol, transport and fault spec are deliberately
   absent: two requests that differ only in how the instance is *queried*
   share the cached build.  A dataset-backed instance is keyed by its
   registered name instead of the generator fields.  Correctness of sharing
   rests on the graph and the partition being derived from independent
   seed-determined streams ({!graph_rng}/{!partition_rng}) and the protocol
   run seeding itself off a fresh [~seed], so a cache hit is bit-identical
   to a rebuild. *)
type instance_key =
  | Key_generated of {
      key_family : family;
      key_partition : partition_kind;
      key_n : int;
      key_d : float;
      key_k : int;
      key_eps : float;
      key_seed : int;
    }
  | Key_dataset of { key_name : string; key_partition : partition_kind; key_k : int; key_seed : int }

type instance_cache = (instance_key, Graph.t * Partition.t) Lru.t

let create_cache ?(capacity = 32) () : instance_cache = Lru.create capacity

let key_of_request req =
  Key_generated
    {
      key_family = req.family;
      key_partition = req.partition;
      key_n = req.n;
      key_d = req.d;
      key_k = req.k;
      key_eps = req.eps;
      key_seed = req.seed;
    }

let key_of_dataset_request ~name req =
  Key_dataset { key_name = name; key_partition = req.partition; key_k = req.k; key_seed = req.seed }

(* The graph and the partition come from *independent* seed-determined
   streams.  This is what lets a dataset-backed query (whose graph comes
   off disk, consuming no randomness) partition identically to the
   generated query of the same seed — the byte-identical-replies
   guarantee the dataset tests pin down. *)
let graph_rng seed = Rng.create seed
let partition_rng seed = Rng.create (seed lxor 0x7ea5eed)

(* [g] with [req]'s partition of it. *)
let partitioned req g = (g, build_partition req.partition (partition_rng req.seed) ~k:req.k g)

(* The pair under [key], built by [build] on a miss.  Each call is one
   counted lookup; [metrics] mirrors the hit/miss into the server registry
   so [{"op": "stats"}] can report it. *)
let cached_pair ?cache ?metrics key build =
  match cache with
  | None -> build ()
  | Some c ->
      let hit = Lru.mem c key in
      (match metrics with Some m -> Metrics.record_cache m ~hit | None -> ());
      Lru.find_or_add c key build

let instance_pair ?cache ?metrics req =
  cached_pair ?cache ?metrics (key_of_request req) (fun () ->
      partitioned req
        (build_instance req.family (graph_rng req.seed) ~n:req.n ~d:req.d ~eps:req.eps))

(* The dataset twin: the graph is the registry's memoized load (shared
   across every connection of the daemon), only the partition is built —
   from the same [partition_rng] stream a generated request of this seed
   would use. *)
let dataset_pair ?cache ?metrics ~registry ~name req =
  cached_pair ?cache ?metrics (key_of_dataset_request ~name req) (fun () ->
      partitioned req (Tfree_dataset.Registry.graph registry name))

(* -------------------------------------------------- serve observability *)

(* Ambient per-request observation state.  The serve event loop is
   single-threaded, so one module-level scratch is data-race free; the
   in-process callers (tests, experiments) simply leave tracing and the
   slow-query log off, and still get per-phase histograms through
   [metrics].  [trace] is [Some] only while the loop is handling a
   sampled request unit: it routes protocol messages into the sampled
   timeline and turns the phase timers into {!Trace.span}s. *)
module Obs_ctx = struct
  (* per-phase durations (µs) of the request being handled, for the
     slow-query log's latency breakdown *)
  let scratch = Array.make Phase.count nan

  (* the sampled-request collector, set around a sampled unit *)
  let trace : Trace.t option ref = ref None

  (* accounted bits of every traced run, the trace file's otherData
     reconciliation figure *)
  let traced_bits = ref 0

  (* slow-query log: threshold (µs, on the run phase) and sink *)
  let slow : (float * Logger.t) option ref = ref None
end

(* Time [f] as serve phase [phase]: one histogram sample into [metrics],
   the duration into the slow-query scratch, and — while a sampled trace
   is active — a {!Trace.span} in the request timeline.  Records only
   when [f] returns (an aborted phase is not a completed phase), which is
   what keeps phase counts consistent with served counts. *)
let timed_phase ~metrics phase f =
  let t0 = Mono.now_us () in
  let r =
    match !Obs_ctx.trace with
    | Some _ -> Trace.span (Phase.name phase) f
    | None -> f ()
  in
  let dt = Mono.now_us () -. t0 in
  Metrics.record_phase metrics ~phase ~us:dt;
  Obs_ctx.scratch.(Phase.index phase) <- dt;
  r

(* Emit one slow-query line when the run phase of the query just served
   crossed the threshold: the request key [fields] plus the latency
   breakdown the scratch holds. *)
let maybe_slow_query ~latency_us fields =
  match !Obs_ctx.slow with
  | Some (threshold_us, logger) ->
      let run_us = Obs_ctx.scratch.(Phase.index Phase.Run) in
      if run_us >= threshold_us then
        Logger.log logger Logger.Warn "slow_query"
          (fields
          @ [
              ("run_us", Jsonout.Num run_us);
              ("cache_lookup_us", Jsonout.Num Obs_ctx.scratch.(Phase.index Phase.Cache_lookup));
              ("latency_us", Jsonout.Num latency_us);
            ])
  | None -> ()

(* ---------------------------------------------------------- run a query *)

(* The protocol run itself, shared by the generated and dataset paths and
   by [tfree run --wire] so they can never drift: same network, same
   params, same report shape.  The network is closed even when an injected
   fault aborts the run, so a chaos loop cannot leak descriptors.  [trace]
   additionally routes every protocol message into a trace collector
   (composed before the wire tap, so the ledger the wire reconciles
   against is untouched). *)
let run_protocol ?mode ?trace ~fault req (g, inputs) =
  let net = Wire_runtime.create ~fault ~transport:req.transport ~k:req.k () in
  Fun.protect
    ~finally:(fun () -> Wire_runtime.close net)
    (fun () ->
      let tap =
        match trace with
        | None -> Wire_runtime.tap net
        | Some tr -> Tfree_comm.Channel.compose_all [ Trace.tap tr; Wire_runtime.tap net ]
      in
      let params = Tfree.Params.(with_eps practical req.eps) in
      let report =
        Tfree.Tester.run ?mode ~tap ~seed:req.seed params ~d:(Graph.avg_degree g) req.protocol
          inputs
      in
      let wire = Wire_runtime.report net ~accounted_bits:report.Tfree.Tester.bits in
      {
        verdict = report.Tfree.Tester.verdict;
        bits = report.Tfree.Tester.bits;
        rounds = report.Tfree.Tester.rounds;
        max_message = report.Tfree.Tester.max_message;
        wire;
      })

let parse_fault_spec ~who spec =
  match Fault.parse spec with
  | Ok s -> s
  | Error msg -> invalid_arg (Printf.sprintf "%s: bad fault spec: %s" who msg)

(* The numbers a query must get right before any instance is built: eps
   in (0, 1] and at least one player. *)
let check_query req =
  match Tfree.Params.check_eps req.eps with
  | Ok () when req.k < 1 -> Error (Printf.sprintf "k must be at least 1, got %d" req.k)
  | checked -> checked

(* [req]'s fault schedule; [Invalid_argument] naming [who] when [req] cannot run. *)
let checked_schedule ~who req =
  match check_query req with
  | Ok () -> parse_fault_spec ~who req.fault
  | Error msg -> invalid_arg (who ^ ": " ^ msg)

let run_request ?cache ?metrics req =
  let fault = checked_schedule ~who:"run_request" req in
  run_protocol ~fault req (instance_pair ?cache ?metrics req)

(* Byte-identical to the generated path when the dataset holds the graph
   {!graph_rng} would build: partition and protocol derive from the same
   streams a generated request uses. *)
let run_dataset_request ?cache ?metrics ~registry ~name req =
  let fault = checked_schedule ~who:"run_dataset_request" req in
  run_protocol ~fault req (dataset_pair ?cache ?metrics ~registry ~name req)

(* One served protocol query, timed and recorded: [instance] fetches the
   graph/partition pair (the cache_lookup phase), [req] carries the
   protocol-side fields, [fields] are the slow-query log's request key.
   [Ok resp] is one served query (the unit the [max_requests] budget
   measures); [Error (category, msg)] was already recorded under its
   category.  A wire fault keeps its own category (timeout/transport) so
   an operator can tell chaos from bad input; a typed dataset failure (the
   file vanished or rotted under the manifest) is a [Run_failure] with its
   own message — the request was well-formed, the server's data was not.
   An eps outside (0, 1] is [Malformed], refused before any instance is
   built, whichever codec or request kind carried it; so is a k below 1. *)
let run_core ~metrics ~version ~instance ~fields req =
  let t0 = Mono.now_us () in
  let phased () =
    (match check_query req with Ok () -> () | Error msg -> raise (Bad msg));
    let fault = parse_fault_spec ~who:"serve" req.fault in
    let pair = timed_phase ~metrics Phase.Cache_lookup instance in
    (* A sampled trace only accounts clean runs: an injected fault aborts
       mid-protocol and would leave a half timeline. *)
    let trace = match !Obs_ctx.trace with Some tr when req.fault = "" -> Some tr | _ -> None in
    (trace, timed_phase ~metrics Phase.Run (fun () -> run_protocol ?trace ~fault req pair))
  in
  match phased () with
  | trace, resp ->
      Metrics.record_query ~version metrics
        ~protocol:(Tfree.Tester.protocol_to_string req.protocol)
        ~found_triangle:
          (match resp.verdict with
          | Tfree.Tester.Triangle _ -> true
          | Tfree.Tester.Triangle_free -> false)
        ~wire_bytes:resp.wire.Wire_runtime.wire_bytes
        ~accounted_bits:resp.wire.Wire_runtime.accounted_bits
        ~latency_us:(Mono.now_us () -. t0);
      (match trace with
      | Some _ -> Obs_ctx.traced_bits := !Obs_ctx.traced_bits + resp.wire.Wire_runtime.accounted_bits
      | None -> ());
      maybe_slow_query ~latency_us:(Mono.now_us () -. t0)
        (("protocol", Jsonout.Str (Tfree.Tester.protocol_to_string req.protocol)) :: fields);
      Ok resp
  | exception Bad msg ->
      Metrics.record_error metrics ~category:Metrics.Malformed;
      Error (Metrics.Malformed, msg)
  | exception Wire_error.Wire_error k ->
      let category =
        Option.value ~default:Metrics.Run_failure
          (Metrics.category_of_name (Wire_error.category k))
      in
      Metrics.record_error metrics ~category;
      Error (category, Wire_error.message k)
  | exception Tfree_dataset.Dataset_error.Dataset_error kind ->
      Metrics.record_error metrics ~category:Metrics.Run_failure;
      Error (Metrics.Run_failure, "dataset: " ^ Tfree_dataset.Dataset_error.message kind)
  | exception e ->
      Metrics.record_error metrics ~category:Metrics.Run_failure;
      Error (Metrics.Run_failure, Printexc.to_string e)

(* ---------------------------------------------------- the request algebra *)

(* Every request unit either version carries, and every reply.  A batch
   item that decoded structurally but not semantically (unknown enum, bad
   fault spec, not an object) stays [Error msg]: it fails alone while the
   rest of the batch runs.  Clients only ever send [Ok] items. *)
type wire_op =
  | Op_query of request
  | Op_dataset of { name : string; req : request }
  | Op_batch of (request, string) result list
  | Op_stats
  | Op_health
  | Op_shutdown

type wire_reply =
  | R_response of response
  | R_error of (Metrics.error_category * string)
  | R_batch of (response, Metrics.error_category * string) result list
  | R_stats of Jsonout.t
  | R_health of Jsonout.t
  | R_bye

(* Why a unit did not decode.  A dataset op with a bad body is kept apart
   because the registry check comes first: without a registry the op is
   unknown, whatever its body. *)
type decode_error = Undecodable of Metrics.error_category * string | Bad_dataset of string

let sendable = function
  | Ok req -> req
  | Error _ -> invalid_arg "Service: a batch item that failed to decode cannot be sent"

(* Time the encoding of one served response as the encode phase, when the
   caller keeps phase metrics. *)
let encoding ?metrics f =
  match metrics with Some m -> timed_phase ~metrics:m Phase.Encode f | None -> f ()

(* ------------------------------------------------------- codec: JSON v1 *)

let error_obj ~category msg =
  Jsonout.Obj
    [
      ("ok", Jsonout.Bool false);
      ("error", Jsonout.Str msg);
      ("category", Jsonout.Str (Metrics.category_name category));
    ]

let batch_request_to_json reqs =
  Jsonout.Obj
    [ ("op", Jsonout.Str "batch"); ("requests", Jsonout.List (List.map request_to_json reqs)) ]

let op_to_json = function
  | Op_query req -> request_to_json req
  | Op_dataset { name; req } -> dataset_request_to_json ~name req
  | Op_batch items -> batch_request_to_json (List.map sendable items)
  | Op_stats -> Jsonout.Obj [ ("op", Jsonout.Str "stats") ]
  | Op_health -> Jsonout.Obj [ ("op", Jsonout.Str "health") ]
  | Op_shutdown -> Jsonout.Obj [ ("cmd", Jsonout.Str "shutdown") ]

let op_of_json j =
  let malformed msg = Error (Undecodable (Metrics.Malformed, msg)) in
  match (Jsonout.member "cmd" j, Jsonout.member "op" j) with
  | Some (Jsonout.Str "shutdown"), _ -> Ok Op_shutdown
  | Some (Jsonout.Str c), _ -> malformed (Printf.sprintf "unknown command %S" c)
  | Some _, _ -> malformed "cmd must be a string"
  | None, Some (Jsonout.Str "stats") -> Ok Op_stats
  | None, Some (Jsonout.Str "health") -> Ok Op_health
  | None, Some (Jsonout.Str "batch") -> (
      match Jsonout.member "requests" j with
      | Some (Jsonout.List items) -> Ok (Op_batch (List.map request_of_json items))
      | Some _ -> malformed "batch field \"requests\" must be a list"
      | None -> malformed "batch without a \"requests\" list")
  | None, Some (Jsonout.Str "dataset") -> (
      match dataset_request_of_json j with
      | Ok (name, req) -> Ok (Op_dataset { name; req })
      | Error msg -> Error (Bad_dataset msg))
  | None, Some (Jsonout.Str o) ->
      Error (Undecodable (Metrics.Unknown_op, Printf.sprintf "unknown op %S" o))
  | None, Some _ -> malformed "op must be a string"
  | None, None -> (
      match request_of_json j with Ok req -> Ok (Op_query req) | Error msg -> malformed msg)

let op_of_line line =
  match Jsonout.parse line with
  | Error msg -> Error (Undecodable (Metrics.Malformed, "bad JSON: " ^ msg))
  | Ok j -> op_of_json j

let reply_to_json ?metrics reply =
  let ok fields = Jsonout.Obj (("ok", Jsonout.Bool true) :: fields) in
  let item = function
    | Ok resp -> encoding ?metrics (fun () -> response_to_json resp)
    | Error (category, msg) -> error_obj ~category msg
  in
  match reply with
  | R_response resp -> item (Ok resp)
  | R_error (category, msg) -> item (Error (category, msg))
  | R_batch items ->
      ok
        [
          ("count", Jsonout.Num (float_of_int (List.length items)));
          ("results", Jsonout.List (List.map item items));
        ]
  | R_stats stats -> ok [ ("stats", stats) ]
  | R_health health -> ok [ ("health", health) ]
  | R_bye -> ok [ ("bye", Jsonout.Bool true) ]

(* A v1 error object's category and message; an unknown category is
   fatal to a client, like the run failures. *)
let error_of_json j =
  let msg = match Jsonout.member "error" j with Some (Jsonout.Str s) -> s | _ -> "server error" in
  let category =
    match Jsonout.member "category" j with
    | Some (Jsonout.Str name) ->
        Option.value ~default:Metrics.Run_failure (Metrics.category_of_name name)
    | _ -> Metrics.Run_failure
  in
  (category, msg)

let is_error j = Jsonout.member "ok" j = Some (Jsonout.Bool false)

(* v1 replies carry no tag: the op that was sent says which shape to read.
   [Error] describes a reply that does not fit it. *)
let reply_of_json ~op j =
  if is_error j then Ok (R_error (error_of_json j))
  else
    match op with
    | Op_query _ | Op_dataset _ -> Result.map (fun resp -> R_response resp) (response_of_json j)
    | Op_batch _ -> (
        match Jsonout.member "results" j with
        | Some (Jsonout.List items) ->
            Ok
              (R_batch
                 (List.map
                    (fun item ->
                      if is_error item then Error (error_of_json item)
                      else
                        Result.map_error
                          (fun msg -> (Metrics.Transport, "garbled batch item: " ^ msg))
                          (response_of_json item))
                    items))
        | _ -> Error "batch reply without results")
    | Op_stats -> (
        match Jsonout.member "stats" j with
        | Some stats -> Ok (R_stats stats)
        | None -> Error "stats reply without stats")
    | Op_health -> (
        match Jsonout.member "health" j with
        | Some health -> Ok (R_health health)
        | None -> Error "health reply without health")
    | Op_shutdown -> Ok R_bye

(* ----------------------------------------------------- codec: binary v2 *)

let encode_op_frame b op =
  let tag_only tag =
    Proto.begin_frame b;
    Proto.put_u8 b tag;
    Proto.end_frame b
  in
  match op with
  | Op_query req -> encode_query_frame b req
  | Op_dataset { name; req } -> encode_dataset_frame b ~name req
  | Op_batch items -> encode_batch_frame b (List.map sendable items)
  | Op_stats -> tag_only tag_stats
  | Op_health -> tag_only tag_health
  | Op_shutdown -> tag_only tag_shutdown

(* [cur] covers one frame body, tag onward.  A structural failure — the
   frame passed its checksum but its layout is garbled — is a malformed
   unit whose message starts "bad frame: "; the frame boundary is known,
   so the connection survives.  A batch decodes whole before any item
   runs. *)
let decode_op cur =
  let bad_frame k = "bad frame: " ^ Wire_error.message k in
  let malformed msg = Error (Undecodable (Metrics.Malformed, msg)) in
  match Proto.get_u8 cur with
  | exception Wire_error.Wire_error k -> malformed (bad_frame k)
  | tag -> (
      let ended op =
        Proto.expect_end cur;
        Ok op
      in
      try
        if tag = tag_query then (
          match decode_request_body cur with
          | Error msg -> malformed msg
          | Ok req -> ended (Op_query req))
        else if tag = tag_batch then begin
          let count = Proto.get_varint cur in
          let items = ref [] in
          for _ = 1 to count do
            items := decode_request_body cur :: !items
          done;
          ended (Op_batch (List.rev !items))
        end
        else if tag = tag_stats then ended Op_stats
        else if tag = tag_health then ended Op_health
        else if tag = tag_shutdown then ended Op_shutdown
        else if tag = tag_dataset then (
          match decode_dataset_request_body cur with
          | Error msg -> Error (Bad_dataset msg)
          | Ok (name, req) -> ended (Op_dataset { name; req }))
        else Error (Undecodable (Metrics.Unknown_op, Printf.sprintf "unknown frame tag %d" tag))
      with Wire_error.Wire_error k ->
        if tag = tag_dataset then Error (Bad_dataset (bad_frame k)) else malformed (bad_frame k))

let encode_reply_frame ?metrics b reply =
  let framed tag put =
    Proto.begin_frame b;
    Proto.put_u8 b tag;
    put ();
    Proto.end_frame b
  in
  match reply with
  | R_response resp -> encoding ?metrics (fun () -> encode_response_frame b resp)
  | R_error (category, msg) -> encode_error_frame b ~category msg
  | R_batch items ->
      framed tag_batch_reply (fun () ->
          Proto.put_varint b (List.length items);
          List.iter
            (function
              | Ok resp ->
                  encoding ?metrics (fun () ->
                      Proto.put_u8 b tag_reply;
                      put_response b resp)
              | Error (category, msg) -> put_error b ~category msg)
            items)
  | R_stats stats -> framed tag_stats_reply (fun () -> Proto.put_string b (Jsonout.to_string stats))
  | R_health health ->
      framed tag_health_reply (fun () -> Proto.put_string b (Jsonout.to_string health))
  | R_bye -> framed tag_bye ignore

(* The all-ok batch reply, byte-identical to the server's when every item
   serves — the load generator re-encodes expected replies with this to
   account the server's per-version byte gauge exactly. *)
let encode_batch_reply_frame b resps = encode_reply_frame b (R_batch (List.map Result.ok resps))

(* [cur] covers one reply frame body; [Error] is the garbled layout. *)
let decode_reply cur =
  let json what s =
    match Jsonout.parse s with
    | Ok j -> j
    | Error msg -> Wire_error.errorf_corrupt "bad %s JSON in frame: %s" what msg
  in
  let error () =
    let category = category_of_code (Proto.get_u8 cur) in
    (category, Proto.get_string cur)
  in
  let ended reply =
    Proto.expect_end cur;
    reply
  in
  try
    let tag = Proto.get_u8 cur in
    Ok
      (if tag = tag_reply then ended (R_response (decode_response_body cur))
       else if tag = tag_error then ended (R_error (error ()))
       else if tag = tag_batch_reply then begin
         let count = Proto.get_varint cur in
         let items = ref [] in
         for _ = 1 to count do
           let sub = Proto.get_u8 cur in
           items :=
             (if sub = tag_reply then Ok (decode_response_body cur)
              else if sub = tag_error then Error (error ())
              else Wire_error.errorf_corrupt "unknown batch item tag %d" sub)
             :: !items
         done;
         ended (R_batch (List.rev !items))
       end
       else if tag = tag_stats_reply then ended (R_stats (json "stats" (Proto.get_string cur)))
       else if tag = tag_health_reply then ended (R_health (json "health" (Proto.get_string cur)))
       else if tag = tag_bye then ended R_bye
       else Wire_error.errorf_corrupt "unknown reply tag %d" tag)
  with Wire_error.Wire_error k -> Error (Wire_error.message k)

(* ------------------------------------------------------------ the handler *)

(* The [{"op": "health"}] payload: the registry's O(1) scalars plus the
   instance cache's occupancy — no verdict/dataset table walk, no
   histogram walk, so a prober's poll never contends with serving. *)
let health_payload ?cache metrics =
  let entries, capacity =
    match cache with Some c -> (Lru.length c, Lru.capacity c) | None -> (0, 0)
  in
  match Metrics.health_json metrics with
  | Jsonout.Obj fields ->
      Jsonout.Obj
        (fields
        @ [
            ( "cache",
              Jsonout.Obj
                [
                  ("entries", Jsonout.Num (float_of_int entries));
                  ("capacity", Jsonout.Num (float_of_int capacity));
                ] );
          ])
  | j -> j

(* One decoded unit -> its reply and how many protocol queries it served
   (the unit the [max_requests] budget and the served counter measure —
   0 or 1 for a single op, up to the item count for a batch).  The only
   place that records metrics, checks the registry and sets [stop].
   Every failure replies with a structured, categorized error recorded
   under that category; inside a batch, failures are per item, each
   exactly the reply the request would have gotten on its own.
   [version] feeds the per-version served gauge. *)
let handle ?cache ?registry ~metrics ~stop ~version decoded =
  let fail category msg =
    Metrics.record_error metrics ~category;
    (R_error (category, msg), 0)
  in
  let no_registry () = fail Metrics.Unknown_op "no dataset registry configured" in
  let run_query req =
    run_core ~metrics ~version req
      ~instance:(fun () -> instance_pair ?cache ~metrics req)
      ~fields:
        [
          ("family", Jsonout.Str (family_to_string req.family));
          ("partition", Jsonout.Str (partition_to_string req.partition));
          ("n", Jsonout.Num (float_of_int req.n));
          ("k", Jsonout.Num (float_of_int req.k));
          ("seed", Jsonout.Num (float_of_int req.seed));
        ]
  in
  let single = function
    | Ok resp -> (R_response resp, 1)
    | Error (category, msg) -> (R_error (category, msg), 0)
  in
  match decoded with
  | Error (Undecodable (category, msg)) -> fail category msg
  | Error (Bad_dataset msg) ->
      if Option.is_none registry then no_registry () else fail Metrics.Malformed msg
  | Ok (Op_query req) -> single (run_query req)
  | Ok (Op_dataset { name; req }) -> (
      match registry with
      | None -> no_registry ()
      | Some reg ->
          if Tfree_dataset.Registry.find reg name = None then
            fail Metrics.Malformed (Printf.sprintf "unknown dataset %S" name)
          else
            let outcome =
              run_core ~metrics ~version req
                ~instance:(fun () -> dataset_pair ?cache ~metrics ~registry:reg ~name req)
                ~fields:
                  [
                    ("dataset", Jsonout.Str name);
                    ("k", Jsonout.Num (float_of_int req.k));
                    ("seed", Jsonout.Num (float_of_int req.seed));
                  ]
            in
            if Result.is_ok outcome then Metrics.record_dataset metrics ~name;
            single outcome)
  | Ok (Op_batch items) ->
      Metrics.record_batch metrics ~items:(List.length items);
      let results =
        List.map
          (function
            | Ok req -> run_query req
            | Error msg ->
                Metrics.record_error metrics ~category:Metrics.Malformed;
                Error (Metrics.Malformed, msg))
          items
      in
      (R_batch results, List.length (List.filter Result.is_ok results))
  | Ok Op_stats -> (R_stats (Metrics.to_json metrics), 0)
  | Ok Op_health -> (R_health (health_payload ?cache metrics), 0)
  | Ok Op_shutdown ->
      stop := true;
      (R_bye, 0)

(* decode -> handle -> encode for one request unit: the decode is the
   parse phase, each served response's encoding the encode phase. *)
let serve_unit ?cache ?registry ~metrics ~stop ~version ~decode ~encode input =
  let decoded = timed_phase ~metrics Phase.Parse (fun () -> decode input) in
  let reply, served = handle ?cache ?registry ~metrics ~stop ~version decoded in
  (encode reply, served)

let handle_line ?cache ?registry ~metrics ~stop ?(version = 1) line =
  serve_unit ?cache ?registry ~metrics ~stop ~version ~decode:op_of_line
    ~encode:(fun reply -> Jsonout.to_line (reply_to_json ~metrics reply))
    line

(* ------------------------------------------------------------ transport *)

(* Write every byte of [data[off, off+len)]: the one write loop of both
   ends. *)
let write_bytes fd data off len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd data (off + !sent) (len - !sent)
  done

let write_string fd s = write_bytes fd (Bytes.unsafe_of_string s) 0 (String.length s)

(* Reply-level fault injection over one encoded reply [data[off, off+len)]:
   the [op]-th reply the server writes (0-based across the whole server
   lifetime) suffers the scheduled fault.  [Drop] and [Close] cost the
   client its connection; [Corrupt] flips one bit inside [region] — a
   line's body without its newline, a frame's bytes past its length
   varint — so the reply stays delimited and the client reads a complete
   unit that fails to parse or to checksum; [Truncate] sends a proper
   prefix and closes; [Delay] holds the reply [amount] milliseconds;
   [Partial] splits the write in two (same bytes — the client must not
   notice).  Every firing bumps the injected-fault tally, never the error
   counters: the fault is ours.

   The second component reports whether the reply landed byte-intact
   ([Delay] and [Partial] reorder time, not bytes) — the condition under
   which the exchange's traffic counts toward the per-version byte gauge,
   so the gauge reconciles exactly against what a client's successful
   exchanges measured. *)
let inject_reply ~metrics ~fault ~op fd data ~off ~len ~region:(region_off, region_len) =
  match Fault.find fault op with
  | None ->
      write_bytes fd data off len;
      (`Keep, true)
  | Some kind -> (
      Metrics.incr metrics Metrics.Injected;
      match kind with
      | Fault.Drop | Fault.Close -> (`Close, false)
      | Fault.Corrupt { bit } ->
          Fault.flip_bit data ~off:region_off ~len:region_len bit;
          write_bytes fd data off len;
          (`Keep, false)
      | Fault.Truncate { keep } ->
          write_bytes fd data off (min (max keep 0) (max 0 (len - 1)));
          (`Close, false)
      | Fault.Delay { amount } ->
          Unix.sleepf (float_of_int (max amount 0) /. 1000.0);
          write_bytes fd data off len;
          (`Keep, true)
      | Fault.Partial { at } ->
          let cut = max 1 (min at (len - 1)) in
          write_bytes fd data off cut;
          write_bytes fd data (off + cut) (len - cut);
          (`Keep, true))

(* One open connection in the event loop: its descriptor, the reader
   holding bytes that do not yet form a complete unit (its cursor covers
   the body of the frame being served), the preallocated scratch a binary
   reply is encoded into, the wire-protocol version the connection
   negotiated (0 until the first byte decides), and the wall-clock
   instant by which the next request unit must arrive.  The reader
   shrinks back to a small default once a large request has been taken,
   so one near-cap line or batch does not pin megabytes for the
   connection's lifetime. *)
type conn = {
  conn_fd : Unix.file_descr;
  rd : Proto.reader;
  wbuf : Proto.buf;
  mutable version : int;
  mutable deadline : float;
  mutable conn_open : bool;
  (* µs timestamp of the first buffered byte of the request unit being
     assembled; nan between units.  Feeds the read-phase histogram. *)
  mutable read_start : float;
}

(* A connection that streams garbage without newlines must not grow its
   buffer forever; past this it is shed with a malformed error. *)
let max_line_bytes = 8 * 1024 * 1024

(* Bind, listen and unblock one Unix-domain listener at [path], replacing
   any stale socket file there.  The socket is bound under a temporary
   name and renamed into place once it listens: a connect between a bind
   at [path] and its listen is refused, and a client (or a test fixture)
   that sees [path] must be able to connect. *)
let bind_listener ~backlog path =
  let tmp = path ^ ".tmp" in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind sock (Unix.ADDR_UNIX tmp);
     Unix.listen sock backlog;
     (* poll may report the listener readable for a connection that was
        aborted before we accept; nonblocking turns that race into EAGAIN *)
     Unix.set_nonblock sock;
     Unix.rename tmp path
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e);
  sock

(* The event loop proper, over an already-bound [listener]: a poll-based
   ({!Evpoll}, no FD_SETSIZE ceiling) single-threaded loop serving every
   open connection plus the accept source.  Returns the number of queries
   served; the caller owns listener cleanup. *)
let run_event_loop ~listener ~max_clients ?max_requests ~line_timeout_s ~fault ~cache_capacity
    ~max_version ?registry ?logger ?slow_us ~trace_sample ?trace_out ?metrics_file
    ~metrics_interval_s ~who () =
  let metrics = Metrics.create () in
  let stop = ref false in
  let log level event fields =
    match logger with Some lg -> Logger.log lg level event fields | None -> ()
  in
  let jnum v = Jsonout.Num (float_of_int v) in
  Obs_ctx.slow :=
    (match (logger, slow_us) with Some lg, Some thr -> Some (thr, lg) | _ -> None);
  Obs_ctx.traced_bits := 0;
  let tracer =
    match trace_out with Some _ when trace_sample > 0 -> Some (Trace.create ()) | _ -> None
  in
  let units_seen = ref 0 and units_sampled = ref 0 in
  (* Run the handling of one request unit; every [trace_sample]-th unit
     runs under the sampled collector, so its phases and protocol
     messages land in the request timeline. *)
  let observe_unit f =
    match tracer with
    | Some tr when !units_seen mod max 1 trace_sample = 0 ->
        incr units_seen;
        incr units_sampled;
        Obs_ctx.trace := Some tr;
        Fun.protect
          ~finally:(fun () -> Obs_ctx.trace := None)
          (fun () -> Trace.with_collector tr f)
    | _ ->
        incr units_seen;
        f ()
  in
  let dump_metrics () =
    match metrics_file with
    | None -> ()
    | Some file -> (
        let tmp = file ^ ".tmp" in
        try
          Out_channel.with_open_text tmp (fun oc ->
              Out_channel.output_string oc (Prom.of_stats (Metrics.to_json metrics)));
          Sys.rename tmp file;
          log Logger.Debug "metrics_dump" [ ("file", Jsonout.Str file) ]
        with Sys_error msg -> log Logger.Error "metrics_dump_failed" [ ("error", Jsonout.Str msg) ])
  in
  let next_dump =
    ref
      (match metrics_file with
      | None -> infinity
      | Some _ -> Unix.gettimeofday () +. Float.max 0.1 metrics_interval_s)
  in
  log Logger.Info "start"
    [
      ("path", Jsonout.Str who);
      ("max_clients", jnum max_clients);
      ("cache_capacity", jnum cache_capacity);
    ];
  let cache = if cache_capacity <= 0 then None else Some (create_cache ~capacity:cache_capacity ()) in
  let served = ref 0 and reply_op = ref 0 in
  let budget_left () = match max_requests with None -> true | Some m -> !served < m in
  let conns = ref [] in
  let transport_error () = Metrics.record_error metrics ~category:Metrics.Transport in
  let close_conn c =
    if c.conn_open then begin
      c.conn_open <- false;
      try Unix.close c.conn_fd with Unix.Unix_error _ -> ()
    end
  in
  let prune () =
    let live = List.filter (fun c -> c.conn_open) !conns in
    conns := live;
    Metrics.set_in_flight metrics (List.length live)
  in
  let accept_one lsock =
    match Unix.accept lsock with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | fd, _ ->
        if List.length !conns >= max_clients then begin
          (* shed: a typed refusal, then close — the client sees a reply,
             not a hang, and its retry loop treats overload as transient *)
          Metrics.incr metrics Metrics.Shed;
          Metrics.record_error metrics ~category:Metrics.Overload;
          log Logger.Warn "shed" [ ("max_clients", jnum max_clients) ];
          (try
             write_string fd
               (Jsonout.to_line
                  (error_obj ~category:Metrics.Overload
                     (Printf.sprintf "server at capacity (%d clients); retry later" max_clients))
               ^ "\n")
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Metrics.incr metrics Metrics.Accepted;
          conns :=
            {
              conn_fd = fd;
              rd = Proto.reader ();
              wbuf = Proto.create_buf ();
              version = 0;
              deadline = Unix.gettimeofday () +. line_timeout_s;
              conn_open = true;
              read_start = nan;
            }
            :: !conns;
          Metrics.set_in_flight metrics (List.length !conns);
          log Logger.Debug "accept" [ ("in_flight", jnum (List.length !conns)) ]
        end
  in
  (* [reply] encoded in [c]'s wire protocol: the bytes to write and the
     region a [Corrupt] fault may flip.  A connection still negotiating
     (version 0) is answered in JSON. *)
  let encode_for c reply =
    if c.version >= 2 then begin
      let b = c.wbuf in
      encode_reply_frame ~metrics b reply;
      let off = Proto.frame_off b and len = Proto.frame_len b in
      let varint_len = len - (Proto.frame_body_len b + 2) in
      (Proto.storage b, off, len, (off + varint_len, len - varint_len))
    end
    else
      let line = Jsonout.to_line (reply_to_json ~metrics reply) in
      let n = String.length line in
      (Bytes.of_string (line ^ "\n"), 0, n + 1, (0, n))
  in
  (* Write [c] a categorized error — best-effort: the peer may already be
     gone. *)
  let write_error_conn c ~category msg =
    log Logger.Warn "request_error"
      [
        ("category", Jsonout.Str (Metrics.category_name category)); ("detail", Jsonout.Str msg);
      ];
    try
      let data, off, len, _ = encode_for c (R_error (category, msg)) in
      write_bytes c.conn_fd data off len
    with Unix.Unix_error _ -> ()
  in
  (* One request unit fully assembled out of [c]'s socket: one read-phase
     sample from the first buffered byte to now.  [remaining] > 0 means
     the next unit's bytes are already buffered, so its read began now;
     otherwise the clock re-arms on the next readable event. *)
  let note_unit_read c ~remaining =
    if not (Float.is_nan c.read_start) then begin
      let now = Mono.now_us () in
      Metrics.record_phase metrics ~phase:Phase.Read ~us:(now -. c.read_start);
      Obs_ctx.scratch.(Phase.index Phase.Read) <- now -. c.read_start;
      c.read_start <- (if remaining > 0 then now else nan)
    end
  in
  (* Serve one unit of [c] ([decode] reads it into an op) and route
     the reply through the fault schedule; tally the served queries and —
     when the reply landed byte-intact — credit the exchange's
     request+reply bytes to the connection's wire-protocol version, so
     stats reconcile exactly against what the client's successful
     exchanges measured. *)
  let serve_conn_unit c decode ~request_bytes =
    match
      serve_unit ?cache ?registry ~metrics ~stop ~version:(max 1 c.version) ~decode
        ~encode:(encode_for c) ()
    with
    | exception e ->
        Metrics.record_error metrics ~category:Metrics.Run_failure;
        write_error_conn c ~category:Metrics.Run_failure (Printexc.to_string e);
        close_conn c
    | (data, off, len, region), nserved -> (
        let op = !reply_op in
        incr reply_op;
        match
          timed_phase ~metrics Phase.Write (fun () ->
              inject_reply ~metrics ~fault ~op c.conn_fd data ~off ~len ~region)
        with
        | exception Unix.Unix_error _ ->
            (* the peer closed before the reply landed *)
            transport_error ();
            close_conn c
        | action, clean ->
            served := !served + nserved;
            if clean && nserved > 0 then
              Metrics.record_version_bytes metrics
                ~version:(max 1 c.version)
                ~bytes:(request_bytes + len);
            if action = `Close then close_conn c)
  in
  (* One request unit of [len] bytes taken off [c]'s reader: note its read
     time, roll the deadline forward and serve it while the budget
     lasts. *)
  let serve_taken c decode len =
    note_unit_read c ~remaining:(Proto.buffered c.rd);
    c.deadline <- Unix.gettimeofday () +. line_timeout_s;
    if budget_left () then observe_unit (fun () -> serve_conn_unit c decode ~request_bytes:len)
  in
  (* A hello offering [offered]: answer [min offered max_version].  One
     offering version 0 is a typed malformed error answered with a
     version-0 hello; the connection then falls back to v1 and stays
     usable.  Handshake bytes are not a request unit: they are excluded
     from the per-version byte gauges, from the fault schedule's reply
     numbering (so op indices line up across versions) and from the read
     phase, whose clock re-arms without recording. *)
  let negotiate c offered =
    c.read_start <- (if Proto.buffered c.rd > 0 then Mono.now_us () else nan);
    c.deadline <- Unix.gettimeofday () +. line_timeout_s;
    let negotiated = if offered < 1 then 0 else min offered max_version in
    if negotiated = 0 then Metrics.record_error metrics ~category:Metrics.Malformed;
    match write_string c.conn_fd (Proto.hello negotiated) with
    | () -> c.version <- max 1 negotiated
    | exception Unix.Unix_error _ ->
        transport_error ();
        close_conn c
  in
  (* Serve every complete unit buffered for [c] ({!Proto.next} splits
     them: while the connection negotiates, a first byte of {!Proto.magic}
     opens the version hello and anything else a JSON line, which makes
     the connection v1); keep the unfinished tail for the next readable
     event.  A stream-level framing error — garbage or oversized length
     prefix, checksum mismatch — is unrecoverable (a byte stream cannot
     resync), so it costs a transport error and the connection; a frame
     that passes its checksum but decodes badly is answered with the
     connection kept. *)
  let drain c =
    let scanning = ref true in
    while !scanning && c.conn_open && not !stop do
      match Proto.next c.rd ~version:c.version with
      | exception Wire_error.Wire_error k ->
          transport_error ();
          write_error_conn c ~category:Metrics.Transport
            ("unrecoverable frame stream: " ^ Wire_error.message k);
          close_conn c
      | Proto.Pending ->
          if Proto.buffered c.rd > max_line_bytes then begin
            Metrics.record_error metrics ~category:Metrics.Malformed;
            write_error_conn c ~category:Metrics.Malformed
              (if c.version >= 2 then "request frame too long" else "request line too long");
            close_conn c
          end;
          scanning := false
      | Proto.Hello offered -> negotiate c offered
      | Proto.Line line ->
          c.version <- 1;
          serve_taken c (fun () -> op_of_line line) (String.length line + 1)
      | Proto.Frame len -> serve_taken c (fun () -> decode_op (Proto.body c.rd)) len
    done
  in
  let on_eof c =
    (* the client died mid-line (or mid-frame); a half request is not a
       request *)
    if Proto.buffered c.rd > 0 then transport_error ();
    close_conn c
  in
  let service_conn c =
    match Proto.fill c.rd c.conn_fd with
    | exception Unix.Unix_error _ ->
        transport_error ();
        close_conn c
    | Proto.Eof -> on_eof c
    | Proto.Again -> ()
    | Proto.Data ->
        if Float.is_nan c.read_start then c.read_start <- Mono.now_us ();
        drain c
  in
  let expire_deadlines now =
    List.iter
      (fun c ->
        if c.conn_open && c.deadline <= now then begin
          Metrics.record_error metrics ~category:Metrics.Timeout;
          write_error_conn c ~category:Metrics.Timeout "read timed out";
          close_conn c
        end)
      !conns
  in
  while (not !stop) && budget_left () do
    let now = Unix.gettimeofday () in
    expire_deadlines now;
    if now >= !next_dump then begin
      dump_metrics ();
      next_dump := now +. Float.max 0.1 metrics_interval_s
    end;
    prune ();
    let timeout =
      List.fold_left (fun acc c -> Float.min acc (c.deadline -. now)) Float.infinity !conns
    in
    let timeout = Float.min timeout (!next_dump -. now) in
    let timeout = if timeout = Float.infinity then -1.0 else Float.max 0.0 timeout in
    let fds = listener :: List.map (fun c -> c.conn_fd) !conns in
    (* Evpoll absorbs EINTR (empty ready set) and has no FD_SETSIZE cap,
       so a large descriptor count cannot EINVAL the loop. *)
    let ready = Evpoll.wait_in fds ~timeout_s:timeout in
    if List.mem listener ready then accept_one listener;
    List.iter
      (fun c ->
        if c.conn_open && (not !stop) && budget_left () && List.mem c.conn_fd ready then (
          try service_conn c
          with _ ->
            transport_error ();
            close_conn c))
      !conns;
    prune ()
  done;
  List.iter close_conn !conns;
  prune ();
  dump_metrics ();
  (match (trace_out, tracer) with
  | Some file, Some tr -> (
      let json =
        Trace.to_chrome tr
          ~other:[ ("accounted_bits", Jsonout.Num (float_of_int !Obs_ctx.traced_bits)) ]
      in
      try
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (Jsonout.to_string json));
        log Logger.Info "trace_written"
          [ ("file", Jsonout.Str file); ("sampled_units", jnum !units_sampled) ]
      with Sys_error msg -> log Logger.Error "trace_write_failed" [ ("error", Jsonout.Str msg) ])
  | _ -> ());
  log Logger.Info "shutdown" [ ("served", jnum !served) ];
  Obs_ctx.slow := None;
  !served

let serve ?(backlog = 64) ?(max_clients = 64) ?max_requests ?(line_timeout_s = 30.0)
    ?(fault = []) ?(cache_capacity = 32) ?(max_version = Proto.max_version) ?registry ?logger
    ?slow_us ?(trace_sample = 0) ?trace_out ?metrics_file ?(metrics_interval_s = 5.0) ~path () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sock = bind_listener ~backlog path in
  let finish () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    try Unix.unlink path with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      run_event_loop ~listener:sock ~max_clients ?max_requests ~line_timeout_s ~fault
        ~cache_capacity ~max_version ?registry ?logger ?slow_us ~trace_sample ?trace_out
        ?metrics_file ~metrics_interval_s ~who:path ())

(* ---------------------------------------------------------------- client *)

let with_connection ~path f =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      f sock)

(* Is a structured error reply worth retrying?  Only when its category
   describes the wire or the server's load, not the request: timeout,
   transport and overload pass, everything else is the server telling us
   the request itself is wrong. *)
let classify_category category =
  match category with
  | Metrics.Timeout | Metrics.Transport | Metrics.Overload -> `Transient
  | Metrics.Malformed | Metrics.Unknown_op | Metrics.Run_failure -> `Fatal

(* The exceptions any attempt can surface, classified transient: the
   server may be restarting, shedding load, or mid-fault. *)
let guard_attempt f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (e, fn, _) ->
      Error (`Transient, Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Wire_error.Wire_error k -> Error (`Transient, Wire_error.message k)

(* Send a request, ignoring a closed socket: a server that shed this
   connection wrote its typed reply before closing, and the read that
   follows finds that reply (or the close). *)
let send sock data off len =
  try write_bytes sock data off len
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()

(* The next unit the server sends over [r] ([version] as in
   {!Proto.next}), read in chunks under [deadline].  Poll-backed like
   every deadline read: a client library living in a process with >=
   FD_SETSIZE descriptors open must not crash in select.  A line that
   reaches the v2 frame cap is [`Too_long]: the largest honest reply is a
   fraction of it. *)
let rec receive r sock ~deadline ~version =
  match Proto.next r ~version with
  | Proto.Pending when version < 2 && Proto.buffered r >= Proto.max_frame_bytes -> `Too_long
  | Proto.Pending ->
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then `Timeout
      else if not (Evpoll.readable sock ~timeout_s:remaining) then
        (* timeout or EINTR: re-check the deadline and wait again *)
        receive r sock ~deadline ~version
      else (
        match Proto.fill r sock with
        | Proto.Eof -> `Closed
        | Proto.Data | Proto.Again -> receive r sock ~deadline ~version)
  | taken -> `Unit taken

(* Offer the server our best version and classify its answer.  A server
   that does not speak the handshake still answers *something* — most
   usefully the overload-shed JSON error line — so a line is interpreted
   as a v1 reply; its typed category keeps the retry classification (an
   overload shed stays transient with the server's own message). *)
let client_hello r sock ~deadline =
  let hello = Proto.hello Proto.max_version in
  send sock (Bytes.unsafe_of_string hello) 0 (String.length hello);
  let transient msg = Error (`Transient, msg) in
  match receive r sock ~deadline ~version:0 with
  | `Timeout -> transient "handshake timed out"
  | `Closed -> transient "server closed during handshake"
  | `Unit (Proto.Hello ((1 | 2) as v)) -> Ok v
  | `Unit (Proto.Hello 0) -> Error (`Fatal, "server refused the protocol handshake")
  | `Unit (Proto.Hello v) -> transient (Printf.sprintf "server negotiated unknown version %d" v)
  | `Unit (Proto.Line line) -> (
      match Jsonout.parse line with
      | Ok j when is_error j ->
          let category, msg = error_of_json j in
          Error (classify_category category, msg)
      | Ok _ | Error _ -> transient "garbled handshake reply")
  | `Too_long | `Unit (Proto.Frame _ | Proto.Pending) -> transient "garbled handshake reply"

(* One exchange on a connected socket speaking [version]: a JSON line
   (v1) or a frame (v2) out, the reply in through [r]. *)
let exchange r sock ~deadline ~version op =
  (if version >= 2 then begin
     let b = Proto.create_buf () in
     encode_op_frame b op;
     send sock (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b)
   end
   else
     let line = Jsonout.to_line (op_to_json op) ^ "\n" in
     send sock (Bytes.unsafe_of_string line) 0 (String.length line));
  match receive r sock ~deadline ~version with
  | `Closed -> Error (`Transient, "server closed the connection")
  | `Timeout -> Error (`Transient, "reply timed out")
  | `Too_long ->
      Error
        ( `Transient,
          Printf.sprintf "garbled reply: reply line reached the %d-byte cap" Proto.max_frame_bytes )
  | `Unit (Proto.Line reply) -> (
      match Jsonout.parse reply with
      | Error msg -> Error (`Transient, "bad reply JSON: " ^ msg)
      | Ok j ->
          Result.map_error (fun msg -> (`Transient, "garbled reply: " ^ msg)) (reply_of_json ~op j))
  | `Unit (Proto.Frame _) ->
      Result.map_error (fun msg -> (`Transient, msg)) (decode_reply (Proto.body r))
  | `Unit (Proto.Hello _ | Proto.Pending) -> Error (`Transient, "garbled reply: unexpected unit")

(* Does [reply] have the shape [op] asks for?  A mismatch is a garbled
   reply, worth a retry. *)
let fits op reply =
  match (op, reply) with
  | (Op_query _ | Op_dataset _), R_response _ | Op_stats, R_stats _ | Op_health, R_health _ ->
      Ok reply
  | Op_shutdown, _ -> Ok reply
  | Op_batch items, R_batch results when List.length results = List.length items -> Ok reply
  | Op_batch items, R_batch results ->
      Error
        ( `Transient,
          Printf.sprintf "garbled reply: %d results for %d requests" (List.length results)
            (List.length items) )
  | _ -> Error (`Transient, "garbled reply: unexpected frame shape")

(* One attempt at [op] honouring [protocol]: [V1] is the bare JSON line
   path; [V2]/[Auto] shake hands first and speak binary frames when the
   server agrees, JSON lines on the same connection when it answers v1.
   A structured error reply is classified transient or fatal. *)
let attempt ~protocol ~timeout_s ~path op =
  guard_attempt (fun () ->
      with_connection ~path (fun sock ->
          let deadline = Unix.gettimeofday () +. timeout_s in
          (* one reader from the hello to the reply *)
          let r = Proto.reader () in
          let version =
            match (protocol : Proto.pref) with
            | Proto.V1 -> Ok 1
            | Proto.V2 | Proto.Auto -> client_hello r sock ~deadline
          in
          match Result.bind version (fun version -> exchange r sock ~deadline ~version op) with
          | Ok (R_error (category, msg)) -> Error (classify_category category, msg)
          | Ok reply -> fits op reply
          | Error e -> Error e))

(* The retry envelope: transient failures back off exponentially
   ([backoff_s · 2^attempt] plus up to 25% jitter, deterministic in
   [backoff_seed]) and try the whole exchange again, tallying each retry in
   [metrics] when given; fatal ones return immediately. *)
let with_retries ~retries ~backoff_s ~backoff_seed ~metrics attempt =
  let rng = Rng.create (0xc11e47 + (31 * backoff_seed)) in
  let rec go n =
    match attempt () with
    | Ok v -> Ok v
    | Error (`Fatal, msg) -> Error msg
    | Error (`Transient, msg) ->
        if n >= retries then Error msg
        else begin
          (match metrics with Some m -> Metrics.incr m Metrics.Retries | None -> ());
          let base = backoff_s *. (2.0 ** float_of_int n) in
          Unix.sleepf (base +. (base *. 0.25 *. Rng.float rng));
          go (n + 1)
        end
  in
  go 0

(* SIGPIPE is ignored here as in {!serve}: a request written into a
   socket the server already closed (an overload shed) must surface as
   [EPIPE], which {!send} absorbs, not kill the calling process. *)
let call ?(timeout_s = 30.0) ?(retries = 0) ?(backoff_s = 0.05) ?(backoff_seed = 0) ?metrics
    ?(protocol = Proto.Auto) ~path op =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  with_retries ~retries ~backoff_s ~backoff_seed ~metrics (fun () ->
      attempt ~protocol ~timeout_s ~path op)

(* The client_* wrappers: one op each, projected out of the reply {!call}
   already checked against the op's shape. *)
let project f = function
  | Ok reply -> (
      match f reply with Some v -> Ok v | None -> Error "garbled reply: unexpected frame shape")
  | Error msg -> Error msg

let client_query ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path req =
  project
    (function R_response resp -> Some resp | _ -> None)
    (call ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path (Op_query req))

let client_dataset ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path ~name req =
  project
    (function R_response resp -> Some resp | _ -> None)
    (call ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path
       (Op_dataset { name; req }))

let client_batch ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path reqs =
  project
    (function R_batch items -> Some (List.map (Result.map_error snd) items) | _ -> None)
    (call ?timeout_s ?retries ?backoff_s ?backoff_seed ?metrics ?protocol ~path
       (Op_batch (List.map Result.ok reqs)))

let client_stats ?timeout_s ?protocol ~path () =
  project
    (function R_stats stats -> Some stats | _ -> None)
    (call ?timeout_s ?protocol ~path Op_stats)

let client_health ?timeout_s ?protocol ~path () =
  project
    (function R_health health -> Some health | _ -> None)
    (call ?timeout_s ?protocol ~path Op_health)

let client_shutdown ?protocol ~path () = ignore (call ?protocol ~path Op_shutdown)
