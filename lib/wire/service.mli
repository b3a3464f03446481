(** tfree-serve: a triangle-freeness query service over Unix-domain
    sockets.  Every request unit is decoded into a {!wire_op}, answered by
    one dispatcher with a {!wire_reply}, and encoded back by the same
    codec: JSON v1 (one JSON value per line) or binary v2
    ({!Proto} frames).  A query names an instance family, an edge
    partition and a protocol (the same enums the tfree CLI exposes); the
    reply carries the verdict, the accounted bits and the measured wire
    traffic, reconciled.

    The server is a single-threaded poll event loop: many concurrent
    clients, each with its own read buffer and per-line deadline; bounded
    admission with typed overload shedding; an LRU instance/partition
    cache; and an [{"op": "batch"}] exchange amortizing the framing over
    many queries.  It degrades, never dies: malformed lines, clients
    killed mid-request, silent clients and dead reply sockets each cost
    one categorized {!Metrics} error counter and at worst that one
    connection.  The client retries transient failures with exponential
    backoff and deterministic jitter. *)

open Tfree_util
open Tfree_graph

(** {2 The CLI's enums, shared with [bin/main.ml]} *)

type family = Far | Free | Hub | Mu | Gnp | Behrend | Diluted
type partition_kind = Disjoint | Dup | Replicate | Skewed | Hash

(** The protocol enum and its name table ({!Tfree.Tester.protocols}, in
    the same code order) live with the testers; {!Tfree.Tester.run} runs
    one. *)
type protocol = Tfree.Tester.protocol = Unrestricted | Sim | Oblivious | Exact

(** Each enum's values with their CLI names, in v2 wire-code order: a
    value's position is its code (Far = 0, Disjoint = 0).  The conversions
    below derive from these tables. *)

val families : (string * family) list
val partitions : (string * partition_kind) list
val family_to_string : family -> string
val partition_to_string : partition_kind -> string

(** The instance generators behind the [--instance] flag. *)
val build_instance : family -> Rng.t -> n:int -> d:float -> eps:float -> Graph.t

(** The edge partitions behind the [--partition] flag. *)
val build_partition : partition_kind -> Rng.t -> k:int -> Graph.t -> Partition.t

(** {2 Requests and responses} *)

type request = {
  family : family;
  partition : partition_kind;
  protocol : protocol;
  n : int;
  d : float;
  k : int;
  eps : float;
  seed : int;
  transport : Wire_runtime.kind;  (** transport behind the server's tap *)
  fault : string;
      (** {!Fault.parse} spec injected below the framing of the run's own
          wire network; [""] = none.  Validated when the request parses. *)
}

(** far/dup/oblivious, n=300 d=6 k=4 eps=0.1 seed=1, pipe transport, no
    fault; a request JSON object may omit any field to take its default.

    A [{"op": "dataset"}] query is a registered dataset [name] plus an
    ordinary request: it runs the request's protocol over that graph,
    partitioned by its partition/k under its seed.  The request's
    generator fields (family/n/d) are never read, sent or decoded: a
    decoded dataset query carries {!default_request}'s. *)
val default_request : request

type response = {
  verdict : Tfree.Tester.verdict;
  bits : int;  (** accounted communication (the cost model) *)
  rounds : int;
  max_message : int;  (** {!Tfree.Tester.report}'s max player upload *)
  wire : Wire_runtime.report;  (** measured wire traffic, reconciled *)
}

val request_to_json : request -> Jsonout.t

(** Rejects anything but a JSON object. *)
val request_of_json : Jsonout.t -> (request, string) result

(** The [{"op": "dataset"}] object: the request object without
    family/n/d, after ["op"] and ["name"].  Decoding, a missing field takes
    its default, a generator field is ignored whatever it holds, and
    [name] is required and must be non-empty. *)
val dataset_request_to_json : name:string -> request -> Jsonout.t

val dataset_request_of_json : Jsonout.t -> (string * request, string) result
val response_to_json : response -> Jsonout.t
val response_of_json : Jsonout.t -> (response, string) result

(** The [{"op": "batch", "requests": [...]}] object for a request list. *)
val batch_request_to_json : request list -> Jsonout.t

(** {2 Binary protocol v2 layouts}

    The same shapes as fixed binary layouts inside {!Proto} frames: one
    tag byte, zigzag varints for integers, little-endian binary64 for
    floats, varint-length-prefixed strings.  Encoders poke into a
    caller-owned {!Proto.buf} (sealing a complete frame); decoders read a
    {!Proto.cursor} positioned past the tag byte.  Structural decode
    failures raise {!Wire_error.Wire_error}; semantic ones (enum code out
    of range, bad fault spec) return [Error msg]. *)

val tag_query : int
val tag_reply : int
val tag_batch : int
val tag_dataset : int

val encode_query_frame : Proto.buf -> request -> unit
val encode_dataset_frame : Proto.buf -> name:string -> request -> unit
val encode_batch_frame : Proto.buf -> request list -> unit
val encode_response_frame : Proto.buf -> response -> unit

(** The all-ok batch reply frame, byte-identical to the server's when
    every item serves (used to account wire bytes without a tap). *)
val encode_batch_reply_frame : Proto.buf -> response list -> unit
val decode_request_body : Proto.cursor -> (request, string) result
val decode_dataset_request_body : Proto.cursor -> (string * request, string) result

(** @raise Wire_error.Wire_error on a garbled layout. *)
val decode_response_body : Proto.cursor -> response

(** {2 The instance cache}

    Requests that agree on every instance-determining field share one
    build of the graph and its partition; protocol, transport and fault
    spec are excluded from the key because they only affect how the
    instance is queried.  Generated instances key on family, partition,
    n, d, k, eps and seed; dataset-backed instances key on the dataset
    name, partition, k and seed.  A hit is bit-identical to a rebuild:
    the graph comes from {!graph_rng} (or from disk) and the partition
    from the independent {!partition_rng} stream, and the protocol run
    seeds itself independently. *)

type instance_key
type instance_cache = (instance_key, Graph.t * Partition.t) Lru.t

val create_cache : ?capacity:int -> unit -> instance_cache

(** The graph generator's rng stream for [seed]. *)
val graph_rng : int -> Rng.t

(** The edge partition's rng stream for [seed] — independent of
    {!graph_rng}, so a dataset-backed run (whose graph comes from disk
    and consumes no randomness) partitions identically to a generated
    run of the same seed. *)
val partition_rng : int -> Rng.t

(** The cached instance/partition pair for a request (built on a miss; one
    counted lookup per call, mirrored into [metrics] when given).  Without
    [cache], always builds. *)
val instance_pair : ?cache:instance_cache -> ?metrics:Metrics.t -> request -> Graph.t * Partition.t

(** Run [req]'s protocol on an instance/partition pair over a fresh wire
    network of [req]'s transport and k, under the fault schedule [fault]
    (already parsed from [req.fault] by the caller), and reconcile the
    wire traffic against the accounted bits.  [mode] reaches the
    unrestricted tester (default coordinator); [trace] records every
    protocol message into that collector, ahead of the wire tap.  The
    network is closed however the run ends.  Checks neither eps nor k
    ({!run_request} does).
    @raise Wire_error.Wire_error when a fault aborts the run, or when the
    network cannot be built ({!Wire_runtime.create}). *)
val run_protocol :
  ?mode:Tfree_comm.Runtime.mode ->
  ?trace:Tfree_trace.Trace.t ->
  fault:Fault.schedule ->
  request ->
  Graph.t * Partition.t ->
  response

(** Build the requested instance, run the requested protocol over a wire
    network (under the request's fault schedule, if any), reconcile.
    Deterministic in the request's seed and fault spec — with or without
    [cache], whose hits return the identical graph/partition a rebuild
    would produce; the network is closed even when a fault aborts the run.
    @raise Wire_error.Wire_error when an injected fault aborts the run.
    @raise Invalid_argument on an eps outside (0, 1]
    ({!Tfree.Params.check_eps}) or a k below 1; the server answers such a
    request, on either codec, with that error as a malformed request. *)
val run_request : ?cache:instance_cache -> ?metrics:Metrics.t -> request -> response

(** {!run_request} over a registered dataset: same protocol run, same
    reply shape, graph from the registry instead of a generator.  A
    dataset-backed response is byte-identical to the generated response
    of the same seed when the dataset holds that generator's graph.
    @raise Wire_error.Wire_error when an injected fault aborts the run.
    @raise Tfree_dataset.Dataset_error.Dataset_error on a registry or
    load failure.
    @raise Invalid_argument on an eps outside (0, 1] or a k below 1. *)
val run_dataset_request :
  ?cache:instance_cache ->
  ?metrics:Metrics.t ->
  registry:Tfree_dataset.Registry.t ->
  name:string ->
  request ->
  response

(** {2 The request algebra}

    One op type and one reply type for both wire versions.  Each codec
    decodes a unit into a [wire_op] (a typed {!decode_error} otherwise;
    decoders never raise) and encodes a [wire_reply]; the server's
    dispatcher maps one to the other. *)

(** A batch item that decoded structurally but not semantically stays
    [Error msg] and fails alone; clients only send [Ok] items (the
    encoders reject [Error] ones with [Invalid_argument]). *)
type wire_op =
  | Op_query of request
  | Op_dataset of { name : string; req : request }  (** a registered dataset, see {!default_request} *)
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

(** Why a unit did not decode: answered under the category, or — for a
    dataset op with a bad body — as an unknown op when no registry is
    configured and malformed otherwise. *)
type decode_error = Undecodable of Metrics.error_category * string | Bad_dataset of string

(** JSON v1.  [metrics], when given, times each served response's
    encoding as the encode phase.  v1 replies carry no tag, so
    {!reply_of_json} reads the shape of the [op] that was sent; its
    [Error] describes a reply that does not fit. *)

val op_to_json : wire_op -> Jsonout.t
val op_of_line : string -> (wire_op, decode_error) result
val reply_to_json : ?metrics:Metrics.t -> wire_reply -> Jsonout.t
val reply_of_json : op:wire_op -> Jsonout.t -> (wire_reply, string) result

(** Binary v2: encoders seal a whole frame into the buffer; decoders read
    a cursor over one frame body, tag onward.  A batch decodes whole
    before any item runs. *)

val encode_op_frame : Proto.buf -> wire_op -> unit
val decode_op : Proto.cursor -> (wire_op, decode_error) result
val encode_reply_frame : ?metrics:Metrics.t -> Proto.buf -> wire_reply -> unit
val decode_reply : Proto.cursor -> (wire_reply, string) result

(** {2 Server and client}

    Both ends of a connection read through one {!Proto.reader}: chunked
    reads into one buffer per connection, split by {!Proto.next} into the
    hello answer, a v1 line or a v2 frame.  The daemon fills it once per
    readable event and serves every complete unit; the client fills it
    under its reply deadline ([Evpoll] waits) from the hello to the reply,
    so bytes read past the hello answer are kept.  A client whose request
    write finds the socket closed still reads what the server sent before
    closing — the overload shed's typed reply — and a v1 reply line that
    reaches {!Proto.max_frame_bytes} is refused as a transient garbled
    reply. *)

(** One request line to one reply line against [metrics] — the v1 codec
    around the server's dispatcher, exactly what a socket line gets.  Sets
    [stop] on a shutdown command.  Returns the reply and how many protocol
    queries the line served — 0 or 1 for a plain line, up to the item
    count for an [{"op": "batch"}] line (whose [results] hold one reply
    object per request, in order, per-item errors included).  Every
    failure shape replies with a structured [{"ok": false, "error": ...,
    "category": ...}] and records the error under its
    {!Metrics.error_category}; nothing escapes.  [version] is the
    wire-protocol version of the serving connection (default 1), feeding
    the per-version served gauge.  [registry] enables [{"op": "dataset"}]
    lines; without it they answer a structured unknown-op error, before
    the body is validated. *)
val handle_line :
  ?cache:instance_cache ->
  ?registry:Tfree_dataset.Registry.t ->
  metrics:Metrics.t ->
  stop:bool ref ->
  ?version:int ->
  string ->
  string * int

(** Serve requests on a Unix-domain socket at [path] until a
    [{"cmd": "shutdown"}] line (or [max_requests] successfully served
    protocol queries — batch items each count) arrives.  Returns the
    number of queries served.

    The server is a single-threaded poll event loop ({!Evpoll} — no
    FD_SETSIZE ceiling, so descriptor counts past 1024 are fine): every
    open connection owns a read buffer and a rolling per-line deadline of
    [line_timeout_s] (default 30), so a slow or silent client costs a
    [Timeout] error and its own connection while everyone else keeps being
    served.  [backlog] (default 64) sizes the kernel accept queue; at most
    [max_clients] (default 64) connections are open at once, and one over
    the cap is answered immediately with an [overload]-category error and
    closed — shed, never hung.  Instances are memoized in an LRU of
    [cache_capacity] entries (default 32; [0] disables caching).

    [fault] injects scheduled faults into the server's own replies — the
    op numbers count replies over the server lifetime, in the order the
    loop writes them — for chaos-testing the client retry path; firings
    are tallied as injected faults, not errors.  No client behaviour
    (killed mid-line, flooding garbage, going silent, closing before the
    reply) takes the daemon down.

    A connection's first byte decides its wire protocol: {!Proto.magic}
    opens the version handshake (answered with
    [min requested max_version]; binary v2 frames follow when both sides
    speak it), anything else starts a JSON line and the connection speaks
    v1 unchanged.  [max_version] (default {!Proto.max_version}) caps the
    negotiation; [1] forces every connection onto JSON lines.

    Observability (all off by default): [logger] receives leveled JSONL
    lifecycle events — [start], [accept] (debug), [shed], [request_error]
    (with category and detail), [metrics_dump], [trace_written],
    [shutdown] — plus [slow_query] lines for queries whose run phase
    exceeds [slow_us] microseconds (threshold needs [logger]).
    [trace_sample] > 0 with [trace_out] records every [trace_sample]-th
    request unit as a span timeline (serve phases plus the protocol's own
    message events) written in Chrome trace format to [trace_out] at
    shutdown, with the traced runs' accounted bits in [otherData].
    [metrics_file] is atomically replaced with a Prometheus text
    exposition of the stats every [metrics_interval_s] seconds (default
    5, floored at 0.1) and once more at shutdown. *)
val serve :
  ?backlog:int ->
  ?max_clients:int ->
  ?max_requests:int ->
  ?line_timeout_s:float ->
  ?fault:Fault.schedule ->
  ?cache_capacity:int ->
  ?max_version:int ->
  ?registry:Tfree_dataset.Registry.t ->
  ?logger:Tfree_obs.Logger.t ->
  ?slow_us:float ->
  ?trace_sample:int ->
  ?trace_out:string ->
  ?metrics_file:string ->
  ?metrics_interval_s:float ->
  path:string ->
  unit ->
  int

(** Send one op to a server at [path] and return its reply, checked
    against the op's shape (a batch reply has one item per request).  Waits
    up to [timeout_s] (default 30) for the reply.  Transient failures —
    connection refused, timeouts, truncated or garbled replies, server
    errors in the timeout/transport/overload categories — retry up to
    [retries] (default 0) more times with exponential backoff
    ([backoff_s]·2^attempt, default 50 ms, plus up to 25% jitter
    deterministic in [backoff_seed]); each retry is tallied in [metrics]
    when given.  Structured server rejections (malformed request, unknown
    op) are fatal immediately: a structured error reply never comes back
    as [Ok].

    [protocol] picks the wire protocol (default [Auto]: a magic+version
    handshake, then binary v2 frames when the server speaks v2, JSON v1
    lines otherwise; [V1] skips the handshake entirely, staying
    wire-compatible with pre-v2 servers).  The retry envelope covers the
    handshake.

    Like {!serve}, [call] sets SIGPIPE to ignored for the process: a
    request written after the server closed the connection (an overload
    shed) must not kill the caller, which reads the server's typed reply
    instead. *)
val call :
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_seed:int ->
  ?metrics:Metrics.t ->
  ?protocol:Proto.pref ->
  path:string ->
  wire_op ->
  (wire_reply, string) result

(** The [client_*] wrappers project one op's reply out of {!call}. *)

(** A query's response. *)
val client_query :
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_seed:int ->
  ?metrics:Metrics.t ->
  ?protocol:Proto.pref ->
  path:string ->
  request ->
  (response, string) result

(** A [{"op": "dataset"}] query's response; a server with no dataset
    registry, or an unknown dataset name, answers a structured rejection
    that is fatal immediately. *)
val client_dataset :
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_seed:int ->
  ?metrics:Metrics.t ->
  ?protocol:Proto.pref ->
  path:string ->
  name:string ->
  request ->
  (response, string) result

(** Many requests as one [{"op": "batch"}] exchange, per-item results in
    request order.  The retry envelope covers the whole exchange: a
    garbled, truncated or overload-shed batch reply retries everything,
    while a structured per-item error is that item's final [Error]. *)
val client_batch :
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_seed:int ->
  ?metrics:Metrics.t ->
  ?protocol:Proto.pref ->
  path:string ->
  request list ->
  ((response, string) result list, string) result

(** Fetch the server's telemetry ([{"op": "stats"}] query); returns the
    [stats] object of the reply (see {!Metrics.to_json} for its shape). *)
val client_stats :
  ?timeout_s:float -> ?protocol:Proto.pref -> path:string -> unit -> (Jsonout.t, string) result

(** Fetch the server's cheap liveness payload ([{"op": "health"}] over v1,
    a dedicated frame tag over v2); returns the [health] object: uptime,
    queries served, errors, connection gauges and instance-cache occupancy
    ([cache]) — O(1) scalars, no verdict-table or histogram walk on the
    server. *)
val client_health :
  ?timeout_s:float -> ?protocol:Proto.pref -> path:string -> unit -> (Jsonout.t, string) result

(** Ask a server at [path] to shut down. *)
val client_shutdown : ?protocol:Proto.pref -> path:string -> unit -> unit
