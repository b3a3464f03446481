(** Service telemetry for tfree-serve: queries served, per-protocol verdict
    counts, categorized error counts (malformed / unknown-op / run-failure /
    timeout / transport / overload), retry and injected-fault tallies,
    connection and instance-cache gauges, wire traffic totals and wall-clock
    latency quantiles, exposed through the [{"op": "stats"}] service query.

    Latency (end-to-end and per serve {!Tfree_obs.Phase}) lives in bounded
    {!Tfree_obs.Histogram}s: registry memory is O(buckets) regardless of
    queries served, and quantiles cost O(buckets) within the histogram's
    documented precision.

    A serve process's registry is written and read by its one event loop.
    Nothing shares a registry across domains, but every record and read
    takes an internal mutex, so one could be. *)

type error_category =
  | Malformed  (** unparseable JSON, bad field types, unknown command, bad request values *)
  | Unknown_op  (** an [op] the service does not provide *)
  | Run_failure  (** the protocol run itself raised (not a wire fault) *)
  | Timeout  (** a per-line read deadline expired *)
  | Transport  (** truncated/corrupt/closed connections and other wire faults *)
  | Overload  (** a connection shed because the server was at [--max-clients] *)

val all_categories : error_category list
val category_name : error_category -> string

(** Inverse of {!category_name}; [None] on unknown strings. *)
val category_of_name : string -> error_category option

type t

(** The running totals. *)
type counter =
  | Queries_served  (** protocol queries served *)
  | Wire_bytes  (** transport bytes of all served queries *)
  | Accounted_bits  (** ledger bits of all served queries *)
  | Retries  (** client-side retry attempts (client registries) *)
  | Injected  (** scheduled faults that fired (chaos bookkeeping, not an error) *)
  | Accepted  (** connections the event loop accepted *)
  | Shed  (** connections shed at the [--max-clients] cap (each pairs with an [Overload] error) *)
  | Cache_hits  (** instance-cache lookups answered without a rebuild *)
  | Cache_misses  (** instance-cache lookups that rebuilt *)
  | Batches  (** [{"op": "batch"}] exchanges *)
  | Batch_items  (** requests carried by those exchanges *)

(** A fresh registry; its uptime counts from now. *)
val create : unit -> t

(** Record one successfully served protocol query.  [version] is the wire
    protocol the serving connection negotiated (1 = JSON lines, 2 = binary;
    default 1) and feeds the per-version served gauge.  A negative or nan
    [latency_us] (impossible from the monotonic serve clock, possible from
    a buggy caller) is rejected: the query still counts, the latency
    sample is dropped. *)
val record_query :
  ?version:int ->
  t ->
  protocol:string ->
  found_triangle:bool ->
  wire_bytes:int ->
  accounted_bits:int ->
  latency_us:float ->
  unit

(** Record a failed line under its category. *)
val record_error : t -> category:error_category -> unit

(** Add one to a counter. *)
val incr : t -> counter -> unit

(** Set the open-connections gauge (the event loop updates it on every
    accept and close). *)
val set_in_flight : t -> int -> unit

(** Record one instance-cache lookup. *)
val record_cache : t -> hit:bool -> unit

(** Record one [{"op": "batch"}] exchange carrying [items] requests. *)
val record_batch : t -> items:int -> unit

(** Record one served [{"op": "dataset"}] query against its dataset name
    (on top of the {!record_query} the query also gets). *)
val record_dataset : t -> name:string -> unit

(** Queries served over the named dataset (0 for a name never served). *)
val dataset_served : t -> string -> int

(** Highest wire-protocol version the per-version gauges track. *)
val max_wire_version : int

(** Add [bytes] of serve-socket traffic (request plus reply, as written)
    to [version]'s byte gauge. *)
val record_version_bytes : t -> version:int -> bytes:int -> unit

(** Record one per-phase latency sample (microseconds; negative and nan
    samples are rejected like {!record_query}'s). *)
val record_phase : t -> phase:Tfree_obs.Phase.t -> us:float -> unit

(** Snapshot (deep copy) of the end-to-end latency histogram. *)
val latency_snapshot : t -> Tfree_obs.Histogram.t

(** Samples recorded for one phase. *)
val phase_count : t -> Tfree_obs.Phase.t -> int

val count : t -> counter -> int

(** Total errors across all categories. *)
val errors : t -> int

val errors_in : t -> error_category -> int

(** The stats-query payload: counters, per-category error counts, retry and
    injected-fault tallies, connection gauges ([accepted]/[shed]/
    [in_flight]), instance-cache hit/miss/lookup counts, batch tallies,
    uptime and served-per-second, per-protocol verdict counts, latency
    count/mean/sum/min/max and p50/p90/p99/p999 from the bounded histogram
    ([null] quantiles when no query has been served, the exact sample on a
    single-sample registry), and a ["phases"] object with the same shape
    per serve phase. *)
val to_json : t -> Tfree_util.Jsonout.t

(** Cheap liveness payload for [{"op": "health"}]: uptime, queries served,
    errors, in-flight/accepted/shed — scalar counters only, O(1) under the
    mutex (no hashtable iteration, no histogram walk).  The service layer
    adds cache occupancy. *)
val health_json : t -> Tfree_util.Jsonout.t
