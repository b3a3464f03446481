(** Service telemetry registry for tfree-serve.

    One registry per server process (the client-side retry loop can keep its
    own).  Every served query records its protocol, verdict, wall-clock
    latency and wire traffic; every failed line records an error under one
    of six {!error_category} buckets — malformed input, unknown op, a run
    that raised, an expired read deadline, a transport-level fault, an
    overloaded server shedding a connection — so an operator reading
    [{"op": "stats"}] can tell a misbehaving client from a misbehaving
    network from a saturated daemon.  Injected faults (a [--fault-spec]
    schedule firing) and client retries are tallied separately: they are
    chaos bookkeeping, not service errors.  The event loop also feeds
    connections accepted/shed/in flight, instance-cache hits and misses,
    and batch exchanges and their item counts.  The running totals are
    one [int array] indexed by [slot].

    A serve process's registry is written and read by its one event loop,
    in one domain.  The load generator's clients are forked processes
    that count retries in a registry each and report tally lines.  No
    caller shares a registry across domains, but every mutation and every
    read still takes the registry's mutex, so one could be.  Latency lives
    in bounded {!Tfree_obs.Histogram}s — one for end-to-end query latency,
    one per serve {!Tfree_obs.Phase} — so registry memory is O(buckets) no
    matter how many queries are served, and quantiles (p50/p90/p99/p999)
    cost O(buckets) at render time within the histogram's documented
    precision (exact on empty and single-sample registries: [null] and the
    sample itself). *)

open Tfree_util
open Tfree_obs

type error_category =
  | Malformed  (** unparseable JSON, bad field types, unknown command, bad request values *)
  | Unknown_op  (** an [op] the service does not provide *)
  | Run_failure  (** the protocol run itself raised (not a wire fault) *)
  | Timeout  (** a per-line read deadline expired *)
  | Transport  (** truncated/corrupt/closed connections and other wire faults *)
  | Overload  (** a connection shed because the server was at [--max-clients] *)

let all_categories = [ Malformed; Unknown_op; Run_failure; Timeout; Transport; Overload ]

let category_name = function
  | Malformed -> "malformed"
  | Unknown_op -> "unknown_op"
  | Run_failure -> "run_failure"
  | Timeout -> "timeout"
  | Transport -> "transport"
  | Overload -> "overload"

(** Inverse of {!category_name}; [None] on unknown strings (they used to
    land silently in [Run_failure], which made every typo look like a
    crashed protocol run). *)
let category_of_name = function
  | "malformed" -> Some Malformed
  | "unknown_op" -> Some Unknown_op
  | "run_failure" -> Some Run_failure
  | "timeout" -> Some Timeout
  | "transport" -> Some Transport
  | "overload" -> Some Overload
  | _ -> None

type counter =
  | Queries_served
  | Wire_bytes
  | Accounted_bits
  | Retries
  | Injected
  | Accepted
  | Shed
  | Cache_hits
  | Cache_misses
  | Batches
  | Batch_items

(* A counter's index in [t.counts]. *)
let slot = function
  | Queries_served -> 0
  | Wire_bytes -> 1
  | Accounted_bits -> 2
  | Retries -> 3
  | Injected -> 4
  | Accepted -> 5
  | Shed -> 6
  | Cache_hits -> 7
  | Cache_misses -> 8
  | Batches -> 9
  | Batch_items -> 10

let counter_count = slot Batch_items + 1

type protocol_counts = { mutable triangle : int; mutable triangle_free : int }

type t = {
  mutex : Mutex.t;
  started_at : float;  (** [Unix.gettimeofday] at {!create}; basis of served/sec *)
  counts : int array;  (** indexed by [slot] *)
  error_counts : int array;  (** indexed in [all_categories] order *)
  mutable in_flight : int;  (** gauge: connections currently open *)
  version_served : int array;  (** queries served per wire-protocol version, indexed 1/2 *)
  version_bytes : int array;  (** serve-socket bytes per wire-protocol version, indexed 1/2 *)
  verdicts : (string, protocol_counts) Hashtbl.t;
  datasets : (string, int) Hashtbl.t;  (** [{"op": "dataset"}] queries served, per name *)
  latency : Histogram.t;  (** end-to-end latency, one sample per served query *)
  phases : Histogram.t array;  (** per-{!Tfree_obs.Phase} latency, [Phase.index]-indexed *)
}

(* versions 1..max_wire_version index [version_served]/[version_bytes];
   slot 0 is dead.  Out-of-range versions are clamped into range. *)
let max_wire_version = 2
let version_slot v = if v < 1 then 1 else if v > max_wire_version then max_wire_version else v

(* All histograms in a registry share one precision: 2^-5 ≈ 3.1% relative
   bucket width. *)
let histogram_sub_bits = 5

let create () =
  {
    mutex = Mutex.create ();
    started_at = Unix.gettimeofday ();
    counts = Array.make counter_count 0;
    error_counts = Array.make (List.length all_categories) 0;
    in_flight = 0;
    version_served = Array.make (max_wire_version + 1) 0;
    version_bytes = Array.make (max_wire_version + 1) 0;
    verdicts = Hashtbl.create 8;
    datasets = Hashtbl.create 8;
    latency = Histogram.create ~sub_bits:histogram_sub_bits ();
    phases = Array.init Phase.count (fun _ -> Histogram.create ~sub_bits:histogram_sub_bits ());
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Add [n] to a counter; the caller holds the mutex. *)
let bump t c n =
  let i = slot c in
  t.counts.(i) <- t.counts.(i) + n

let counts_for t protocol =
  match Hashtbl.find_opt t.verdicts protocol with
  | Some c -> c
  | None ->
      let c = { triangle = 0; triangle_free = 0 } in
      Hashtbl.add t.verdicts protocol c;
      c

let record_query ?(version = 1) t ~protocol ~found_triangle ~wire_bytes ~accounted_bits
    ~latency_us =
  locked t (fun () ->
      bump t Queries_served 1;
      bump t Wire_bytes wire_bytes;
      bump t Accounted_bits accounted_bits;
      let s = version_slot version in
      t.version_served.(s) <- t.version_served.(s) + 1;
      let c = counts_for t protocol in
      if found_triangle then c.triangle <- c.triangle + 1
      else c.triangle_free <- c.triangle_free + 1;
      (* A negative or nan latency can only come from a broken clock or a
         broken caller (the serve path times with the clamped
         [Tfree_obs.Mono] source); reject the sample rather than let it
         poison the histogram. *)
      if latency_us >= 0.0 then Histogram.record t.latency latency_us)

let index_of category =
  let rec go i = function
    | [] -> 0
    | c :: rest -> if c = category then i else go (i + 1) rest
  in
  go 0 all_categories

let record_error t ~category =
  locked t (fun () ->
      t.error_counts.(index_of category) <- t.error_counts.(index_of category) + 1)

let incr t c = locked t (fun () -> bump t c 1)
let set_in_flight t n = locked t (fun () -> t.in_flight <- n)
let record_cache t ~hit = locked t (fun () -> bump t (if hit then Cache_hits else Cache_misses) 1)

let record_batch t ~items =
  locked t (fun () ->
      bump t Batches 1;
      bump t Batch_items items)

let dataset_count t name = Option.value (Hashtbl.find_opt t.datasets name) ~default:0
let record_dataset t ~name =
  locked t (fun () -> Hashtbl.replace t.datasets name (dataset_count t name + 1))

let record_version_bytes t ~version ~bytes =
  locked t (fun () ->
      let s = version_slot version in
      t.version_bytes.(s) <- t.version_bytes.(s) + bytes)

let record_phase t ~phase ~us =
  if us >= 0.0 then
    locked t (fun () -> Histogram.record t.phases.(Phase.index phase) us)

let latency_snapshot t = locked t (fun () -> Histogram.copy t.latency)
let phase_count t phase = locked t (fun () -> Histogram.count t.phases.(Phase.index phase))

let count t c = locked t (fun () -> t.counts.(slot c))
let errors_unlocked t = Array.fold_left ( + ) 0 t.error_counts
let errors t = locked t (fun () -> errors_unlocked t)
let errors_in t category = locked t (fun () -> t.error_counts.(index_of category))
let dataset_served t name = locked t (fun () -> dataset_count t name)

let num n = Jsonout.Num (float_of_int n)

(* A table's entries as JSON object fields, sorted by key. *)
let sorted_fields tbl f = Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [] |> List.sort compare

(* Render one histogram as the stats-JSON latency object.  The legacy
   per-sample keys (count/mean/p50/p90/p99) keep their meaning; p999,
   sum, min and max are additive. *)
let histogram_json h =
  let num_or_null v = if Histogram.count h = 0 then Jsonout.Null else Jsonout.Num v in
  Jsonout.Obj
    [
      ("count", num (Histogram.count h));
      ("mean", num_or_null (Histogram.mean h));
      ("sum", Jsonout.Num (Histogram.sum h));
      ("min", num_or_null (Histogram.min_value h));
      ("max", num_or_null (Histogram.max_value h));
      ("p50", num_or_null (Histogram.quantile h 0.5));
      ("p90", num_or_null (Histogram.quantile h 0.9));
      ("p99", num_or_null (Histogram.quantile h 0.99));
      ("p999", num_or_null (Histogram.quantile h 0.999));
    ]

let uptime t = Float.max 1e-9 (Unix.gettimeofday () -. t.started_at)

let to_json t =
  locked t (fun () ->
      let verdicts c =
        Jsonout.Obj [ ("triangle", num c.triangle); ("triangle_free", num c.triangle_free) ]
      in
      let category c = (category_name c, num t.error_counts.(index_of c)) in
      let uptime = uptime t in
      let get c = t.counts.(slot c) in
      let counter c = num (get c) in
      Jsonout.Obj
        [
          ("queries_served", counter Queries_served);
          ("errors", num (errors_unlocked t));
          ("errors_by_category", Jsonout.Obj (List.map category all_categories));
          ("retries", counter Retries);
          ("injected_faults", counter Injected);
          ("wire_bytes", counter Wire_bytes);
          ("accounted_bits", counter Accounted_bits);
          ("uptime_s", Jsonout.Num uptime);
          ("served_per_sec", Jsonout.Num (float_of_int (get Queries_served) /. uptime));
          ("in_flight", num t.in_flight);
          ( "connections",
            Jsonout.Obj
              [
                ("accepted", counter Accepted);
                ("shed", counter Shed);
                ("in_flight", num t.in_flight);
              ] );
          ( "cache",
            Jsonout.Obj
              [
                ("hits", counter Cache_hits);
                ("misses", counter Cache_misses);
                ("lookups", num (get Cache_hits + get Cache_misses));
              ] );
          ("batch", Jsonout.Obj [ ("batches", counter Batches); ("items", counter Batch_items) ]);
          ( "protocol_versions",
            Jsonout.Obj
              (List.init max_wire_version (fun i ->
                   let v = i + 1 in
                   ( Printf.sprintf "v%d" v,
                     Jsonout.Obj
                       [
                         ("served", num t.version_served.(v)); ("bytes", num t.version_bytes.(v));
                       ] ))) );
          ("verdicts", Jsonout.Obj (sorted_fields t.verdicts verdicts));
          ("datasets", Jsonout.Obj (sorted_fields t.datasets num));
          ("latency_us", histogram_json t.latency);
          ( "phases",
            Jsonout.Obj
              (List.map
                 (fun p -> (Phase.name p, histogram_json t.phases.(Phase.index p)))
                 Phase.all) );
        ])

(** Cheap liveness snapshot for [{"op": "health"}]: scalar counters only —
    no hashtable iteration, no histogram walk, no quantile computation —
    so a health probe costs O(1) under the mutex no matter how much the
    registry has accumulated.  (Cache occupancy is the service's to add:
    the LRU lives outside the registry.) *)
let health_json t =
  locked t (fun () ->
      let counter c = num t.counts.(slot c) in
      Jsonout.Obj
        [
          ("uptime_s", Jsonout.Num (uptime t));
          ("queries_served", counter Queries_served);
          ("errors", num (errors_unlocked t));
          ("in_flight", num t.in_flight);
          ("accepted", counter Accepted);
          ("shed", counter Shed);
        ])
