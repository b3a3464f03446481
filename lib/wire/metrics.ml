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
    chaos bookkeeping, not service errors.  The concurrent server also
    feeds gauges: connections accepted/shed/in flight, instance-cache
    hits and misses, batch exchanges and their item counts.

    Every mutation and every read takes the registry's mutex, so one
    registry can be shared by concurrently running clients (the load
    generator fans its per-client tallies into one) or by a server that
    serves connections from several domains.  Latency lives in bounded
    {!Tfree_obs.Histogram}s — one for end-to-end query latency, one per
    serve {!Tfree_obs.Phase} — so registry memory is O(buckets) no matter
    how many queries are served, quantiles (p50/p90/p99/p999) cost
    O(buckets) at render time within the histogram's documented precision
    (exact on empty and single-sample registries: [null] and the sample
    itself), and {!merge} folds histograms exactly, which is what lets
    per-worker registries combine into fleet-wide stats without shipping
    raw samples. *)

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

type protocol_counts = { mutable triangle : int; mutable triangle_free : int }

type t = {
  mutex : Mutex.t;
  started_at : float;  (** [Unix.gettimeofday] at {!create}; basis of served/sec *)
  mutable queries_served : int;
  mutable wire_bytes : int;  (** transport bytes of all served queries *)
  mutable accounted_bits : int;  (** ledger bits of all served queries *)
  error_counts : int array;  (** indexed in [all_categories] order *)
  mutable retries : int;  (** client-side retry attempts (client registries) *)
  mutable injected : int;  (** scheduled faults that fired (chaos runs) *)
  mutable accepted : int;  (** connections the event loop accepted *)
  mutable shed : int;  (** connections refused with an overload error *)
  mutable in_flight : int;  (** gauge: connections currently open *)
  mutable cache_hits : int;  (** instance-cache lookups answered without a rebuild *)
  mutable cache_misses : int;  (** instance-cache lookups that rebuilt *)
  mutable batches : int;  (** [{"op": "batch"}] exchanges *)
  mutable batch_items : int;  (** individual requests carried by those exchanges *)
  version_served : int array;  (** queries served per wire-protocol version, indexed 1/2 *)
  version_bytes : int array;  (** serve-socket bytes per wire-protocol version, indexed 1/2 *)
  verdicts : (string, protocol_counts) Hashtbl.t;
  datasets : (string, int) Hashtbl.t;  (** [{"op": "dataset"}] queries served, per name *)
  latency : Histogram.t;  (** end-to-end latency, one sample per served query *)
  phases : Histogram.t array;  (** per-{!Tfree_obs.Phase} latency, [Phase.index]-indexed *)
}

(* versions 1..max_wire_version index [version_served]/[version_bytes];
   slot 0 is dead.  Out-of-range versions are clamped into range so a
   merge of a registry from a newer build cannot crash an older one. *)
let max_wire_version = 2
let version_slot v = if v < 1 then 1 else if v > max_wire_version then max_wire_version else v

(* All histograms in a registry share one precision so merge never faces a
   sub_bits mismatch; 2^-5 ≈ 3.1% relative bucket width. *)
let histogram_sub_bits = 5

let create ?started_at () =
  {
    mutex = Mutex.create ();
    started_at = (match started_at with Some t -> t | None -> Unix.gettimeofday ());
    queries_served = 0;
    wire_bytes = 0;
    accounted_bits = 0;
    error_counts = Array.make (List.length all_categories) 0;
    retries = 0;
    injected = 0;
    accepted = 0;
    shed = 0;
    in_flight = 0;
    cache_hits = 0;
    cache_misses = 0;
    batches = 0;
    batch_items = 0;
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
      t.queries_served <- t.queries_served + 1;
      t.wire_bytes <- t.wire_bytes + wire_bytes;
      t.accounted_bits <- t.accounted_bits + accounted_bits;
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

let record_retry t = locked t (fun () -> t.retries <- t.retries + 1)
let record_injected t = locked t (fun () -> t.injected <- t.injected + 1)
let record_accept t = locked t (fun () -> t.accepted <- t.accepted + 1)
let record_shed t = locked t (fun () -> t.shed <- t.shed + 1)
let set_in_flight t n = locked t (fun () -> t.in_flight <- n)

let record_cache t ~hit =
  locked t (fun () ->
      if hit then t.cache_hits <- t.cache_hits + 1 else t.cache_misses <- t.cache_misses + 1)

let record_batch t ~items =
  locked t (fun () ->
      t.batches <- t.batches + 1;
      t.batch_items <- t.batch_items + items)

let record_dataset t ~name =
  locked t (fun () ->
      let c = match Hashtbl.find_opt t.datasets name with Some c -> c | None -> 0 in
      Hashtbl.replace t.datasets name (c + 1))

let record_version_bytes t ~version ~bytes =
  locked t (fun () ->
      let s = version_slot version in
      t.version_bytes.(s) <- t.version_bytes.(s) + bytes)

let record_phase t ~phase ~us =
  if us >= 0.0 then
    locked t (fun () -> Histogram.record t.phases.(Phase.index phase) us)

let latency_snapshot t = locked t (fun () -> Histogram.copy t.latency)
let phase_count t phase = locked t (fun () -> Histogram.count t.phases.(Phase.index phase))

let queries_served t = locked t (fun () -> t.queries_served)
let errors_unlocked t = Array.fold_left ( + ) 0 t.error_counts
let errors t = locked t (fun () -> errors_unlocked t)
let errors_in t category = locked t (fun () -> t.error_counts.(index_of category))
let retries t = locked t (fun () -> t.retries)
let injected t = locked t (fun () -> t.injected)
let in_flight t = locked t (fun () -> t.in_flight)
let cache_hits t = locked t (fun () -> t.cache_hits)
let cache_misses t = locked t (fun () -> t.cache_misses)
let batches t = locked t (fun () -> t.batches)
let batch_items t = locked t (fun () -> t.batch_items)
let wire_bytes t = locked t (fun () -> t.wire_bytes)
let accounted_bits t = locked t (fun () -> t.accounted_bits)
let dataset_served t name =
  locked t (fun () -> match Hashtbl.find_opt t.datasets name with Some c -> c | None -> 0)

let version_served t v = locked t (fun () -> t.version_served.(version_slot v))

(** Fold [other]'s counters and histograms into [t] (used by the load
    generator to merge per-client registries into one for reconciliation,
    and by fleet-wide stats to combine per-worker registries).  Histogram
    merge is exact — bucket-wise count addition.  Gauges ([in_flight])
    are not merged. *)
let merge t other =
  (* Lock ordering: always [t] then [other]; callers merge into one
     accumulator from one thread, so this cannot deadlock. *)
  locked t (fun () ->
      locked other (fun () ->
          t.queries_served <- t.queries_served + other.queries_served;
          t.wire_bytes <- t.wire_bytes + other.wire_bytes;
          t.accounted_bits <- t.accounted_bits + other.accounted_bits;
          Array.iteri (fun i n -> t.error_counts.(i) <- t.error_counts.(i) + n) other.error_counts;
          t.retries <- t.retries + other.retries;
          t.injected <- t.injected + other.injected;
          t.accepted <- t.accepted + other.accepted;
          t.shed <- t.shed + other.shed;
          t.cache_hits <- t.cache_hits + other.cache_hits;
          t.cache_misses <- t.cache_misses + other.cache_misses;
          t.batches <- t.batches + other.batches;
          t.batch_items <- t.batch_items + other.batch_items;
          Array.iteri
            (fun i n -> t.version_served.(i) <- t.version_served.(i) + n)
            other.version_served;
          Array.iteri
            (fun i n -> t.version_bytes.(i) <- t.version_bytes.(i) + n)
            other.version_bytes;
          Hashtbl.iter
            (fun protocol c ->
              let mine = counts_for t protocol in
              mine.triangle <- mine.triangle + c.triangle;
              mine.triangle_free <- mine.triangle_free + c.triangle_free)
            other.verdicts;
          Hashtbl.iter
            (fun name c ->
              let mine = match Hashtbl.find_opt t.datasets name with Some c -> c | None -> 0 in
              Hashtbl.replace t.datasets name (mine + c))
            other.datasets;
          Histogram.merge t.latency other.latency;
          Array.iteri (fun i h -> Histogram.merge t.phases.(i) h) other.phases))

(* ------------------------------------------- cross-process snapshots *)

(* A registry serialized for the fleet control channel: every counter,
   both version arrays, the verdict and dataset tables, the start time,
   and each histogram in its exact {!Histogram.to_compact} encoding — so
   [of_wire] round-trips to a registry whose {!merge} into an accumulator
   is indistinguishable from merging the original.  JSON because it is
   cheap to write with {!Jsonout} and the fleet control channel is not a
   hot path (stats pulls, worker exits); the histogram compacts keep the
   bucket counts exact, and {!Jsonout} prints non-integral floats with
   %.17g so [started_at] survives.  Gauges ([in_flight]) travel too:
   merge ignores them, but the fleet parent sums them by hand for the
   fleet-wide gauge. *)

let to_wire t =
  locked t (fun () ->
      let num n = Jsonout.Num (float_of_int n) in
      let ints a = Jsonout.List (Array.to_list (Array.map num a)) in
      let verdicts =
        Hashtbl.fold
          (fun protocol c acc ->
            (protocol, Jsonout.List [ num c.triangle; num c.triangle_free ]) :: acc)
          t.verdicts []
        |> List.sort compare
      in
      let datasets =
        Hashtbl.fold (fun name c acc -> (name, num c) :: acc) t.datasets [] |> List.sort compare
      in
      Jsonout.to_string
        (Jsonout.Obj
           [
             ("started_at", Jsonout.Num t.started_at);
             ("queries_served", num t.queries_served);
             ("wire_bytes", num t.wire_bytes);
             ("accounted_bits", num t.accounted_bits);
             ("errors", ints t.error_counts);
             ("retries", num t.retries);
             ("injected", num t.injected);
             ("accepted", num t.accepted);
             ("shed", num t.shed);
             ("in_flight", num t.in_flight);
             ("cache_hits", num t.cache_hits);
             ("cache_misses", num t.cache_misses);
             ("batches", num t.batches);
             ("batch_items", num t.batch_items);
             ("version_served", ints t.version_served);
             ("version_bytes", ints t.version_bytes);
             ("verdicts", Jsonout.Obj verdicts);
             ("datasets", Jsonout.Obj datasets);
             ("latency", Jsonout.Str (Histogram.to_compact t.latency));
             ( "phases",
               Jsonout.List
                 (Array.to_list
                    (Array.map (fun h -> Jsonout.Str (Histogram.to_compact h)) t.phases)) );
           ]))

exception Bad_wire of string

(* Every counter a snapshot carries is a count: a whole number, at least
   zero, and small enough to survive the trip through a JSON float. *)
let count_of_float f =
  if Float.is_integer f && f >= 0.0 && f <= 0x1p53 then Some (int_of_float f) else None

let of_wire s =
  let fail fmt = Printf.ksprintf (fun m -> raise (Bad_wire m)) fmt in
  let parse_result j =
    let count what v =
      match Option.bind (Jsonout.to_float v) count_of_float with
      | Some n -> n
      | None -> fail "%s is not a count" what
    in
    let int_of k =
      match Jsonout.member k j with
      | Some v -> count (Printf.sprintf "field %S" k) v
      | None -> fail "missing field %S" k
    in
    let float_of k =
      match Option.bind (Jsonout.member k j) Jsonout.to_float with
      | Some f when Float.is_finite f -> f
      | _ -> fail "missing or non-finite field %S" k
    in
    let fill_ints k dst =
      match Jsonout.member k j with
      | Some (Jsonout.List l) ->
          (* tolerate a snapshot from a build tracking more (or fewer)
             slots: copy what fits, exactly like version_slot clamps *)
          List.iteri
            (fun i v ->
              if i < Array.length dst then dst.(i) <- count (Printf.sprintf "an entry of %S" k) v)
            l
      | _ -> fail "missing list field %S" k
    in
    (* Fold a shipped histogram into [dst]: only one of the same bucket
       layout merges, and a snapshot with any other is garbage. *)
    let merge_histogram k dst s =
      match Histogram.of_compact s with
      | Ok h when Histogram.sub_bits h = Histogram.sub_bits dst -> Histogram.merge dst h
      | Ok h ->
          fail "%S histogram has sub_bits %d, not %d" k (Histogram.sub_bits h)
            (Histogram.sub_bits dst)
      | Error msg -> fail "bad %S histogram: %s" k msg
    in
    let t = create ~started_at:(float_of "started_at") () in
    t.queries_served <- int_of "queries_served";
    t.wire_bytes <- int_of "wire_bytes";
    t.accounted_bits <- int_of "accounted_bits";
    fill_ints "errors" t.error_counts;
    t.retries <- int_of "retries";
    t.injected <- int_of "injected";
    t.accepted <- int_of "accepted";
    t.shed <- int_of "shed";
    t.in_flight <- int_of "in_flight";
    t.cache_hits <- int_of "cache_hits";
    t.cache_misses <- int_of "cache_misses";
    t.batches <- int_of "batches";
    t.batch_items <- int_of "batch_items";
    fill_ints "version_served" t.version_served;
    fill_ints "version_bytes" t.version_bytes;
    (match Jsonout.member "verdicts" j with
    | Some (Jsonout.Obj fields) ->
        List.iter
          (fun (protocol, v) ->
            match v with
            | Jsonout.List [ tri; free ] ->
                let what = Printf.sprintf "a verdict count for %S" protocol in
                Hashtbl.replace t.verdicts protocol
                  { triangle = count what tri; triangle_free = count what free }
            | _ -> fail "bad verdict entry for %S" protocol)
          fields
    | _ -> fail "missing object field \"verdicts\"");
    (match Jsonout.member "datasets" j with
    | Some (Jsonout.Obj fields) ->
        List.iter
          (fun (name, v) ->
            Hashtbl.replace t.datasets name
              (count (Printf.sprintf "the count for dataset %S" name) v))
          fields
    | _ -> fail "missing object field \"datasets\"");
    (match Jsonout.member "latency" j with
    | Some (Jsonout.Str s) -> merge_histogram "latency" t.latency s
    | _ -> fail "missing string field \"latency\"");
    (match Jsonout.member "phases" j with
    | Some (Jsonout.List l) ->
        List.iteri
          (fun i v ->
            match v with
            | Jsonout.Str s when i < Array.length t.phases ->
                merge_histogram "phases" t.phases.(i) s
            | Jsonout.Str _ -> ()
            | _ -> fail "non-string entry in \"phases\"")
          l
    | _ -> fail "missing list field \"phases\"");
    t
  in
  match Jsonout.parse s with
  | Error msg -> Error ("Metrics.of_wire: bad JSON: " ^ msg)
  | Ok j -> (
      try Ok (parse_result j) with Bad_wire msg -> Error ("Metrics.of_wire: " ^ msg))

(* Render one histogram as the stats-JSON latency object.  The legacy
   per-sample keys (count/mean/p50/p90/p99) keep their meaning; p999,
   sum, min and max are additive. *)
let histogram_json h =
  let num_or_null v = if Histogram.count h = 0 then Jsonout.Null else Jsonout.Num v in
  Jsonout.Obj
    [
      ("count", Jsonout.Num (float_of_int (Histogram.count h)));
      ("mean", num_or_null (Histogram.mean h));
      ("sum", Jsonout.Num (Histogram.sum h));
      ("min", num_or_null (Histogram.min_value h));
      ("max", num_or_null (Histogram.max_value h));
      ("p50", num_or_null (Histogram.quantile h 0.5));
      ("p90", num_or_null (Histogram.quantile h 0.9));
      ("p99", num_or_null (Histogram.quantile h 0.99));
      ("p999", num_or_null (Histogram.quantile h 0.999));
    ]

let to_json t =
  locked t (fun () ->
      let verdict_objs =
        Hashtbl.fold
          (fun protocol c acc ->
            ( protocol,
              Jsonout.Obj
                [
                  ("triangle", Jsonout.Num (float_of_int c.triangle));
                  ("triangle_free", Jsonout.Num (float_of_int c.triangle_free));
                ] )
            :: acc)
          t.verdicts []
        |> List.sort compare
      in
      let category_objs =
        List.map
          (fun c ->
            (category_name c, Jsonout.Num (float_of_int t.error_counts.(index_of c))))
          all_categories
      in
      let uptime = Float.max 1e-9 (Unix.gettimeofday () -. t.started_at) in
      let num n = Jsonout.Num (float_of_int n) in
      Jsonout.Obj
        [
          ("queries_served", num t.queries_served);
          ("errors", num (errors_unlocked t));
          ("errors_by_category", Jsonout.Obj category_objs);
          ("retries", num t.retries);
          ("injected_faults", num t.injected);
          ("wire_bytes", num t.wire_bytes);
          ("accounted_bits", num t.accounted_bits);
          ("uptime_s", Jsonout.Num uptime);
          ("served_per_sec", Jsonout.Num (float_of_int t.queries_served /. uptime));
          ("in_flight", num t.in_flight);
          ( "connections",
            Jsonout.Obj
              [ ("accepted", num t.accepted); ("shed", num t.shed); ("in_flight", num t.in_flight) ]
          );
          ( "cache",
            Jsonout.Obj
              [
                ("hits", num t.cache_hits);
                ("misses", num t.cache_misses);
                ("lookups", num (t.cache_hits + t.cache_misses));
              ] );
          ("batch", Jsonout.Obj [ ("batches", num t.batches); ("items", num t.batch_items) ]);
          ( "protocol_versions",
            Jsonout.Obj
              (List.init max_wire_version (fun i ->
                   let v = i + 1 in
                   ( Printf.sprintf "v%d" v,
                     Jsonout.Obj
                       [
                         ("served", num t.version_served.(v)); ("bytes", num t.version_bytes.(v));
                       ] ))) );
          ("verdicts", Jsonout.Obj verdict_objs);
          ( "datasets",
            Jsonout.Obj
              (Hashtbl.fold
                 (fun name c acc -> (name, Jsonout.Num (float_of_int c)) :: acc)
                 t.datasets []
              |> List.sort compare) );
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
      let num n = Jsonout.Num (float_of_int n) in
      let uptime = Float.max 1e-9 (Unix.gettimeofday () -. t.started_at) in
      Jsonout.Obj
        [
          ("uptime_s", Jsonout.Num uptime);
          ("queries_served", num t.queries_served);
          ("errors", num (errors_unlocked t));
          ("in_flight", num t.in_flight);
          ("accepted", num t.accepted);
          ("shed", num t.shed);
        ])
