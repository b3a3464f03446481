(** E26: fleet sharding — merged-worker parity and per-shard cache
    relief.

    Both tables drive the exact code path a fleet worker runs
    ({!Tfree_wire.Service.handle_line} against a per-worker instance
    cache and {!Tfree_wire.Metrics} registry), route every line with
    {!Tfree_wire.Service.shard_of_request} — the same hash the fleet
    parent and the shard-aware load generator use — and reconcile the
    per-worker registries through the ctl-channel codec
    ({!Tfree_wire.Metrics.to_wire} / [of_wire] / [merge]), so the run is
    deterministic (no sockets, no forks, no clock-dependent counters)
    yet measures the invariants the live fleet's stats gate relies on.

    Table A is the merged-vs-single parity gate: the same query stream —
    plain lines, per-shard-grouped [{"op": "batch"}] exchanges, a
    malformed line and an unknown op — served by W ∈ {1, 2, 4} sharded
    workers with caches big enough to hold every distinct instance.  The
    merged fleet registry must agree with the single-process run on
    every deterministic counter: queries served, categorized errors,
    batch items, cache lookups/hits/misses (a distinct key lives on
    exactly one shard), measured wire bytes and accounted bits.  Only
    the batch {e exchange} count may grow with W (one envelope per shard
    touched) — the table reports it.

    Table B is the mechanism behind the fleet throughput gate on a
    single core: [Q] queries cycling [S] distinct seeds against
    per-worker LRUs of capacity [C < S].  One worker thrashes — LRU
    evicts every instance before its reuse, so all [Q] lookups miss and
    rebuild — while at W ≥ 2 every shard's slice of the key space fits
    its cache, so misses collapse to exactly [S] (one build per distinct
    instance) and the rest hit.  The [check] column asserts both
    regimes exactly. *)

open Tfree_util
module Service = Tfree_wire.Service
module Metrics = Tfree_wire.Metrics

let request_for ~n seed = { Service.default_request with n; seed }
let line_for ~n seed = Jsonout.to_line (Service.request_to_json (request_for ~n seed))

(* Route one (shard, line) stream through W independent worker states
   and return the merged registry, reconciled through the wire codec
   exactly as the fleet parent merges ctl snapshots. *)
let run_sharded ~workers ~cache_capacity lines =
  let states =
    Array.init workers (fun _ ->
        (Service.create_cache ~capacity:cache_capacity (), Metrics.create ()))
  in
  let stop = ref false in
  List.iter
    (fun (shard, line) ->
      let cache, metrics = states.(shard) in
      ignore (Service.handle_line ~cache ~metrics ~stop line))
    lines;
  let acc = Metrics.create () in
  Array.iter
    (fun (_, m) ->
      match Metrics.of_wire (Metrics.to_wire m) with
      | Ok m -> Metrics.merge acc m
      | Error msg -> failwith ("E26: worker snapshot does not round-trip: " ^ msg))
    states;
  acc

(* The parity stream for [workers]: plain lines routed by shard, batches
   grouped per shard (the load generator's grouping), and two error
   lines pinned to fixed shards so every W sees the same totals. *)
let parity_stream ~n ~workers ~seeds =
  let plain =
    List.map
      (fun seed ->
        ( Service.shard_of_request ~workers (request_for ~n seed),
          line_for ~n seed ))
      (seeds @ seeds)
  in
  let batch_seeds = List.map (fun s -> 100 + s) seeds in
  let by_shard = Hashtbl.create 4 in
  List.iter
    (fun seed ->
      let r = request_for ~n seed in
      let sh = Service.shard_of_request ~workers r in
      Hashtbl.replace by_shard sh
        (r :: (try Hashtbl.find by_shard sh with Not_found -> [])))
    batch_seeds;
  let batches =
    Hashtbl.fold
      (fun sh rs acc ->
        (sh, Jsonout.to_line (Service.batch_request_to_json (List.rev rs))) :: acc)
      by_shard []
    |> List.sort compare
  in
  plain @ batches @ [ (0, "{nope"); (0, "{\"op\": \"levitate\"}") ]

let e26_fleet scale =
  let n, passes = match scale with Common.Small -> 200, 2 | Common.Big -> 400, 4 in
  let worker_counts = [ 1; 2; 4 ] in
  (* ---- Table A: merged-vs-single parity ---- *)
  let parity_seeds = List.init 6 (fun i -> 1 + i) in
  (* every counter but the batch envelope count, every error category,
     and the per-version, verdict and dataset tables of the stats JSON *)
  let counters m =
    let tables = Metrics.to_json m in
    ( List.filter_map
        (fun (c, _) -> if c = Metrics.Batches then None else Some (Metrics.count m c))
        Metrics.counters,
      List.map (Metrics.errors_in m) Metrics.all_categories,
      List.map
        (fun k -> Option.map Jsonout.to_line (Jsonout.member k tables))
        [ "protocol_versions"; "verdicts"; "datasets" ] )
  in
  let row_a ~reference w =
    let m =
      run_sharded ~workers:w ~cache_capacity:32 (parity_stream ~n ~workers:w ~seeds:parity_seeds)
    in
    let mine = counters m in
    let okay = match reference with None -> true | Some c -> mine = c in
    let cell c = string_of_int (Metrics.count m c) in
    ( mine,
      [
        string_of_int w;
        cell Metrics.Queries_served;
        string_of_int (Metrics.errors m);
        cell Metrics.Batches;
        cell Metrics.Batch_items;
        cell Metrics.Cache_hits;
        cell Metrics.Cache_misses;
        cell Metrics.Wire_bytes;
        cell Metrics.Accounted_bits;
        (if okay then "yes" else "NO");
      ] )
  in
  let single, first_row = row_a ~reference:None 1 in
  let rows_a =
    first_row
    :: List.map (fun w -> snd (row_a ~reference:(Some single) w)) (List.tl worker_counts)
  in
  let table_a =
    Table.make
      ~title:
        (Printf.sprintf
           "E26a merged-vs-single parity: one query stream (n=%d) sharded across W workers, \
            ctl-codec merged; every counter but the batch envelope count must match W=1"
           n)
      ~header:
        [ "workers"; "served"; "errors"; "batches"; "items"; "hits"; "misses"; "wire B";
          "acc bits"; "check" ]
      rows_a
  in
  (* ---- Table B: per-shard cache relief (the 1-core throughput lever) ---- *)
  let distinct = 12 and capacity = 8 in
  let queries = passes * distinct in
  let row_b w =
    let lines =
      List.init queries (fun i ->
          let seed = 1 + (i mod distinct) in
          ( Service.shard_of_request ~workers:w (request_for ~n seed),
            line_for ~n seed ))
    in
    let m = run_sharded ~workers:w ~cache_capacity:capacity lines in
    let hits = Metrics.count m Metrics.Cache_hits in
    let misses = Metrics.count m Metrics.Cache_misses in
    let lookups = hits + misses in
    let okay =
      Metrics.count m Metrics.Queries_served = queries
      && lookups = queries
      && if w = 1 then misses = queries (* LRU thrash: every reuse already evicted *)
         else misses = distinct (* every shard slice fits its cache *)
    in
    [
      string_of_int w;
      string_of_int queries;
      string_of_int lookups;
      string_of_int misses;
      string_of_int hits;
      Table.fcell ~prec:3 (float_of_int hits /. float_of_int lookups);
      (if okay then "yes" else "NO");
    ]
  in
  let table_b =
    Table.make
      ~title:
        (Printf.sprintf
           "E26b per-shard cache relief: %d queries (n=%d) cycling %d seeds, per-worker LRU \
            capacity %d; W=1 thrashes (misses=Q), W>=2 collapses to one build per instance"
           queries n distinct capacity)
      ~header:[ "workers"; "queries"; "lookups"; "misses"; "hits"; "hit rate"; "check" ]
      (List.map row_b worker_counts)
  in
  [ table_a; table_b ]
