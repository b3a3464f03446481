(** E23: tfree-serve throughput — batch amortization and the instance
    cache.

    Both tables exercise the service layer in-process through
    {!Tfree_wire.Service.handle_line} — the exact code path a socket line
    takes, minus the socket — so the measured line-protocol bytes and
    cache counters are the ones a live daemon would report, yet the run is
    deterministic (no wall clock, no pool, no forked processes: the bench
    harness renders every experiment twice, at jobs=1 and jobs=N, and
    diffs the bytes).

    Table A prices the [{"op": "batch"}] framing: the same [Q] queries
    sent as batch exchanges of size 1, 2, 4, ...  A batch item's reply
    object is byte-for-byte what the request would get on its own line, so
    all a bigger batch can save is the per-exchange envelope — the
    [{"op": "batch", "requests": []}] wrapper, the reply's
    [{"ok", "count", "results"}] shell and the two newlines, a constant
    split across the batch.  Bytes/query therefore decreases strictly and
    monotonically in the batch size, asymptoting to the bare
    request+reply cost (the [overhead] column, relative to a plain
    unbatched line, shows the envelope amortizing away).

    Table B prices the instance cache: a fresh server state per row serves
    [Q] queries cycling [S] distinct seeds.  Requests agreeing on every
    instance-determining field share one graph/partition build, so the
    cache must miss exactly [S] times and hit the other [Q - S] — the
    [check] column asserts both counts and that lookups reconcile with
    queries served. *)

open Tfree_util
module Service = Tfree_wire.Service

(* One serving context: metrics + cache + the stop flag handle_line wants. *)
let fresh_state ~cache_capacity =
  (Service.create_cache ~capacity:cache_capacity (), Tfree_wire.Metrics.create (), ref false)

let request_for ~n seed = { Service.default_request with n; seed }

(* Feed one line through the service and return (reply, served), counting
   the two newlines the socket framing would add. *)
let exchange ~cache ~metrics ~stop line =
  let reply, served = Service.handle_line ~cache ~metrics ~stop line in
  (String.length line + 1 + String.length reply + 1, served)

let e23_serve scale =
  let n, queries = match scale with Common.Small -> 200, 16 | Common.Big -> 400, 32 in
  (* ---- Table A: bytes/query vs batch size ---- *)
  let single_line seed = Jsonout.to_line (Service.request_to_json (request_for ~n seed)) in
  let batch_line seeds =
    Jsonout.to_line (Service.batch_request_to_json (List.map (request_for ~n) seeds))
  in
  let seeds_all = List.init queries (fun i -> 1 + i) in
  let rec chunk b = function
    | [] -> []
    | l ->
        let rec take k = function
          | x :: tl when k > 0 ->
              let h, r = take (k - 1) tl in
              (x :: h, r)
          | r -> ([], r)
        in
        let h, r = take b l in
        h :: chunk b r
  in
  let run_plan lines =
    let cache, metrics, stop = fresh_state ~cache_capacity:queries in
    List.fold_left
      (fun (bytes, served) line ->
        let b, s = exchange ~cache ~metrics ~stop line in
        (bytes + b, served + s))
      (0, 0) lines
  in
  let unbatched_bytes, _ = run_plan (List.map single_line seeds_all) in
  let unbatched_per_query = float_of_int unbatched_bytes /. float_of_int queries in
  let batch_sizes = List.filter (fun b -> b <= queries) [ 1; 2; 4; 8; 16 ] in
  let row_a b =
    let bytes, served = run_plan (List.map batch_line (chunk b seeds_all)) in
    let per_query = float_of_int bytes /. float_of_int queries in
    ( per_query,
      [
        string_of_int b;
        string_of_int (queries / b);
        string_of_int bytes;
        Table.fcell ~prec:1 per_query;
        Table.fcell ~prec:3 (per_query /. unbatched_per_query);
        (if served = queries then "yes" else "NO");
      ] )
  in
  let rows_a = List.map row_a batch_sizes in
  let decreasing =
    let rec ok = function
      | (a, _) :: ((b, _) :: _ as tl) -> a > b && ok tl
      | _ -> true
    in
    ok rows_a
  in
  let table_a =
    Table.make
      ~title:
        (Printf.sprintf
           "E23a batch amortization: %d queries (n=%d) per batch size; strictly decreasing: %s"
           queries n
           (if decreasing then "yes" else "NO"))
      ~header:[ "batch"; "exchanges"; "line bytes"; "bytes/query"; "vs unbatched"; "all served" ]
      (List.map snd rows_a)
  in
  (* ---- Table B: cache hit rate vs seed reuse ---- *)
  let row_b s =
    let cache, metrics, stop = fresh_state ~cache_capacity:queries in
    let served = ref 0 in
    List.iter
      (fun q ->
        let line = single_line (1 + (q mod s)) in
        let _, k = exchange ~cache ~metrics ~stop line in
        served := !served + k)
      (List.init queries Fun.id);
    let hits = Tfree_wire.Metrics.count metrics Tfree_wire.Metrics.Cache_hits in
    let misses = Tfree_wire.Metrics.count metrics Tfree_wire.Metrics.Cache_misses in
    let lookups = hits + misses in
    let okay = !served = queries && lookups = queries && misses = s && hits = queries - s in
    [
      string_of_int s;
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
           "E23b instance cache: %d queries (n=%d) cycling S distinct seeds, fresh cache per row"
           queries n)
      ~header:[ "seeds"; "lookups"; "misses"; "hits"; "hit rate"; "check" ]
      (List.map row_b (List.filter (fun s -> s <= queries) [ 1; 2; 4; 8 ]))
  in
  [ table_a; table_b ]
