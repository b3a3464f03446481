(* Tests for Tfree_obs: the bounded log-linear histogram (exactness of
   count/sum/min/max, merge-over-split identity, quantile agreement with
   Stats.quantile within the documented precision, O(buckets) memory, the
   compact and JSON codecs), the monotonic clock, the leveled JSONL
   logger, and the Prometheus exposition/validator pair. *)

open Tfree_util
module Histogram = Tfree_obs.Histogram
module Logger = Tfree_obs.Logger
module Mono = Tfree_obs.Mono
module Phase = Tfree_obs.Phase
module Prom = Tfree_obs.Prom
module Metrics = Tfree_wire.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let hist_of samples =
  let h = Histogram.create () in
  List.iter (Histogram.record h) samples;
  h

(* ------------------------------------------------------------ histogram *)

let test_histogram_exact_scalars () =
  let samples = [ 0.0; 1.0; 3.5; 31.0; 32.0; 1000.25; 123456.0 ] in
  let h = hist_of samples in
  checki "count" (List.length samples) (Histogram.count h);
  checkb "sum is exact" true (Histogram.sum h = List.fold_left ( +. ) 0.0 samples);
  checkb "min is exact" true (Histogram.min_value h = 0.0);
  checkb "max is exact" true (Histogram.max_value h = 123456.0);
  checkb "mean" true
    (abs_float (Histogram.mean h -. (Histogram.sum h /. 7.0)) < 1e-9)

let test_histogram_rejects_garbage_samples () =
  let h = Histogram.create () in
  Histogram.record h (-50.0);
  Histogram.record h nan;
  (* both clamp to 0: counted, bucketed at zero, min/max stay finite *)
  checki "clamped samples still count" 2 (Histogram.count h);
  checkb "min clamps to 0" true (Histogram.min_value h = 0.0);
  checkb "max clamps to 0" true (Histogram.max_value h = 0.0);
  checkb "one bucket, the zero bucket" true (Histogram.buckets h = [ (0, 2) ])

let test_histogram_empty_and_single () =
  let h = Histogram.create () in
  checkb "empty quantile is nan" true (Float.is_nan (Histogram.quantile h 0.5));
  checkb "empty mean is nan" true (Float.is_nan (Histogram.mean h));
  checkb "empty min is nan" true (Float.is_nan (Histogram.min_value h));
  Histogram.record h 777.0;
  List.iter
    (fun q ->
      checkb
        (Printf.sprintf "single sample is its own q=%.2f" q)
        true
        (Histogram.quantile h q = 777.0))
    [ 0.0; 0.5; 1.0 ]

let test_histogram_extreme_quantiles_exact () =
  let h = hist_of [ 3.0; 900.0; 123456.0; 17.0 ] in
  checkb "q=0 is the exact min" true (Histogram.quantile h 0.0 = 3.0);
  checkb "q=1 is the exact max" true (Histogram.quantile h 1.0 = 123456.0);
  checkb "q clamps below 0" true (Histogram.quantile h (-3.0) = 3.0);
  checkb "q clamps above 1" true (Histogram.quantile h 9.0 = 123456.0)

let test_histogram_merge_split_identity () =
  let all = List.init 500 (fun i -> float_of_int (i * i mod 70000)) in
  let rec split i = function
    | [] -> ([], [], [])
    | x :: rest ->
        let a, b, c = split (i + 1) rest in
        if i mod 3 = 0 then (x :: a, b, c)
        else if i mod 3 = 1 then (a, x :: b, c)
        else (a, b, x :: c)
  in
  let a, b, c = split 0 all in
  let merged = hist_of a in
  Histogram.merge merged (hist_of b);
  Histogram.merge merged (hist_of c);
  checkb "merge over split = unsplit, exactly" true (Histogram.equal merged (hist_of all));
  checki "merged count" (List.length all) (Histogram.count merged);
  checkb "merged sum" true
    (abs_float (Histogram.sum merged -. Histogram.sum (hist_of all)) < 1e-6)

let test_histogram_merge_sub_bits_mismatch () =
  let a = Histogram.create ~sub_bits:5 () and b = Histogram.create ~sub_bits:6 () in
  checkb "merging mismatched sub_bits raises" true
    (match Histogram.merge a b with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_histogram_bounded_memory () =
  let h = Histogram.create () in
  for i = 1 to 1000 do
    Histogram.record_int h (i * 37)
  done;
  let w0 = Obj.reachable_words (Obj.repr h) in
  for i = 1 to 100_000 do
    Histogram.record_int h (i * 91)
  done;
  let w1 = Obj.reachable_words (Obj.repr h) in
  checki "O(buckets): reachable words do not grow with samples" w0 w1;
  checki "count kept up" 101_000 (Histogram.count h)

let test_histogram_clear_and_copy () =
  let h = hist_of [ 5.0; 6.0; 7.0 ] in
  let snap = Histogram.copy h in
  Histogram.clear h;
  checki "cleared" 0 (Histogram.count h);
  checki "snapshot unaffected" 3 (Histogram.count snap);
  checkb "cleared histogram equals a fresh one" true (Histogram.equal h (Histogram.create ()))

let test_histogram_compact_round_trip () =
  let h = hist_of [ 0.0; 1.5; 42.0; 65536.0; 3.0e6 ] in
  match Histogram.of_compact (Histogram.to_compact h) with
  | Error msg -> Alcotest.failf "of_compact failed: %s" msg
  | Ok h' ->
      checkb "bucket-identical" true (Histogram.equal h h');
      checkb "sum survives (hex floats are exact)" true (Histogram.sum h' = Histogram.sum h);
      checkb "min survives" true (Histogram.min_value h' = Histogram.min_value h);
      checkb "max survives" true (Histogram.max_value h' = Histogram.max_value h)

let test_histogram_compact_rejects_garbage () =
  List.iter
    (fun s ->
      checkb (Printf.sprintf "of_compact rejects %S" s) true
        (match Histogram.of_compact s with Error _ -> true | Ok _ -> false))
    [ ""; "xyzzy"; "5:9"; "5:2:0x1p1:0x1p0:0x1p1:0.two"; "5:0:0x0p+0:0x0p+0:0x0p+0:1.-1,2.1" ]

let test_histogram_json_shape () =
  let h = hist_of [ 10.0; 20.0 ] in
  let j = Histogram.to_json h in
  checkb "count" true (Jsonout.member "count" j = Some (Jsonout.Num 2.0));
  checkb "sum" true (Jsonout.member "sum" j = Some (Jsonout.Num 30.0));
  checkb "buckets is a list" true
    (match Jsonout.member "buckets" j with Some (Jsonout.List _) -> true | _ -> false);
  let empty = Histogram.to_json (Histogram.create ()) in
  checkb "empty min is null" true (Jsonout.member "min" empty = Some Jsonout.Null)

(* QCheck: merge identity and quantile precision over arbitrary samples. *)
let qcheck_props =
  let open QCheck in
  let sample = Gen.oneof [ Gen.float_bound_exclusive 1e7; Gen.map float_of_int (Gen.int_bound 100) ] in
  let samples = make ~print:Print.(list float) Gen.(list_size (int_range 1 200) sample) in
  [
    Test.make ~name:"histogram: merge over any split equals unsplit" ~count:100
      (pair samples samples)
      (fun (xs, ys) ->
        let m = hist_of xs in
        Histogram.merge m (hist_of ys);
        Histogram.equal m (hist_of (xs @ ys)));
    Test.make ~name:"histogram: quantiles track Stats.quantile within max_error" ~count:100
      (pair samples (float_bound_inclusive 1.0))
      (fun (xs, q) ->
        let h = hist_of xs in
        let exact = Stats.quantile q xs in
        abs_float (Histogram.quantile h q -. exact) <= Histogram.max_error h exact);
    Test.make ~name:"histogram: compact codec round-trips" ~count:100 samples (fun xs ->
        let h = hist_of xs in
        match Histogram.of_compact (Histogram.to_compact h) with
        | Ok h' -> Histogram.equal h h' && Histogram.sum h' = Histogram.sum h
        | Error _ -> false);
  ]

(* ----------------------------------------------------------------- mono *)

let test_mono_never_decreases () =
  let prev = ref (Mono.now_s ()) in
  for _ = 1 to 10_000 do
    let now = Mono.now_s () in
    if now < !prev then Alcotest.fail "Mono.now_s went backwards";
    prev := now
  done;
  checkb "now_us is now_s scaled" true (Mono.now_us () >= !prev *. 1e6)

(* ---------------------------------------------------------------- phase *)

let test_phase_round_trip () =
  checki "six phases" 6 Phase.count;
  List.iter
    (fun p ->
      checkb (Phase.name p ^ " name round-trips") true (Phase.of_name (Phase.name p) = Some p);
      checkb (Phase.name p ^ " index round-trips") true (Phase.of_index (Phase.index p) = p))
    Phase.all;
  checkb "unknown phase name" true (Phase.of_name "teleport" = None);
  checkb "out-of-range index raises" true
    (match Phase.of_index Phase.count with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --------------------------------------------------------------- logger *)

let with_temp_log f =
  let path = Filename.temp_file "tfree_obs_test" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_logger_levels_and_jsonl () =
  with_temp_log (fun path ->
      let l = Logger.create ~level:Logger.Info ~path () in
      checkb "debug disabled at info" true (not (Logger.enabled l Logger.Debug));
      checkb "warn enabled at info" true (Logger.enabled l Logger.Warn);
      Logger.log l Logger.Debug "invisible" [];
      Logger.log l Logger.Info "hello" [ ("n", Jsonout.Num 7.0) ];
      Logger.log l Logger.Error "boom" [ ("detail", Jsonout.Str "why") ];
      Logger.close l;
      checki "debug filtered, two emitted" 2 (Logger.emitted l);
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun s -> s <> "")
      in
      checki "two JSONL lines on disk" 2 (List.length lines);
      List.iter
        (fun line ->
          match Jsonout.parse line with
          | Error msg -> Alcotest.failf "log line does not parse: %s" msg
          | Ok j ->
              checkb "ts present" true
                (match Jsonout.member "ts" j with Some (Jsonout.Num _) -> true | _ -> false);
              checkb "level present" true
                (match Jsonout.member "level" j with Some (Jsonout.Str _) -> true | _ -> false);
              checkb "event present" true
                (match Jsonout.member "event" j with Some (Jsonout.Str _) -> true | _ -> false))
        lines;
      (match Jsonout.parse (List.nth lines 0) with
      | Ok j ->
          checkb "custom field serialized" true (Jsonout.member "n" j = Some (Jsonout.Num 7.0))
      | Error _ -> Alcotest.fail "unreachable"))

let test_logger_ring_is_bounded () =
  with_temp_log (fun path ->
      let l = Logger.create ~ring:3 ~level:Logger.Debug ~path () in
      for i = 1 to 10 do
        Logger.log l Logger.Info (Printf.sprintf "e%d" i) []
      done;
      let tail = Logger.recent l in
      Logger.close l;
      checki "ring holds its bound" 3 (List.length tail);
      checkb "ring keeps the newest, oldest first" true
        (List.for_all2
           (fun line e ->
             match Jsonout.parse line with
             | Ok j -> Jsonout.member "event" j = Some (Jsonout.Str e)
             | Error _ -> false)
           tail [ "e8"; "e9"; "e10" ]);
      checki "emitted counts the lifetime, not the ring" 10 (Logger.emitted l))

let test_logger_level_names () =
  List.iter
    (fun l ->
      checkb (Logger.level_name l ^ " round-trips") true
        (Logger.level_of_name (Logger.level_name l) = Some l))
    [ Logger.Debug; Logger.Info; Logger.Warn; Logger.Error ];
  checkb "unknown level name" true (Logger.level_of_name "loud" = None)

(* ----------------------------------------------------------------- prom *)

let populated_stats () =
  let m = Metrics.create () in
  Metrics.record_query ~version:2 m ~protocol:"exact" ~found_triangle:true ~wire_bytes:100
    ~accounted_bits:640 ~latency_us:1234.0;
  Metrics.record_query m ~protocol:"oblivious" ~found_triangle:false ~wire_bytes:90
    ~accounted_bits:512 ~latency_us:432.0;
  Metrics.record_error m ~category:Metrics.Malformed;
  List.iter (fun p -> Metrics.record_phase m ~phase:p ~us:10.0) Phase.all;
  Metrics.to_json m

let test_prom_of_stats_validates () =
  let text = Prom.of_stats (populated_stats ()) in
  (match Prom.validate text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "of_stats output rejected: %s" msg);
  let contains sub =
    let n = String.length sub and hay = String.length text in
    let rec go i = i + n <= hay && (String.sub text i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun family ->
      checkb (family ^ " present") true (contains family))
    [
      "tfree_queries_served_total";
      "tfree_errors_total";
      "tfree_latency_us{quantile=";
      "tfree_latency_us_count";
      "tfree_phase_latency_us{phase=\"run\"";
    ]

let test_prom_validate_rejects_garbage () =
  List.iter
    (fun (label, text) ->
      checkb (label ^ " rejected") true
        (match Prom.validate text with Error _ -> true | Ok () -> false))
    [
      ("empty exposition", "");
      ("sample without TYPE", "tfree_thing 1\n");
      ("malformed sample line", "# TYPE tfree_thing counter\ntfree_thing one\n");
      ("malformed comment", "# TIPE tfree_thing counter\ntfree_thing 1\n");
      ("unterminated label", "# TYPE t counter\nt{a=\"b 1\n");
    ]

(* ------------------------------------------------------- metrics bridge *)

let test_metrics_negative_latency_rejected () =
  let m = Metrics.create () in
  Metrics.record_query m ~protocol:"exact" ~found_triangle:false ~wire_bytes:10 ~accounted_bits:64
    ~latency_us:(-5.0);
  Metrics.record_query m ~protocol:"exact" ~found_triangle:false ~wire_bytes:10 ~accounted_bits:64
    ~latency_us:nan;
  Metrics.record_query m ~protocol:"exact" ~found_triangle:false ~wire_bytes:10 ~accounted_bits:64
    ~latency_us:250.0;
  checki "all three queries count" 3 (Metrics.count m Metrics.Queries_served);
  let lat = Metrics.latency_snapshot m in
  checki "only the valid latency sample lands" 1 (Histogram.count lat);
  checkb "and it is the sample" true (Histogram.min_value lat = 250.0)

let test_metrics_health_json_is_scalar () =
  let m = Metrics.create () in
  Metrics.record_query m ~protocol:"exact" ~found_triangle:false ~wire_bytes:10 ~accounted_bits:64
    ~latency_us:100.0;
  let h = Metrics.health_json m in
  List.iter
    (fun k ->
      checkb (k ^ " present and numeric") true
        (match Jsonout.member k h with Some (Jsonout.Num _) -> true | _ -> false))
    [ "uptime_s"; "queries_served"; "errors"; "in_flight"; "accepted"; "shed" ];
  checkb "no verdict table in the health payload" true (Jsonout.member "verdicts" h = None);
  checkb "no histograms in the health payload" true (Jsonout.member "latency_us" h = None)

(* A fixed registry that touches every counter, both wire versions, two
   verdict protocols, a dataset and every phase, rendered through both
   serializers.  The renderings are pinned byte for byte, minus the two
   wall-clock fields ([uptime_s], [served_per_sec]). *)
let pinned_registry () =
  let m = Metrics.create () in
  Metrics.record_query ~version:1 m ~protocol:"exact" ~found_triangle:false ~wire_bytes:120
    ~accounted_bits:640 ~latency_us:250.0;
  Metrics.record_query ~version:2 m ~protocol:"sim" ~found_triangle:true ~wire_bytes:48
    ~accounted_bits:320 ~latency_us:1875.5;
  Metrics.record_query ~version:2 m ~protocol:"sim" ~found_triangle:false ~wire_bytes:52
    ~accounted_bits:352 ~latency_us:40.0;
  Metrics.record_version_bytes m ~version:1 ~bytes:300;
  Metrics.record_version_bytes m ~version:2 ~bytes:170;
  Metrics.record_dataset m ~name:"karate";
  List.iter (fun category -> Metrics.record_error m ~category) Metrics.all_categories;
  Metrics.record_error m ~category:Metrics.Malformed;
  Metrics.incr m Metrics.Retries;
  Metrics.incr m Metrics.Injected;
  Metrics.incr m Metrics.Injected;
  List.iter (fun () -> Metrics.incr m Metrics.Accepted) [ (); (); () ];
  Metrics.incr m Metrics.Shed;
  Metrics.set_in_flight m 2;
  Metrics.record_cache m ~hit:true;
  Metrics.record_cache m ~hit:false;
  Metrics.record_cache m ~hit:false;
  Metrics.record_batch m ~items:5;
  List.iteri
    (fun i phase -> Metrics.record_phase m ~phase ~us:(float_of_int (10 * (i + 1))))
    Phase.all;
  m

let without_clock = function
  | Jsonout.Obj fields ->
      Jsonout.to_line
        (Jsonout.Obj (List.filter (fun (k, _) -> k <> "uptime_s" && k <> "served_per_sec") fields))
  | j -> Jsonout.to_line j

let test_metrics_renderings_pinned () =
  let m = pinned_registry () in
  Alcotest.(check string) "health_json"
    "{\"queries_served\":3,\"errors\":7,\"in_flight\":2,\"accepted\":3,\"shed\":1}"
    (without_clock (Metrics.health_json m));
  Alcotest.(check string) "to_json"
    (String.concat ""
       [
         "{\"queries_served\":3,\"errors\":7,\"errors_by_category\":{\"malformed\":2,";
         "\"unknown_op\":1,\"run_failure\":1,\"timeout\":1,\"transport\":1,\"overload\":1},";
         "\"retries\":1,\"injected_faults\":2,\"wire_bytes\":220,\"accounted_bits\":1312,";
         "\"in_flight\":2,\"connections\":{\"accepted\":3,\"shed\":1,\"in_flight\":2},";
         "\"cache\":{\"hits\":1,\"misses\":2,\"lookups\":3},\"batch\":{\"batches\":1,\"items\":5},";
         "\"protocol_versions\":{\"v1\":{\"served\":1,\"bytes\":300},\"v2\":{\"served\":2,";
         "\"bytes\":170}},\"verdicts\":{\"exact\":{\"triangle\":0,\"triangle_free\":1},";
         "\"sim\":{\"triangle\":1,\"triangle_free\":1}},\"datasets\":{\"karate\":1},";
         "\"latency_us\":{\"count\":3,\"mean\":721.83333333333337,\"sum\":2165.5,\"min\":40,";
         "\"max\":1875.5,\"p50\":249.5,\"p90\":1550.3000000000002,\"p99\":1842.98,";
         "\"p999\":1872.248},\"phases\":{\"read\":{\"count\":1,\"mean\":10,\"sum\":10,\"min\":10,";
         "\"max\":10,\"p50\":10,\"p90\":10,\"p99\":10,\"p999\":10},\"parse\":{\"count\":1,";
         "\"mean\":20,\"sum\":20,\"min\":20,\"max\":20,\"p50\":20,\"p90\":20,\"p99\":20,";
         "\"p999\":20},\"cache_lookup\":{\"count\":1,\"mean\":30,\"sum\":30,\"min\":30,\"max\":30,";
         "\"p50\":30,\"p90\":30,\"p99\":30,\"p999\":30},\"run\":{\"count\":1,\"mean\":40,";
         "\"sum\":40,\"min\":40,\"max\":40,\"p50\":40,\"p90\":40,\"p99\":40,\"p999\":40},";
         "\"encode\":{\"count\":1,\"mean\":50,\"sum\":50,\"min\":50,\"max\":50,\"p50\":50,";
         "\"p90\":50,\"p99\":50,\"p999\":50},\"write\":{\"count\":1,\"mean\":60,\"sum\":60,";
         "\"min\":60,\"max\":60,\"p50\":60,\"p90\":60,\"p99\":60,\"p999\":60}}}";
       ])
    (without_clock (Metrics.to_json m))

(* ------------------------------------------------------------------ run *)

let () =
  Alcotest.run "tfree_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact scalars" `Quick test_histogram_exact_scalars;
          Alcotest.test_case "negative/nan samples clamp" `Quick
            test_histogram_rejects_garbage_samples;
          Alcotest.test_case "empty and single" `Quick test_histogram_empty_and_single;
          Alcotest.test_case "extreme quantiles exact" `Quick
            test_histogram_extreme_quantiles_exact;
          Alcotest.test_case "merge over split = unsplit" `Quick
            test_histogram_merge_split_identity;
          Alcotest.test_case "merge sub_bits mismatch" `Quick
            test_histogram_merge_sub_bits_mismatch;
          Alcotest.test_case "O(buckets) memory" `Quick test_histogram_bounded_memory;
          Alcotest.test_case "clear and copy" `Quick test_histogram_clear_and_copy;
          Alcotest.test_case "compact codec round-trip" `Quick
            test_histogram_compact_round_trip;
          Alcotest.test_case "compact codec rejects garbage" `Quick
            test_histogram_compact_rejects_garbage;
          Alcotest.test_case "json shape" `Quick test_histogram_json_shape;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_props);
      ( "mono",
        [ Alcotest.test_case "never decreases" `Quick test_mono_never_decreases ] );
      ("phase", [ Alcotest.test_case "round-trips" `Quick test_phase_round_trip ]);
      ( "logger",
        [
          Alcotest.test_case "levels and JSONL shape" `Quick test_logger_levels_and_jsonl;
          Alcotest.test_case "ring is bounded" `Quick test_logger_ring_is_bounded;
          Alcotest.test_case "level names" `Quick test_logger_level_names;
        ] );
      ( "prom",
        [
          Alcotest.test_case "of_stats validates" `Quick test_prom_of_stats_validates;
          Alcotest.test_case "validator rejects garbage" `Quick
            test_prom_validate_rejects_garbage;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "negative latency rejected" `Quick
            test_metrics_negative_latency_rejected;
          Alcotest.test_case "health payload is scalar" `Quick
            test_metrics_health_json_is_scalar;
          Alcotest.test_case "renderings pinned" `Quick test_metrics_renderings_pinned;
        ] );
    ]
