(* Served-query benchmark for tfree-serve.

     perfbench --workload hot-mix|chatty|cold-build --seed N --seconds S
               --trace 0|1 --tfree PATH/TO/tfree [--commit SHA] [--tiny]

   --trace 0 (end to end): start a [tfree serve] daemon (single process,
   cache capacity 32), run the workload's set-up — daemon start plus the
   cache warm-up — several times and keep the last daemon, then drive the
   timed stream from one closed-loop client (Service.client_query, one
   connection per query, no retries) for S seconds.  Prints setup_s, qps,
   latency_p50_ms / latency_p90_ms (with the sample count),
   server_cpu_ms_per_query, server_peak_rss_mb, bits_per_query and
   error_rate.  Times are scaled to the host's reference speed by the
   probe of probe.ml; the raw figures are printed too.

   --trace 1 (per layer): serve a shorter stream the same way, read the
   daemon's stats, then replay the same stream in-process with every layer
   timed from the outside (see replay.ml) and print the per-layer table.

   Both modes check every served reply against an in-process run of the
   same request; the last line of stdout is one JSON object with the keys
   correct, attempted, failed and metrics.  Exit status 1 on any mismatch,
   client error or failed cross-check.  The daemon is killed and reaped,
   and its socket removed, on every exit path. *)

module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Wire = Tfree_wire.Wire_runtime
module Stats = Tfree_util.Stats
module Jsonout = Tfree_util.Jsonout

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

(* ------------------------------------------------------------ arguments *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tfree : string;
  commit : string;
  size : Workload.size;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        tfree = "";
        commit = "unknown";
        size = Workload.Full;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> a := { !a with seed = abs (s mod 1_000_000_000) }
        | None -> fail "--seed expects an integer");
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> a := { !a with seconds = s }
        | _ -> fail "--seconds expects a positive number");
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> a := { !a with trace = false }
        | "1" -> a := { !a with trace = true }
        | _ -> fail "--trace expects 0 or 1");
        go rest
    | "--tfree" :: v :: rest -> a := { !a with tfree = v }; go rest
    | "--commit" :: v :: rest -> a := { !a with commit = v }; go rest
    | "--tiny" :: rest -> a := { !a with size = Workload.Tiny }; go rest
    | arg :: _ -> fail "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.tfree = "" || not (Sys.file_exists !a.tfree) then fail "--tfree must name the tfree binary";
  !a

(* ------------------------------------------------------------- teardown *)

(* The daemon currently running, killed by [at_exit] on any exit path the
   process survives to see: normal return, [exit], an uncaught exception,
   or SIGINT/SIGTERM/SIGHUP (turned into [exit]). *)
let live : Daemon.t option ref = ref None

let () =
  at_exit (fun () ->
      Option.iter Daemon.kill !live;
      live := None);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ]

let start_daemon ~tfree =
  let d = Daemon.start ~tfree in
  live := Some d;
  d

let stop_daemon d =
  Daemon.stop d;
  live := None

(* -------------------------------------------------------------- helpers *)

let loadavg () =
  match Daemon.read_text "/proc/loadavg" with
  | Some s -> ( match Scanf.sscanf_opt s "%f" Fun.id with Some f -> f | None -> nan)
  | None -> nan

let median xs = Stats.median xs
let mean xs = Stats.mean xs

let num path j =
  let rec go j = function
    | [] -> Jsonout.to_float j
    | k :: rest -> Option.bind (Jsonout.member k j) (fun v -> go v rest)
  in
  match go j path with Some f -> f | None -> failwith ("stats without " ^ String.concat "." path)

let stats d =
  match Service.client_stats ~protocol:Proto.V2 ~path:d.Daemon.socket () with
  | Ok s -> s
  | Error m -> failwith ("stats: " ^ m)

let delta before after path = num path after -. num path before

(* Two replies agree when verdict (witness included), accounted bits,
   rounds, largest message and the measured wire traffic are equal and the
   served reply reconciles wire against model. *)
let agree (served : Service.response) (expect : Service.response) =
  let w = served.Service.wire and e = expect.Service.wire in
  served.Service.verdict = expect.Service.verdict
  && served.Service.bits = expect.Service.bits
  && served.Service.rounds = expect.Service.rounds
  && served.Service.max_message = expect.Service.max_message
  && Wire.reconciles w
  && w.Wire.wire_bytes = e.Wire.wire_bytes
  && w.Wire.frames = e.Wire.frames
  && w.Wire.accounted_bits = e.Wire.accounted_bits

type served = { q : Workload.query; reply : (Service.response, string) result; latency_ms : float }

let send d (q : Workload.query) =
  let t0 = Unix.gettimeofday () in
  let reply =
    Service.client_query ~retries:0 ~protocol:q.Workload.pref ~path:d.Daemon.socket q.Workload.req
  in
  { q; reply; latency_ms = (Unix.gettimeofday () -. t0) *. 1000.0 }

(* A measurement window: [count] queries from index [first] of the timed
   stream, the wall and daemon CPU seconds they took, and the host factor
   over them (see probe.ml). *)
type window = { first : int; count : int; wall : float; cpu : float; factor : float }

(* The window being filled: its start, the daemon's CPU seconds then, the
   probe samples so far and the seconds they took, and when the last one
   ended. *)
type filling = { start : float; cpu0 : float; samples : float list; paused : float; last : float }

(* Seconds between host probes within a window: 5% of the time goes to the
   probe, and a window gets 10-15 samples. *)
let probe_every = 0.05

(* The closed loop: query [i] is sent when query [i - 1] has been answered,
   until [seconds] have passed.  The timed stream is cut into windows of the
   workload's [window] queries.  The host probe runs when a window opens,
   between queries whenever [probe_every] seconds have passed, and when it
   closes; its time is left out of the window's.  A window's host factor is
   the mean of those samples.  Returns the exchanges and the windows; a run
   too short for one window is one window. *)
let drive d (w : Workload.t) ~seconds =
  let size = w.Workload.window in
  let opening () =
    let p = Probe.sample () in
    let t = Unix.gettimeofday () in
    { start = t; cpu0 = Daemon.cpu_s d; samples = [ p ]; paused = 0.0; last = t }
  in
  let close f ~first ~count ~now =
    let next = opening () in
    let factor = Probe.factor (next.samples @ f.samples) in
    ({ first; count; wall = now -. f.start -. f.paused; cpu = next.cpu0 -. f.cpu0; factor }, next)
  in
  let first_window = opening () in
  let deadline = first_window.start +. seconds in
  let rec go i acc windows f =
    let s = send d (w.Workload.query i) in
    let now = Unix.gettimeofday () in
    let windows, f =
      if (i + 1) mod size = 0 then
        let win, next = close f ~first:(i + 1 - size) ~count:size ~now in
        (win :: windows, next)
      else if now -. f.last >= probe_every then
        let p = Probe.sample () in
        let t = Unix.gettimeofday () in
        (windows, { f with samples = p :: f.samples; paused = f.paused +. (t -. now); last = t })
      else (windows, f)
    in
    if now < deadline then go (i + 1) (s :: acc) windows f
    else
      let timed = Array.of_list (List.rev (s :: acc)) in
      match windows with
      | [] -> (timed, [ fst (close f ~first:0 ~count:(Array.length timed) ~now) ])
      | _ -> (timed, List.rev windows)
  in
  go 0 [] [] first_window

(* Check every exchange against [expect]; prints the first few failures and
   returns how many failed. *)
let check_replies exchanges ~expect =
  let failed = ref 0 in
  Array.iteri
    (fun i s ->
      let complain msg =
        incr failed;
        if !failed <= 5 then
          Printf.printf "perfbench: query %d (seed %d): %s\n" i s.q.Workload.req.Service.seed msg
      in
      match s.reply with
      | Error m -> complain ("client error: " ^ m)
      | Ok r -> if not (agree r (expect i s.q)) then complain "reply differs from the in-process run")
    exchanges;
  !failed

(* ------------------------------------------------------------- output *)

let print_metric (name, value, unit) = Printf.printf "  %-34s %14.4f %s\n" name value unit

let emit ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    let value = if Float.is_finite value then value else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " (List.map metric metrics))

let context a =
  Printf.printf "perfbench: workload=%s seed=%d trace=%d seconds=%g nproc=%d ocaml=%s commit=%s\n%!"
    a.workload a.seed (if a.trace then 1 else 0) a.seconds (Domain.recommended_domain_count ())
    Sys.ocaml_version a.commit

(* ----------------------------------------------------------- end to end *)

(* Set-ups before and after the timed phase.  A set-up takes 0.1-0.7 s,
   and the host's speed changes on about that scale: taken all at once,
   the set-ups of one run tended to land in the same fast or slow stretch. *)
let setup_repeats = function Workload.Full -> (4, 3) | Workload.Tiny -> (1, 1)

(* Fork the daemon and run the warm-up: the set-up a user of the daemon
   pays before steady-state service.  Returns the daemon, the warm-up
   exchanges, the set-up's seconds and the host factor around it. *)
let set_up ~tfree (w : Workload.t) =
  let p0 = Probe.sample () in
  let t0 = Unix.gettimeofday () in
  let d = start_daemon ~tfree in
  let warm = Array.map (send d) w.Workload.warmup in
  let seconds = Unix.gettimeofday () -. t0 in
  (d, warm, seconds, Probe.factor [ p0; Probe.sample () ])

let end_to_end a (w : Workload.t) =
  let set_up_and_stop () =
    let d, warm, s, f = set_up ~tfree:a.tfree w in
    stop_daemon d;
    (warm, (s, f))
  in
  let first, last = setup_repeats a.size in
  let early = List.init (first - 1) (fun _ -> set_up_and_stop ()) in
  let d, warm, setup_s, setup_f = set_up ~tfree:a.tfree w in
  let before = stats d in
  let timed, windows = drive d w ~seconds:a.seconds in
  let after = stats d in
  let rss = Daemon.peak_rss_mb d in
  stop_daemon d;
  let late = List.init last (fun _ -> set_up_and_stop ()) in
  let setups = List.map snd early @ [ (setup_s, setup_f) ] @ List.map snd late in
  Printf.printf "perfbench: loadavg_1m_after=%.2f\n%!" (loadavg ());
  (* the correctness gate: every reply against an in-process run *)
  let memo = Hashtbl.create 64 in
  let expect _ (q : Workload.query) =
    match Hashtbl.find_opt memo q.Workload.req with
    | Some r -> r
    | None ->
        let r = Service.run_request q.Workload.req in
        Hashtbl.replace memo q.Workload.req r;
        r
  in
  let all = Array.concat (List.map fst early @ [ warm; timed ] @ List.map fst late) in
  let failed = check_replies all ~expect in
  let n = Array.length timed in
  let hits = delta before after [ "cache"; "hits" ] in
  let lookups = delta before after [ "cache"; "lookups" ] in
  let cache_ok =
    lookups = float_of_int n && hits = if w.Workload.expect_hits then lookups else 0.0
  in
  if not cache_ok then
    Printf.printf "perfbench: CHECK FAILED: daemon cache hits %.0f, lookups %.0f, queries %d\n" hits
      lookups n;
  (* Every time is taken at the host's reference speed: a window's times
     are divided by the host factor measured over it (probe.ml), its rate
     multiplied.  Rates and CPU are then medians over windows of whole mix
     cycles, so a burst of load the probe missed spoils a few windows
     instead of the run.  Latency quantiles are over every query of every
     window, so that the p90 of a run rests on hundreds of samples. *)
  let per_window f = median (List.map f windows) in
  let latencies win = List.init win.count (fun i -> timed.(win.first + i).latency_ms) in
  let count win = float_of_int win.count in
  let scaled = List.concat_map (fun win -> List.map (fun l -> l /. win.factor) (latencies win)) windows in
  let latency q = Stats.quantile q scaled in
  let bits s = match s.reply with Ok r -> float_of_int r.Service.bits | Error _ -> 0.0 in
  let window_bits win = mean (List.init win.count (fun i -> bits timed.(win.first + i))) in
  let metrics =
    [
      ("setup_s", median (List.map (fun (s, f) -> s /. f) setups), "s");
      ("qps", per_window (fun win -> count win /. win.wall *. win.factor), "1/s");
      ("latency_p50_ms", latency 0.5, "ms");
      ("latency_p90_ms", latency 0.9, "ms");
      ( "server_cpu_ms_per_query",
        per_window (fun win -> win.cpu *. 1000.0 /. count win /. win.factor),
        "ms" );
      ("server_peak_rss_mb", rss, "MiB");
      ("bits_per_query", per_window window_bits, "bits");
    ]
  in
  let attempted = Array.length all in
  let list f xs = String.concat " " (List.map f xs) in
  Printf.printf "perfbench: %d timed queries in %.3f s, %d windows; set-ups (%d warm-up): %s s\n" n
    (List.fold_left (fun acc win -> acc +. win.wall) 0.0 windows)
    (List.length windows) (Array.length warm)
    (list (fun (s, _) -> Printf.sprintf "%.4f" s) setups);
  Printf.printf "perfbench: host factor by set-up: %s\n"
    (list (fun (_, f) -> Printf.sprintf "%.2f" f) setups);
  Printf.printf "perfbench: host factor by window: %s\n"
    (list (fun win -> Printf.sprintf "%.2f" win.factor) windows);
  Printf.printf "perfbench: raw qps by window: %s\n"
    (list (fun win -> Printf.sprintf "%.1f" (count win /. win.wall)) windows);
  let raw = List.concat_map latencies windows in
  Printf.printf "perfbench: raw: qps %.1f, p50 %.4f ms, p90 %.4f ms, daemon cpu %.4f ms/query\n"
    (per_window (fun win -> count win /. win.wall))
    (Stats.quantile 0.5 raw) (Stats.quantile 0.9 raw)
    (per_window (fun win -> win.cpu *. 1000.0 /. count win));
  Printf.printf "perfbench: at the reference host speed:\n";
  List.iter print_metric metrics;
  Printf.printf "  %-34s %14.4f (latency samples: %d)\n" "error_rate"
    (float_of_int failed /. float_of_int attempted)
    (List.length scaled);
  let correct = failed = 0 && cache_ok in
  emit ~correct ~attempted ~failed metrics;
  correct

(* ------------------------------------------------------------ per layer *)

(* Coverage band: the layers must account for the in-process query time
   to within 30% either way.  A layer left out entirely (the wire overhead
   on chatty, the builds on cold-build) moves it much further; noise and
   the first-build penalty on cold-build (about +5%) stay inside. *)
let coverage_band = (0.7, 1.3)

let phases = [ "read"; "parse"; "cache_lookup"; "run"; "encode"; "write" ]

let per_layer a (w : Workload.t) =
  let d, warm, _, _ = set_up ~tfree:a.tfree w in
  let before = stats d in
  (* a shorter stream than the end-to-end run: every query is replayed *)
  let timed, _ = drive d w ~seconds:(Float.max 0.5 (a.seconds /. 3.0)) in
  let after = stats d in
  let health =
    List.init 40 (fun _ ->
        let t0 = Unix.gettimeofday () in
        (match Service.client_health ~protocol:Proto.V2 ~path:d.Daemon.socket () with
        | Ok _ -> ()
        | Error m -> failwith ("health: " ^ m));
        (Unix.gettimeofday () -. t0) *. 1e6)
  in
  stop_daemon d;
  Printf.printf "perfbench: loadavg_1m_after_serve=%.2f\n%!" (loadavg ());
  (* the replay, over the same stream: set-up first, then the timed part *)
  let r = Replay.create () in
  let warm_samples = Array.map (fun s -> Replay.replay r s.q) warm in
  let samples = Array.map (fun s -> Replay.replay r s.q) timed in
  let all = Array.append warm timed in
  let replayed = Array.append warm_samples samples in
  let failed = check_replies all ~expect:(fun i _ -> replayed.(i).Replay.response) in
  Printf.printf "perfbench: loadavg_1m_after_replay=%.2f\n%!" (loadavg ());
  let n = Array.length samples in
  let ts = Array.to_list samples in
  let builds = List.filter_map (fun s -> s.Replay.build) (Array.to_list replayed) in
  let timed_builds = List.length (List.filter (fun s -> s.Replay.build <> None) ts) in
  let hits = List.length (List.filter (fun s -> s.Replay.hit) ts) in
  let med f l = if l = [] then 0.0 else median (List.map f l) in
  let avg f l = if l = [] then 0.0 else mean (List.map f l) in
  let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l in
  let wire f s = float_of_int (f s.Replay.response.Service.wire) in
  let report f s = float_of_int (f s.Replay.report) in
  let queries = float_of_int n in
  let served = delta before after [ "queries_served" ] in
  let socket_bytes =
    delta before after [ "protocol_versions"; "v1"; "bytes" ]
    +. delta before after [ "protocol_versions"; "v2"; "bytes" ]
  in
  (* the stats exchange that took [after] is itself one accepted connection *)
  let accepted = delta before after [ "connections"; "accepted" ] -. 1.0 in
  let metrics =
    [
      ("graph.instance_ms", med (fun b -> b.Replay.instance_ms) builds, "ms");
      ("graph.partition_ms", med (fun b -> b.Replay.partition_ms) builds, "ms");
      ("graph.builds", float_of_int timed_builds, "count");
      ("graph.alloc_mw_per_build", med (fun b -> b.Replay.alloc_mw) builds, "Mw");
      ("graph.edges_per_build", avg (fun b -> float_of_int b.Replay.edges) builds, "count");
      ("cache.lookups", queries, "count");
      ("cache.hit_ratio", float_of_int hits /. queries, "ratio");
      ("core.run_ms", med (fun s -> s.Replay.core_ms) ts, "ms");
      ("core.alloc_mw_per_query", med (fun s -> s.Replay.core_alloc_mw) ts, "Mw");
      ("core.rounds_per_query", avg (report (fun r -> r.Tfree.Tester.rounds)) ts, "count");
      ("core.bits_per_query", avg (report (fun r -> r.Tfree.Tester.bits)) ts, "bits");
      ("core.max_message_bits", avg (report (fun r -> r.Tfree.Tester.max_message)) ts, "bits");
      ("wire_runtime.overhead_ms", med (fun s -> s.Replay.wired_ms -. s.Replay.core_ms) ts, "ms");
      ("wire_runtime.frames_per_query", avg (wire (fun w -> w.Wire.frames)) ts, "count");
      ("wire_runtime.bytes_per_query", avg (wire (fun w -> w.Wire.wire_bytes)) ts, "bytes");
      ( "wire_runtime.framing_ratio",
        fsum (wire (fun w -> 8 * w.Wire.wire_bytes)) ts
        /. fsum (wire (fun w -> w.Wire.accounted_bits)) ts,
        "ratio" );
      ("codec.v2_roundtrip_us", med (fun s -> s.Replay.v2_us) ts, "us");
      ("codec.v1_roundtrip_us", med (fun s -> s.Replay.v1_us) ts, "us");
      ("codec.v2_alloc_words", med (fun s -> s.Replay.v2_words) ts, "words");
      ("serve.health_rtt_us", median health, "us");
      ("serve.socket_bytes_per_query", socket_bytes /. served, "bytes");
      ("serve.connections_per_query", accepted /. served, "count");
    ]
    @ List.map
        (fun p ->
          (Printf.sprintf "serve.phase_%s_p50_us" p, num [ "phases"; p; "p50" ] after, "us"))
        phases
    @ [
        ("trace.coverage", med Replay.coverage ts, "ratio");
        ("trace.inprocess_ms", med (fun s -> s.Replay.e2e_ms) ts, "ms");
      ]
  in
  (* the per-layer table: self time per query and share of the in-process total *)
  let e2e = fsum (fun s -> s.Replay.e2e_ms) ts in
  Printf.printf "perfbench: traced replay of %d set-up + %d timed queries\n" (Array.length warm) n;
  Printf.printf "  %-14s %14s %10s\n" "layer" "self ms/query" "share";
  let layer_rows = List.map (fun s -> Replay.self_times s) ts in
  List.iter
    (fun layer ->
      let total = fsum (fun row -> List.assoc layer row) layer_rows in
      Printf.printf "  %-14s %14.4f %9.1f%%\n" layer (total /. queries) (100.0 *. total /. e2e))
    [ "codec"; "cache"; "graph"; "core"; "wire_runtime" ];
  Printf.printf "  %-14s %14.4f %9.1f%%\n" "in-process" (e2e /. queries) 100.0;
  List.iter print_metric metrics;
  (* cross-checks against the daemon's own counters *)
  let checks =
    let coverage = med Replay.coverage ts in
    let daemon_hits = delta before after [ "cache"; "hits" ] in
    let daemon_misses = delta before after [ "cache"; "misses" ] in
    let lo, hi = coverage_band in
    [
      ( Printf.sprintf "trace.coverage %.3f inside [%.2f, %.2f]" coverage lo hi,
        coverage >= lo && coverage <= hi );
      ( Printf.sprintf "replay cache hits %d = daemon %.0f" hits daemon_hits,
        float_of_int hits = daemon_hits );
      ( Printf.sprintf "replay graph.builds %d = daemon misses %.0f" timed_builds daemon_misses,
        float_of_int timed_builds = daemon_misses );
      (Printf.sprintf "daemon served %.0f = %d timed queries" served n, served = queries);
    ]
  in
  List.iter
    (fun (what, ok) ->
      Printf.printf "perfbench: check %s: %s\n" what (if ok then "ok" else "FAILED"))
    checks;
  (* the dominance each workload was chosen for; reported, not enforced *)
  let claim, held =
    match w.Workload.name with
    | "cold-build" ->
        let graph = fsum (fun s -> List.assoc "graph" (Replay.self_times s)) ts in
        ( Printf.sprintf "graph is %.1f%% of in-process time (predicted: most)"
            (100.0 *. graph /. e2e),
          graph > 0.5 *. e2e )
    | "chatty" ->
        let over = med (fun s -> s.Replay.wired_ms -. s.Replay.core_ms) ts in
        let core = med (fun s -> s.Replay.core_ms) ts in
        ( Printf.sprintf "wire_runtime.overhead_ms %.2f vs core.run_ms %.2f (predicted: larger)"
            over core,
          over > core )
    | _ ->
        ( Printf.sprintf "graph.builds %d, cache.hit_ratio %.3f (predicted: 0 and 1)" timed_builds
            (float_of_int hits /. queries),
          timed_builds = 0 && hits = n )
  in
  Printf.printf "perfbench: dominance: %s: %s\n" claim
    (if held then "confirmed" else "NOT confirmed");
  let correct = failed = 0 && List.for_all snd checks in
  emit ~correct ~attempted:(Array.length all) ~failed metrics;
  correct

(* ----------------------------------------------------------------- main *)

let () =
  let a = parse_args () in
  let w =
    match Workload.of_name ~size:a.size ~seed:a.seed a.workload with
    | Some w -> w
    | None ->
        fail "unknown workload %S (expected %s)" a.workload (String.concat ", " Workload.names)
  in
  Daemon.sweep_stale ();
  context a;
  Printf.printf "perfbench: loadavg_1m_before=%.2f\n%!" (loadavg ());
  let ok = if a.trace then per_layer a w else end_to_end a w in
  exit (if ok then 0 else 1)
