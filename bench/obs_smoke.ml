(* Observability smoke behind the @obs-smoke alias: the serve-grade
   observability surface end to end, against the real binary.

   Execs the tfree CLI as the daemon of {!Tfree_fixture.with_daemon}
   (which reaps it and insists on a clean exit) with every observability
   flag on (--log/--log-level, --slow-us, --trace-sample/--trace-out,
   --metrics-file/--metrics-interval), drives queries over both wire
   protocols plus a batch — each checked against a locally computed run,
   zero wrong verdicts — and then asserts, from the outside:

     - {"op": "health"} answers over JSON v1 AND the v2 frame tag, with
       the O(1) scalar payload and cache occupancy;
     - the stats JSON's per-phase histograms honor the phase-count
       contract: cache_lookup, run and encode each hold exactly one
       sample per served query, as does the end-to-end latency histogram;
     - `tfree client --stats --format prom` emits exposition text that
       passes the strict {!Prom.validate} parser, as does the --metrics-file
       the daemon rewrites on its interval;
     - the --log file is well-formed JSONL (every line parses, every line
       carries ts/level/event) and the lifecycle events landed: start,
       accept, slow_query (--slow-us 1 makes every query slow),
       metrics_dump, trace_written, shutdown;
     - the sampled trace file exists (the dune rule chains trace_check on
       it, re-asserting the message-decomposition identity from the bytes
       alone).

   Usage: obs_smoke TFREE_BIN *)

open Tfree_util
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Prom = Tfree_obs.Prom
module Phase = Tfree_obs.Phase
module Fixture = Tfree_fixture

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("obs_smoke: " ^ msg); exit 1) fmt

let log_file = "obs_serve.log"
let metrics_file = "obs_metrics.prom"
let trace_file = "obs_trace.json"
let prom_cli_file = "obs_prom_cli.txt"

let int_at = Fixture.int_at

let () =
  let bin = if Array.length Sys.argv > 1 then Sys.argv.(1) else fail "usage: obs_smoke TFREE_BIN" in
  (* ---- the daemon, through the real CLI with every obs flag on ---- *)
  let served =
    Fixture.with_daemon ~tag:"obs"
      (fun path ->
        Unix.execv bin
          [|
            bin; "serve"; "--socket"; path; "--log"; log_file; "--log-level"; "debug"; "--slow-us";
            "1"; "--trace-sample"; "1"; "--trace-out"; trace_file; "--metrics-file"; metrics_file;
            "--metrics-interval"; "0.2";
          |])
      (fun path ->
        (* ---- queries over both protocols, checked against local runs ---- *)
        let request seed = { Service.default_request with n = 200; seed } in
        let expected = Array.init 3 (fun i -> Service.run_request (request (1 + i))) in
        let check_resp label (resp : Service.response) seed =
          let e = expected.(seed - 1) in
          if resp.Service.verdict <> e.Service.verdict then
            fail "[%s] wrong verdict on seed %d" label seed;
          if resp.Service.bits <> e.Service.bits then
            fail "[%s] wrong bit count on seed %d" label seed
        in
        List.iter
          (fun (label, pref) ->
            List.iter
              (fun seed ->
                match Service.client_query ~protocol:pref ~path (request seed) with
                | Ok resp -> check_resp label resp seed
                | Error msg -> fail "[%s] query seed %d: %s" label seed msg)
              [ 1; 2; 3 ])
          [ ("v1", Proto.V1); ("v2", Proto.V2) ];
        (match Service.client_batch ~protocol:Proto.V2 ~path [ request 1; request 2 ] with
        | Ok [ Ok r1; Ok r2 ] ->
            check_resp "batch" r1 1;
            check_resp "batch" r2 2
        | Ok _ -> fail "[batch] unexpected reply shape"
        | Error msg -> fail "[batch] %s" msg);
        let served_expected = 8 in
        (* ---- health over v1 and v2 ---- *)
        List.iter
          (fun (label, pref) ->
            match Service.client_health ~protocol:pref ~path () with
            | Error msg -> fail "[%s] health: %s" label msg
            | Ok h ->
                (match Option.bind (Jsonout.member "uptime_s" h) Jsonout.to_float with
                | Some uptime when uptime >= 0.0 -> ()
                | _ -> fail "[%s] negative or missing uptime" label);
                if int_at h [ "queries_served" ] <> served_expected then
                  fail "[%s] health served %d, expected %d" label (int_at h [ "queries_served" ])
                    served_expected;
                if int_at h [ "errors" ] <> 0 then fail "[%s] health errors != 0" label;
                if int_at h [ "cache"; "capacity" ] <> 32 then
                  fail "[%s] health cache capacity %d != default 32" label
                    (int_at h [ "cache"; "capacity" ]);
                if int_at h [ "cache"; "entries" ] < 1 then
                  fail "[%s] health cache empty after cached queries" label)
          [ ("v1", Proto.V1); ("v2", Proto.V2) ];
        (* ---- stats: phase-count contract + Prometheus exposition ---- *)
        let stats =
          match Service.client_stats ~path () with Ok s -> s | Error msg -> fail "stats: %s" msg
        in
        let served = int_at stats [ "queries_served" ] in
        if served <> served_expected then fail "served %d, expected %d" served served_expected;
        if int_at stats [ "errors" ] <> 0 then fail "errors on a clean run";
        if int_at stats [ "latency_us"; "count" ] <> served then
          fail "latency histogram count %d != served %d"
            (int_at stats [ "latency_us"; "count" ])
            served;
        List.iter
          (fun phase ->
            let count = int_at stats [ "phases"; Phase.name phase; "count" ] in
            if count <> served then
              fail "phase %s counted %d samples, served %d" (Phase.name phase) count served)
          [ Phase.Cache_lookup; Phase.Run; Phase.Encode ];
        (* read and parse count at least one unit per exchange; write lags the
           stats snapshot by the in-flight stats exchange itself *)
        if int_at stats [ "phases"; "read"; "count" ] < served then
          fail "read phase undercounts";
        (match Prom.validate (Prom.of_stats stats) with
        | Ok () -> ()
        | Error msg -> fail "Prom.of_stats failed its own validator: %s" msg);
        (* the CLI's --stats --format prom, captured and validated *)
        let out =
          Unix.openfile prom_cli_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        let cli =
          Unix.create_process bin
            [| bin; "client"; "--socket"; path; "--stats"; "--format"; "prom" |]
            Unix.stdin out Unix.stderr
        in
        Unix.close out;
        (match Unix.waitpid [] cli with
        | _, Unix.WEXITED 0 -> ()
        | _ -> fail "client --stats --format prom exited nonzero");
        let cli_text = In_channel.with_open_text prom_cli_file In_channel.input_all in
        (match Prom.validate cli_text with
        | Ok () -> ()
        | Error msg -> fail "CLI prom output invalid: %s" msg);
        (* ---- the daemon's periodic --metrics-file dump ---- *)
        Unix.sleepf 0.5;
        let dump_text = In_channel.with_open_text metrics_file In_channel.input_all in
        (match Prom.validate dump_text with
        | Ok () -> ()
        | Error msg -> fail "--metrics-file dump invalid: %s" msg);
        served)
  in
  (* ---- the artifacts, once the daemon has exited cleanly ---- *)
  let log_lines =
    In_channel.with_open_text log_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  if log_lines = [] then fail "--log wrote nothing";
  let events = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match Jsonout.parse line with
      | Error msg -> fail "log line is not JSON (%s): %s" msg line
      | Ok j ->
          ignore (int_at j [ "ts" ]);
          (match Jsonout.member "level" j with
          | Some (Jsonout.Str ("debug" | "info" | "warn" | "error")) -> ()
          | _ -> fail "log line without a known level: %s" line);
          (match Jsonout.member "event" j with
          | Some (Jsonout.Str e) -> Hashtbl.replace events e ()
          | _ -> fail "log line without an event: %s" line))
    log_lines;
  List.iter
    (fun e -> if not (Hashtbl.mem events e) then fail "lifecycle event %S never logged" e)
    [ "start"; "accept"; "slow_query"; "metrics_dump"; "trace_written"; "shutdown" ];
  if not (Sys.file_exists trace_file) then fail "--trace-out wrote nothing";
  Printf.printf
    "obs_smoke: ok (%d queries over v1+v2+batch, 0 wrong; health on both protocols; %d JSONL log \
     lines; prom exposition valid from CLI and --metrics-file; trace written)\n"
    served (List.length log_lines)
