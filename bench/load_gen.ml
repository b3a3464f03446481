(* Closed-loop load generator for tfree-serve, behind the @load-smoke
   alias.

   For each wire protocol selected by [--protocol] (default: both v1 and
   v2), forks one server and [--clients] concurrent client processes; each
   client drives [--queries] protocol queries through the socket, grouped
   into batch exchanges of [--batch] requests, cycling [--seeds] distinct
   instance seeds so the server's LRU cache sees genuine reuse.  Every
   reply is compared against a locally computed run of the same request —
   a single wrong verdict (or bit count, or a wire report that does not
   reconcile) is a hard failure.

   The parent then reconciles the server's [{"op": "stats"}] telemetry
   against the clients' own tallies:

     queries_served   = clients x queries + retries x batch
     cache lookups    = queries_served, misses = distinct seeds,
                        hits = lookups - misses (> 0 whenever seeds repeat)
     batches / items  = exchanges incl. retried ones / batches x batch
     injected_faults  = the whole [--fault] schedule, with exactly one
                        client retry per non-benign firing; errors = 0
     protocol_versions.vN
                      = all serving lands on the active version: its
                        served gauge equals queries_served, its byte gauge
                        equals the clients' framed bytes over all-ok
                        exchanges, and the other version's gauges are 0

   and reports latency and wire traffic per query — framed bytes (what
   crosses the socket: newline framing for v1, length prefix + checksum
   for v2) and payload bytes (the JSON text / frame body alone) separately,
   side by side across versions when both run.  Exit status is nonzero on
   any violation, so the alias doubles as a concurrency regression gate.

   Latency reconciliation: each client also records its per-exchange
   latencies into a bounded {!Tfree_obs.Histogram} shipped down the pipe
   in compact form.  The parent merges the per-client histograms and
   insists the merge is bit-identical to a histogram of all raw samples
   (merge over split histograms = unsplit), that the merged quantiles
   agree with {!Stats.quantile} over the raw samples within the
   histogram's documented precision, and that the server's own latency
   histogram counted every served query; the server's per-phase
   histograms must account one run and one encode per served query, and
   their p99s are reported.

   The daemon and the client processes are forked through the shared
   {!Tfree_fixture}, whose children leave with [Unix._exit]: the parent's
   [at_exit] handlers run once, in the parent. *)

open Tfree_util
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Fault = Tfree_wire.Fault
module Metrics = Tfree_wire.Metrics
module Wire = Tfree_wire.Wire_runtime
module Histogram = Tfree_obs.Histogram
module Phase = Tfree_obs.Phase
module Fixture = Tfree_fixture

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("load_gen: " ^ msg); exit 1) fmt

(* ------------------------------------------------------------ arguments *)

let clients = ref 4
let queries = ref 8
let batch = ref 2
let seeds = ref 4
let retries = ref 8
let fault_spec = ref "1:drop,3:corrupt@13,6:close"
let max_clients = ref 64
let cache_capacity = ref 32
let inst_n = ref 200
let protocol_mode = ref "both"

let specs =
  [
    ("--clients", Arg.Set_int clients, "N  concurrent client processes (default 4)");
    ("--queries", Arg.Set_int queries, "Q  queries per client; multiple of --batch (default 8)");
    ("--batch", Arg.Set_int batch, "B  requests per batch exchange; 1 = single lines (default 2)");
    ("--seeds", Arg.Set_int seeds, "S  distinct instance seeds cycled per client (default 4)");
    ("--retries", Arg.Set_int retries, "R  client retry budget per exchange (default 8)");
    ("--fault", Arg.Set_string fault_spec,
     "SPEC  server reply-fault schedule, Fault.parse grammar; '' = none");
    ("--max-clients", Arg.Set_int max_clients, "M  server connection cap (default 64)");
    ("--cache", Arg.Set_int cache_capacity, "C  server instance-cache capacity (default 32)");
    ("--n", Arg.Set_int inst_n, "N  instance size per query (default 200)");
    ("--protocol", Arg.Set_string protocol_mode,
     "P  wire protocol to drive: v1, v2 or both (default both)");
  ]

let usage = "load_gen [options]  -- closed-loop load generator for tfree-serve"

(* ------------------------------------------------------- request plan *)

let request_for seed = { Service.default_request with n = !inst_n; seed }

(* Client [c]'s query stream: seeds cycle 1..S, identically across
   clients, so the distinct instance-key count is exactly S. *)
let plan_for_client _c =
  let reqs = List.init !queries (fun q -> request_for (1 + (q mod !seeds))) in
  let rec group = function
    | [] -> []
    | l ->
        let rec take n = function
          | x :: tl when n > 0 ->
              let h, rest = take (n - 1) tl in
              (x :: h, rest)
          | rest -> ([], rest)
        in
        let h, rest = take !batch l in
        h :: group rest
  in
  group reqs

(* The exact wire bytes of one all-ok exchange, as (framed, payload):
   request plus reply as the client serializes them and the server shapes
   its replies (a batch item's reply is byte-for-byte the single reply in
   both protocols).  Framed is what the server's per-version byte gauge
   records — line bytes incl. newlines for v1, whole frames for v2 — so
   summing this over all-ok exchanges must reproduce that gauge exactly.
   Payload strips the framing: newlines for v1, length prefix and checksum
   for v2. *)
let exchange_bytes ~pref reqs resps =
  match (pref : Proto.pref) with
  | V1 ->
      let request_line =
        match reqs with
        | [ r ] -> Jsonout.to_line (Service.request_to_json r)
        | _ -> Jsonout.to_line (Service.batch_request_to_json reqs)
      in
      let reply_line =
        match resps with
        | [ r ] -> Jsonout.to_line (Service.response_to_json r)
        | _ ->
            Jsonout.to_line
              (Jsonout.Obj
                 [
                   ("ok", Jsonout.Bool true);
                   ("count", Jsonout.Num (float_of_int (List.length resps)));
                   ("results", Jsonout.List (List.map Service.response_to_json resps));
                 ])
      in
      let payload = String.length request_line + String.length reply_line in
      (payload + 2 (* the newlines *), payload)
  | V2 | Auto ->
      let b = Proto.create_buf () in
      (match reqs with
      | [ r ] -> Service.encode_query_frame b r
      | _ -> Service.encode_batch_frame b reqs);
      let qf = Proto.frame_len b and qp = Proto.frame_body_len b in
      (match resps with
      | [ r ] -> Service.encode_response_frame b r
      | _ -> Service.encode_batch_reply_frame b resps);
      (qf + Proto.frame_len b, qp + Proto.frame_body_len b)

(* ------------------------------------------------------- client process *)

type tally = {
  mutable ok : int;
  mutable wrong : int;
  mutable failed : int;
  mutable retries : int;
  mutable framed : int;
  mutable payload : int;
  mutable lats_us : int list;  (** newest first; one sample per batch chunk *)
}

let fresh_tally () =
  { ok = 0; wrong = 0; failed = 0; retries = 0; framed = 0; payload = 0; lats_us = [] }

let check_item expected = function
  | Error msg -> `Failed msg
  | Ok (resp : Service.response) ->
      if
        resp.Service.verdict = expected.Service.verdict
        && resp.Service.bits = expected.Service.bits
        && resp.Service.rounds = expected.Service.rounds
        && Wire.reconciles resp.Service.wire
      then `Ok
      else `Wrong

(* Client [c]: drive its plan, one exchange of one request as a query and
   of several as a batch, and tally every reply against the local run. *)
let run_client ~pref ~path ~expected c =
  let m = Metrics.create () in
  let t = fresh_tally () in
  List.iter
    (fun reqs ->
      let t0 = Unix.gettimeofday () in
      let results =
        match reqs with
        | [ r ] ->
            [
              Service.client_query ~timeout_s:5.0 ~retries:!retries ~backoff_s:0.02
                ~backoff_seed:c ~metrics:m ~protocol:pref ~path r;
            ]
        | _ -> (
            match
              Service.client_batch ~timeout_s:5.0 ~retries:!retries ~backoff_s:0.02
                ~backoff_seed:c ~metrics:m ~protocol:pref ~path reqs
            with
            | Ok items -> items
            | Error msg -> List.map (fun _ -> Error msg) reqs)
      in
      List.iter2
        (fun r result ->
          match check_item (expected r.Service.seed) result with
          | `Ok -> t.ok <- t.ok + 1
          | `Wrong -> t.wrong <- t.wrong + 1
          | `Failed msg ->
              Printf.eprintf "load_gen: client %d exchange failed: %s\n%!" c msg;
              t.failed <- t.failed + 1)
        reqs results;
      if List.for_all Result.is_ok results then begin
        let framed, payload = exchange_bytes ~pref reqs (List.map Result.get_ok results) in
        t.framed <- t.framed + framed;
        t.payload <- t.payload + payload
      end;
      t.lats_us <- int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) :: t.lats_us)
    (plan_for_client c);
  t.retries <- Metrics.count m Metrics.Retries;
  t

(* One tally line per client; the seventh token is its raw latency samples
   and the eighth its latency histogram in {!Histogram.to_compact} form
   (space-free), built from exactly those samples — the parent checks the
   merge of these against a histogram of all the raw samples. *)
let tally_line t =
  let lats = String.concat "," (List.rev_map string_of_int t.lats_us) in
  let h = Histogram.create () in
  List.iter (fun us -> Histogram.record h (float_of_int us)) t.lats_us;
  Printf.sprintf "%d %d %d %d %d %d %s %s" t.ok t.wrong t.failed t.retries t.framed t.payload lats
    (Histogram.to_compact h)

(* --------------------------------------------------------- the harness *)

type run = {
  t : tally;  (** every client's tally summed; [lats_us] holds all samples *)
  stats : Jsonout.t;  (** the server's stats once every client is done *)
}

(* One full load run: fork the daemon and the client processes, drain and
   merge the tallies, fetch the stats and shut the daemon down.  The merge is checked here: the
   per-client histograms merged = one histogram of all raw samples,
   exactly, with quantiles tracking the exact sample quantiles within the
   histogram's documented precision; and the daemon's own served count
   agrees with its stats. *)
let drive ~label ~tag ~pref ~fault ~expected =
  let serve path =
    Service.serve ~max_clients:!max_clients ~line_timeout_s:10.0 ~fault
      ~cache_capacity:!cache_capacity ~path ()
  in
  let (lines, stats), served =
    Fixture.run_daemon ~tag serve (fun path ->
        let lines =
          Fixture.fork_clients !clients (fun c -> tally_line (run_client ~pref ~path ~expected c))
        in
        match Service.client_stats ~protocol:pref ~path () with
        | Ok stats -> (lines, stats)
        | Error msg -> fail "[%s] stats query: %s" label msg)
  in
  let t = fresh_tally () in
  let merged = Histogram.create () in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ o; w; f; r; fb; pb; ls; hc ] ->
          t.ok <- t.ok + int_of_string o;
          t.wrong <- t.wrong + int_of_string w;
          t.failed <- t.failed + int_of_string f;
          t.retries <- t.retries + int_of_string r;
          t.framed <- t.framed + int_of_string fb;
          t.payload <- t.payload + int_of_string pb;
          List.iter
            (fun s -> if s <> "" then t.lats_us <- int_of_string s :: t.lats_us)
            (String.split_on_char ',' ls);
          (match Histogram.of_compact hc with
          | Ok h -> Histogram.merge merged h
          | Error msg -> fail "[%s] garbled client histogram: %s" label msg)
      | _ -> fail "[%s] garbled client tally %S" label line)
    lines;
  let lats = List.map float_of_int t.lats_us in
  let reference = Histogram.create () in
  List.iter (Histogram.record reference) lats;
  if not (Histogram.equal merged reference) then
    fail "[%s] merged client histograms differ from the unsplit histogram of all samples" label;
  if Histogram.count merged <> List.length lats then
    fail "[%s] merged histogram holds %d samples, clients reported %d" label
      (Histogram.count merged) (List.length lats);
  List.iter
    (fun p ->
      let exact = Stats.quantile p lats in
      let approx = Histogram.quantile merged p in
      let tolerance = Histogram.max_error merged exact in
      if Float.abs (approx -. exact) > tolerance then
        fail "[%s] histogram p%.0f %.1f drifts from exact %.1f beyond precision %.1f" label
          (100.0 *. p) approx exact tolerance)
    [ 0.5; 0.9; 0.99 ];
  if served <> Some (Fixture.int_at stats [ "queries_served" ]) then
    fail "[%s] serve returned %s, its stats say %d served" label
      (match served with Some n -> string_of_int n | None -> "no count")
      (Fixture.int_at stats [ "queries_served" ]);
  { t; stats }

type run_summary = {
  label : string;
  framed_per_query : float;
  payload_per_query : float;
  us_per_query : float;
}

(* One load run over wire protocol [pref] against a single server,
   reconciled against the stats — including the per-version served/byte
   gauges — and reported.  Returns the per-query figures for the
   cross-version comparison. *)
let run_load ~pref ~fault ~expected =
  let label = Proto.pref_to_string pref in
  let active = match (pref : Proto.pref) with V1 -> 1 | V2 | Auto -> 2 in
  let { t; stats } = drive ~label ~tag:("load-" ^ label) ~pref ~fault ~expected in
  let stat = Fixture.int_at stats in
  let total = !clients * !queries in
  if t.wrong > 0 then fail "[%s] %d wrong verdicts out of %d queries" label t.wrong total;
  if t.failed > 0 then fail "[%s] %d exchanges exhausted their retry budget" label t.failed;
  if t.ok <> total then fail "[%s] served %d ok replies, expected %d" label t.ok total;
  let served = stat [ "queries_served" ] in
  let expect_served = total + (t.retries * !batch) in
  if served <> expect_served then
    fail "[%s] server served %d queries; clients account for %d (= %d ok + %d retries x %d batch)"
      label served expect_served total t.retries !batch;
  let nonbenign =
    List.length (List.filter (fun e -> not (Fault.benign e.Fault.kind)) fault)
  in
  if stat [ "injected_faults" ] <> List.length fault then
    fail "[%s] server injected %d faults, scheduled %d" label (stat [ "injected_faults" ])
      (List.length fault);
  if t.retries <> nonbenign then
    fail "[%s] clients spent %d retries; the schedule's %d non-benign faults force exactly that many"
      label t.retries nonbenign;
  if stat [ "errors" ] <> 0 then
    fail "[%s] server tallied %d errors on a clean run" label (stat [ "errors" ]);
  (* every query serves — and every byte lands — on the active version;
     the byte gauge counts clean replies only, which is exactly the
     clients' all-ok exchanges (a sabotaged attempt is retried, and only
     the clean final attempt is recorded on either side) *)
  for v = 1 to Metrics.max_wire_version do
    let gauge k = stat [ "protocol_versions"; Printf.sprintf "v%d" v; k ] in
    let expect_served = if v = active then served else 0 in
    let expect_bytes = if v = active then t.framed else 0 in
    if gauge "served" <> expect_served then
      fail "[%s] v%d served gauge %d, expected %d" label v (gauge "served") expect_served;
    if gauge "bytes" <> expect_bytes then
      fail "[%s] v%d byte gauge %d; clients' framed all-ok bytes total %d" label v (gauge "bytes")
        expect_bytes
  done;
  let hits = stat [ "cache"; "hits" ]
  and misses = stat [ "cache"; "misses" ]
  and lookups = stat [ "cache"; "lookups" ] in
  if !cache_capacity > 0 then begin
    if lookups <> served then fail "[%s] cache lookups %d != queries served %d" label lookups served;
    if hits + misses <> lookups then
      fail "[%s] cache hits %d + misses %d != lookups %d" label hits misses lookups;
    if !cache_capacity >= !seeds && misses <> !seeds then
      fail "[%s] cache misses %d != %d distinct seeds" label misses !seeds;
    if served > !seeds && hits = 0 then fail "[%s] seed reuse produced no cache hits" label
  end;
  let exchanges = total / !batch + t.retries in
  if !batch > 1 then begin
    if stat [ "batch"; "batches" ] <> exchanges then
      fail "[%s] server saw %d batches, clients sent %d" label (stat [ "batch"; "batches" ])
        exchanges;
    if stat [ "batch"; "items" ] <> exchanges * !batch then
      fail "[%s] server saw %d batch items, clients sent %d" label (stat [ "batch"; "items" ])
        (exchanges * !batch)
  end;
  (* the server's own bounded histograms: the end-to-end latency histogram
     counted every served query, and the per-phase histograms account
     exactly one run and one encode per served query *)
  if stat [ "latency_us"; "count" ] <> served then
    fail "[%s] server latency histogram holds %d samples, served %d queries" label
      (stat [ "latency_us"; "count" ]) served;
  let phase p k = stat [ "phases"; Phase.name p; k ] in
  if phase Phase.Run "count" <> served then
    fail "[%s] run phase counted %d samples, served %d queries" label (phase Phase.Run "count")
      served;
  if phase Phase.Encode "count" <> served then
    fail "[%s] encode phase counted %d samples, served %d queries" label
      (phase Phase.Encode "count") served;
  (* ---- report ---- *)
  let lats = List.map float_of_int t.lats_us in
  let q p = Stats.quantile p lats /. 1000.0 in
  Printf.printf
    "load_gen: [%s] %d clients x %d queries (batch %d, %d seeds): 0 wrong, %d retries, %d injected\n"
    label !clients !queries !batch !seeds t.retries (stat [ "injected_faults" ]);
  Printf.printf "load_gen: [%s] cache %d/%d/%d hit/miss/lookups; %d batches\n" label hits misses
    lookups
    (if !batch > 1 then exchanges else 0);
  Printf.printf "load_gen: [%s] latency/exchange ms p50 %.1f  p90 %.1f  p99 %.1f\n" label (q 0.50)
    (q 0.90) (q 0.99);
  Printf.printf "load_gen: [%s] server phase p99 us:%s\n" label
    (String.concat ""
       (List.map (fun p -> Printf.sprintf "  %s %d" (Phase.name p) (phase p "p99")) Phase.all));
  let per_query b = float_of_int b /. float_of_int total in
  Printf.printf "load_gen: [%s] wire bytes/query %.1f framed, %.1f payload\n" label
    (per_query t.framed) (per_query t.payload);
  {
    label;
    framed_per_query = per_query t.framed;
    payload_per_query = per_query t.payload;
    us_per_query = List.fold_left ( +. ) 0.0 lats /. float_of_int total;
  }

let () =
  Arg.parse specs (fun a -> fail "unexpected argument %S" a) usage;
  if !clients < 1 || !queries < 1 || !batch < 1 || !seeds < 1 then
    fail "--clients, --queries, --batch and --seeds must be positive";
  if !queries mod !batch <> 0 then
    fail "--queries (%d) must be a multiple of --batch (%d)" !queries !batch;
  if !clients > !max_clients then
    fail "--clients (%d) beyond --max-clients (%d) would shed; raise the cap" !clients !max_clients;
  let prefs =
    match !protocol_mode with
    | "v1" -> [ Proto.V1 ]
    | "v2" -> [ Proto.V2 ]
    | "both" -> [ Proto.V1; Proto.V2 ]
    | p -> fail "bad --protocol %S (expected v1, v2 or both)" p
  in
  let fault =
    match Fault.parse !fault_spec with
    | Ok s -> s
    | Error msg -> fail "bad --fault spec: %s" msg
  in
  (* expected replies, computed locally before any forking *)
  let expected_arr =
    Array.init !seeds (fun i -> Service.run_request (request_for (1 + i)))
  in
  let expected seed = expected_arr.(seed - 1) in
  let summaries = List.map (fun pref -> run_load ~pref ~fault ~expected) prefs in
  (match summaries with
  | [ s1; s2 ] ->
      Printf.printf
        "load_gen: side by side  bytes/query framed %s %.1f vs %s %.1f | payload %.1f vs %.1f | us/query %.1f vs %.1f\n"
        s1.label s1.framed_per_query s2.label s2.framed_per_query s1.payload_per_query
        s2.payload_per_query s1.us_per_query s2.us_per_query;
      if s2.framed_per_query >= s1.framed_per_query then
        fail "v2 framed bytes/query %.1f is not below v1's %.1f" s2.framed_per_query
          s1.framed_per_query;
      if s2.payload_per_query >= s1.payload_per_query then
        fail "v2 payload bytes/query %.1f is not below v1's %.1f" s2.payload_per_query
          s1.payload_per_query
  | _ -> ());
  print_endline "load_gen: ok"
