(* Validator behind the @bench-smoke alias: parse BENCH_results.json back and
   check the tfree-bench/v1 shape, so a malformed emitter fails the build
   rather than silently producing an unreadable baseline. *)

open Tfree_util

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("check_json: " ^ msg); exit 1) fmt

let require name = function Some v -> v | None -> fail "missing field %S" name

let field doc name = require name (Jsonout.member name doc)

let float_field doc name =
  match Jsonout.to_float (field doc name) with
  | Some x -> x
  | None -> fail "field %S is not a number" name

(* The tfree/* protocol, substrate and lower-bound rows (bench/main.ml):
   every unfiltered document must carry each by name, so a regeneration
   that drops one fails here instead of shrinking the baseline. *)
let protocol_rows =
  [ "table1/unrestricted"; "table1/sim-low"; "table1/sim-high"; "table1/sim-oblivious";
    "table1/exact-baseline"; "substrate/triangle-find"; "substrate/greedy-packing";
    "substrate/degree-approx"; "lower/bm-reduction"; "lower/streaming-detector" ]

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_results.json" in
  let content =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> fail "%s" msg
  in
  let doc =
    match Jsonout.parse content with
    | Ok v -> v
    | Error msg -> fail "%s: invalid JSON: %s" path msg
  in
  (match field doc "schema" with
  | Str "tfree-bench/v1" -> ()
  | Str other -> fail "unexpected schema %S" other
  | _ -> fail "schema is not a string");
  (* A document produced with --only flags carries the filter (one id as a
     string, several as a list) and covers exactly the matching experiments;
     micro rows are absent from filtered runs. *)
  let check_known id =
    if Tfree_experiments.Registry.find id = None then fail "only names unknown experiment %S" id;
    id
  in
  let only =
    match Jsonout.member "only" doc with
    | None -> None
    | Some (Str id) -> Some [ check_known id ]
    | Some (List ids) ->
        Some
          (List.map
             (function Jsonout.Str id -> check_known id | _ -> fail "only list entry is not a string")
             ids)
    | Some _ -> fail "only is not a string or a list"
  in
  let harness = field doc "harness" in
  let w1 = float_field harness "wall_s_jobs1" in
  let wn = float_field harness "wall_s_jobsN" in
  if w1 <= 0.0 || wn <= 0.0 then fail "non-positive harness wall-clock";
  ignore (float_field harness "speedup");
  (match field harness "tables_identical" with
  | Bool true -> ()
  | Bool false -> fail "harness tables differ between job counts"
  | _ -> fail "tables_identical is not a bool");
  let experiments =
    match Jsonout.to_list (field harness "experiments") with
    | Some (_ :: _ as l) -> l
    | Some [] -> fail "empty experiments list"
    | None -> fail "experiments is not a list"
  in
  (* An experiment row may carry a per-phase trace profile; when it does,
     the decomposition identity must hold inside the document itself: the
     phase bits sum to accounted_bits, and the size histogram covers every
     traced message. *)
  let check_trace id tr =
    (match field tr "identity" with
    | Bool true -> ()
    | Bool false -> fail "%s: trace identity flag is false" id
    | _ -> fail "%s: trace identity is not a bool" id);
    let accounted = int_of_float (float_field tr "accounted_bits") in
    let phases =
      match Jsonout.to_list (field tr "phases") with
      | Some (_ :: _ as l) -> l
      | _ -> fail "%s: trace phases missing or empty" id
    in
    let phase_bits, phase_msgs =
      List.fold_left
        (fun (bits, msgs) p ->
          (match field p "phase" with Jsonout.Str _ -> () | _ -> fail "%s: phase name is not a string" id);
          ( bits + int_of_float (float_field p "bits"),
            msgs + int_of_float (float_field p "messages") ))
        (0, 0) phases
    in
    if phase_bits <> accounted then
      fail "%s: trace decomposition broken — phases sum to %d bits, accounted %d" id phase_bits
        accounted;
    let hist =
      match Jsonout.to_list (field tr "size_histogram") with
      | Some l -> l
      | None -> fail "%s: size_histogram is not a list" id
    in
    let hist_msgs =
      List.fold_left (fun acc b -> acc + int_of_float (float_field b "count")) 0 hist
    in
    if hist_msgs <> phase_msgs then
      fail "%s: size histogram covers %d messages, phases carry %d" id hist_msgs phase_msgs
  in
  let ids =
    List.map
      (fun e ->
        let id =
          match field e "id" with
          | Jsonout.Str id -> id
          | _ -> fail "experiment id is not a string"
        in
        if Tfree_experiments.Registry.find id = None then fail "unknown experiment id %S" id;
        ignore (float_field e "wall_s_jobs1");
        ignore (float_field e "wall_s_jobsN");
        Option.iter (check_trace id) (Jsonout.member "trace" e);
        id)
      experiments
  in
  (match only with
  | Some filter when List.sort compare ids <> List.sort compare filter ->
      fail "document filtered to [%s] but covers [%s]" (String.concat "; " filter)
        (String.concat "; " ids)
  | _ -> ());
  let micro =
    match Jsonout.to_list (field doc "micro") with
    | Some (_ :: _ as l) -> l
    | Some [] -> if only = None then fail "empty micro list" else []
    | None -> fail "micro is not a list"
  in
  (* Every spread a row carries (ns_spread, <x>_ns_spread) is non-negative,
     and a row timed per run has a positive ns_per_run, its ns_spread and
     non-negative words. *)
  List.iter
    (fun m ->
      let name =
        match field m "name" with Jsonout.Str n -> n | _ -> fail "micro name is not a string"
      in
      let fields = match m with Jsonout.Obj fields -> fields | _ -> [] in
      List.iter
        (fun (k, _) ->
          if String.ends_with ~suffix:"ns_spread" k && not (float_field m k >= 0.0) then
            fail "%s: %s negative" name k)
        fields;
      if List.mem_assoc "ns_per_run" fields then begin
        if not (float_field m "ns_per_run" > 0.0) then fail "%s: ns_per_run not positive" name;
        if not (float_field m "words" >= 0.0) then fail "%s: words negative" name;
        ignore (float_field m "ns_spread")
      end)
    micro;
  (* The wire-codec rows (bench/micro_wire.ml) must be present on every
     unfiltered document, and the document itself must witness the v2-beats-v1
     gates: binary strictly below JSON on framed and payload bytes/query and
     on encode/decode ns/query, allocation inside the zero-alloc budget.  A
     baseline that no longer shows the win is as broken as a malformed one. *)
  if only = None then begin
    let wire_row name =
      match
        List.find_opt
          (fun m -> match Jsonout.member "name" m with Some (Str n) -> n = name | _ -> false)
          micro
      with
      | Some m -> m
      | None -> fail "missing micro row %S" name
    in
    List.iter (fun n -> ignore (float_field (wire_row ("tfree/" ^ n)) "ns_per_run")) protocol_rows;
    let beaten name =
      let row = wire_row name in
      let v1 = float_field row "v1" and v2 = float_field row "v2" in
      if not (v2 > 0.0) then fail "%s: v2 (%g) not positive" name v2;
      if not (v2 < v1) then fail "%s: v2 (%g) is not below v1 (%g)" name v2 v1;
      ignore (float_field row "v1_ns_spread" +. float_field row "v2_ns_spread")
    in
    beaten "micro/serve-encode-ns";
    beaten "micro/serve-decode-ns";
    let bytes = wire_row "micro/serve-bytes-per-query" in
    List.iter
      (fun side ->
        let v1 = float_field bytes ("v1_" ^ side) and v2 = float_field bytes ("v2_" ^ side) in
        if not (v2 < v1) then
          fail "micro/serve-bytes-per-query: v2 %s bytes (%g) not below v1 (%g)" side v2 v1)
      [ "framed"; "payload" ];
    let words = wire_row "micro/serve-minor-words-per-query" in
    let v2 = float_field words "v2" and limit = float_field words "limit" in
    if limit <= 0.0 then fail "micro/serve-minor-words-per-query: non-positive limit";
    if v2 > limit then
      fail "micro/serve-minor-words-per-query: %g minor words/query over the %g budget" v2 limit;
    (* The wire-tap row: every message shape timed, and the fixed-width
       frames inside their per-delivery allocation budgets, which may be no
       looser than the ones the micro gate holds them to. *)
    let tap = wire_row "micro/tap-frame" in
    let limit = float_field tap "limit" in
    if limit <= 0.0 then fail "micro/tap-frame: non-positive limit";
    if limit > Micro_wire.tap_words_limit then
      fail "micro/tap-frame: limit %g is looser than the %g-word gate" limit
        Micro_wire.tap_words_limit;
    List.iter
      (fun case ->
        if not (float_field tap (case ^ "_ns") > 0.0) then
          fail "micro/tap-frame: %s_ns not positive" case;
        if not (float_field tap (case ^ "_ns_spread") >= 0.0) then
          fail "micro/tap-frame: %s_ns_spread negative" case;
        ignore (float_field tap (case ^ "_words")))
      [ "empty"; "bool"; "vertex_opt"; "vertices40"; "edges200" ];
    List.iter
      (fun case ->
        let words = float_field tap (case ^ "_words") in
        if words > limit then
          fail "micro/tap-frame: %s allocates %g minor words/frame, over the %g budget" case words
            limit)
      [ "empty"; "bool"; "vertex_opt" ];
    (* The far-build row (bench/micro_gen.ml): timed, and inside its
       allocation budget. *)
    let gen = wire_row "micro/gen-far" in
    let limit = float_field gen "limit" and words = float_field gen "words" in
    if limit <= 0.0 then fail "micro/gen-far: non-positive limit";
    if not (float_field gen "ms" > 0.0) then fail "micro/gen-far: ms not positive";
    ignore (float_field gen "ns_spread");
    if not (words > 0.0) then fail "micro/gen-far: words not positive";
    if words > limit then
      fail "micro/gen-far: %g words/build over the %g budget" words limit;
    (* The core rows (bench/micro_core.ml): the sim player messages and
       the dup partition of a cold-build query and one chatty-shaped
       unrestricted run, each timed, inside an allocation budget no looser
       than the micro gate's, and carrying what it produced. *)
    let core_row name gate outs =
      let row = wire_row name in
      let limit = float_field row "limit" and words = float_field row "words" in
      if limit <= 0.0 then fail "%s: non-positive limit" name;
      if limit > gate then fail "%s: limit %g is looser than the %g-word gate" name limit gate;
      if not (float_field row "ns" > 0.0) then fail "%s: ns not positive" name;
      if not (float_field row "ns_spread" >= 0.0) then fail "%s: ns_spread negative" name;
      if not (words > 0.0) then fail "%s: words not positive" name;
      List.iter
        (fun out -> if not (float_field row out > 0.0) then fail "%s: %s not positive" name out)
        outs;
      if words > limit then fail "%s: %g words/run over the %g budget" name words limit
    in
    core_row "micro/sim-player" Micro_core.words_limit [ "bits" ];
    core_row "micro/partition" Micro_core.partition_words_limit [ "edges" ];
    core_row "micro/unrestricted" Micro_core.unrestricted_words_limit [ "bits"; "rounds" ];
    (* one round per degree guess: a run that spends a round on each of
       Theorem 3.1's experiments fails here *)
    let rounds = float_field (wire_row "micro/unrestricted") "rounds" in
    if rounds <> float_of_int Micro_core.unrestricted_rounds then
      fail "micro/unrestricted: %g rounds, not the %d of one round per degree guess" rounds
        Micro_core.unrestricted_rounds;
    (* The shared-randomness kernels under it: timed, and allocating
       nothing. *)
    let kernels = wire_row "micro/shared-rng" in
    if float_field kernels "limit" <> Micro_core.kernel_words_limit then
      fail "micro/shared-rng: limit %g is not the %g-word gate" (float_field kernels "limit")
        Micro_core.kernel_words_limit;
    List.iter
      (fun kernel ->
        if not (float_field kernels (kernel ^ "_ns") > 0.0) then
          fail "micro/shared-rng: %s_ns not positive" kernel;
        let words = float_field kernels (kernel ^ "_words") in
        if words > Micro_core.kernel_words_limit then
          fail "micro/shared-rng: %s allocates %g words/call, over the %g budget" kernel words
            Micro_core.kernel_words_limit)
      [ "mark_word"; "first_key" ];
    (* The dataset rows (bench/dataset_bench.ml) witness the reasons
       lib/dataset exists: the snapshot loads faster than regenerating or
       re-parsing the corpus, and is the smaller on-disk encoding. *)
    let load = wire_row "dataset/snapshot-load-vs-regen" in
    let snap_ns = float_field load "snapshot_ns" in
    let regen_ns = float_field load "regen_ns" in
    let dimacs_ns = float_field load "dimacs_ns" in
    List.iter
      (fun p -> ignore (float_field load (p ^ "_ns_spread")))
      [ "regen"; "dimacs"; "snapshot" ];
    if not (snap_ns > 0.0) then fail "dataset/snapshot-load-vs-regen: load time not positive";
    if float_field load "m" <= 0.0 then fail "dataset/snapshot-load-vs-regen: non-positive m";
    if not (snap_ns < regen_ns) then
      fail "dataset/snapshot-load-vs-regen: load (%g ns) not below regeneration (%g ns)" snap_ns
        regen_ns;
    if not (snap_ns < dimacs_ns) then
      fail "dataset/snapshot-load-vs-regen: load (%g ns) not below dimacs parse (%g ns)" snap_ns
        dimacs_ns;
    let size = wire_row "dataset/snapshot-bytes-per-edge" in
    let snap_b = float_field size "snapshot_bytes" in
    let dimacs_b = float_field size "dimacs_bytes" in
    let m = float_field size "m" in
    if m <= 0.0 then fail "dataset/snapshot-bytes-per-edge: non-positive m";
    if not (snap_b < dimacs_b) then
      fail "dataset/snapshot-bytes-per-edge: snapshot (%g B) not below dimacs (%g B)" snap_b dimacs_b;
    let bpe = float_field size "bits_per_edge" in
    if Float.abs (bpe -. (8.0 *. snap_b /. m)) > 0.01 then
      fail "dataset/snapshot-bytes-per-edge: bits_per_edge %g does not reconcile" bpe;
    (* The congest rows (lib/experiments/congest_threshold.ml): every
       threshold row must be internally consistent — detection counts within
       [0, reps], cap and threshold on the geometric grid {1, 2, 4, ...},
       threshold within the cap, and the rate at the threshold at least 1/2
       by definition — and the accounting row must witness the per-round
       ledger identity from the document alone: sum of per-round bits =
       total message bits = traced bits (same for message counts). *)
    let pow2 v =
      let i = int_of_float v in
      Float.is_integer v && i >= 1 && i land (i - 1) = 0
    in
    let thresholds =
      List.filter
        (fun m ->
          match Jsonout.member "name" m with Some (Str "congest/threshold") -> true | _ -> false)
        micro
    in
    if thresholds = [] then fail "missing congest/threshold rows";
    List.iter
      (fun row ->
        let reps = float_field row "reps" in
        let cap = float_field row "cap_rounds" in
        let detected = float_field row "detected" in
        if reps <= 0.0 then fail "congest/threshold: non-positive reps";
        if detected < 0.0 || detected > reps then
          fail "congest/threshold: detected %g outside [0, %g]" detected reps;
        if not (pow2 cap) then fail "congest/threshold: cap %g is not a power of two" cap;
        match field row "threshold_rounds" with
        | Jsonout.Null -> ()
        | Jsonout.Num t ->
            if not (pow2 t) then fail "congest/threshold: threshold %g is not a power of two" t;
            if t > cap then fail "congest/threshold: threshold %g exceeds the cap %g" t cap;
            let rate = float_field row "rate_at_threshold" in
            if rate < 0.5 || rate > 1.0 then
              fail "congest/threshold: rate %g at the threshold is outside [1/2, 1]" rate
        | _ -> fail "congest/threshold: threshold_rounds is neither a number nor null")
      thresholds;
    let acc = wire_row "congest/accounting" in
    (match field acc "identity" with
    | Bool true -> ()
    | Bool false -> fail "congest/accounting: identity flag is false"
    | _ -> fail "congest/accounting: identity is not a bool");
    let total = float_field acc "total_bits" in
    if total <= 0.0 then fail "congest/accounting: non-positive total bits";
    List.iter
      (fun k ->
        let v = float_field acc k in
        if v <> total then fail "congest/accounting: %s (%g) != total_bits (%g)" k v total)
      [ "round_bits_sum"; "traced_bits" ];
    if float_field acc "round_messages_sum" <> float_field acc "messages" then
      fail "congest/accounting: per-round message sum does not reconcile";
    if float_field acc "rounds_run" > float_field acc "budget" then
      fail "congest/accounting: rounds_run exceeds the budget"
  end;
  Printf.printf "check_json: %s ok (%d experiments, %d micro rows)\n" path
    (List.length experiments) (List.length micro)
