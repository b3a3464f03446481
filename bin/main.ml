(* tfree — command-line driver.

   Subcommands:
     run           test a generated or file-loaded distributed instance
     experiment    run a named reproduction experiment (see `tfree list`)
     list          list the reproduction experiments
     inspect       generate an instance and print its triangle statistics
     dataset       maintain a named-dataset manifest (list/info/import/gen)
     serve         answer queries over a Unix-domain socket (tfree-serve)
     client        query a running tfree-serve daemon
     top           live rates/latency dashboard over a daemon's stats
     trace-report  phase/player breakdown tables of a --trace file *)

open Cmdliner
open Tfree_util
open Tfree_graph
module Service = Tfree_wire.Service
module Wire = Tfree_wire.Wire_runtime
module Proto = Tfree_wire.Proto
module Trace = Tfree_trace.Trace
module Registry = Tfree_dataset.Registry
module Dataset_error = Tfree_dataset.Dataset_error
module Logger = Tfree_obs.Logger
module Prom = Tfree_obs.Prom
module Obs_phase = Tfree_obs.Phase
module Congest = Tfree_congest.Simulator
module Congest_tester = Tfree_congest.Triangle_tester

(* ----------------------------------------------------------- common args *)

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
let n_arg = Arg.(value & opt int 2000 & info [ "n" ] ~docv:"N" ~doc:"Number of vertices.")
let d_arg = Arg.(value & opt float 6.0 & info [ "d" ] ~docv:"D" ~doc:"Target average degree.")
let k_arg = Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Number of players.")
let eps_arg = Arg.(value & opt float 0.1 & info [ "eps" ] ~docv:"EPS" ~doc:"Farness parameter ǫ.")

let instance_arg =
  let doc =
    "Instance family: far (planted ǫ-far), free (triangle-free), hub (§3.4.2 hubs), mu (hard \
     distribution), gnp, behrend (§5 removal-lemma instance; sized by n), diluted (1/ǫ \
     distractor leaves per triangle corner)."
  in
  Arg.(value & opt (enum Service.families) Service.Far & info [ "instance" ] ~docv:"FAMILY" ~doc)

let partition_arg =
  let doc = "Edge partition: disjoint, dup (30% duplication), replicate, skewed, hash." in
  Arg.(value & opt (enum Service.partitions) Service.Dup & info [ "partition" ] ~docv:"PART" ~doc)

let protocol_arg =
  let doc = "Protocol: unrestricted (§3.3), sim (§3.4, d known), oblivious (Alg 11), exact ([38] baseline)." in
  Arg.(value
       & opt (enum Tfree.Tester.protocols) Service.Oblivious
       & info [ "protocol" ] ~docv:"PROTO" ~doc)

(* The client's --protocol doubles as the wire-version switch: it accepts
   the tester protocols and the wire versions v1/v2/auto in one
   vocabulary, and may be repeated to set both (e.g. --protocol exact
   --protocol v1).  The wire choices: v1 speaks JSON lines with no
   handshake, v2/auto shake hands and use binary frames when the server
   agrees. *)
let client_protocol_arg =
  let doc =
    "Tester protocol (unrestricted, sim, oblivious, exact) and/or wire protocol (v1 = JSON \
     lines, v2 = binary frames, auto = negotiate); repeat the flag to set both."
  in
  Arg.(value
       & opt_all
           (enum
              (List.map (fun (name, p) -> (name, `Tester p)) Tfree.Tester.protocols
              @ List.map (fun p -> (Proto.pref_to_string p, `Wire p)) [ Proto.V1; V2; Auto ]))
           []
       & info [ "protocol" ] ~docv:"PROTO" ~doc)

let serve_protocol_arg =
  let doc =
    "Highest wire protocol the server negotiates: v1 (JSON lines only), v2 (binary frames for \
     clients that shake hands), auto (highest supported)."
  in
  Arg.(value
       & opt (enum [ ("v1", 1); ("v2", 2); ("auto", Proto.max_version) ]) Proto.max_version
       & info [ "protocol" ] ~docv:"VERSION" ~doc)

let blackboard_arg =
  Arg.(value & flag & info [ "blackboard" ] ~doc:"Use the blackboard model (Theorem 3.23) for the unrestricted protocol.")

let big_arg = Arg.(value & flag & info [ "big" ] ~doc:"Run the experiment at Big scale (minutes instead of seconds).")

let jobs_arg =
  let doc =
    "Worker domains for the measurement sweeps (default: the TFREE_JOBS environment variable, \
     then the hardware core count). Results are identical at every job count; only wall-clock \
     changes."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

let set_jobs jobs = Option.iter Pool.set_jobs jobs

let socket_arg =
  Arg.(required
       & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let transport_arg =
  let doc = "Byte transport behind the wire runtime: pipe (in-memory) or socketpair (Unix sockets)." in
  Arg.(value
       & opt (enum Wire.kinds) Wire.Pipe
       & info [ "transport" ] ~docv:"KIND" ~doc)

let fault_spec_arg =
  let doc =
    "Deterministic fault schedule, either explicit (OP:KIND[@ARG],... with kinds drop, \
     corrupt@BIT, truncate@KEEP, delay@AMOUNT, partial@AT, close — e.g. 2:drop,5:corrupt@13) \
     or seeded (seed=S,rate=R,ops=N[,kinds=drop+corrupt]).  For `run` the ops count frames on \
     the wire network; for `serve` they count the server's own replies."
  in
  Arg.(value & opt string "" & info [ "fault-spec" ] ~docv:"SPEC" ~doc)

let parse_fault_spec spec =
  match Tfree_wire.Fault.parse spec with
  | Ok s -> s
  | Error msg ->
      Printf.eprintf "error: bad --fault-spec: %s\n" msg;
      exit 2

(* dataset failures are user-input failures: report and exit, never a trace *)
let or_dataset_exit f =
  try f ()
  with Dataset_error.Dataset_error kind ->
    Printf.eprintf "error: %s\n" (Dataset_error.message kind);
    exit 1

let format_arg =
  let doc = "Input format: auto (sniff the content), dimacs, edges (0-based whitespace pairs), snapshot." in
  Arg.(value
       & opt
           (enum
              [ ("auto", None); ("dimacs", Some Registry.Dimacs); ("edges", Some Registry.Edges);
                ("snapshot", Some Registry.Snapshot) ])
           None
       & info [ "format" ] ~docv:"FORMAT" ~doc)

let manifest_arg =
  Arg.(value & opt string "datasets.json"
       & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Dataset manifest (tfree-datasets/v1 JSON; entry paths resolve against its \
                 directory).")

(* ------------------------------------------------------------------ run *)

let print_report g (report : Tfree.Tester.report) =
  (match (report.Tfree.Tester.verdict, g) with
  | Tfree.Tester.Triangle (a, b, c), Some g ->
      Printf.printf "verdict: TRIANGLE (%d,%d,%d) — verified real: %b\n" a b c
        (Triangle.is_triangle g (a, b, c))
  | Tfree.Tester.Triangle (a, b, c), None -> Printf.printf "verdict: TRIANGLE (%d,%d,%d)\n" a b c
  | Tfree.Tester.Triangle_free, _ -> print_endline "verdict: no triangle found");
  Printf.printf "communication: %d bits over %d round(s); max player upload %d bits\n"
    report.Tfree.Tester.bits report.Tfree.Tester.rounds report.Tfree.Tester.max_message

(* The tester report inside a served (or wired) response. *)
let report_of_response (r : Service.response) =
  {
    Tfree.Tester.verdict = r.verdict;
    bits = r.bits;
    rounds = r.rounds;
    max_message = r.max_message;
  }

let verdict_string = function
  | Tfree.Tester.Triangle _ -> "triangle"
  | Tfree.Tester.Triangle_free -> "triangle-free"

(* Run [f] with [trace]'s collector installed, handing it the collector;
   [trace] is the --trace collector and its output file, if any. *)
let traced trace f =
  match trace with
  | Some (c, _) -> Trace.with_collector c (fun () -> f (Some c))
  | None -> f None

(* Write the --trace file of a run that accounted [accounted] bits: check
   that the traced message bits decompose it exactly (exit 1 otherwise),
   write the Chrome trace with [accounted_bits] and [other] in its
   otherData, and print the summary line. *)
let write_trace (c, file) ~accounted other =
  if not (Trace.decomposes c ~accounted) then (
    Printf.eprintf "trace: decomposition FAILED — traced %d bits, accounted %d\n"
      (Trace.total_bits c) accounted;
    exit 1);
  let json =
    Trace.to_chrome c ~other:(("accounted_bits", Jsonout.Num (float_of_int accounted)) :: other)
  in
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc (Jsonout.to_string json));
  Printf.printf "trace: %d message event(s), %d bits = accounted bits exactly; wrote %s\n"
    (Trace.message_count c) (Trace.total_bits c) file

(* The --congest path of `tfree run`: one node per vertex, a hard round
   budget, per-round accounting.  Shares --seed/--n/--d/--eps/--instance,
   --input and --trace with the communication protocols; partition, wire and
   fault flags are meaningless here (single-machine simulation of a
   message-passing network, no byte transport) and are rejected loudly. *)
let run_congest g ~eps ~seed ~rounds ~b_bits ~trace =
  let n = Graph.n g in
  let used_b_bits = match b_bits with Some b -> b | None -> Congest_tester.default_b_bits ~n in
  let r =
    traced trace (fun c ->
        Congest_tester.test ?rounds ?b_bits ?tap:(Option.map Trace.tap c) g ~eps ~seed)
  in
  let st = r.Congest_tester.stats in
  (match r.Congest_tester.triangle with
  | Some (a, b, c) ->
      Printf.printf "verdict: TRIANGLE (%d,%d,%d) — verified real: %b\n" a b c
        (Triangle.is_triangle g (a, b, c))
  | None -> print_endline "verdict: no triangle found");
  Printf.printf "congest: %s after %d of %d round(s); bandwidth %d bits/edge/round\n"
    (Congest.outcome_to_string st.Congest.outcome)
    r.Congest_tester.rounds r.Congest_tester.budget used_b_bits;
  Printf.printf "communication: %d bits in %d message(s); max single message %d bits\n"
    st.Congest.total_message_bits st.Congest.messages st.Congest.max_message_bits;
  Option.iter
    (fun t ->
      write_trace t ~accounted:st.Congest.total_message_bits
        [
          ("protocol", Jsonout.Str "congest");
          ( "verdict",
            Jsonout.Str (match r.Congest_tester.triangle with Some _ -> "triangle" | None -> "triangle-free") );
          ("outcome", Jsonout.Str (Congest.outcome_to_string st.Congest.outcome));
          ("rounds_run", Jsonout.Num (float_of_int st.Congest.rounds_run));
          ("round_budget", Jsonout.Num (float_of_int r.Congest_tester.budget));
          ("b_bits", Jsonout.Num (float_of_int used_b_bits));
          ("n", Jsonout.Num (float_of_int n));
          ("seed", Jsonout.Num (float_of_int seed));
        ])
    trace

let run_cmd =
  let run seed n d k eps family part proto blackboard wire transport fault_spec trace_out input
      format congest rounds b_bits =
    (* graph and partition draw from independent rng streams (the service's
       split), so a file-loaded graph partitions identically to the
       generated run of the same seed *)
    let g =
      match input with
      | Some file ->
          or_dataset_exit (fun () ->
              let g = Registry.load_graph ?format file in
              Printf.printf "input: %s (%s)\n" file
                (Registry.format_to_string
                   (match format with Some f -> f | None -> Registry.sniff file));
              g)
      | None -> Service.build_instance family (Service.graph_rng seed) ~n ~d ~eps
    in
    let trace = Option.map (fun file -> (Trace.create (), file)) trace_out in
    if congest then begin
      (* the congest simulation has no players, wire or faults to configure *)
      if wire || fault_spec <> "" then begin
        prerr_endline
          "error: --wire and --fault-spec do not apply to --congest (the simulated network has \
           no byte transport)";
        exit 2
      end;
      (match rounds with
      | Some r when r <= 0 ->
          prerr_endline "error: --rounds must be positive";
          exit 2
      | _ -> ());
      (match b_bits with
      | Some b when b < 0 ->
          prerr_endline "error: --b-bits must be non-negative";
          exit 2
      | _ -> ());
      Printf.printf "instance: n=%d m=%d avg degree %.2f; congest (one node per vertex)\n"
        (Graph.n g) (Graph.m g) (Graph.avg_degree g);
      run_congest g ~eps ~seed ~rounds ~b_bits ~trace
    end
    else begin
    if k < 1 then begin
      Printf.eprintf "error: -k must be at least 1, got %d\n" k;
      exit 2
    end;
    let inputs = Service.build_partition part (Service.partition_rng seed) ~k g in
    Printf.printf "instance: n=%d m=%d avg degree %.2f; k=%d players (duplication %b)\n" (Graph.n g)
      (Graph.m g) (Graph.avg_degree g) k (Partition.has_duplication inputs);
    let fault = parse_fault_spec fault_spec in
    let mode = if blackboard then Tfree_comm.Runtime.Blackboard else Tfree_comm.Runtime.Coordinator in
    let report, wire_report =
      (* a fault schedule only means something on the wire, so it implies it *)
      if wire || fault <> [] then begin
        let req =
          { Service.family; partition = part; protocol = proto; n; d; k; eps; seed; transport;
            fault = fault_spec }
        in
        match traced trace (fun c -> Service.run_protocol ~mode ?trace:c ~fault req (g, inputs)) with
        | r -> (report_of_response r, Some r.Service.wire)
        | exception Tfree_wire.Wire_error.Wire_error kind ->
            (* fail closed: an injected (or real) wire fault aborts the run
               with a typed error and a nonzero exit, never a wrong verdict *)
            Printf.eprintf "wire fault aborted the run: %s\n" (Tfree_wire.Wire_error.message kind);
            exit 3
      end
      else
        let params = Tfree.Params.(with_eps practical eps) in
        ( traced trace (fun c ->
              Tfree.Tester.run ~mode ?tap:(Option.map Trace.tap c) ~seed params
                ~d:(Graph.avg_degree g) proto inputs),
          None )
    in
    print_report (Some g) report;
    Option.iter
      (fun w -> Printf.printf "wire (%s): %s\n" (Wire.kind_to_string transport) (Wire.report_summary w))
      wire_report;
    Option.iter
      (fun t ->
        write_trace t ~accounted:report.Tfree.Tester.bits
          [
            ("protocol", Jsonout.Str (Tfree.Tester.protocol_to_string proto));
            ("verdict", Jsonout.Str (verdict_string report.Tfree.Tester.verdict));
            ("n", Jsonout.Num (float_of_int (Graph.n g)));
            ("k", Jsonout.Num (float_of_int k));
            ("seed", Jsonout.Num (float_of_int seed));
          ])
      trace
    end
  in
  let wire_arg =
    Arg.(value & flag
         & info [ "wire" ]
             ~doc:"Run the protocol over a real byte transport and print the wire-vs-model reconciliation.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a phase-attributed trace of every charged message and write it as \
                   Chrome trace-event JSON (open in Perfetto, or feed to `tfree trace-report`).")
  in
  let input_arg =
    Arg.(value & opt (some string) None
         & info [ "input" ] ~docv:"FILE"
             ~doc:"Load the graph from FILE (see --format) instead of generating it; --instance, \
                   --n and --d are ignored.")
  in
  let congest_arg =
    Arg.(value & flag
         & info [ "congest" ]
             ~doc:"Run the CONGEST triangle tester (one node per vertex, synchronous rounds, \
                   bandwidth-capped edges) instead of a communication protocol; --k, --partition, \
                   --protocol are ignored, --wire and --fault-spec are rejected.")
  in
  let rounds_arg =
    Arg.(value & opt (some int) None
         & info [ "rounds" ] ~docv:"R"
             ~doc:"Hard round budget for --congest (default ceil(2/ǫ²)); running out of rounds is \
                   reported as the budget-exhausted outcome, not an error.")
  in
  let b_bits_arg =
    Arg.(value & opt (some int) None
         & info [ "b-bits" ] ~docv:"B"
             ~doc:"Per-edge per-round bandwidth cap in bits for --congest (default ⌈log₂ n⌉ + 1).")
  in
  let term =
    Term.(const run $ seed_arg $ n_arg $ d_arg $ k_arg $ eps_arg $ instance_arg $ partition_arg
          $ protocol_arg $ blackboard_arg $ wire_arg $ transport_arg $ fault_spec_arg $ trace_arg
          $ input_arg $ format_arg $ congest_arg $ rounds_arg $ b_bits_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Test a generated (or --input file-loaded) distributed instance with a chosen \
             protocol.")
    term

(* --------------------------------------------------------- trace-report *)

let trace_report_cmd =
  let run file =
    let contents = In_channel.with_open_text file In_channel.input_all in
    match Jsonout.parse contents with
    | Error msg ->
        Printf.eprintf "error: %s is not valid JSON: %s\n" file msg;
        exit 1
    | Ok json ->
        let phases = Trace.phase_rows_of_chrome json in
        let players = Trace.player_rows_of_chrome json in
        let traced = List.fold_left (fun acc (_, _, bits) -> acc + bits) 0 phases in
        (match Trace.other_num_of_chrome "accounted_bits" json with
        | Some accounted ->
            Printf.printf "traced %d bits; accounted %d bits; decomposition %s\n" traced accounted
              (if traced = accounted then "exact" else "BROKEN")
        | None -> Printf.printf "traced %d bits (no accounted_bits recorded)\n" traced);
        let share bits = if traced = 0 then "-" else Table.fcell (100.0 *. float_of_int bits /. float_of_int traced) in
        Table.print
          (Table.make ~title:"Phase attribution" ~header:[ "phase"; "messages"; "bits"; "share %" ]
             (List.map
                (fun (phase, msgs, bits) -> [ phase; Table.icell msgs; Table.icell bits; share bits ])
                phases));
        print_newline ();
        Table.print
          (Table.make ~title:"Per-player traffic" ~header:[ "party"; "download bits"; "upload bits" ]
             (List.map
                (fun (label, down, up) -> [ label; Table.icell down; Table.icell up ])
                players));
        (* every message event carries its round, so any trace decomposes by
           round — for congest runs this is the per-round ledger (round_stats)
           recovered from the file alone.  Long runs collapse into a tail row. *)
        let rounds = Trace.round_rows_of_chrome json in
        if rounds <> [] then begin
          let shown, rest =
            if List.length rounds <= 16 then (rounds, [])
            else (List.filteri (fun i _ -> i < 16) rounds, List.filteri (fun i _ -> i >= 16) rounds)
          in
          let rows =
            List.map
              (fun (r, msgs, bits) -> [ Table.icell r; Table.icell msgs; Table.icell bits; share bits ])
              shown
            @
            match rest with
            | [] -> []
            | _ ->
                let msgs = List.fold_left (fun a (_, m, _) -> a + m) 0 rest in
                let bits = List.fold_left (fun a (_, _, b) -> a + b) 0 rest in
                [ [ Printf.sprintf "(+%d more)" (List.length rest); Table.icell msgs;
                    Table.icell bits; share bits ] ]
          in
          print_newline ();
          Table.print
            (Table.make ~title:"Per-round traffic" ~header:[ "round"; "messages"; "bits"; "share %" ] rows)
        end
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"A trace written by run --trace.")
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:"Print the phase and per-player breakdown tables of a trace file.")
    Term.(const run $ file_arg)

(* ----------------------------------------------------------- experiment *)

let experiment_cmd =
  let run id big jobs =
    set_jobs jobs;
    match Tfree_experiments.Registry.find id with
    | Some e ->
        let scale = if big then Tfree_experiments.Common.Big else Tfree_experiments.Common.Small in
        Tfree_experiments.Registry.run_and_print ~scale e
    | None ->
        Printf.eprintf "unknown experiment %S; try `tfree list`\n" id;
        exit 1
  in
  let id_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Experiment id.") in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one reproduction experiment and print its table(s).")
    Term.(const run $ id_arg $ big_arg $ jobs_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Tfree_experiments.Registry.entry) ->
        Printf.printf "%-26s %s\n" e.Tfree_experiments.Registry.id e.Tfree_experiments.Registry.title)
      Tfree_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproduction experiments.") Term.(const run $ const ())

(* -------------------------------------------------------------- inspect *)

let inspect_cmd =
  let run seed n d eps family =
    let rng = Rng.create seed in
    let g = Service.build_instance family rng ~n ~d ~eps in
    let lo, hi = Distance.farness_interval g in
    Printf.printf "n=%d m=%d avg degree %.2f\n" (Graph.n g) (Graph.m g) (Graph.avg_degree g);
    Printf.printf "triangles: %d; greedy edge-disjoint packing: %d; triangle edges: %d\n"
      (Triangle.count g)
      (List.length (Triangle.greedy_packing g))
      (List.length (Triangle.triangle_edges g));
    Printf.printf "farness interval: [%.4f, %.4f] of m\n" lo hi;
    match Bucket.b_min g ~eps with
    | Some i ->
        Printf.printf "lowest full bucket B_min: index %d (degrees %d..%d), %d full vertices in graph\n" i
          (Bucket.d_minus i) (Bucket.d_plus i)
          (List.length (Bucket.full_vertices g ~eps))
    | None -> print_endline "no full bucket (graph close to triangle-free)"
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Generate an instance and print its triangle statistics.")
    Term.(const run $ seed_arg $ n_arg $ d_arg $ eps_arg $ instance_arg)

(* -------------------------------------------------------------- dataset *)

let load_manifest path =
  or_dataset_exit (fun () ->
      if Sys.file_exists path then Registry.load path else Registry.create ~dir:(Filename.dirname path) ())

let dataset_name_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Dataset name.")

let dataset_list_cmd =
  let run manifest =
    let reg = load_manifest manifest in
    match Registry.entries reg with
    | [] -> Printf.printf "no datasets in %s\n" manifest
    | entries ->
        Table.print
          (Table.make ~title:(Printf.sprintf "datasets (%s)" manifest)
             ~header:[ "name"; "format"; "n"; "m"; "path"; "origin" ]
             (List.map
                (fun (e : Registry.entry) ->
                  let origin =
                    match e.Registry.gen with
                    | None -> "imported"
                    | Some g ->
                        Printf.sprintf "gen %s n=%d d=%g eps=%g seed=%d" g.Registry.gen_family
                          g.Registry.gen_n g.Registry.gen_d g.Registry.gen_eps g.Registry.gen_seed
                  in
                  [ e.Registry.name;
                    Registry.format_to_string e.Registry.format;
                    Table.icell e.Registry.n; Table.icell e.Registry.m; e.Registry.path; origin ])
                entries))
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the datasets registered in the manifest.")
    Term.(const run $ manifest_arg)

let dataset_info_cmd =
  let run manifest name triangles =
    let reg = load_manifest manifest in
    match Registry.find reg name with
    | None ->
        Printf.eprintf "error: unknown dataset %S in %s\n" name manifest;
        exit 1
    | Some e ->
        Printf.printf "name: %s\nformat: %s\npath: %s\nn: %d\nm: %d\n" e.Registry.name
          (Registry.format_to_string e.Registry.format)
          (Registry.resolve_path reg e) e.Registry.n e.Registry.m;
        (match e.Registry.gen with
        | None -> print_endline "origin: imported"
        | Some g ->
            Printf.printf "origin: generated (%s n=%d d=%g eps=%g seed=%d)\n" g.Registry.gen_family
              g.Registry.gen_n g.Registry.gen_d g.Registry.gen_eps g.Registry.gen_seed);
        let g = or_dataset_exit (fun () -> Registry.graph reg name) in
        Printf.printf "loaded: n=%d m=%d avg degree %.2f (matches manifest)\n" (Graph.n g)
          (Graph.m g) (Graph.avg_degree g);
        if triangles then
          Printf.printf "triangles: %d; greedy edge-disjoint packing: %d\n" (Triangle.count g)
            (List.length (Triangle.greedy_packing g))
  in
  let triangles_arg =
    Arg.(value & flag
         & info [ "triangles" ] ~doc:"Also count triangles (scans the whole graph; slow on large corpora).")
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Print one dataset's manifest entry and verify its file loads.")
    Term.(const run $ manifest_arg $ dataset_name_arg $ triangles_arg)

(* import and gen share the write path: snapshot next to the manifest,
   then register under the (relative) snapshot name *)
let register_snapshot reg manifest ~name ~gen g =
  let dir = Filename.dirname manifest in
  let file = name ^ ".tfs" in
  or_dataset_exit (fun () ->
      Tfree_dataset.Snapshot.save g (Filename.concat dir file);
      Registry.add reg
        { Registry.name; path = file; format = Registry.Snapshot; n = Graph.n g; m = Graph.m g; gen };
      Registry.save reg manifest);
  Printf.printf "registered %S: n=%d m=%d, snapshot %s, manifest %s\n" name (Graph.n g) (Graph.m g)
    (Filename.concat dir file) manifest

let dataset_import_cmd =
  let run manifest name file format raw =
    let reg = load_manifest manifest in
    let fmt = match format with Some f -> f | None -> or_dataset_exit (fun () -> Registry.sniff file) in
    let g = or_dataset_exit (fun () -> Registry.load_graph ~format:fmt file) in
    if raw then (
      or_dataset_exit (fun () ->
          Registry.add reg
            { Registry.name; path = file; format = fmt; n = Graph.n g; m = Graph.m g; gen = None };
          Registry.save reg manifest);
      Printf.printf "registered %S: n=%d m=%d, %s file %s, manifest %s\n" name (Graph.n g)
        (Graph.m g) (Registry.format_to_string fmt) file manifest)
    else register_snapshot reg manifest ~name ~gen:None g
  in
  let file_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Graph file to import.")
  in
  let raw_arg =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Register FILE in its original format instead of converting it to a snapshot.")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Parse a graph file, convert it to a compact snapshot next to the manifest (unless \
             --raw), and register it under NAME.")
    Term.(const run $ manifest_arg $ dataset_name_arg $ file_arg $ format_arg $ raw_arg)

let dataset_gen_cmd =
  let run manifest name family n d eps seed =
    let reg = load_manifest manifest in
    (* the service's graph stream, so {"op":"dataset"} over this snapshot
       answers byte-identically to the generated query of the same seed *)
    let g = Service.build_instance family (Service.graph_rng seed) ~n ~d ~eps in
    let gen =
      Some
        { Registry.gen_family = Service.family_to_string family; gen_n = n; gen_d = d;
          gen_eps = eps; gen_seed = seed }
    in
    register_snapshot reg manifest ~name ~gen g
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate an instance with the service's generator rng, snapshot it, and register it \
             under NAME with its generation parameters recorded.")
    Term.(const run $ manifest_arg $ dataset_name_arg $ instance_arg $ n_arg $ d_arg $ eps_arg
          $ seed_arg)

let dataset_cmd =
  Cmd.group
    (Cmd.info "dataset"
       ~doc:"Maintain the named-dataset manifest behind `tfree serve --datasets`: list and \
             inspect entries, import real graph files, generate reference corpora.")
    [ dataset_list_cmd; dataset_info_cmd; dataset_import_cmd; dataset_gen_cmd ]

(* ------------------------------------------------------- serve / client *)

let serve_cmd =
  let run path max_requests line_timeout backlog max_clients cache_capacity fault_spec
      max_version datasets preload log_file log_level slow_us trace_sample trace_out metrics_file
      metrics_interval =
    let fault = parse_fault_spec fault_spec in
    let registry =
      Option.map
        (fun manifest ->
          or_dataset_exit (fun () ->
              let reg = Registry.load manifest in
              if preload then Registry.preload reg;
              Printf.printf "tfree-serve: %d dataset(s) from %s%s\n%!"
                (List.length (Registry.entries reg))
                manifest
                (if preload then " (preloaded)" else "");
              reg))
        datasets
    in
    let level =
      match Logger.level_of_name log_level with
      | Some l -> l
      | None ->
          Printf.eprintf "error: unknown log level %S (use debug|info|warn|error)\n" log_level;
          exit 2
    in
    let logger = Option.map (fun path -> Logger.create ~level ~path ()) log_file in
    (match (slow_us, log_file) with
    | Some _, None ->
        Printf.eprintf "error: --slow-us needs --log FILE to write to\n";
        exit 2
    | _ -> ());
    (match (trace_sample, trace_out) with
    | n, None when n > 0 ->
        Printf.eprintf "error: --trace-sample needs --trace-out FILE to write to\n";
        exit 2
    | _ -> ());
    Printf.printf
      "tfree-serve: listening on %s (backlog %d, max %d clients, cache %d, wire protocol <= v%d)%s\n%!"
      path backlog max_clients cache_capacity max_version
      (if fault = [] then "" else Printf.sprintf " (injecting %d reply fault(s))" (List.length fault));
    let served =
      Service.serve ~backlog ~max_clients ?max_requests ~line_timeout_s:line_timeout ~fault
        ~cache_capacity ~max_version ?registry ?logger ?slow_us ~trace_sample ?trace_out
        ?metrics_file ~metrics_interval_s:metrics_interval ~path ()
    in
    Option.iter Logger.close logger;
    Printf.printf "tfree-serve: served %d request(s); bye\n" served
  in
  let max_arg =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Exit after N queries (default: run until a shutdown command).")
  in
  let line_timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "line-timeout" ] ~docv:"SECONDS"
             ~doc:"Drop a connection that holds the server waiting longer than this for a \
                   complete request line.")
  in
  let backlog_arg =
    Arg.(value & opt int 64
         & info [ "backlog" ] ~docv:"N" ~doc:"Kernel accept-queue length for the listening socket.")
  in
  let max_clients_arg =
    Arg.(value & opt int 64
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Connections held open at once; one over the cap is shed with a typed \
                   overload error, never left hanging.")
  in
  let cache_arg =
    Arg.(value & opt int 32
         & info [ "cache-capacity" ] ~docv:"N"
             ~doc:"LRU instance/partition cache entries (0 disables); repeated seeds skip the \
                   instance rebuild.")
  in
  let datasets_arg =
    Arg.(value & opt (some string) None
         & info [ "datasets" ] ~docv:"MANIFEST"
             ~doc:"Load a dataset manifest at startup and answer {\"op\": \"dataset\"} queries \
                   over its registered graphs.")
  in
  let preload_arg =
    Arg.(value & flag
         & info [ "preload" ]
             ~doc:"Eagerly load every registered dataset at startup (with --datasets) instead \
                   of on first query.")
  in
  let log_arg =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Append leveled structured events (one JSON object per line) to FILE: \
                   start/accept/shed/request errors/slow queries/shutdown.")
  in
  let log_level_arg =
    Arg.(value & opt string "info"
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Lowest level written to --log: debug, info, warn or error.")
  in
  let slow_arg =
    Arg.(value & opt (some float) None
         & info [ "slow-us" ] ~docv:"MICROSECONDS"
             ~doc:"With --log: log every query whose protocol-run phase exceeds this many \
                   microseconds, with its request key and latency breakdown.")
  in
  let trace_sample_arg =
    Arg.(value & opt int 0
         & info [ "trace-sample" ] ~docv:"N"
             ~doc:"Record every Nth request as a span timeline (serve phases plus protocol \
                   messages); 0 disables.  Needs --trace-out.")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write the sampled request timelines in Chrome trace format to FILE at \
                   shutdown.")
  in
  let metrics_file_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-file" ] ~docv:"FILE"
             ~doc:"Atomically rewrite FILE with a Prometheus text exposition of the stats \
                   every --metrics-interval seconds (and at shutdown), for a node-exporter \
                   style scrape.")
  in
  let metrics_interval_arg =
    Arg.(value & opt float 5.0
         & info [ "metrics-interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between --metrics-file rewrites (floored at 0.1).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Answer triangle-freeness queries over a Unix-domain socket (one JSON value per \
             line; requests name an instance family, a partition and a protocol — or, with \
             --datasets, a registered corpus).  A poll event loop serves many clients \
             concurrently, with per-connection deadlines, bounded admission and an LRU \
             instance cache.  The server degrades under bad clients and injected faults; it \
             never dies mid-conversation.  Observability: --log (structured JSONL events), \
             --slow-us (slow-query log), --trace-sample/--trace-out (sampled request \
             timelines), --metrics-file (Prometheus text dumps).")
    Term.(const run $ socket_arg $ max_arg $ line_timeout_arg $ backlog_arg $ max_clients_arg
          $ cache_arg $ fault_spec_arg $ serve_protocol_arg $ datasets_arg $ preload_arg
          $ log_arg $ log_level_arg $ slow_arg $ trace_sample_arg $ trace_out_arg
          $ metrics_file_arg $ metrics_interval_arg)

let client_cmd =
  let run path shutdown stats health format as_json batch seed n d k eps family part proto_specs
      transport fault_spec timeout retries backoff dataset =
    ignore (parse_fault_spec fault_spec);
    if dataset <> None && batch <> None then (
      Printf.eprintf "error: --dataset and --batch cannot be combined\n";
      exit 2);
    let proto, wire_pref =
      List.fold_left
        (fun (p, w) -> function `Tester t -> (t, w) | `Wire v -> (p, v))
        (Service.Oblivious, Proto.Auto) proto_specs
    in
    if shutdown then (
      Service.client_shutdown ~protocol:wire_pref ~path ();
      print_endline "shutdown sent")
    else if health then (
      match Service.client_health ~timeout_s:timeout ~protocol:wire_pref ~path () with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      | Ok health -> print_string (Jsonout.to_string health))
    else if stats then (
      match Service.client_stats ~timeout_s:timeout ~protocol:wire_pref ~path () with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
      | Ok stats -> (
          match format with
          | `Json -> print_string (Jsonout.to_string stats)
          | `Prom -> print_string (Prom.of_stats stats)))
    else
      let req =
        { Service.family; partition = part; protocol = proto; n; d; k; eps; seed; transport;
          fault = fault_spec }
      in
      let print_response resp =
        if as_json then print_endline (Jsonout.to_line (Service.response_to_json resp))
        else (
          print_report None (report_of_response resp);
          Printf.printf "wire: %s\n" (Wire.report_summary resp.Service.wire))
      in
      match batch with
      | None -> (
          let result =
            match dataset with
            | Some name ->
                Service.client_dataset ~timeout_s:timeout ~retries ~backoff_s:backoff
                  ~backoff_seed:seed ~protocol:wire_pref ~path ~name req
            | None ->
                Service.client_query ~timeout_s:timeout ~retries ~backoff_s:backoff
                  ~backoff_seed:seed ~protocol:wire_pref ~path req
          in
          match result with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 1
          | Ok resp -> print_response resp)
      | Some count -> (
          (* one framed exchange covering seeds seed..seed+count-1 *)
          let reqs = List.init (max 0 count) (fun i -> { req with Service.seed = seed + i }) in
          match
            Service.client_batch ~timeout_s:timeout ~retries ~backoff_s:backoff ~backoff_seed:seed
              ~protocol:wire_pref ~path reqs
          with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 1
          | Ok results ->
              let failed = ref false in
              List.iteri
                (fun i result ->
                  match result with
                  | Ok resp ->
                      if not as_json then Printf.printf "-- item %d (seed %d)\n" i (seed + i);
                      print_response resp
                  | Error msg ->
                      failed := true;
                      Printf.eprintf "item %d (seed %d) error: %s\n" i (seed + i) msg)
                results;
              if !failed then exit 1)
  in
  let shutdown_arg =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to shut down instead of querying.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Fetch the server's telemetry (queries served, verdict counts, latency \
                   quantiles, wire traffic) instead of querying.")
  in
  let health_arg =
    Arg.(value & flag
         & info [ "health" ]
             ~doc:"Fetch the server's cheap liveness payload (uptime, served, errors, \
                   connection gauges, cache occupancy) instead of querying.")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"With --stats: print the raw JSON (json) or a Prometheus text exposition \
                   (prom).")
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Print the server's raw JSON reply.") in
  let batch_arg =
    Arg.(value & opt (some int) None
         & info [ "batch" ] ~docv:"N"
             ~doc:"Send N queries (seeds SEED..SEED+N-1) as one {\"op\": \"batch\"} exchange — \
                   one line out, one line back — and print each item's result.")
  in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-attempt reply deadline.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry transient failures up to N more times with exponential backoff.")
  in
  let backoff_arg =
    Arg.(value & opt float 0.05
         & info [ "backoff" ] ~docv:"SECONDS"
             ~doc:"Base backoff before the first retry; doubles each attempt, with jitter.")
  in
  let dataset_arg =
    Arg.(value & opt (some string) None
         & info [ "dataset" ] ~docv:"NAME"
             ~doc:"Query the named registered dataset ({\"op\": \"dataset\"}) instead of a \
                   generated instance; --instance, --n and --d are ignored.")
  in
  Cmd.v
    (Cmd.info "client" ~doc:"Query a running tfree-serve daemon.")
    Term.(const run $ socket_arg $ shutdown_arg $ stats_arg $ health_arg $ format_arg $ json_arg
          $ batch_arg $ seed_arg $ n_arg $ d_arg $ k_arg $ eps_arg $ instance_arg $ partition_arg
          $ client_protocol_arg $ transport_arg $ fault_spec_arg $ timeout_arg $ retries_arg
          $ backoff_arg $ dataset_arg)

(* ------------------------------------------------------------------ top *)

(* Live dashboard: poll a daemon's stats and print the diff of successive
   snapshots as rates.  Counters are lifetime-cumulative, so the delta
   over the poll interval (divided by the server's own uptime delta, not
   the client's sleep) is the instantaneous rate; quantiles are not
   diffable and are shown as the histogram's current lifetime value. *)
let top_cmd =
  let run path interval count proto_specs =
    let wire_pref =
      List.fold_left (fun w -> function `Wire v -> v | `Tester _ -> w) Proto.Auto proto_specs
    in
    let interval = Float.max 0.1 interval in
    let num keys j =
      let rec go j = function
        | [] -> Option.value ~default:0.0 (Jsonout.to_float j)
        | k :: rest -> ( match Jsonout.member k j with Some v -> go v rest | None -> 0.0)
      in
      go j keys
    in
    let fetch () =
      match Service.client_stats ~protocol:wire_pref ~path () with
      | Ok stats -> stats
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
    in
    let phase_label p =
      match Obs_phase.name p with "cache_lookup" -> "cache" | name -> name
    in
    Printf.printf "%8s %8s %8s %10s %6s %5s" "uptime" "qps" "err/s" "bytes/s" "hit%" "infl";
    List.iter (fun p -> Printf.printf " %9s" ("p99:" ^ phase_label p)) Obs_phase.all;
    print_newline ();
    let prev = ref (fetch ()) in
    let ticks = ref 0 in
    while count = 0 || !ticks < count do
      Unix.sleepf interval;
      let cur = fetch () in
      let d keys = num keys cur -. num keys !prev in
      let dt = Float.max 1e-9 (num [ "uptime_s" ] cur -. num [ "uptime_s" ] !prev) in
      let lookups = d [ "cache"; "hits" ] +. d [ "cache"; "misses" ] in
      let hit_pct = if lookups > 0.0 then 100.0 *. d [ "cache"; "hits" ] /. lookups else 0.0 in
      Printf.printf "%8.1f %8.1f %8.1f %10.0f %6.1f %5.0f"
        (num [ "uptime_s" ] cur)
        (d [ "queries_served" ] /. dt)
        (d [ "errors" ] /. dt)
        (d [ "wire_bytes" ] /. dt)
        hit_pct
        (num [ "in_flight" ] cur);
      List.iter
        (fun p -> Printf.printf " %9.0f" (num [ "phases"; Obs_phase.name p; "p99" ] cur))
        Obs_phase.all;
      print_newline ();
      flush stdout;
      prev := cur;
      incr ticks
    done
  in
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between stats polls.")
  in
  let count_arg =
    Arg.(value & opt int 0
         & info [ "count" ] ~docv:"N" ~doc:"Stop after N refreshes (0 = run until interrupted).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Poll a running tfree-serve daemon's stats and print successive-snapshot diffs as \
             live rates: queries/s, errors/s, bytes/s, cache hit ratio, open connections, and \
             the per-phase p99 latencies.")
    Term.(const run $ socket_arg $ interval_arg $ count_arg $ client_protocol_arg)

let () =
  let doc = "multiparty communication-complexity testers for triangle-freeness (PODC'17 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "tfree" ~doc)
          [ run_cmd; experiment_cmd; list_cmd; inspect_cmd; dataset_cmd; serve_cmd; client_cmd;
            top_cmd; trace_report_cmd ]))
