(* Benchmark and reproduction harness.

   Two parts:
   1. The Table-1 regeneration harness: every experiment of DESIGN.md §4 runs
      at Small scale and prints its table (these are the numbers EXPERIMENTS.md
      quotes).
   2. Micro-benchmarks: one row per Table-1 protocol (plus the substrate hot
      paths), timing a single representative run, then the wire, build,
      core and dataset rows; every row is timed and its allocation counted
      by {!Timing.row}.

   Modes (parsed from argv, no cmdliner here to keep bench standalone):
     (default)      print part 1 then part 2, as always
     --json         additionally run part 1 at jobs=1 and at jobs=N, verify
                    the rendered tables are identical, and write
                    BENCH_results.json (schema documented in EXPERIMENTS.md)
     --jobs N       request N pool workers (same semantics as the CLI flag:
                    a ceiling, capped at the hardware core count)
     --smoke        run every micro row fewer times so --json finishes
                    quickly; used by the @bench-smoke dune alias
     --only ID      run a subset of the registered experiments instead of the
                    whole harness; repeat the flag for a union of ids.
                    Micro-benchmarks are skipped and the JSON
                    document records the filter in its "only" field (a
                    string for one id, a list for several) *)

open Tfree_util
open Tfree_graph

(* ------------------------------------------------------------ argv *)

type opts = { json : bool; smoke : bool; jobs : int option; only : string list }

let opts =
  let o = ref { json = false; smoke = false; jobs = None; only = [] } in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
        o := { !o with json = true };
        parse rest
    | "--smoke" :: rest ->
        o := { !o with smoke = true };
        parse rest
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            o := { !o with jobs = Some j };
            parse rest
        | _ ->
            prerr_endline "bench: --jobs expects a positive integer";
            exit 2)
    | "--only" :: id :: rest ->
        (* Repeated flags union; a duplicate id is not an error, just noise. *)
        if not (List.mem id !o.only) then o := { !o with only = !o.only @ [ id ] };
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s (expected --json, --smoke, --jobs N, --only ID)\n"
          arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  !o

(* The experiments this invocation runs: the full registry, or the union of
   the ids named by --only flags, in registry order. *)
let entries =
  match opts.only with
  | [] -> Tfree_experiments.Registry.all
  | ids ->
      List.iter
        (fun id ->
          if Tfree_experiments.Registry.find id = None then (
            Printf.eprintf "bench: unknown experiment id %S (try `tfree list`)\n" id;
            exit 2))
        ids;
      List.filter
        (fun (e : Tfree_experiments.Registry.entry) -> List.mem e.Tfree_experiments.Registry.id ids)
        Tfree_experiments.Registry.all

(* ------------------------------------------------ part 1: experiments *)

(* Render the whole Table-1 harness to a string, timing each experiment.
   Keeping the output as a string serves two purposes: the --json mode diffs
   the jobs=1 and jobs=N renderings to certify determinism, and the default
   mode prints it verbatim (byte-identical to the historical output). *)
let render_experiments () =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "# Table 1 reproduction (Small scale; see EXPERIMENTS.md)\n\n";
  let t0 = Unix.gettimeofday () in
  let timings =
    List.map
      (fun (e : Tfree_experiments.Registry.entry) ->
        Printf.ksprintf (Buffer.add_string buf) "### %s [%s]\n" e.title e.id;
        let t = Unix.gettimeofday () in
        let tables = Tfree_experiments.Registry.run ~scale:Tfree_experiments.Common.Small e in
        let dt = Unix.gettimeofday () -. t in
        List.iter (fun tbl -> Buffer.add_string buf (Table.render tbl)) tables;
        Buffer.add_char buf '\n';
        (e.id, dt))
      entries
  in
  let wall = Unix.gettimeofday () -. t0 in
  (Buffer.contents buf, timings, wall)

(* ----------------------------------------------- part 2: micro rows *)

let params = Tfree.Params.practical

(* Fixed fixtures, built once so the timed closures only run the protocol. *)
let fixture_low =
  let rng = Rng.create 4242 in
  let g = Gen.far_with_degree rng ~n:1000 ~d:4.0 ~eps:0.1 in
  (g, Partition.with_duplication rng ~k:4 ~dup_p:0.3 g)

let fixture_dense =
  let rng = Rng.create 4243 in
  let g = Gen.far_with_degree rng ~n:600 ~d:36.0 ~eps:0.1 in
  (g, Partition.with_duplication rng ~k:4 ~dup_p:0.3 g)

let seed_counter = ref 0

let next_seed () =
  incr seed_counter;
  !seed_counter

(* -------------------------------------------- per-phase trace profiles *)

(* One representative traced run per Table-1 protocol row, on the micro
   fixtures at a fixed seed: the phase breakdown and the message-size
   histogram are deterministic (bits only, no wall-clock), so the profile is
   identical at every job count and can sit inside BENCH_results.json.
   check_json re-verifies the decomposition identity on every profile. *)
let trace_profile =
  let module Trace = Tfree_trace.Trace in
  let traced run =
    let c = Trace.create () in
    let report : Tfree.Tester.report = Trace.with_collector c (fun () -> run (Trace.tap c)) in
    let accounted = report.Tfree.Tester.bits in
    if not (Trace.decomposes c ~accounted) then
      failwith "bench: trace decomposition identity failed";
    Jsonout.Obj
      [
        ("accounted_bits", Jsonout.Num (float_of_int accounted));
        ("identity", Jsonout.Bool true);
        ( "phases",
          Jsonout.List
            (List.map
               (fun (phase, msgs, bits) ->
                 Jsonout.Obj
                   [
                     ("phase", Jsonout.Str phase);
                     ("messages", Jsonout.Num (float_of_int msgs));
                     ("bits", Jsonout.Num (float_of_int bits));
                   ])
               (Trace.phase_rows c)) );
        ( "size_histogram",
          Jsonout.List
            (List.map
               (fun (bucket, count) ->
                 Jsonout.Obj
                   [
                     ("log2_bucket", Jsonout.Num (float_of_int bucket));
                     ("count", Jsonout.Num (float_of_int count));
                   ])
               (Trace.size_histogram c)) );
      ]
  in
  fun id ->
    let g_low, parts_low = fixture_low in
    let g_dense, parts_dense = fixture_dense in
    match id with
    | "table1/unrestricted" ->
        Some (traced (fun tap -> Tfree.Tester.unrestricted ~tap ~seed:1 params parts_low))
    | "table1/sim-low" ->
        Some
          (traced (fun tap ->
               Tfree.Tester.simultaneous ~tap ~seed:1 params ~d:(Graph.avg_degree g_low) parts_low))
    | "table1/sim-high" ->
        Some
          (traced (fun tap ->
               Tfree.Tester.simultaneous ~tap ~seed:1 params ~d:(Graph.avg_degree g_dense)
                 parts_dense))
    | "table1/sim-oblivious" ->
        Some (traced (fun tap -> Tfree.Tester.simultaneous_oblivious ~tap ~seed:1 params parts_low))
    | "table1/exact-gap" -> Some (traced (fun tap -> Tfree.Tester.exact ~tap ~seed:1 parts_low))
    | _ -> None

(* One row per Table-1 protocol, plus the substrate hot paths and the
   lower-bound apparatus, each timing a single representative run with
   {!Timing.row}.  The run counts are sized to about 50 ms a row under
   --smoke; a full run takes ten times as many. *)
let protocol_rows () =
  let scale = if opts.smoke then 1 else 10 in
  let g_low, parts_low = fixture_low in
  let g_dense, parts_dense = fixture_dense in
  let row name runs f = ("tfree/" ^ name, Timing.row ~runs:(runs * scale) f) in
  [
    row "table1/unrestricted" 5 (fun () ->
        Tfree.Tester.unrestricted ~seed:(next_seed ()) params parts_low);
    row "table1/sim-low" 100 (fun () ->
        Tfree.Sim_low.run ~seed:(next_seed ()) params ~d:(Graph.avg_degree g_low) parts_low);
    row "table1/sim-high" 100 (fun () ->
        Tfree.Sim_high.run ~seed:(next_seed ()) params ~d:(Graph.avg_degree g_dense) parts_dense);
    row "table1/sim-oblivious" 25 (fun () ->
        Tfree.Sim_oblivious.run ~seed:(next_seed ()) params parts_low);
    row "table1/exact-baseline" 50 (fun () -> Tfree.Tester.exact ~seed:(next_seed ()) parts_low);
    row "substrate/triangle-find" 50 (fun () -> Triangle.find g_dense);
    row "substrate/greedy-packing" 100 (fun () -> Triangle.greedy_packing g_low);
    row "substrate/degree-approx" 5000 (fun () ->
        let rt = Tfree_comm.Runtime.make ~seed:(next_seed ()) parts_low in
        Tfree.Degree_approx.approx_degree rt ~key:1 ~alpha:3.0 ~tau:0.1 ~boost:0.3 0);
    row "lower/bm-reduction" 200 (fun () ->
        let rng = Rng.create (next_seed ()) in
        let inst = Tfree_lowerbound.Boolean_matching.generate rng ~n:256 ~target:false in
        Tfree_lowerbound.Boolean_matching.reduction_graph inst);
    row "lower/streaming-detector" 100 (fun () ->
        let det = Tfree_streaming.Detector.make ~seed:(next_seed ()) ~p:0.2 in
        let rng = Rng.create (next_seed ()) in
        Tfree_streaming.Stream_alg.run det ~n:(Graph.n g_low)
          (Tfree_streaming.Stream_alg.stream_of_graph rng g_low));
  ]

(* Measure every micro row and print its table, then return the rows of the
   document's micro array: the protocol rows above, the wire codec and tap
   (bench/micro_wire.ml, same iteration split as @micro-smoke), the cold
   far build (bench/micro_gen.ml), the protocol core (bench/micro_core.ml)
   and the dataset pipeline (bench/dataset_bench.ml; few iterations, as
   each loads a quarter-million-edge graph). *)
let micro_suite () =
  let smoke a b = if opts.smoke then a else b in
  let protocol = protocol_rows () in
  Table.print
    (Table.make
       ~title:(Printf.sprintf "protocol micro-benchmarks (best of %d loops)" Timing.loops)
       ~header:[ "benchmark"; "us/run"; "spread"; "words/run" ]
       (List.map
          (fun (name, (r : Timing.row)) ->
            [
              name;
              Printf.sprintf "%.2f" (r.ns /. 1e3);
              Printf.sprintf "%.0f%%" (100.0 *. r.spread);
              Printf.sprintf "%.0f" r.words;
            ])
          protocol));
  let wire = Micro_wire.measure ~iters:(smoke 20_000 200_000) in
  Micro_wire.print_table wire;
  let gen = Micro_gen.measure ~builds:(smoke 20 200) in
  Micro_gen.print_table gen;
  let core = Micro_core.measure ~runs:(smoke 50 500) in
  Micro_core.print_table core;
  let dataset = Dataset_bench.measure ~iters:(smoke 2 5) in
  Dataset_bench.print_table dataset;
  List.map
    (fun (name, (r : Timing.row)) ->
      Jsonout.Obj
        [
          ("name", Str name);
          ("ns_per_run", Num r.ns);
          ("ns_spread", Num r.spread);
          ("words", Num r.words);
        ])
    protocol
  @ Micro_wire.to_rows wire @ Micro_gen.to_rows gen @ Micro_core.to_rows core
  @ Dataset_bench.to_rows dataset

(* ------------------------------------------------------- json output *)

let json_file = "BENCH_results.json"

(* The baseline document consumed by @bench-smoke and by regression tooling.
   Schema "tfree-bench/v1" (documented in EXPERIMENTS.md):
     harness runs are the full Table-1 loop at jobs=1 and at the requested
     job count, with per-experiment wall-clock and a byte-identity check of
     the rendered tables; micro rows are {!Timing.row} measurements. *)
let run_json () =
  let requested = match opts.jobs with Some j -> j | None -> Pool.jobs () in
  Pool.set_jobs 1;
  let out1, timings1, wall1 = render_experiments () in
  Pool.set_jobs requested;
  let effective = Pool.jobs () in
  let outn, timingsn, walln = render_experiments () in
  let identical = String.equal out1 outn in
  print_string outn;
  (* A filtered run regenerates only the requested experiments' tables; the
     micro suite covers the whole protocol zoo, so it only runs
     with the full harness. *)
  let micro = if opts.only = [] then micro_suite () else [] in
  (* The congest threshold/accounting rows (lib/experiments/congest_threshold.ml):
     seeded, wall-clock-free, so the document stays byte-stable. *)
  let congest = if opts.only = [] then Tfree_experiments.Congest_threshold.bench_rows () else [] in
  let experiments =
    List.map2
      (fun (id, dt1) (id', dtn) ->
        assert (String.equal id id');
        Jsonout.Obj
          ([ ("id", Jsonout.Str id); ("wall_s_jobs1", Jsonout.Num dt1); ("wall_s_jobsN", Jsonout.Num dtn) ]
          @ match trace_profile id with Some p -> [ ("trace", p) ] | None -> []))
      timings1 timingsn
  in
  let doc =
    Jsonout.Obj
      ([
         ("schema", Jsonout.Str "tfree-bench/v1");
         ("scale", Jsonout.Str "small");
       ]
      @ (match opts.only with
        | [] -> []
        | [ id ] -> [ ("only", Jsonout.Str id) ]
        | ids -> [ ("only", Jsonout.List (List.map (fun id -> Jsonout.Str id) ids)) ])
      @ [
        ("jobs", Obj [ ("requested", Num (float_of_int requested)); ("effective", Num (float_of_int effective)) ]);
        ( "harness",
          Obj
            [
              ("wall_s_jobs1", Num wall1);
              ("wall_s_jobsN", Num walln);
              ("speedup", Num (wall1 /. walln));
              ("tables_identical", Bool identical);
              ("experiments", List experiments);
            ] );
        ("micro", List (micro @ congest));
      ])
  in
  let oc = open_out json_file in
  output_string oc (Jsonout.to_string doc);
  close_out oc;
  Printf.printf "wrote %s (jobs %d/%d, harness %.2fs vs %.2fs, tables %s)\n" json_file requested
    effective wall1 walln
    (if identical then "identical" else "DIFFER");
  if not identical then exit 1

let () =
  Option.iter Pool.set_jobs opts.jobs;
  if opts.json then run_json ()
  else begin
    let out, _, _ = render_experiments () in
    print_string out;
    if opts.only = [] then ignore (micro_suite ());
    print_endline "done."
  end
