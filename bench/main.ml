(* Benchmark and reproduction harness.

   Two parts:
   1. The Table-1 regeneration harness: every experiment of DESIGN.md §4 runs
      at Small scale and prints its table (these are the numbers EXPERIMENTS.md
      quotes).
   2. Bechamel micro-benchmarks: one Test.make per Table-1 protocol row (plus
      the substrate hot paths), timing a single representative run.

   Modes (parsed from argv, no cmdliner here to keep bench standalone):
     (default)      print part 1 then part 2, as always
     --json         additionally run part 1 at jobs=1 and at jobs=N, verify
                    the rendered tables are identical, and write
                    BENCH_results.json (schema documented in EXPERIMENTS.md)
     --jobs N       request N pool workers (same semantics as the CLI flag:
                    a ceiling, capped at the hardware core count)
     --smoke        shrink the bechamel quota so --json finishes quickly;
                    used by the @bench-smoke dune alias
     --only ID      run a subset of the registered experiments instead of the
                    whole harness; repeat the flag for a union of ids.
                    Bechamel micro-benchmarks are skipped and the JSON
                    document records the filter in its "only" field (a
                    string for one id, a list for several) *)

open Tfree_util
open Tfree_graph
open Bechamel
open Toolkit

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

(* -------------------------------------------- part 2: bechamel micro *)

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

let micro_tests =
  let g_low, parts_low = fixture_low in
  let g_dense, parts_dense = fixture_dense in
  Test.make_grouped ~name:"tfree"
    [
      Test.make ~name:"table1/unrestricted"
        (Staged.stage (fun () -> Tfree.Tester.unrestricted ~seed:(next_seed ()) params parts_low));
      Test.make ~name:"table1/sim-low"
        (Staged.stage (fun () ->
             Tfree.Sim_low.run ~seed:(next_seed ()) params ~d:(Graph.avg_degree g_low) parts_low));
      Test.make ~name:"table1/sim-high"
        (Staged.stage (fun () ->
             Tfree.Sim_high.run ~seed:(next_seed ()) params ~d:(Graph.avg_degree g_dense) parts_dense));
      Test.make ~name:"table1/sim-oblivious"
        (Staged.stage (fun () -> Tfree.Sim_oblivious.run ~seed:(next_seed ()) params parts_low));
      Test.make ~name:"table1/exact-baseline"
        (Staged.stage (fun () -> Tfree.Tester.exact ~seed:(next_seed ()) parts_low));
      Test.make ~name:"substrate/triangle-find"
        (Staged.stage (fun () -> Triangle.find g_dense));
      Test.make ~name:"substrate/greedy-packing"
        (Staged.stage (fun () -> Triangle.greedy_packing g_low));
      Test.make ~name:"substrate/degree-approx"
        (Staged.stage (fun () ->
             let rt = Tfree_comm.Runtime.make ~seed:(next_seed ()) parts_low in
             Tfree.Degree_approx.approx_degree rt ~key:1 ~alpha:3.0 ~tau:0.1 ~boost:0.3 0));
      Test.make ~name:"lower/bm-reduction"
        (Staged.stage (fun () ->
             let rng = Rng.create (next_seed ()) in
             let inst = Tfree_lowerbound.Boolean_matching.generate rng ~n:256 ~target:false in
             Tfree_lowerbound.Boolean_matching.reduction_graph inst));
      Test.make ~name:"lower/streaming-detector"
        (Staged.stage (fun () ->
             let det = Tfree_streaming.Detector.make ~seed:(next_seed ()) ~p:0.2 in
             let rng = Rng.create (next_seed ()) in
             Tfree_streaming.Stream_alg.run det ~n:(Graph.n g_low)
               (Tfree_streaming.Stream_alg.stream_of_graph rng g_low)));
    ]

(* Run bechamel and return (name, ns/run, r²) rows, sorted by name. *)
let measure_micro () =
  let quota, limit = if opts.smoke then (0.05, 50) else (0.5, 300) in
  let cfg = Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] micro_tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        let est = match Analyze.OLS.estimates o with Some [ e ] -> e | _ -> Float.nan in
        let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square o) in
        (name, est, r2) :: acc)
      results []
  in
  List.sort compare rows

let print_micro rows =
  print_endline "# Bechamel micro-benchmarks (one Test.make per protocol row)";
  let table =
    Table.make ~title:"wall-clock per run"
      ~header:[ "benchmark"; "time/run"; "r²" ]
      (List.map
         (fun (name, est, r2) ->
           let human =
             if Float.is_nan est then "-"
             else if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
             else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
             else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
             else Printf.sprintf "%.0f ns" est
           in
           [ name; human; Table.fcell r2 ])
         rows)
  in
  Table.print table

(* The wire-codec micro-benchmark (bench/micro_wire.ml): JSON v1 vs binary
   v2 on the serve hot path.  Same iteration split as @micro-smoke. *)
let measure_wire () = Micro_wire.measure ~iters:(if opts.smoke then 20_000 else 200_000)

(* The cold far-build micro-benchmark (bench/micro_gen.ml): time and
   allocation of one Gen.far_with_degree build at the cold-build shape. *)
let measure_gen () = Micro_gen.measure ~builds:(if opts.smoke then 20 else 200)

(* The cold-build core micro-benchmark (bench/micro_core.ml): time and
   allocation of the four Algorithm 8 player messages and of the dup
   partition of a cold-build query. *)
let measure_core () = Micro_core.measure ~runs:(if opts.smoke then 50 else 500)

(* The dataset-pipeline micro-benchmark (bench/dataset_bench.ml): snapshot
   load vs regeneration vs text parse on a quarter-million-edge corpus.
   Few iterations — each one loads the whole graph. *)
let measure_dataset () = Dataset_bench.measure ~iters:(if opts.smoke then 2 else 5)

(* ------------------------------------------------------- json output *)

let json_file = "BENCH_results.json"

(* The baseline document consumed by @bench-smoke and by regression tooling.
   Schema "tfree-bench/v1" (documented in EXPERIMENTS.md):
     harness runs are the full Table-1 loop at jobs=1 and at the requested
     job count, with per-experiment wall-clock and a byte-identity check of
     the rendered tables; micro rows are bechamel OLS estimates. *)
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
     bechamel micro suite covers the whole protocol zoo, so it only runs
     with the full harness. *)
  let micro = if opts.only = [] then measure_micro () else [] in
  if opts.only = [] then print_micro micro;
  let wire = if opts.only = [] then Some (measure_wire ()) else None in
  Option.iter Micro_wire.print_table wire;
  let gen = if opts.only = [] then Some (measure_gen ()) else None in
  Option.iter Micro_gen.print_table gen;
  let core = if opts.only = [] then Some (measure_core ()) else None in
  Option.iter Micro_core.print_table core;
  let dataset = if opts.only = [] then Some (measure_dataset ()) else None in
  Option.iter Dataset_bench.print_table dataset;
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
        ( "micro",
          List
            (List.map
               (fun (name, est, r2) ->
                 Jsonout.Obj [ ("name", Str name); ("ns_per_run", Num est); ("r2", Num r2) ])
               micro
            @ (match wire with Some w -> Micro_wire.to_rows w | None -> [])
            @ (match gen with Some g -> Micro_gen.to_rows g | None -> [])
            @ (match core with Some c -> Micro_core.to_rows c | None -> [])
            @ (match dataset with Some d -> Dataset_bench.to_rows d | None -> [])
            @ congest) );
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
    if opts.only = [] then begin
      print_micro (measure_micro ());
      Micro_wire.print_table (measure_wire ());
      Micro_gen.print_table (measure_gen ());
      Micro_core.print_table (measure_core ());
      Dataset_bench.print_table (measure_dataset ())
    end;
    print_endline "done."
  end
