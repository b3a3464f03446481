(** Registry mapping experiment ids (DESIGN.md §4) to runners, shared by
    [bench/main.exe] (Small scale) and the CLI (either scale). *)

open Tfree_util

type entry = { id : string; title : string; run : Common.scale -> Table.t list }

let all : entry list =
  [
    { id = "table1/unrestricted"; title = "E1 unrestricted upper bound"; run = Upper_bounds.e1_unrestricted };
    { id = "table1/sim-low"; title = "E2 simultaneous low-degree upper bound"; run = Upper_bounds.e2_sim_low };
    { id = "table1/sim-high"; title = "E3 simultaneous high-degree upper bound"; run = Upper_bounds.e3_sim_high };
    { id = "table1/sim-oblivious"; title = "E4 degree-oblivious overhead"; run = Upper_bounds.e4_oblivious };
    { id = "table1/exact-gap"; title = "E5 exact-vs-testing gap"; run = Upper_bounds.e5_exact_gap };
    { id = "lower/budget-threshold"; title = "E6 budget threshold"; run = Lower_bounds.e6_budget_threshold };
    { id = "lower/streaming-bridge"; title = "E7 streaming bridge"; run = Lower_bounds.e7_streaming };
    { id = "lower/symmetrization"; title = "E8 symmetrization identity"; run = Lower_bounds.e8_symmetrization };
    { id = "lower/bm-reduction"; title = "E9 Boolean-Matching reduction"; run = Lower_bounds.e9_boolean_matching };
    { id = "lower/mu-far"; title = "E10 hard distribution farness"; run = Lower_bounds.e10_mu };
    { id = "ablation/blackboard"; title = "E11 blackboard saving"; run = Ablations.e11_blackboard };
    { id = "ablation/duplication"; title = "E12 duplication saving"; run = Ablations.e12_duplication };
    { id = "blocks/degree-approx"; title = "E13 degree approximation"; run = Ablations.e13_degree_approx };
    { id = "blocks/uniform-edge"; title = "E14 uniform edge sampling"; run = Ablations.e14_uniform_edge };
    { id = "analysis/buckets"; title = "E15 input-analysis lemmas"; run = Ablations.e15_buckets };
    { id = "extension/subgraph"; title = "E16 H-freeness extension"; run = Extensions.e16_subgraph };
    { id = "ablation/eps"; title = "E17 ǫ-sensitivity"; run = Extensions.e17_eps_sweep };
    { id = "ablation/profiles"; title = "E18 paper-vs-practical constants"; run = Extensions.e18_profiles };
    { id = "extension/congest"; title = "E19 CONGEST tester rounds"; run = Extensions.e19_congest };
    { id = "extension/behrend"; title = "E20 Behrend instances"; run = Extensions.e20_behrend };
    { id = "wire/overhead"; title = "E21 wire overhead"; run = Wire_overhead.e21_wire };
    { id = "wire/fault-tolerance"; title = "E22 fault tolerance"; run = Fault_tolerance.e22_fault };
    { id = "serve/throughput"; title = "E23 serve throughput"; run = Serve_throughput.e23_serve };
    { id = "dataset/scaling"; title = "E24 real-graph datasets"; run = Datasets.e24_datasets };
    { id = "serve/latency"; title = "E25 serve latency decomposition"; run = Serve_latency.e25_serve_latency };
    { id = "congest/round-threshold"; title = "E27 round-budget threshold"; run = Congest_threshold.e27_round_threshold };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(** Run one entry and return its tables.  The scaling-row sweeps inside each
    runner fan their [(n, seed)] cells over the domain pool
    ({!Tfree_util.Pool}, sized by [TFREE_JOBS] / [--jobs]); rows come back in
    index order with sequential aggregation, so the tables are identical at
    every job count. *)
let run ?(scale = Common.Small) entry = entry.run scale

let run_and_print ?(scale = Common.Small) entry = List.iter Table.print (run ~scale entry)
