(* Micro-benchmark of the dataset pipeline: what a registered snapshot
   buys the daemon over regenerating (or re-parsing) the corpus.

   One fixture graph — a far instance on the service's generator stream,
   a quarter-million edges — is rendered once as DIMACS text and as the
   binary snapshot, both on disk; the timed closures then race the three
   ways a daemon could obtain the graph:

     regen ns        rebuild from the generator (what a cache miss on a
                     generated instance costs)
     dimacs ns       re-parse the text file
     snapshot ns     load the snapshot

   each the fastest of up to {!Timing.loops} timed loops ({!Timing.row})
   with the loops' spread, plus the size ledger (snapshot vs DIMACS bytes, bits/edge).  The gates
   are the reasons lib/dataset exists: the snapshot must load faster than
   regeneration and faster than the text parse, and must be the smaller
   encoding — {!check} turns each failure into a violation string.  Every
   load is verified to reproduce the generator's graph exactly (compared
   by canonical snapshot image) before anything is timed.
   [bench/main.ml] embeds the rows in BENCH_results.json ([dataset/*]);
   [bench/check_json.ml] re-validates them. *)

open Tfree_graph
module Service = Tfree_wire.Service
module Snapshot = Tfree_dataset.Snapshot
module Dimacs = Tfree_dataset.Dimacs

let fixture_n = 60_000
let fixture_d = 8.0
let fixture_seed = 24

let regen () = Service.build_instance Service.Far (Service.graph_rng fixture_seed) ~n:fixture_n ~d:fixture_d ~eps:0.1

type result = {
  iters : int;
  n : int;
  m : int;
  regen : Timing.row;
  dimacs : Timing.row;
  snapshot : Timing.row;
  dimacs_bytes : int;
  snapshot_bytes : int;
}

let measure ~iters =
  if iters < 1 then invalid_arg "Dataset_bench.measure: iters must be positive";
  let g = regen () in
  let image = Snapshot.encode g in
  let dimacs_file = Filename.temp_file "tfree_dsbench" ".col" in
  let snap_file = Filename.temp_file "tfree_dsbench" ".tfs" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ dimacs_file; snap_file ])
    (fun () ->
      Dimacs.save g dimacs_file;
      Snapshot.save g snap_file;
      (* correctness before speed: every path yields the generator's graph *)
      let same h = String.equal image (Snapshot.encode h) in
      if not (same (Dimacs.load dimacs_file)) then failwith "dataset bench: dimacs load differs";
      if not (same (Snapshot.load snap_file)) then failwith "dataset bench: snapshot load differs";
      {
        iters;
        n = Graph.n g;
        m = Graph.m g;
        regen = Timing.row ~runs:iters regen;
        dimacs = Timing.row ~runs:iters (fun () -> Dimacs.load dimacs_file);
        snapshot = Timing.row ~runs:iters (fun () -> Snapshot.load snap_file);
        dimacs_bytes = (Unix.stat dimacs_file).Unix.st_size;
        snapshot_bytes = (Unix.stat snap_file).Unix.st_size;
      })

(* ----------------------------------------------------------- the gate *)

(** Every way the snapshot is required to win, as violation strings
    (empty = pass).  The byte gate is deterministic.  The timing gates are
    not: the snapshot load beats the text parse by a wide margin, but it
    beats regeneration of the n=60000 d=8 fixture by less than 20% (on a
    2-core Xeon), so host noise can flip the snapshot-vs-regeneration
    gate. *)
let violations r =
  let v = ref [] in
  let push fmt = Printf.ksprintf (fun s -> v := s :: !v) fmt in
  if r.snapshot.ns >= r.regen.ns then
    push "snapshot load %.0f ns >= regeneration %.0f" r.snapshot.ns r.regen.ns;
  if r.snapshot.ns >= r.dimacs.ns then
    push "snapshot load %.0f ns >= dimacs parse %.0f" r.snapshot.ns r.dimacs.ns;
  if r.snapshot_bytes >= r.dimacs_bytes then
    push "snapshot %d B >= dimacs %d B" r.snapshot_bytes r.dimacs_bytes;
  List.rev !v

let check r = match violations r with [] -> Ok () | v -> Error v

(* ------------------------------------------------------------- output *)

let print_table r =
  let ms (x : Timing.row) = Printf.sprintf "%.2f ms (+%.0f%%)" (x.ns /. 1e6) (100.0 *. x.spread) in
  Tfree_util.Table.print
    (Tfree_util.Table.make
       ~title:
         (Printf.sprintf "dataset pipeline micro (far n=%d m=%d, %d iters/row)" r.n r.m r.iters)
       ~header:[ "path"; "time"; "vs regen"; "bytes" ]
       [
         [ "regenerate"; ms r.regen; "1.000"; "-" ];
         [
           "parse dimacs";
           ms r.dimacs;
           Printf.sprintf "%.3f" (r.dimacs.ns /. r.regen.ns);
           string_of_int r.dimacs_bytes;
         ];
         [
           "load snapshot";
           ms r.snapshot;
           Printf.sprintf "%.3f" (r.snapshot.ns /. r.regen.ns);
           string_of_int r.snapshot_bytes;
         ];
       ])

(* The BENCH_results.json rows, in the micro array next to the
   Micro_wire rows; check_json validates them by name. *)
let to_rows r =
  let num x = Tfree_util.Jsonout.Num x in
  let int n = num (float_of_int n) in
  [
    Tfree_util.Jsonout.Obj
      [
        ("name", Tfree_util.Jsonout.Str "dataset/snapshot-load-vs-regen");
        ("regen_ns", num r.regen.ns);
        ("dimacs_ns", num r.dimacs.ns);
        ("snapshot_ns", num r.snapshot.ns);
        ("regen_ns_spread", num r.regen.spread);
        ("dimacs_ns_spread", num r.dimacs.spread);
        ("snapshot_ns_spread", num r.snapshot.spread);
        ("m", int r.m);
      ];
    Tfree_util.Jsonout.Obj
      [
        ("name", Tfree_util.Jsonout.Str "dataset/snapshot-bytes-per-edge");
        ("snapshot_bytes", int r.snapshot_bytes);
        ("dimacs_bytes", int r.dimacs_bytes);
        ("m", int r.m);
        ("bits_per_edge", num (8.0 *. float_of_int r.snapshot_bytes /. float_of_int (max 1 r.m)));
      ];
  ]
