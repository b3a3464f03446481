(* Micro-benchmark of the simultaneous testers' player kernel: the four
   Algorithm 8 ([Sim_low]) player messages of one cold-build query — the
   far instance at n = 2000, d = 24, ǫ = 0.1, dup partition over k = 4
   players, seed 11 — computed exactly as the served sim query computes
   them.

     ns/run      the four messages, fastest of {!loops} timed loops
                 ({!Timing.best_of}), with the loops' spread
     words/run   words allocated by one run (minor and major heap, from
                 {!Timing.allocated_words}); every run does the same work,
                 so the figure is exact

   Each player builds one R/S membership table (one hash per vertex and
   sample), walks only the rows of vertices in R ∪ S, and encodes its
   selected edges; {!check} holds a run to {!words_limit} words.

   [bench/main.ml] embeds the row in BENCH_results.json
   ([micro/sim-player]); [bench/micro.ml] gates it behind the @micro-smoke
   alias; [bench/check_json.ml] re-validates the emitted row. *)

open Tfree_util
open Tfree_graph
open Tfree_comm
module Service = Tfree_wire.Service

let n = 2000
let d = 24.0
let k = 4
let eps = 0.1
let seed = 11

(** The allocation budget of one run (four player messages), in words. *)
let words_limit = 10_000.0

(** Timed loops; each runs [runs / loops] runs. *)
let loops = 5

type result = {
  runs : int;
  ns : float;  (** ns per run, fastest loop *)
  spread : float;  (** slowest loop / fastest loop - 1 *)
  words : float;  (** allocated words per run *)
  bits : int;  (** the four messages' bits: what a run sends *)
}

let fixture () =
  let req =
    {
      Service.default_request with
      family = Service.Far;
      partition = Service.Dup;
      protocol = Service.Sim;
      n;
      d;
      k;
      eps;
      seed;
    }
  in
  let g, parts = Service.instance_pair req in
  let params = Tfree.Params.(with_eps practical eps) in
  let player = (Tfree.Sim_low.protocol params ~d:(Graph.avg_degree g)).Simultaneous.player in
  let ctx = { Simultaneous.k; n; shared = Rng.split (Rng.create seed) 0 } in
  fun () -> Array.init k (fun j -> player ctx j (Partition.player parts j))

let measure ~runs =
  if runs < 1 then invalid_arg "Micro_core.measure: runs must be positive";
  let run = fixture () in
  let bits = Array.fold_left (fun acc m -> acc + Msg.bits m) 0 (run ()) in
  Gc.full_major ();
  let w0 = Timing.allocated_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (run ()))
  done;
  let words = (Timing.allocated_words () -. w0) /. float_of_int runs in
  let t = Timing.best_of ~loops ~iters:(max 1 (runs / loops)) run in
  { runs; ns = t.Timing.best_ns; spread = t.Timing.spread; words; bits }

let check r =
  if r.words > words_limit then
    Error [ Printf.sprintf "sim player run allocates %.0f words, budget %.0f" r.words words_limit ]
  else Ok ()

let print_table r =
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf "sim player micro, Sim_low n=%d d=%g k=%d (best of %d loops of %d runs)" n d
            k loops (max 1 (r.runs / loops)))
       ~header:[ "ns/run"; "spread"; "words/run"; "budget"; "bits/run" ]
       [
         [
           Printf.sprintf "%.0f" r.ns;
           Printf.sprintf "%.0f%%" (100.0 *. r.spread);
           Printf.sprintf "%.0f" r.words;
           Printf.sprintf "<= %.0f" words_limit;
           string_of_int r.bits;
         ];
       ])

let to_rows r =
  let num x = Jsonout.Num x in
  [
    Jsonout.Obj
      [
        ("name", Jsonout.Str "micro/sim-player");
        ("n", num (float_of_int n));
        ("d", num d);
        ("k", num (float_of_int k));
        ("ns", num r.ns);
        ("ns_spread", num r.spread);
        ("words", num r.words);
        ("limit", num words_limit);
        ("bits", num (float_of_int r.bits));
      ];
  ]
