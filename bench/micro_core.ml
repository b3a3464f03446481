(* Micro-benchmarks of the protocol core.  A cold-build query's: the far
   instance at n = 2000, d = 24, ǫ = 0.1, dup partition over k = 4 players,
   seed 11.

     micro/sim-player   the four Algorithm 8 ([Sim_low]) player messages,
                        computed exactly as the served sim query computes
                        them
     micro/partition    [Service.build_partition Dup] of the instance, as
                        a cold query builds it

   And a chatty query's: the far instance at n = 300, d = 6, same ǫ,
   partition, k and seed.

     micro/unrestricted one [Tester.unrestricted] run (§3.3): 458 rounds,
                        one per degree guess of Theorem 3.1 carrying all
                        of the guess's experiments, where one round per
                        experiment took 13,195

   For each row:

     ns/run      fastest of {!Timing.loops} timed loops ({!Timing.row}),
                 with the loops' spread
     words/run   words allocated by one run (minor and major heap); every
                 run does the same work, so the figure is exact

   Each player builds one R/S membership table (one hash per vertex and
   sample), walks only the rows of vertices in R ∪ S, and encodes its
   selected edges.  A partition draws its ownership bits and hands out
   players that are views of the instance: no player row is built until a
   protocol reads it.  An unrestricted run's experiments allocate almost
   nothing: no split stream, no element list, no boxed priority.  {!check}
   holds a run of each to its words limit.

   [bench/main.ml] embeds the rows in BENCH_results.json; [bench/micro.ml]
   gates them behind the @micro-smoke alias; [bench/check_json.ml]
   re-validates the emitted rows. *)

open Tfree_util
open Tfree_graph
open Tfree_comm
module Service = Tfree_wire.Service

let n = 2000
let d = 24.0
let chatty_n = 300
let chatty_d = 6.0
let k = 4
let eps = 0.1
let seed = 11

(** The allocation budget of one sim player run (four player messages), in
    words. *)
let words_limit = 10_000.0

(** The allocation budget of one partition, in words (about 231k when
    every player was built through its own [Graph.Builder]). *)
let partition_words_limit = 30_000.0

(** The allocation budget of one unrestricted run, in words: about 200k in
    a dev build; 274k with one round per experiment, 385k when every
    experiment also split its own stream, 1.70M when every round built a
    reply array and every experiment an element list. *)
let unrestricted_words_limit = 235_000.0

(** The rounds of that run, which [bench/check_json.ml] requires: one per
    degree guess, not one per experiment (13,195). *)
let unrestricted_rounds = 458

type result = {
  runs : int;
  player : Timing.row;
  bits : int;  (** the four messages' bits: what a player run sends *)
  partition : Timing.row;
  held : int;  (** edges the four players hold, duplicates counted *)
  unrestricted : Timing.row;
  unrestricted_bits : int;
  unrestricted_rounds : int;
}

let request ~protocol ~n ~d =
  { Service.default_request with family = Service.Far; partition = Service.Dup; protocol; n; d; k; eps; seed }

let measure ~runs =
  if runs < 1 then invalid_arg "Micro_core.measure: runs must be positive";
  let g, parts = Service.instance_pair (request ~protocol:Service.Sim ~n ~d) in
  let params = Tfree.Params.(with_eps practical eps) in
  let player = (Tfree.Sim_low.protocol params ~d:(Graph.avg_degree g)).Simultaneous.player in
  let ctx = { Simultaneous.k; n; shared = Rng.split (Rng.create seed) 0 } in
  let play () = Array.init k (fun j -> player ctx j (Partition.player parts j)) in
  let bits = Array.fold_left (fun acc m -> acc + Msg.bits m) 0 (play ()) in
  let split () = Service.build_partition Service.Dup (Service.partition_rng seed) ~k g in
  let held = Array.fold_left (fun acc p -> acc + Graph.m p) 0 (split ()) in
  let _, chatty = Service.instance_pair (request ~protocol:Service.Unrestricted ~n:chatty_n ~d:chatty_d) in
  let unrestricted () = Tfree.Tester.unrestricted ~seed params chatty in
  let report = unrestricted () in
  {
    runs;
    player = Timing.row ~runs play;
    bits;
    partition = Timing.row ~runs split;
    held;
    (* a run is a few ms, a thousand times a player run's *)
    unrestricted = Timing.row ~runs:(max 1 (runs / 5)) unrestricted;
    unrestricted_bits = report.Tfree.Tester.bits;
    unrestricted_rounds = report.Tfree.Tester.rounds;
  }

let check r =
  let over name words limit =
    if words > limit then [ Printf.sprintf "%s allocates %.0f words, budget %.0f" name words limit ]
    else []
  in
  match
    over "sim player run" r.player.words words_limit
    @ over "dup partition" r.partition.words partition_words_limit
    @ over "unrestricted run" r.unrestricted.words unrestricted_words_limit
  with
  | [] -> Ok ()
  | violations -> Error violations

let print_table r =
  let line name (row : Timing.row) limit extra =
    [
      name;
      Printf.sprintf "%.0f" row.ns;
      Printf.sprintf "%.0f%%" (100.0 *. row.spread);
      Printf.sprintf "%.0f" row.words;
      Printf.sprintf "<= %.0f" limit;
      extra;
    ]
  in
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf
            "core micro, far dup k=%d: cold-build n=%d d=%g, chatty n=%d d=%g (%d runs, best of \
             %d loops)"
            k n d chatty_n chatty_d r.runs (min Timing.loops r.runs))
       ~header:[ "row"; "ns/run"; "spread"; "words/run"; "budget"; "out" ]
       [
         line "Sim_low players" r.player words_limit (Printf.sprintf "%d bits" r.bits);
         line "dup partition" r.partition partition_words_limit (Printf.sprintf "%d edges" r.held);
         line "unrestricted run" r.unrestricted unrestricted_words_limit
           (Printf.sprintf "%d bits, %d rounds" r.unrestricted_bits r.unrestricted_rounds);
       ])

let to_rows r =
  let num x = Jsonout.Num x in
  let row ?(n = n) ?(d = d) name (x : Timing.row) limit extra =
    Jsonout.Obj
      ([
         ("name", Jsonout.Str name);
         ("n", num (float_of_int n));
         ("d", num d);
         ("k", num (float_of_int k));
         ("ns", num x.ns);
         ("ns_spread", num x.spread);
         ("words", num x.words);
         ("limit", num limit);
       ]
      @ extra)
  in
  [
    row "micro/sim-player" r.player words_limit [ ("bits", num (float_of_int r.bits)) ];
    row "micro/partition" r.partition partition_words_limit
      [ ("edges", num (float_of_int r.held)) ];
    row ~n:chatty_n ~d:chatty_d "micro/unrestricted" r.unrestricted unrestricted_words_limit
      [
        ("bits", num (float_of_int r.unrestricted_bits));
        ("rounds", num (float_of_int r.unrestricted_rounds));
      ];
  ]
