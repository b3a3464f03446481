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

   And the two shared-randomness kernels that run under it:

     micro/shared-rng   one [Rng.mark_word] call (61 of Theorem 3.1's
                        experiments over 400 keys) and one [Rng.first_key]
                        call (Algorithm 1's priority over 300 vertices)

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
   nothing: no split stream, no element list, no boxed priority, and its
   two kernels allocate nothing at all.  {!check} holds a run of each to
   its words limit.

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

(** The allocation budget of one unrestricted run, in words: about 99k in
    a dev build; 200k when every priority was a boxed [hash_float], 274k
    with one round per experiment, 385k when every experiment also split
    its own stream, 1.70M when every round built a reply array and every
    experiment an element list. *)
let unrestricted_words_limit = 130_000.0

(** The allocation budget of one [Rng.mark_word] or [Rng.first_key]
    call. *)
let kernel_words_limit = 0.0

(* The kernels' inputs: 61 mark slots and 400 keys at a mark probability
   that leaves some slots unmarked (their scans read every key), and a
   first key among 300 vertices. *)
let mark_keys = Array.init 400 (fun i -> (i * 613) + 11)
let mark_p = 1.0 /. 800.0
let priority_keys = Array.init chatty_n Fun.id

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
  mark_word : Timing.row;
  first_key : Timing.row;
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
  let shared = Rng.create seed in
  let marks = Rng.splits 61 in
  for e = 0 to 60 do
    Rng.set_split marks e shared (104729 * (e + 1))
  done;
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
    mark_word =
      Timing.row ~runs (fun () -> Rng.mark_word marks ~first:0 ~count:61 ~p:mark_p mark_keys);
    first_key = Timing.row ~runs:(runs * 100) (fun () -> Rng.first_key shared priority_keys);
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
    @ over "Rng.mark_word call" r.mark_word.words kernel_words_limit
    @ over "Rng.first_key call" r.first_key.words kernel_words_limit
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
         line "Rng.mark_word" r.mark_word kernel_words_limit "61 slots x 400 keys";
         line "Rng.first_key" r.first_key kernel_words_limit (Printf.sprintf "%d keys" chatty_n);
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
    Jsonout.Obj
      (("name", Jsonout.Str "micro/shared-rng")
      :: ("limit", num kernel_words_limit)
      :: List.concat_map
           (fun (kernel, (x : Timing.row)) ->
             [
               (kernel ^ "_ns", num x.ns);
               (kernel ^ "_ns_spread", num x.spread);
               (kernel ^ "_words", num x.words);
             ])
           [ ("mark_word", r.mark_word); ("first_key", r.first_key) ]);
  ]
