(* Micro-benchmark of one cold instance build: [Gen.far_with_degree] at the
   cold-build workload's shape (n = 2000, d = 24, ǫ = 0.1), each build on a
   fresh seed as a cold query's would be.

     ms/build      wall time of one build, fastest of {!Timing.loops}
                   timed loops ({!Timing.row}), with the loops' spread
     words/build   words allocated per build (minor and major heap),
                   averaged over the builds

   A build streams its edges into one flat buffer and one Graph.Builder;
   {!check} holds it to {!words_limit} allocated words, about half of what
   the list-based generator allocated (481k words at this shape).

   [bench/main.ml] embeds the row in BENCH_results.json
   ([micro/gen-far]); [bench/micro.ml] gates it behind the @micro-smoke
   alias; [bench/check_json.ml] re-validates the emitted row. *)

open Tfree_util
open Tfree_graph

let n = 2000
let d = 24.0
let eps = 0.1

(** The allocation budget of one build, in words. *)
let words_limit = 260_000.0

type result = {
  builds : int;
  build : Timing.row;  (** one build, each on a fresh seed *)
  edges : int;  (** edges of the first build *)
}

let build seed = Gen.far_with_degree (Rng.create seed) ~n ~d ~eps

let measure ~builds =
  if builds < 1 then invalid_arg "Micro_gen.measure: builds must be positive";
  let seed = ref 11 in
  let edges = Graph.m (build !seed) in
  let fresh () =
    incr seed;
    build !seed
  in
  { builds; build = Timing.row ~runs:builds fresh; edges }

let check r =
  if r.build.words > words_limit then
    Error
      [
        Printf.sprintf "far build allocates %.0f words, budget %.0f" r.build.words words_limit;
      ]
  else Ok ()

let print_table r =
  Table.print
    (Table.make
       ~title:(Printf.sprintf "far build micro, n=%d d=%g eps=%g (%d builds)" n d eps r.builds)
       ~header:[ "ms/build"; "spread"; "words/build"; "budget"; "edges" ]
       [
         [
           Printf.sprintf "%.2f" (r.build.ns /. 1e6);
           Printf.sprintf "%.0f%%" (100.0 *. r.build.spread);
           Printf.sprintf "%.0f" r.build.words;
           Printf.sprintf "<= %.0f" words_limit;
           string_of_int r.edges;
         ];
       ])

let to_rows r =
  let num x = Jsonout.Num x in
  [
    Jsonout.Obj
      [
        ("name", Jsonout.Str "micro/gen-far");
        ("n", num (float_of_int n));
        ("d", num d);
        ("eps", num eps);
        ("ms", num (r.build.ns /. 1e6));
        ("ns_spread", num r.build.spread);
        ("words", num r.build.words);
        ("limit", num words_limit);
        ("edges", num (float_of_int r.edges));
      ];
  ]
