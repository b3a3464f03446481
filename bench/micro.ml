(* Standalone wire-codec micro-benchmark gate, behind the @micro-smoke
   alias: run {!Micro_wire} at the requested iteration count, print the
   v1-vs-v2 table, and exit nonzero unless binary v2 beats JSON v1 on
   framed and payload bytes/query and on encode and decode ns/query, the
   v2 round trip stays inside its minor-words allocation budget, a
   wire-tap delivery of a fixed-width frame inside its per-frame budget,
   a cold far-instance build ({!Micro_gen}), and the four Algorithm 8
   player messages and the dup partition of a cold-build query, one
   chatty-shaped unrestricted run and its two shared-randomness kernels
   ({!Micro_core}) inside their allocation budgets.  Every words budget
   reads the one counter in {!Timing.row}, so that counter must first read
   exactly the words of a closure allocating one known block, on the minor
   heap and on the major heap.

     (default)   full iteration count, for quoting numbers
     --smoke     reduced iterations; what CI runs on every push
     --iters N   explicit count (overrides --smoke when given after it) *)

let iters = ref 200_000
let smoke_iters = 20_000

(* far builds timed per run: each is a few ms *)
let builds = ref 200
let smoke_builds = 20

(* sim player and partition runs: each is a few ms at most (an unrestricted
   run takes a fifth of them) *)
let player_runs = ref 500
let smoke_player_runs = 50

(* A block of [len] fields is [len] + 1 words with its header; one over
   256 words goes straight to the major heap. *)
let counter_violations () =
  List.filter_map
    (fun len ->
      let words = (Timing.row ~runs:100 (fun () -> Array.make len 0)).Timing.words in
      if words = float_of_int (len + 1) then None
      else Some (Printf.sprintf "allocation counter reads %g words for Array.make %d" words len))
    [ 10; 1000 ]

let () =
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        iters := smoke_iters;
        builds := smoke_builds;
        player_runs := smoke_player_runs;
        parse rest
    | "--iters" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            iters := n;
            parse rest
        | _ ->
            prerr_endline "micro: --iters expects a positive integer";
            exit 2)
    | arg :: _ ->
        Printf.eprintf "micro: unknown argument %s (expected --smoke, --iters N)\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let r = Micro_wire.measure ~iters:!iters in
  Micro_wire.print_table r;
  let g = Micro_gen.measure ~builds:!builds in
  Micro_gen.print_table g;
  let c = Micro_core.measure ~runs:!player_runs in
  Micro_core.print_table c;
  let gate = function Ok () -> [] | Error v -> v in
  let gates = gate (Micro_wire.check r) @ gate (Micro_gen.check g) @ gate (Micro_core.check c) in
  match counter_violations () @ gates with
  | [] ->
      print_endline
        "micro: ok (allocation counter exact; v2 beats v1 on bytes and time; zero-alloc, tap, \
         far-build, sim-player, partition, unrestricted and shared-rng budgets held)"
  | violations ->
      List.iter (fun v -> prerr_endline ("micro: GATE FAILED: " ^ v)) violations;
      exit 1
