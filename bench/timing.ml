(* Best-of-k wall-clock timing and exact allocation counts for the micro
   benchmarks.

   One timed loop
   on a shared host reads whatever the scheduler gave it: the same tap
   delivery has read 11.5 and 17.9 us in two runs.  The fastest of k loops
   is the figure least disturbed by other load, and the relative spread
   (slowest / fastest - 1) says how far to trust it. *)

type t = {
  best_ns : float;  (** ns per call in the fastest loop *)
  spread : float;  (** slowest loop / fastest loop - 1 *)
}

(* [best_of ~loops ~iters f] warms [f] up once, then times [loops] loops of
   [iters] calls each. *)
let best_of ~loops ~iters f =
  if loops < 1 || iters < 1 then invalid_arg "Timing.best_of: loops and iters must be positive";
  ignore (Sys.opaque_identity (f ()));
  let per_call () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let times = List.init loops (fun _ -> per_call ()) in
  let best = List.fold_left Float.min Float.infinity times in
  let worst = List.fold_left Float.max 0.0 times in
  { best_ns = best; spread = (if best > 0.0 then (worst /. best) -. 1.0 else 0.0) }

(* Words allocated so far, minor and major heap.  [Gc.allocated_bytes]
   (and the minor field of [Gc.counters]) leave out what the current minor
   heap holds until it is next collected, so a loop measured with it reads
   low by up to one minor heap: the sim player row read 5,489 words a run
   over 50 runs and 6,865 over 500, against 7,211 for every single run.
   [Gc.minor_words] counts the live minor heap too. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted
