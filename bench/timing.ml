(* The one timer and allocation counter of the micro benchmarks.

   One timed loop on a shared host reads whatever the scheduler gave it:
   the same tap delivery has read 11.5 and 17.9 us in two runs.  The
   fastest of k loops is the figure least disturbed by other load, and the
   relative spread (slowest / fastest - 1) says how far to trust it. *)

type row = {
  ns : float;  (** ns per call in the fastest loop *)
  spread : float;  (** slowest loop / fastest loop - 1 *)
  words : float;  (** words allocated per call, minor and major heap *)
}

(** Timed loops per row. *)
let loops = 5

(* Words allocated so far, minor and major heap.  [Gc.allocated_bytes]
   (and the minor field of [Gc.counters]) leave out what the current minor
   heap holds until it is next collected, so a loop measured with it reads
   low by up to one minor heap: the sim player row read 5,489 words a run
   over 50 runs and 6,865 over 500, against 7,211 for every single run.
   [Gc.minor_words] counts the live minor heap too. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* [row ~runs f] warms [f] up once, then times [runs] calls in
   [min loops runs] loops of equal length, counting each loop's words
   between two reads of {!allocated_words}.  What one read allocates itself
   is taken off, so a call that allocates w words reads exactly w. *)
let row ~runs f =
  if runs < 1 then invalid_arg "Timing.row: runs must be positive";
  let loops = min loops runs in
  let iters = runs / loops in
  ignore (Sys.opaque_identity (f ()));
  Gc.full_major ();
  let w = allocated_words () in
  let counter = allocated_words () -. w in
  let words = ref 0.0 in
  let times =
    List.init loops (fun _ ->
        let t0 = Unix.gettimeofday () in
        let w0 = allocated_words () in
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (f ()))
        done;
        words := !words +. (allocated_words () -. w0 -. counter);
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters)
  in
  let best = List.fold_left Float.min Float.infinity times in
  let worst = List.fold_left Float.max 0.0 times in
  {
    ns = best;
    spread = (if best > 0.0 then (worst /. best) -. 1.0 else 0.0);
    words = !words /. float_of_int (loops * iters);
  }
