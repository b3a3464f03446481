(* A fixed reference task that measures how fast the host is right now.

   The host this benchmark was tuned on shares its physical cores with
   other tenants.  Its speed drifts by up to 1.7x on a scale of seconds to
   minutes: one 15 s run can be slow from end to end, the next fast, with
   the same program.  The drift hits the kind of work the daemon does
   (short-lived allocation, hashing) about as hard as it hits this probe,
   which does a fixed amount of the same kind of work in the benchmark's
   own code and calls none of the program's.  Its time thus moves with the
   host and never with a change to the program.

   [sample ()] runs the probe once and returns its time over
   [reference_s], its time on that host when idle: about 1.0 on an idle
   host, 1.5 when everything takes half as long again.  That ratio is the
   host factor. *)

let reference_s = 0.00255

let work () =
  let acc = ref 0 in
  for r = 1 to 125 do
    let l = List.init 500 (fun i -> (i, r)) in
    let tbl = Hashtbl.create 64 in
    List.iter (fun (i, r) -> Hashtbl.replace tbl (i land 63) (i + r)) l;
    acc := !acc + Hashtbl.fold (fun _ v a -> a + v) tbl 0
  done;
  ignore (Sys.opaque_identity !acc)

let sample () =
  let t0 = Unix.gettimeofday () in
  work ();
  (Unix.gettimeofday () -. t0) /. reference_s

(* The host factor over an interval: the mean of the samples taken in it. *)
let factor samples = List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)
