(** E22: fault tolerance of the wire stack.

    Runs protocols through a {!Tfree_wire.Wire_runtime} network whose every
    link is wrapped in {!Tfree_wire.Transport.faulty} with a seeded random
    schedule ([Fault.random]), and measures what the hardened stack promises:
    a fault can abort a run with a typed error, but it can never flip a
    verdict or change the accounted bits.

    Table 1 (survival): per (protocol, fault rate), the fraction of seeded
    runs that completed — which requires every fired fault to have been
    benign (delay/partial deliver the same bytes) or the schedule to have
    missed the run's frames entirely — versus runs aborted by a typed
    [Wire_error].  Every completed run is checked against a fault-free base
    run on the same seed; the [wrong] column counts mismatches and must be
    zero.  The one-shot protocols send a handful of frames, so they mostly
    dodge the schedule at low rates; the chatty unrestricted protocol
    crosses every scheduled op and aborts almost surely.

    Table 2 (retry overhead): the client-side story.  A query is retried
    with a fresh schedule (new seed, same rate) until it completes, up to 8
    attempts — the in-process analogue of [Service.client_query ~retries] —
    reporting mean attempts, mean retries and the recovery rate per fault
    rate.  Recovery hands back the exact fault-free verdict or it does not
    count. *)

open Tfree_util
module Wire = Tfree_wire.Wire_runtime
module Fault = Tfree_wire.Fault
module Wire_error = Tfree_wire.Wire_error

let params = Tfree.Params.practical

(* Schedules cover the first [ops] frames of the global sequence; the
   one-shot protocols send fewer, the unrestricted protocol far more. *)
let ops = 64
let max_attempts = 8

(* One wired run under [fault]: [Ok report] on completion, [Error kind] when
   a typed fault aborted it.  Any other exception escapes — only Wire_error
   is a legitimate way for a run to die. *)
let wired_run proto ~seed ~davg ~fault parts =
  let net = Wire.create ~fault ~transport:Wire.Pipe ~k:4 () in
  match
    Fun.protect
      ~finally:(fun () -> Wire.close net)
      (fun () -> Tfree.Tester.run ~tap:(Wire.tap net) ~seed params ~d:davg proto parts)
  with
  | r -> Ok r
  | exception Wire_error.Wire_error k -> Error k

let e22_fault scale =
  let k = 4 and d = 4.0 in
  let n = match scale with Common.Small -> 300 | Common.Big -> 1000 in
  let trials = match scale with Common.Small -> 20 | Common.Big -> 60 in
  let instance seed = Common.far_instance ~n ~d ~k ~dup:true seed in
  (* Survival: one seeded schedule per (seed, rate), verdict checked against
     the fault-free base of the same seed. *)
  let survival_row proto rate =
    let cells =
      Common.seed_samples ~reps:trials (fun seed ->
          let _, parts = instance seed in
          let davg = d in
          let base = Tfree.Tester.run ~seed params ~d:davg proto parts in
          let fault = Fault.random ~seed:(7919 * seed) ~rate ~ops () in
          match wired_run proto ~seed ~davg ~fault parts with
          | Error _ -> `Aborted
          | Ok r ->
              if
                r.Tfree.Tester.verdict = base.Tfree.Tester.verdict
                && r.Tfree.Tester.bits = base.Tfree.Tester.bits
              then `Clean
              else `Wrong)
    in
    let count want = Array.fold_left (fun acc c -> if c = want then acc + 1 else acc) 0 cells in
    let clean = count `Clean and aborted = count `Aborted and wrong = count `Wrong in
    [
      Tfree.Tester.protocol_to_string proto;
      Table.fcell ~prec:2 rate;
      string_of_int clean;
      string_of_int aborted;
      string_of_int wrong;
      Table.fcell ~prec:2 (float_of_int clean /. float_of_int trials);
    ]
  in
  let survival =
    List.concat_map
      (fun proto -> List.map (survival_row proto) [ 0.05; 0.2 ])
      Tfree.Tester.[ Exact; Oblivious; Sim; Unrestricted ]
  in
  (* Retry overhead: fresh schedule per attempt (seed varies, rate fixed),
     the oblivious protocol as the cheap representative query. *)
  let retry_row rate =
    let cells =
      Common.seed_samples ~reps:trials (fun seed ->
          let _, parts = instance seed in
          let davg = d in
          let base = Tfree.Tester.run ~seed params ~d:davg Tfree.Tester.Oblivious parts in
          let rec go attempt =
            if attempt >= max_attempts then (max_attempts, false, false)
            else
              let fault = Fault.random ~seed:(977 * seed + attempt) ~rate ~ops () in
              match wired_run Tfree.Tester.Oblivious ~seed ~davg ~fault parts with
              | Error _ -> go (attempt + 1)
              | Ok r ->
                  let exact_match =
                    r.Tfree.Tester.verdict = base.Tfree.Tester.verdict
                    && r.Tfree.Tester.bits = base.Tfree.Tester.bits
                  in
                  (attempt + 1, exact_match, not exact_match)
          in
          go 0)
    in
    let attempts = Stats.mean (Array.to_list (Array.map (fun (a, _, _) -> float_of_int a) cells)) in
    let recovered = Array.fold_left (fun acc (_, ok, _) -> if ok then acc + 1 else acc) 0 cells in
    let wrong = Array.fold_left (fun acc (_, _, w) -> if w then acc + 1 else acc) 0 cells in
    [
      Table.fcell ~prec:2 rate;
      Table.fcell ~prec:2 attempts;
      Table.fcell ~prec:2 (attempts -. 1.0);
      Printf.sprintf "%d/%d" recovered trials;
      string_of_int wrong;
    ]
  in
  let retry = List.map retry_row [ 0.0; 0.05; 0.1; 0.2; 0.4 ] in
  [
    Table.make
      ~title:
        (Printf.sprintf
           "E22 fault tolerance: verdict survival under seeded fault schedules (n=%d d=%.0f k=%d, \
            rate over first %d frames, %d trials)"
           n d k ops trials)
      ~header:[ "protocol"; "rate"; "clean"; "aborted"; "wrong"; "survival" ]
      survival;
    Table.make
      ~title:
        (Printf.sprintf
           "E22 retry overhead: oblivious query, fresh schedule per attempt, up to %d attempts"
           max_attempts)
      ~header:[ "rate"; "mean attempts"; "mean retries"; "recovered"; "wrong" ]
      retry;
  ]
