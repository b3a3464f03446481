(** Random fault-schedule generation for wire chaos property tests: a
    QCheck arbitrary over {!Tfree_wire.Fault.schedule} covering all six
    fault kinds with randomized op positions and arguments.  Shrinking
    drops events — a minimal counterexample is the fewest faults that still
    break the property — and schedules are printed in the same grammar
    [Fault.parse] accepts, so a failing case can be replayed verbatim with
    [--fault-spec]. *)

open Tfree_wire

let gen_kind : Fault.kind QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      (2, return Fault.Drop);
      (3, map (fun bit -> Fault.Corrupt { bit }) (int_range 0 4095));
      (2, map (fun keep -> Fault.Truncate { keep }) (int_range 0 64));
      (2, map (fun amount -> Fault.Delay { amount }) (int_range 1 8));
      (2, map (fun at -> Fault.Partial { at }) (int_range 1 64));
      (1, return Fault.Close);
    ]

(** Schedules of up to [max_events] faults over the first [max_ops] write
    operations, normalized (sorted by op, one fault per op). *)
let gen ?(max_ops = 60) ?(max_events = 6) () : Fault.schedule QCheck.Gen.t =
  let open QCheck.Gen in
  let event = map2 (fun op kind -> { Fault.op; kind }) (int_range 0 (max_ops - 1)) gen_kind in
  map Fault.normalize (list_size (int_range 0 max_events) event)

let shrink sched =
  QCheck.Iter.map Fault.normalize (QCheck.Shrink.list ~shrink:QCheck.Shrink.nil sched)

let arb_fault_schedule ?max_ops ?max_events () =
  QCheck.make ~print:Fault.to_string ~shrink (gen ?max_ops ?max_events ())
