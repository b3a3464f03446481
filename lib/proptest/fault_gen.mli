(** Random {!Tfree_wire.Fault.schedule} generation for wire chaos property
    tests: all six fault kinds, randomized ops and arguments, list
    shrinking to a minimal breaking schedule, printed in the grammar
    [Fault.parse] accepts so counterexamples replay with [--fault-spec]. *)

open Tfree_wire

(** Normalized schedules of up to [max_events] (default 6) faults over the
    first [max_ops] (default 60) write operations. *)
val gen : ?max_ops:int -> ?max_events:int -> unit -> Fault.schedule QCheck.Gen.t

val arb_fault_schedule : ?max_ops:int -> ?max_events:int -> unit -> Fault.schedule QCheck.arbitrary
