(* The benchmark's three request streams.  Each is a pure function of the
   workload seed: the same seed gives the same requests, in the same order,
   on the same wire versions.  The program under test only ever sees the
   generated requests. *)

module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto

type query = { req : Service.request; pref : Proto.pref }

type t = {
  name : string;
  warmup : query array;  (** sent during set-up, before the timed phase *)
  query : int -> query;  (** the [i]-th query of the timed stream *)
  window : int;
      (** queries per measurement window: whole cycles of the stream, so
          every window carries the same mix *)
  expect_hits : bool;  (** every timed cache lookup should hit *)
}

(* [Tiny] shrinks every instance for the self-check; the stream shapes and
   the layers each workload stresses stay the same. *)
type size = Full | Tiny

let names = [ "hot-mix"; "chatty"; "cold-build" ]

(* The instance family every workload queries: far/dup, k=4, eps=0.1. *)
let far ~n ~d ~protocol ~seed =
  {
    Service.default_request with
    family = Service.Far;
    partition = Service.Dup;
    protocol;
    n;
    d;
    k = 4;
    eps = 0.1;
    seed;
  }

(* Instance seeds of a workload seed: disjoint blocks per workload seed. *)
let instance_seed ~seed i = (seed * 1_000_003) + i + 1

let hot_mix ~size ~seed =
  let n, instances = match size with Full -> (300, 16) | Tiny -> (80, 4) in
  let protocols = [| Service.Sim; Service.Oblivious; Service.Exact |] in
  let cycle = instances * Array.length protocols in
  let query i =
    let combo = i mod cycle in
    let req =
      far ~n ~d:6.0 ~protocol:protocols.(combo mod 3) ~seed:(instance_seed ~seed (combo / 3))
    in
    (* alternate v2/v1, shifted every cycle so each combination sees both *)
    { req; pref = (if (i + (i / cycle)) mod 2 = 0 then Proto.V2 else Proto.V1) }
  in
  (* a window is five double cycles: each combination on both versions *)
  {
    name = "hot-mix";
    warmup = Array.init cycle query;
    query;
    window = 10 * cycle;
    expect_hits = true;
  }

let chatty ~size ~seed =
  let n, instances = match size with Full -> (300, 32) | Tiny -> (80, 2) in
  let query i =
    {
      req =
        far ~n ~d:6.0 ~protocol:Service.Unrestricted ~seed:(instance_seed ~seed (i mod instances));
      pref = Proto.V2;
    }
  in
  {
    name = "chatty";
    warmup = Array.init instances query;
    query;
    window = instances;
    expect_hits = true;
  }

(* Every timed query has a never-seen seed, so the cache always misses.  The
   two set-up queries use seeds from a block the timed stream never reaches;
   they fault in code and grow the heap but cannot turn a timed miss into a
   hit. *)
let cold_build ~size ~seed =
  let n, d = match size with Full -> (2000, 24.0) | Tiny -> (200, 6.0) in
  let mk s = { req = far ~n ~d ~protocol:Service.Sim ~seed:s; pref = Proto.V2 } in
  {
    name = "cold-build";
    warmup = Array.init 2 (fun j -> mk (instance_seed ~seed (500_000 + j)));
    query = (fun i -> mk (instance_seed ~seed i));
    window = 16;
    expect_hits = false;
  }

let of_name ~size ~seed = function
  | "hot-mix" -> Some (hot_mix ~size ~seed)
  | "chatty" -> Some (chatty ~size ~seed)
  | "cold-build" -> Some (cold_build ~size ~seed)
  | _ -> None
