(** E24: real-graph datasets — snapshot compactness and the
    [{"op": "dataset"}] service path.

    Table A prices the on-disk formats: the same generated corpora
    rendered as DIMACS text and as the binary snapshot
    ({!Tfree_dataset.Snapshot}).  The delta-varint snapshot must undercut
    the text encoding at every scale, and both formats must round-trip to
    the identical graph (compared canonically, by snapshot image) — the
    [check] column asserts all of it.

    Table B proves the service equivalence the registry is built on: a
    dataset-backed query answers byte-for-byte what the equivalent
    generated-instance query answers.  Each row feeds one
    [{"op": "dataset"}] line and its generated twin through
    {!Tfree_wire.Service.handle_line} — the exact daemon code path, minus
    the socket — against a registry whose snapshot holds the same
    generator output; the graph/partition rng split makes the two replies
    identical.  The dataset line is sent twice, so the row also asserts
    the instance cache serves the repeat without a rebuild.  Everything
    derives from seeds and file bytes (no wall clock), so the tables are
    byte-identical at every job count. *)

open Tfree_util
open Tfree_graph
module Service = Tfree_wire.Service
module Snapshot = Tfree_dataset.Snapshot
module Dimacs = Tfree_dataset.Dimacs
module Edgelist = Tfree_dataset.Edgelist
module Registry = Tfree_dataset.Registry

(* Canonical graph equality: the snapshot image is a function of the
   sorted, deduplicated edge set and nothing else. *)
let same_graph a b = String.equal (Snapshot.encode a) (Snapshot.encode b)

let gen_graph ~n ~d ~seed = Service.build_instance Service.Far (Service.graph_rng seed) ~n ~d ~eps:0.1

let e24_datasets scale =
  let sizes =
    match scale with
    | Common.Small -> [ (200, 5.0); (400, 6.0); (800, 6.0) ]
    | Common.Big -> [ (2_000, 6.0); (8_000, 8.0); (20_000, 8.0) ]
  in
  (* ---- Table A: format sizes and round trips ---- *)
  let row_a (n, d) =
    let g = gen_graph ~n ~d ~seed:(1000 + n) in
    let m = Graph.m g in
    let dimacs = Dimacs.to_string g in
    let snap = Snapshot.encode g in
    let edges = Edgelist.to_string g in
    let ok =
      same_graph g (Dimacs.parse_string dimacs)
      && same_graph g (Snapshot.decode snap)
      && same_graph g (Edgelist.parse_string ~n:(Graph.n g) edges)
    in
    [
      string_of_int n;
      string_of_int m;
      string_of_int (String.length dimacs);
      string_of_int (String.length snap);
      Table.fcell ~prec:2 (8.0 *. float_of_int (String.length snap) /. float_of_int (max 1 m));
      Table.fcell ~prec:1 (float_of_int (String.length dimacs) /. float_of_int (String.length snap));
      (if ok then "yes" else "NO");
    ]
  in
  let table_a =
    Table.make
      ~title:"E24a snapshot compactness: generated far instances in each on-disk format"
      ~header:[ "n"; "m"; "dimacs B"; "snapshot B"; "snap bits/edge"; "dimacs/snap"; "check" ]
      (List.map row_a sizes)
  in
  (* ---- Table B: dataset-vs-generated reply parity through handle_line ---- *)
  let n, d, seed = match scale with Common.Small -> (300, 6.0, 5) | Common.Big -> (1200, 6.0, 5) in
  let g = gen_graph ~n ~d ~seed in
  let snap_file = Filename.temp_file "tfree_e24" ".tfs" in
  let table_b =
    Fun.protect
      ~finally:(fun () -> try Sys.remove snap_file with Sys_error _ -> ())
      (fun () ->
        Snapshot.save g snap_file;
        let registry = Registry.create () in
        Registry.add registry
          {
            Registry.name = "e24";
            path = snap_file;
            format = Registry.Snapshot;
            n = Graph.n g;
            m = Graph.m g;
            gen =
              Some
                { Registry.gen_family = "far"; gen_n = n; gen_d = d; gen_eps = 0.1; gen_seed = seed };
          };
        let row_b protocol =
          let cache = Service.create_cache () in
          let metrics = Tfree_wire.Metrics.create () in
          let stop = ref false in
          let exchange line = fst (Service.handle_line ~cache ~registry ~metrics ~stop line) in
          let req = { Service.default_request with family = Service.Far; protocol; n; d; seed } in
          let dataset_line = Jsonout.to_line (Service.dataset_request_to_json ~name:"e24" req) in
          let query_line = Jsonout.to_line (Service.request_to_json req) in
          let from_dataset = exchange dataset_line in
          let from_generated = exchange query_line in
          let repeat = exchange dataset_line in
          let parity = String.equal from_dataset from_generated && String.equal from_dataset repeat in
          let hits = Tfree_wire.Metrics.count metrics Tfree_wire.Metrics.Cache_hits in
          let served = Tfree_wire.Metrics.dataset_served metrics "e24" in
          let bits =
            match Jsonout.parse from_dataset with
            | Ok json -> (
                match Option.map Jsonout.to_float (Jsonout.member "bits" json) with
                | Some (Some b) -> string_of_int (int_of_float b)
                | _ -> "?")
            | Error _ -> "?"
          in
          [
            Tfree.Tester.protocol_to_string protocol;
            bits;
            string_of_int (String.length from_dataset);
            (if parity then "yes" else "NO");
            (* the repeat must hit; the generated twin shares the graph
               build but keys separately, so exactly one hit *)
            (if hits = 1 && served = 2 then "yes" else "NO");
          ]
        in
        Table.make
          ~title:
            (Printf.sprintf
               "E24b dataset service parity: {\"op\":\"dataset\"} vs generated twin (far n=%d d=%g \
                seed=%d), reply lines compared byte-for-byte"
               n d seed)
          ~header:[ "protocol"; "bits"; "reply B"; "parity"; "cache+gauge" ]
          (List.map row_b [ Service.Sim; Service.Oblivious; Service.Exact ]))
  in
  [ table_a; table_b ]
