(* Tests for Tfree_dataset: the streaming DIMACS and edge-list parsers,
   the binary snapshot format, the named-dataset registry, and the
   {"op": "dataset"} service path — round trips, fail-closed rejection of
   every malformed-input shape, and byte-identical parity between
   dataset-backed and generated-instance queries. *)

open Tfree_util
open Tfree_graph
module Dataset_error = Tfree_dataset.Dataset_error
module Dimacs = Tfree_dataset.Dimacs
module Edgelist = Tfree_dataset.Edgelist
module Snapshot = Tfree_dataset.Snapshot
module Registry = Tfree_dataset.Registry
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Metrics = Tfree_wire.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* canonical equality: same sorted deduplicated edge set on the same n *)
let same_graph a b = String.equal (Snapshot.encode a) (Snapshot.encode b)

let rejected what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted malformed input" what
  | exception Dataset_error.Dataset_error _ -> ()

(* ---------------------------------------------------------------- dimacs *)

let test_dimacs_parses () =
  let g = Dimacs.parse_string "c hi\n\np edge 4 4\ne 1 2\nc mid\ne 2 3\ne 1 2\n e 3 4\n" in
  checki "n" 4 (Graph.n g);
  (* four edge lines against m=4, but the duplicate e 1 2 collapses *)
  checki "m" 3 (Graph.m g);
  checkb "edge 0-1" true (Graph.mem_edge g 0 1);
  checkb "edge 2-3" true (Graph.mem_edge g 2 3)

let test_dimacs_rejects () =
  List.iter
    (fun (what, text) -> rejected what (fun () -> Dimacs.parse_string text))
    [
      ("edge before header", "e 1 2\np edge 3 1\n");
      ("no header", "c only comments\n");
      ("bad kind", "p foo 3 1\ne 1 2\n");
      ("short header", "p edge 3\ne 1 2\n");
      ("negative counts", "p edge -3 1\ne 1 2\n");
      ("vertex zero", "p edge 3 1\ne 0 2\n");
      ("vertex too big", "p edge 3 1\ne 1 4\n");
      ("non-integer vertex", "p edge 3 1\ne 1 x\n");
      ("three tokens", "p edge 3 1\ne 1 2 3\n");
      ("too few edges", "p edge 3 2\ne 1 2\n");
      ("too many edges", "p edge 3 1\ne 1 2\ne 2 3\n");
      ("second header", "p edge 3 1\np edge 3 1\ne 1 2\n");
      ("unknown line kind", "p edge 3 1\nq 1 2\ne 1 2\n");
    ]

(* -------------------------------------------------------------- edgelist *)

let test_edgelist_parses () =
  let g = Edgelist.parse_string "# banner\n0 1\n\n2 0\n1\t2\n" in
  checki "n inferred" 3 (Graph.n g);
  checki "m" 3 (Graph.m g);
  (* explicit n keeps trailing isolated vertices *)
  let g5 = Edgelist.parse_string ~n:5 "0 1\n" in
  checki "n pinned" 5 (Graph.n g5)

let test_edgelist_rejects () =
  List.iter
    (fun (what, n, text) -> rejected what (fun () -> Edgelist.parse_string ?n text))
    [
      ("one token", None, "0 1\n2\n");
      ("three tokens", None, "0 1 2\n");
      ("non-integer", None, "0 x\n");
      ("negative", None, "0 -1\n");
      ("out of range under n", Some 3, "0 3\n");
    ]

(* -------------------------------------------------------------- snapshot *)

let sample_graph seed =
  let rng = Rng.create seed in
  Gen.gnp rng ~n:60 ~p:0.1

let test_snapshot_roundtrip () =
  List.iter
    (fun seed ->
      let g = sample_graph seed in
      let image = Snapshot.encode g in
      checkb "decode inverts encode" true (same_graph g (Snapshot.decode image)))
    [ 1; 2; 3; 17 ];
  (* degenerate shapes *)
  checkb "empty graph" true (same_graph (Graph.of_edges ~n:0 []) (Snapshot.decode (Snapshot.encode (Graph.of_edges ~n:0 []))));
  checkb "edgeless graph" true
    (same_graph (Graph.of_edges ~n:7 []) (Snapshot.decode (Snapshot.encode (Graph.of_edges ~n:7 []))))

let test_snapshot_fails_closed () =
  let g = sample_graph 5 in
  let image = Snapshot.encode g in
  rejected "bad magic" (fun () -> Snapshot.decode ("XXXX" ^ String.sub image 4 (String.length image - 4)));
  rejected "bad version" (fun () ->
      let b = Bytes.of_string image in
      Bytes.set b 4 '\x09';
      (* keep the checksum honest so the version check itself must fire *)
      Snapshot.decode (Snapshot.encode (Snapshot.decode image) |> fun _ -> Bytes.to_string b));
  (* every truncation point fails *)
  for keep = 0 to String.length image - 1 do
    rejected (Printf.sprintf "truncated at %d" keep) (fun () ->
        Snapshot.decode (String.sub image 0 keep))
  done;
  (* every single bit flip after the magic fails (the sum16 checksum) *)
  for byte = 4 to String.length image - 1 do
    let b = Bytes.of_string image in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor 1));
    rejected (Printf.sprintf "bit flip at byte %d" byte) (fun () -> Snapshot.decode (Bytes.to_string b))
  done;
  rejected "trailing bytes" (fun () -> Snapshot.decode (image ^ "\x00"))

(* -------------------------------------------------------------- of_edge_seq *)

let test_of_edge_seq_matches_of_edges () =
  List.iter
    (fun seed ->
      let rng = Rng.create (100 + seed) in
      let n = 30 in
      let edges =
        List.init 80 (fun _ -> (Rng.int rng n, Rng.int rng n))
        (* self-loops and duplicates on purpose *)
      in
      checkb "of_edge_seq = of_edges" true
        (same_graph (Graph.of_edges ~n edges) (Graph.of_edge_seq ~n (List.to_seq edges))))
    [ 1; 2; 3 ];
  (* the graph layer itself rejects out-of-range vertices *)
  match Graph.of_edge_seq ~n:3 (List.to_seq [ (0, 3) ]) with
  | _ -> Alcotest.fail "of_edge_seq accepted an out-of-range vertex"
  | exception Invalid_argument _ -> ()

(* -------------------------------------------------------------- registry *)

let with_temp_dir f =
  let dir = Filename.temp_file "tfree_test_ds" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ()) (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_registry_roundtrip () =
  with_temp_dir (fun dir ->
      let g = sample_graph 9 in
      Snapshot.save g (Filename.concat dir "g.tfs");
      Dimacs.save g (Filename.concat dir "g.col");
      let reg = Registry.create ~dir () in
      Registry.add reg
        { Registry.name = "snap"; path = "g.tfs"; format = Registry.Snapshot; n = Graph.n g;
          m = Graph.m g;
          gen = Some { Registry.gen_family = "gnp"; gen_n = 60; gen_d = 6.0; gen_eps = 0.1; gen_seed = 9 } };
      Registry.add reg
        { Registry.name = "col"; path = "g.col"; format = Registry.Dimacs; n = Graph.n g;
          m = Graph.m g; gen = None };
      let manifest = Filename.concat dir "datasets.json" in
      Registry.save reg manifest;
      let reg' = Registry.load manifest in
      checki "entries survive" 2 (List.length (Registry.entries reg'));
      checkb "snapshot graph loads" true (same_graph g (Registry.graph reg' "snap"));
      checkb "dimacs graph loads" true (same_graph g (Registry.graph reg' "col"));
      (* memoized: same physical graph on the second call *)
      checkb "graph memoized" true (Registry.graph reg' "snap" == Registry.graph reg' "snap");
      (match Registry.find reg' "snap" with
      | Some { Registry.gen = Some m; _ } -> checki "gen seed survives" 9 m.Registry.gen_seed
      | _ -> Alcotest.fail "gen metadata lost");
      rejected "unknown dataset" (fun () -> Registry.graph reg' "nope"))

let test_registry_fails_closed () =
  with_temp_dir (fun dir ->
      let manifest = Filename.concat dir "datasets.json" in
      let write s = Out_channel.with_open_text manifest (fun oc -> Out_channel.output_string oc s) in
      write "{ not json";
      rejected "unparseable manifest" (fun () -> Registry.load manifest);
      write "{\"schema\": \"other/v9\", \"datasets\": []}";
      rejected "wrong schema" (fun () -> Registry.load manifest);
      write "{\"schema\": \"tfree-datasets/v1\", \"datasets\": [{\"name\": \"x\"}]}";
      rejected "entry missing fields" (fun () -> Registry.load manifest);
      (* a manifest lying about n/m fails when the graph loads *)
      let g = sample_graph 11 in
      Snapshot.save g (Filename.concat dir "g.tfs");
      let reg = Registry.create ~dir () in
      Registry.add reg
        { Registry.name = "lie"; path = "g.tfs"; format = Registry.Snapshot; n = Graph.n g;
          m = Graph.m g + 1; gen = None };
      rejected "manifest n/m mismatch" (fun () -> Registry.graph reg "lie"))

let test_sniff () =
  with_temp_dir (fun dir ->
      let g = sample_graph 13 in
      let write name s =
        let p = Filename.concat dir name in
        Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s);
        p
      in
      let snap = write "a" (Snapshot.encode g) in
      let col = write "b" (Dimacs.to_string g) in
      let lst = write "c" (Edgelist.to_string g) in
      checkb "snapshot sniffed" true (Registry.sniff snap = Registry.Snapshot);
      checkb "dimacs sniffed" true (Registry.sniff col = Registry.Dimacs);
      checkb "edge list sniffed" true (Registry.sniff lst = Registry.Edges);
      List.iter
        (fun p -> checkb "load_graph agrees with sniff" true (same_graph g (Registry.load_graph p)))
        [ snap; col; lst ])

(* ----------------------------------------------- dataset query codecs *)

(* (name, request) pairs whose generator fields are the defaults, the
   only ones a decoded dataset query can carry *)
let sample_dreqs =
  [
    ( "corpus-1",
      {
        Service.default_request with
        partition = Service.Skewed;
        protocol = Service.Exact;
        k = 6;
        eps = 0.25;
        seed = 99;
        transport = Tfree_wire.Wire_runtime.Socketpair;
        fault = "2:drop";
      } );
    ("x", Service.default_request);
  ]

let test_dataset_request_json_roundtrip () =
  List.iter
    (fun (name, req) ->
      match Service.dataset_request_of_json (Service.dataset_request_to_json ~name req) with
      | Ok back -> checkb "json round-trips" true (back = (name, req))
      | Error msg -> Alcotest.failf "json round trip failed: %s" msg)
    sample_dreqs;
  (* the generator fields are neither sent nor read *)
  (match
     Service.dataset_request_of_json
       (Service.dataset_request_to_json ~name:"x"
          { Service.default_request with family = Service.Gnp; n = 7; d = 1.5 })
   with
  | Ok back -> checkb "generator fields dropped" true (back = ("x", Service.default_request))
  | Error msg -> Alcotest.failf "json decode failed: %s" msg);
  (match Service.dataset_request_of_json (Jsonout.Obj [ ("op", Jsonout.Str "dataset") ]) with
  | Ok _ -> Alcotest.fail "accepted a dataset request with no name"
  | Error _ -> ());
  match Service.dataset_request_of_json (Jsonout.Obj [ ("op", Jsonout.Str "dataset"); ("name", Jsonout.Str "x"); ("fault", Jsonout.Str "bogus") ]) with
  | Ok _ -> Alcotest.fail "accepted a bogus fault spec"
  | Error _ -> ()

let test_dataset_request_binary_roundtrip () =
  List.iter
    (fun (name, req) ->
      let buf = Proto.create_buf () in
      Service.encode_dataset_frame buf ~name req;
      let frame = Bytes.sub (Proto.storage buf) (Proto.frame_off buf) (Proto.frame_len buf) in
      let cur = Proto.cursor () in
      let used = Proto.try_frame frame ~pos:0 ~limit:(Bytes.length frame) cur in
      checki "frame consumed" (Bytes.length frame) used;
      checki "dataset tag" Service.tag_dataset (Proto.get_u8 cur);
      match Service.decode_dataset_request_body cur with
      | Ok back ->
          Proto.expect_end cur;
          checkb "binary round-trips" true (back = (name, req))
      | Error msg -> Alcotest.failf "binary round trip failed: %s" msg)
    sample_dreqs

(* --------------------------------------------------- service parity (in-process) *)

let gen_n = 250
let gen_d = 5.0
let gen_seed = 21

let with_gen_registry f =
  with_temp_dir (fun dir ->
      let g = Service.build_instance Service.Far (Service.graph_rng gen_seed) ~n:gen_n ~d:gen_d ~eps:0.1 in
      Snapshot.save g (Filename.concat dir "g.tfs");
      let reg = Registry.create ~dir () in
      Registry.add reg
        { Registry.name = "gen"; path = "g.tfs"; format = Registry.Snapshot; n = Graph.n g;
          m = Graph.m g;
          gen = Some { Registry.gen_family = "far"; gen_n; gen_d; gen_eps = 0.1; gen_seed } };
      f reg)

let test_run_dataset_matches_run_request () =
  with_gen_registry (fun registry ->
      List.iter
        (fun protocol ->
          let req =
            { Service.default_request with family = Service.Far; protocol; n = gen_n; d = gen_d; seed = gen_seed }
          in
          checkb
            (Printf.sprintf "dataset = generated (%s)" (Tfree.Tester.protocol_to_string protocol))
            true
            (Service.run_dataset_request ~registry ~name:"gen" req = Service.run_request req))
        [ Service.Sim; Service.Oblivious; Service.Exact; Service.Unrestricted ])

let test_dataset_cache_key () =
  with_gen_registry (fun registry ->
      let cache = Service.create_cache () in
      let metrics = Metrics.create () in
      let dreq = { Service.default_request with seed = 4 } in
      let r1 = Service.run_dataset_request ~cache ~metrics ~registry ~name:"gen" dreq in
      let r2 = Service.run_dataset_request ~cache ~metrics ~registry ~name:"gen" dreq in
      checkb "cached repeat is identical" true (r1 = r2);
      checki "one miss" 1 (Metrics.count metrics Metrics.Cache_misses);
      checki "one hit" 1 (Metrics.count metrics Metrics.Cache_hits);
      (* a different protocol shares the instance (protocol not in the key) *)
      let _ =
        Service.run_dataset_request ~cache ~metrics ~registry ~name:"gen"
          { dreq with protocol = Service.Exact }
      in
      checki "protocol change still hits" 2 (Metrics.count metrics Metrics.Cache_hits))

let test_handle_line_dataset_errors () =
  let metrics = Metrics.create () in
  let stop = ref false in
  let expect_category line ~registry cat =
    let reply, served =
      match registry with
      | Some registry -> Service.handle_line ~registry ~metrics ~stop line
      | None -> Service.handle_line ~metrics ~stop line
    in
    checki "not served" 0 served;
    match Jsonout.parse reply with
    | Error msg -> Alcotest.failf "error reply is not JSON: %s" msg
    | Ok json -> (
        checkb "ok=false" true (Jsonout.member "ok" json = Some (Jsonout.Bool false));
        match Jsonout.member "category" json with
        | Some (Jsonout.Str c) -> checks "category" cat c
        | _ -> Alcotest.fail "error reply carries no category")
  in
  let line = Jsonout.to_line (Service.dataset_request_to_json ~name:"gen" Service.default_request) in
  (* no registry configured: unknown op, fatal client-side *)
  expect_category line ~registry:None "unknown_op";
  with_gen_registry (fun registry ->
      (* unknown name: malformed *)
      let bad =
        Jsonout.to_line (Service.dataset_request_to_json ~name:"nope" Service.default_request)
      in
      expect_category bad ~registry:(Some registry) "malformed";
      (* missing name: malformed *)
      expect_category "{\"op\": \"dataset\"}" ~registry:(Some registry) "malformed")

(* ------------------------------------------------- forked server parity *)

(* One raw JSON-line exchange on its own connection: the literal reply
   bytes, before any client-side decoding. *)
let raw_exchange path line =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let out = Bytes.of_string (line ^ "\n") in
      let n = Unix.write sock out 0 (Bytes.length out) in
      checki "request fully written" (Bytes.length out) n;
      let buf = Buffer.create 256 in
      let b = Bytes.create 4096 in
      let rec read_line () =
        let k = Unix.read sock b 0 (Bytes.length b) in
        if k = 0 then Alcotest.fail "connection closed before the reply line";
        Buffer.add_subbytes buf b 0 k;
        if not (String.contains (Buffer.contents buf) '\n') then read_line ()
      in
      read_line ();
      let s = Buffer.contents buf in
      String.sub s 0 (String.index s '\n'))

let test_forked_server_byte_parity () =
  with_gen_registry (fun registry ->
      (* dataset query, its generated twin, and a repeat: 3 served *)
      Tfree_fixture.with_daemon ~tag:"ds-parity" ~expect_served:3
        (fun path -> Service.serve ~registry ~line_timeout_s:5.0 ~path ())
        (fun path ->
          let twin =
            { Service.default_request with family = Service.Far; n = gen_n; d = gen_d; seed = gen_seed }
          in
          let dataset_line = Jsonout.to_line (Service.dataset_request_to_json ~name:"gen" twin) in
          let query_line = Jsonout.to_line (Service.request_to_json twin) in
          let from_dataset = raw_exchange path dataset_line in
          let from_query = raw_exchange path query_line in
          let repeat = raw_exchange path dataset_line in
          checks "dataset reply = generated reply, byte for byte" from_query from_dataset;
          checks "repeat reply identical" from_dataset repeat;
          match Service.client_stats ~path () with
          | Error msg -> Alcotest.failf "stats: %s" msg
          | Ok stats ->
              let int_at = Tfree_fixture.int_at stats in
              checki "queries served" 3 (int_at [ "queries_served" ]);
              checki "dataset gauge" 2 (int_at [ "datasets"; "gen" ]);
              (* dataset misses, twin misses (separate key), repeat hits *)
              checki "cache hits" 1 (int_at [ "cache"; "hits" ]);
              checki "cache misses" 2 (int_at [ "cache"; "misses" ])))

(* A dataset request with an eps outside (0, 1] gets the one named
   malformed error over v1 and v2, and run_dataset_request refuses it;
   nothing is loaded or run. *)
let test_dataset_refuses_bad_eps () =
  let bad = [ 0.0; -0.1; 100.0; Float.nan; Float.infinity ] in
  let named eps =
    match Tfree.Params.check_eps eps with Error msg -> msg | Ok () -> Alcotest.failf "eps=%g accepted" eps
  in
  let dreq eps = { Service.default_request with eps } in
  with_gen_registry (fun registry ->
      List.iter
        (fun eps ->
          match Service.run_dataset_request ~registry ~name:"gen" (dreq eps) with
          | _ -> Alcotest.failf "run_dataset_request ran at eps=%g" eps
          | exception Invalid_argument e -> checks "run_dataset_request refuses" ("run_dataset_request: " ^ named eps) e)
        bad;
      Tfree_fixture.with_daemon ~tag:"ds-bad-eps" ~expect_served:0
        (fun path -> Service.serve ~registry ~line_timeout_s:5.0 ~path ())
        (fun path ->
          List.iter
            (fun (protocol, name) ->
              List.iter
                (fun eps ->
                  (* JSON has no NaN or infinity: only finite values go over v1 *)
                  if protocol = Proto.V2 || Float.is_finite eps then
                    match Service.client_dataset ~protocol ~path ~name:"gen" (dreq eps) with
                    | Ok _ -> Alcotest.failf "%s eps=%g: dataset query served" name eps
                    | Error msg -> checks (Printf.sprintf "%s eps=%g refused by name" name eps) (named eps) msg)
                bad)
            [ (Proto.V1, "v1"); (Proto.V2, "v2") ];
          match Service.client_stats ~path () with
          | Error msg -> Alcotest.failf "stats: %s" msg
          | Ok stats ->
              let int_at = Tfree_fixture.int_at stats in
              checki "all malformed" 8 (int_at [ "errors_by_category"; "malformed" ]);
              checki "nothing loaded" 0 (int_at [ "cache"; "misses" ])))

(* --------------------------------------------------------------- QCheck *)

let arb_graph =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graph.pp g)
    QCheck.Gen.(
      int_range 2 60 >>= fun n ->
      int_range 0 1000 >|= fun seed ->
      let rng = Rng.create seed in
      Gen.gnp rng ~n ~p:0.15)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"graph -> dimacs -> parse is the identity" ~count:100 arb_graph (fun g ->
        same_graph g (Dimacs.parse_string (Dimacs.to_string g)));
    Test.make ~name:"graph -> edge list -> parse is the identity" ~count:100 arb_graph (fun g ->
        same_graph g (Edgelist.parse_string ~n:(Graph.n g) (Edgelist.to_string g)));
    Test.make ~name:"graph -> snapshot -> load is the identity" ~count:100 arb_graph (fun g ->
        Graph.equal g (Snapshot.decode (Snapshot.encode g)));
    Test.make ~name:"snapshot survives no single-bit flip" ~count:50
      (pair arb_graph (int_range 0 1_000_000))
      (fun (g, r) ->
        let image = Snapshot.encode g in
        let byte = 4 + (r mod (String.length image - 4)) in
        let bit = 1 lsl (r mod 8) in
        let b = Bytes.of_string image in
        Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor bit));
        match Snapshot.decode (Bytes.to_string b) with
        | _ -> false
        | exception Dataset_error.Dataset_error _ -> true);
    Test.make ~name:"of_edge_seq agrees with of_edges" ~count:100
      (pair (int_range 1 40) (small_list (pair small_nat small_nat)))
      (fun (n, raw) ->
        let edges = List.map (fun (u, v) -> (u mod n, v mod n)) raw in
        same_graph (Graph.of_edges ~n edges) (Graph.of_edge_seq ~n (List.to_seq edges)));
  ]

let () =
  Alcotest.run "tfree_dataset"
    [
      ( "dimacs",
        [
          Alcotest.test_case "parses the dialect" `Quick test_dimacs_parses;
          Alcotest.test_case "rejects every malformed shape" `Quick test_dimacs_rejects;
        ] );
      ( "edgelist",
        [
          Alcotest.test_case "parses with comments and inferred n" `Quick test_edgelist_parses;
          Alcotest.test_case "rejects every malformed shape" `Quick test_edgelist_rejects;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round trips" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "fails closed on any corruption" `Quick test_snapshot_fails_closed;
        ] );
      ( "graph",
        [ Alcotest.test_case "of_edge_seq = of_edges" `Quick test_of_edge_seq_matches_of_edges ] );
      ( "registry",
        [
          Alcotest.test_case "manifest round trip" `Quick test_registry_roundtrip;
          Alcotest.test_case "fails closed" `Quick test_registry_fails_closed;
          Alcotest.test_case "format sniffing" `Quick test_sniff;
        ] );
      ( "service",
        [
          Alcotest.test_case "dataset request JSON round trip" `Quick
            test_dataset_request_json_roundtrip;
          Alcotest.test_case "dataset request binary round trip" `Quick
            test_dataset_request_binary_roundtrip;
          Alcotest.test_case "dataset run = generated run" `Quick
            test_run_dataset_matches_run_request;
          Alcotest.test_case "dataset instance cache" `Quick test_dataset_cache_key;
          Alcotest.test_case "typed error categories" `Quick test_handle_line_dataset_errors;
        ] );
      ( "serve",
        [
          Alcotest.test_case "forked server byte parity" `Quick test_forked_server_byte_parity;
          Alcotest.test_case "refuses eps outside (0, 1]" `Quick test_dataset_refuses_bad_eps;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
