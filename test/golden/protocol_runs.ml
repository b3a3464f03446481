(* Golden protocol runs: every caller of Theorem 3.1's
   [Degree_approx.approx_distinct], on far and free instances (n = 60,
   d = 4), dup and disjoint partitions, k = 1 and 4, in coordinator and
   blackboard mode, under the practical parameters at ǫ = 0.1:

     unrestricted   [Unrestricted.find_triangle], the full §3.3 tester
                    with d unknown ([approx_edge_count], then
                    [approx_degree] per candidate)
     candidates     [Unrestricted.get_full_candidates] on the bucket of
                    the given average degree d (Algorithm 3, so
                    [approx_degree] alone)
     count          [Count.estimate_triangle_edges] over 8 sampled edges
                    ([approx_edge_count])
     connectivity   [Prop_protocols.test_connectivity] ([approx_edge_count])
     bipartiteness  [Prop_protocols.test_bipartiteness], which runs no
                    degree estimate: its rows must never move with it

   Each run writes to two files, kept apart on purpose:

     group A   what the run decided and what it paid: the verdict, the
               witness, total bits, the ledger's direction split and
               every player's upload
     group B   how it was scheduled: rounds, messages, tap crossings and
               an MD5 of every crossing (channel name and [Frame.encode]
               bytes) in delivery order

   A change to how a protocol's messages are grouped into rounds moves
   group B only; a change to what is decided or sent moves group A.

   Run by the runtest alias as [protocol_runs.exe A B] and diffed against
   protocol_runs_a.expected and protocol_runs_b.expected; a deliberate
   change is accepted with [dune promote]. *)

open Tfree_graph
open Tfree_comm
module Service = Tfree_wire.Service
module Frame = Tfree_wire.Frame

let n = 60
let d = 4.0
let seed = 1
let params = Tfree.Params.(with_eps practical 0.1)

(* A tap that frames every crossing and keeps the bytes in order. *)
let recorder () =
  let crossings = ref 0 and bytes = Buffer.create 4096 in
  let deliver ~round:_ ch msg =
    incr crossings;
    Buffer.add_string bytes (Channel.describe ch);
    Buffer.add_bytes bytes (Frame.encode msg);
    msg
  in
  ({ Channel.deliver }, crossings, bytes)

let ints xs = "[" ^ String.concat "," (List.map string_of_int xs) ^ "]"

let triangle = function
  | Some (a, b, c) -> Printf.sprintf "triangle(%d,%d,%d)" a b c
  | None -> "triangle-free"

let callers : (string * (Runtime.t -> string)) list =
  [
    ("unrestricted", fun rt -> triangle (fst (Tfree.Unrestricted.find_triangle rt params)));
    ( "candidates",
      fun rt ->
        let i = Bucket.index_of_degree (int_of_float d) in
        let btilde = Tfree.Unrestricted.btilde_members rt in
        Tfree.Unrestricted.get_full_candidates ~btilde rt params ~key:1009 ~i
        |> List.map (fun (v, d_hat) -> Printf.sprintf "%d:%d" v d_hat)
        |> String.concat ","
        |> Printf.sprintf "candidates [%s]" );
    ( "count",
      fun rt ->
        Printf.sprintf "triangle_edges=%.6f"
          (Tfree.Count.estimate_triangle_edges rt params ~key:7 ~samples:8) );
    ( "connectivity",
      fun rt ->
        match Tfree.Prop_protocols.test_connectivity rt params ~key:3 with
        | Tfree.Prop_protocols.Connected_looking -> "connected-looking"
        | Tfree.Prop_protocols.Disconnected c -> "disconnected " ^ ints c );
    ( "bipartiteness",
      fun rt ->
        match Tfree.Prop_protocols.test_bipartiteness rt params ~key:5 with
        | Tfree.Prop_protocols.Bipartite_looking -> "bipartite-looking"
        | Tfree.Prop_protocols.Odd_cycle c -> "odd-cycle " ^ ints c );
  ]

let run_row ~a ~b (name, caller) family partition k mode =
  let label =
    Printf.sprintf "%s %s/%s k=%d %s" name (Service.family_to_string family)
      (Service.partition_to_string partition)
      k
      (match mode with Runtime.Coordinator -> "coordinator" | Runtime.Blackboard -> "blackboard")
  in
  let req = { Service.default_request with family; partition; n; d; k; seed } in
  let _, parts = Service.instance_pair req in
  let tap, crossings, bytes = recorder () in
  let rt = Runtime.make ~mode ~tap ~seed parts in
  let outcome = caller rt in
  let cost = Runtime.cost rt in
  Printf.fprintf a "%s: %s\n  bits=%d to_players=%d from_players=%d per_player=%s\n" label outcome
    (Cost.total cost) cost.Cost.to_players cost.Cost.from_players
    (ints (Array.to_list cost.Cost.per_player));
  Printf.fprintf b "%s: rounds=%d messages=%d crossings=%d md5 %s\n" label cost.Cost.rounds
    cost.Cost.messages !crossings
    (Digest.to_hex (Digest.string (Buffer.contents bytes)))

let () =
  match Sys.argv with
  | [| _; file_a; file_b |] ->
      let a = open_out file_a and b = open_out file_b in
      List.iter
        (fun caller ->
          List.iter
            (fun family ->
              List.iter
                (fun partition ->
                  List.iter
                    (fun k ->
                      List.iter
                        (run_row ~a ~b caller family partition k)
                        [ Runtime.Coordinator; Runtime.Blackboard ])
                    [ 1; 4 ])
                [ Service.Dup; Service.Disjoint ])
            [ Service.Far; Service.Free ])
        callers;
      close_out a;
      close_out b
  | _ ->
      prerr_endline "usage: protocol_runs.exe GROUP_A_FILE GROUP_B_FILE";
      exit 2
