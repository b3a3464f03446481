(* Differential tests for the per-round kernels of the unrestricted tester
   (§3.3): the list- and tuple-based originals of [Runtime.any_player]
   (an [ask_all] whose reply array is ORed afterwards), Theorem 3.1's
   [Degree_approx.approx_distinct] (over element lists, directly and
   through [approx_degree] and [approx_edge_count]) and Algorithm 1's
   [Unrestricted.sample_uniform_from_btilde] (polymorphic compare on
   (hash, vertex) pairs) are kept below as a reference.
   Each library kernel must return the reference's value and leave the same
   ledger (total, per direction, per player, messages, rounds) and the same
   tap record: every channel crossing, in order, with its round and its
   message.
   Theorem 3.1's experiments have two references.  The one-bit original
   runs each experiment as its own round and stays the oracle for the
   estimate's value, its total bits, both directions and every player's
   upload.  The batched reference runs a guess's experiments in one round,
   each player's bits packed LSB-first into 61-bit range-coded words (from
   [Rng.split] and [hash_float], not the library's split table); rounds,
   messages and the tap record are held to it.  Boosts that give 60, 61,
   62, 122 and 123 experiments a guess cover a partial word, an exact fit
   and a spill into the next word.
   The cases cover every family and partition at n from 4 to 400, 1 to 5
   players, both runtime modes, the library sampling from the B̃ table
   its own builder makes and the reference scanning every vertex without
   one, plus empty inputs, a bucket nobody suspects, one player, every
   player holding every element and every player answering yes.  The
   priority order is checked against the pair compare on hash ties, which
   the real hash never draws, and an alpha of at most 1 must be refused
   before any round. *)

open Tfree_util
open Tfree_graph
open Tfree_comm
module Service = Tfree_wire.Service

(* ------------------------------------------------------------ reference *)

module Ref = struct
  let any_player rt predicate =
    let replies = Runtime.ask_all rt ~req:Msg.empty (fun j input -> Msg.bool (predicate j input)) in
    Array.exists Msg.get_bool replies

  (* The sample count of Theorem 3.1's guesses, before [boost] and the
     floor of 8, for phase 1's sum d' over k players. *)
  let hoeffding ~k ~alpha ~tau d' =
    let floor_guess = Float.max 1.0 (d' /. (2.0 *. float_of_int k *. alpha)) in
    let _, margin = Tfree.Degree_approx.thresholds ~alpha in
    let n_guesses =
      1 + int_of_float (Float.ceil (Float.log (d' /. floor_guess) /. Float.log (sqrt alpha)))
    in
    Float.log (2.0 *. float_of_int n_guesses /. tau) /. (2.0 *. margin *. margin)

  let m_exp ~boost hoeffding = max 8 (int_of_float (Float.ceil (boost *. hoeffding)))

  (* Phase 1's d' for players holding [local]. *)
  let d_prime local =
    Array.fold_left
      (fun acc els ->
        let i = Tfree.Degree_approx.msb_index (List.length els) in
        if i < 0 then acc else acc +. Float.pow 2.0 (float_of_int (i + 1)))
      0.0 local

  (* One guess's experiments as the original ran them: one [any_player]
     round each, every player answering one bit.  Returns the successes. *)
  let one_bit_experiments rt ~m_exp ~stream ~p (local : int list array) =
    let successes = ref 0 in
    for e = 0 to m_exp - 1 do
      let mark_rng = stream e in
      let replies =
        Runtime.ask_all rt ~req:Msg.empty (fun j _ ->
            Msg.bool (List.exists (fun el -> Rng.hash_float mark_rng el < p) local.(j)))
      in
      if Array.exists Msg.get_bool replies then incr successes
    done;
    !successes

  (* The same experiments in one round: each player answers every
     experiment's bit, LSB-first in words of at most 61 bits, each word a
     range code over [0, 2^w - 1]; an experiment succeeds when some
     player's bit for it is set. *)
  let batched_experiments rt ~m_exp ~stream ~p (local : int list array) =
    let marked j e = List.exists (fun el -> Rng.hash_float (stream e) el < p) local.(j) in
    let rec spans first =
      if first >= m_exp then [] else (first, min 61 (m_exp - first)) :: spans (first + 61)
    in
    let word j (first, w) =
      Msg.int_in ~lo:0 ~hi:((1 lsl w) - 1)
        (List.fold_left
           (fun acc b -> if marked j (first + b) then acc lor (1 lsl b) else acc)
           0 (List.init w Fun.id))
    in
    let replies =
      Runtime.ask_all rt ~req:Msg.empty (fun j _ -> Msg.tuple (List.map (word j) (spans 0)))
    in
    let bit reply e = (Msg.get_int (List.nth (Msg.get_tuple reply) (e / 61)) lsr (e mod 61)) land 1 in
    List.length
      (List.filter (fun e -> Array.exists (fun r -> bit r e = 1) replies) (List.init m_exp Fun.id))

  let approx_distinct ~experiments rt ~key ~alpha ~tau ~boost ~elements =
    let local : int list array = Array.init (Runtime.k rt) (fun j -> elements (Runtime.input rt j)) in
    let replies =
      Runtime.ask_all rt ~req:Msg.empty (fun j _ ->
          Msg.int_in ~lo:(-1) ~hi:62 (Tfree.Degree_approx.msb_index (List.length local.(j))))
    in
    let d' =
      Array.fold_left
        (fun acc reply ->
          let i = Msg.get_int reply in
          if i < 0 then acc else acc +. Float.pow 2.0 (float_of_int (i + 1)))
        0.0 replies
    in
    if d' = 0.0 then 0
    else begin
      let k = float_of_int (Runtime.k rt) in
      let floor_guess = Float.max 1.0 (d' /. (2.0 *. k *. alpha)) in
      let theta, _ = Tfree.Degree_approx.thresholds ~alpha in
      let m_exp = m_exp ~boost (hoeffding ~k:(Runtime.k rt) ~alpha ~tau d') in
      let run_guess idx g =
        let p = Float.min 1.0 (1.0 /. g) in
        let stream e = Runtime.shared_rng rt ~key:(key + (7919 * idx) + (104729 * (e + 1))) in
        float_of_int (experiments rt ~m_exp ~stream ~p local) /. float_of_int m_exp >= theta
      in
      let rec scan idx g =
        if g <= floor_guess then g
        else if run_guess idx g then g
        else scan (idx + 1) (g /. sqrt alpha)
      in
      let answer = scan 0 d' in
      Runtime.tell_all rt
        (Msg.int_in ~lo:0 ~hi:127 (max 0 (Tfree.Degree_approx.msb_index (int_of_float answer))));
      max 1 (int_of_float (Float.round answer))
    end

  let approx_degree ~experiments rt ~key ~alpha ~tau ~boost v =
    approx_distinct ~experiments rt ~key ~alpha ~tau ~boost ~elements:(fun input ->
        Array.to_list (Graph.neighbors input v))

  let approx_edge_count ~experiments rt ~key ~alpha ~tau ~boost =
    let n = Runtime.n rt in
    approx_distinct ~experiments rt ~key ~alpha ~tau ~boost ~elements:(fun input ->
        List.map (fun (u, v) -> (u * n) + v) (Graph.edges input))

  (* No B̃ table: each player scans its whole vertex range for the
     vertices it suspects. *)
  let sample_uniform_from_btilde rt ~key ~i =
    let rng = Runtime.shared_rng rt ~key in
    let prio v = (Rng.hash_float rng v, v) in
    let n = Runtime.n rt in
    let k = Runtime.k rt in
    let best_of input =
      let best = ref None in
      for v = 0 to n - 1 do
        if Bucket.suspects ~k ~i (Graph.degree input v) then begin
          match !best with Some b when prio b <= prio v -> () | _ -> best := Some v
        end
      done;
      !best
    in
    let replies =
      Runtime.ask_all rt ~req:Msg.empty (fun _ input -> Msg.vertex_opt ~n (best_of input))
    in
    Array.fold_left
      (fun acc reply ->
        match (acc, Msg.get_vertex_opt reply) with
        | None, r -> r
        | Some b, Some v when prio v < prio b -> Some v
        | acc, _ -> acc)
      None replies
end

(* ------------------------------------------------------------- instances *)

type case = {
  family : Service.family;
  partition : Service.partition_kind;
  n : int;
  d : float;
  k : int;
  mode : Runtime.mode;
  seed : int;
  key : int;
  bucket : int;  (** reduced mod the bucket count *)
  alpha : float;
  tau : float;
  boost : float;
  empty : bool;  (** replace every player's input by the empty graph *)
}

let print_case (c : case) =
  Printf.sprintf "%s/%s n=%d d=%g k=%d %s seed=%d key=%d bucket=%d alpha=%g tau=%g boost=%g empty=%b"
    (Service.family_to_string c.family)
    (Service.partition_to_string c.partition)
    c.n c.d c.k
    (match c.mode with Runtime.Coordinator -> "coordinator" | Runtime.Blackboard -> "blackboard")
    c.seed c.key c.bucket c.alpha c.tau c.boost c.empty

let gen_case =
  QCheck.Gen.(
    let* family = oneofl (List.map snd Service.families) in
    let* partition = oneofl (List.map snd Service.partitions) in
    let* n = oneofl [ 4; 5; 9; 30; 80; 200; 400 ] in
    let* d = oneofl [ 1.0; 3.0; 6.0; 12.0 ] in
    let* k = int_range 1 5 in
    let* mode = frequencyl [ (3, Runtime.Coordinator); (1, Runtime.Blackboard) ] in
    let* seed = int_range 0 1_000_000 in
    let* key = int_range 0 100_000 in
    let* bucket = int_range 0 20 in
    let* alpha = oneofl [ sqrt 3.0; 2.0; 3.0 ] in
    let* tau = oneofl [ 0.05; 0.2 ] in
    let* boost = oneofl [ 0.3; 1.0 ] in
    let* empty = frequencyl [ (9, false); (1, true) ] in
    return { family; partition; n; d; k; mode; seed; key; bucket; alpha; tau; boost; empty })

let parts_of (c : case) =
  let rng = Rng.create c.seed in
  let g =
    if c.empty then Graph.empty ~n:c.n
    else
      try Service.build_instance c.family (Rng.split rng 1) ~n:c.n ~d:c.d ~eps:0.1
      with Invalid_argument _ -> Graph.empty ~n:c.n
  in
  Service.build_partition c.partition (Rng.split rng 2) ~k:c.k g

(* ------------------------------------------------------------ comparison *)

(* A tap that passes every message through and records the crossing. *)
let recorder () =
  let log = ref [] in
  let deliver ~round ch m =
    log := (round, ch, m) :: !log;
    m
  in
  ({ Channel.deliver }, fun () -> List.rev !log)

let run (c : case) parts f =
  let tap, log = recorder () in
  let rt = Runtime.make ~mode:c.mode ~tap ~seed:(c.seed + 13) parts in
  let result = f rt in
  (result, Runtime.cost rt, log ())

let same_ledger (a : Cost.t) (b : Cost.t) =
  a.to_players = b.to_players && a.from_players = b.from_players && a.messages = b.messages
  && a.rounds = b.rounds && a.per_player = b.per_player && Cost.total a = Cost.total b

let rec same_log a b =
  match (a, b) with
  | [], [] -> true
  | (r, ch, m) :: a', (r', ch', m') :: b' -> r = r' && ch = ch' && Msg.equal m m' && same_log a' b'
  | _ -> false

(* [got] and [want] run the library kernel and its reference on fresh
   runtimes of the same seed and partition. *)
let agree name (c : case) parts ~equal ~show got want =
  let r, cost, log = run c parts got and r', cost', log' = run c parts want in
  (equal r r'
  || QCheck.Test.fail_reportf "%s: %s against the reference's %s" name (show r) (show r'))
  && (same_ledger cost cost'
     || QCheck.Test.fail_reportf "%s: ledger %s against the reference's %s" name (Cost.summary cost)
          (Cost.summary cost'))
  && (same_log log log'
     || QCheck.Test.fail_reportf "%s: %d tap crossings against the reference's %d (or one differs)"
          name (List.length log) (List.length log'))

let show_int = string_of_int
let show_opt = function None -> "None" | Some v -> Printf.sprintf "Some %d" v
let show_bool = string_of_bool

(* A player predicate drawn from the case: player j answers from its input
   and a keyed hash, so the first yes falls on any player or on none. *)
let predicate (c : case) j input =
  Rng.hash_float (Rng.create c.key) ((j * 7919) + Graph.m input) < 0.4

let any_player_agrees (c : case) parts =
  agree "any_player" c parts ~equal:Bool.equal ~show:show_bool
    (fun rt -> Runtime.any_player rt (predicate c))
    (fun rt -> Ref.any_player rt (predicate c))

(* Elements drawn from the case: repeats within a player and across
   players, none on an empty input. *)
let elements (c : case) input =
  Array.init (Graph.m input) (fun x -> ((x * (c.key + 1)) + Graph.m input) mod 97)

(* The one-bit original stays the oracle for what an estimate returns and
   what it costs: the value, the total, both directions and every player's
   upload must be its. *)
let same_value_and_bits name (c : case) parts got want =
  let r, cost, _ = run c parts got and r', cost', _ = run c parts want in
  (r = r' || QCheck.Test.fail_reportf "%s: %d against the one-bit original's %d" name r r')
  && ((cost.Cost.to_players = cost'.Cost.to_players
      && cost.Cost.from_players = cost'.Cost.from_players
      && cost.Cost.per_player = cost'.Cost.per_player
      && Cost.total cost = Cost.total cost')
     || QCheck.Test.fail_reportf "%s: bits %s against the one-bit original's %s" name
          (Cost.summary cost) (Cost.summary cost'))

(* An estimate agrees with the batched reference on its value, its whole
   ledger and its tap record (one round per guess, k replies in it), and
   with the one-bit original on its value and bits. *)
let estimate_agrees name (c : case) parts got want =
  agree name c parts ~equal:Int.equal ~show:show_int got (want ~experiments:Ref.batched_experiments)
  && same_value_and_bits name c parts got (want ~experiments:Ref.one_bit_experiments)

let approx_agrees (c : case) parts =
  let n = Partition.n parts in
  let v = c.key mod n in
  estimate_agrees "approx_distinct" c parts
    (fun rt ->
      Tfree.Degree_approx.approx_distinct rt ~key:c.key ~alpha:c.alpha ~tau:c.tau ~boost:c.boost
        ~elements:(elements c))
    (fun ~experiments rt ->
      Ref.approx_distinct ~experiments rt ~key:c.key ~alpha:c.alpha ~tau:c.tau ~boost:c.boost
        ~elements:(fun input -> Array.to_list (elements c input)))
  && estimate_agrees "approx_degree" c parts
       (fun rt ->
         Tfree.Degree_approx.approx_degree rt ~key:c.key ~alpha:c.alpha ~tau:c.tau ~boost:c.boost v)
       (fun ~experiments rt ->
         Ref.approx_degree ~experiments rt ~key:c.key ~alpha:c.alpha ~tau:c.tau ~boost:c.boost v)
  && estimate_agrees "approx_edge_count" c parts
       (fun rt ->
         Tfree.Degree_approx.approx_edge_count rt ~key:c.key ~alpha:c.alpha ~tau:c.tau
           ~boost:c.boost)
       (fun ~experiments rt ->
         Ref.approx_edge_count ~experiments rt ~key:c.key ~alpha:c.alpha ~tau:c.tau ~boost:c.boost)

(* A [boost] that gives [approx_distinct] on case [c] exactly [m_exp]
   experiments per guess, with the count it gives checked. *)
let boost_for (c : case) parts ~m_exp =
  let rt = Runtime.make ~seed:0 parts in
  let local = Array.init (Runtime.k rt) (fun j -> Array.to_list (elements c (Runtime.input rt j))) in
  let h = Ref.hoeffding ~k:(Runtime.k rt) ~alpha:c.alpha ~tau:c.tau (Ref.d_prime local) in
  let boost = (float_of_int m_exp -. 0.5) /. h in
  if Ref.m_exp ~boost h <> m_exp then Alcotest.failf "no boost gives %d experiments" m_exp;
  boost

(* The library samples from the table its own builder makes, as
   [find_triangle] does; the reference scans every vertex without one. *)
let sample_agrees (c : case) parts =
  let i = c.bucket mod Bucket.count ~n:(Partition.n parts) in
  agree "sample_uniform_from_btilde" c parts ~equal:(Option.equal Int.equal) ~show:show_opt
    (fun rt ->
      let btilde = Tfree.Unrestricted.btilde_members rt in
      Tfree.Unrestricted.sample_uniform_from_btilde ~btilde rt ~key:c.key ~i)
    (fun rt -> Ref.sample_uniform_from_btilde rt ~key:c.key ~i)

let all_agree (c : case) =
  let parts = parts_of c in
  any_player_agrees c parts && approx_agrees c parts && sample_agrees c parts

let prop_agree =
  QCheck.Test.make ~count:300 ~name:"every unrestricted kernel matches its reference"
    (QCheck.make ~print:print_case gen_case)
    all_agree

(* ---------------------------------------------------------------- corners *)

let base =
  {
    family = Service.Far;
    partition = Service.Dup;
    n = 300;
    d = 6.0;
    k = 4;
    mode = Runtime.Coordinator;
    seed = 11;
    key = 1009;
    bucket = 2;
    alpha = sqrt 3.0;
    tau = 0.05;
    boost = 1.0;
    empty = false;
  }

let corner name check = Alcotest.test_case name `Quick (fun () -> Alcotest.(check bool) name true (check ()))

let corners =
  [
    corner "chatty shape" (fun () -> all_agree base);
    corner "blackboard" (fun () -> all_agree { base with mode = Runtime.Blackboard });
    corner "empty inputs" (fun () -> all_agree { base with empty = true });
    corner "one player" (fun () -> all_agree { base with k = 1; n = 60 });
    corner "every player holds every element" (fun () ->
        all_agree { base with partition = Service.Replicate; n = 80 });
    corner "a bucket nobody suspects" (fun () ->
        let c = { base with bucket = Bucket.count ~n:base.n - 1 } in
        let parts = parts_of c in
        let rt = Runtime.make ~seed:1 parts in
        let btilde = Tfree.Unrestricted.btilde_members rt in
        Tfree.Unrestricted.sample_uniform_from_btilde ~btilde rt ~key:c.key ~i:c.bucket = None
        && sample_agrees c parts);
    corner "every player answers yes" (fun () ->
        let parts = parts_of base in
        agree "any_player" base parts ~equal:Bool.equal ~show:show_bool
          (fun rt -> Runtime.any_player rt (fun _ _ -> true))
          (fun rt -> Ref.any_player rt (fun _ _ -> true)));
    corner "no player answers yes" (fun () ->
        let parts = parts_of base in
        agree "any_player" base parts ~equal:Bool.equal ~show:show_bool
          (fun rt -> Runtime.any_player rt (fun _ _ -> false))
          (fun rt -> Ref.any_player rt (fun _ _ -> false)));
    corner "only the first player answers yes" (fun () ->
        let parts = parts_of base in
        agree "any_player" base parts ~equal:Bool.equal ~show:show_bool
          (fun rt -> Runtime.any_player rt (fun j _ -> j = 0))
          (fun rt -> Ref.any_player rt (fun j _ -> j = 0)));
  ]
  (* Mark words: one partial word, one full word, a full word and one bit,
     two full words, two full words and one bit. *)
  @ List.map
      (fun m_exp ->
        corner (Printf.sprintf "%d experiments a guess" m_exp) (fun () ->
            let parts = parts_of base in
            approx_agrees { base with boost = boost_for base parts ~m_exp } parts))
      [ 60; 61; 62; 122; 123 ]

(* The pair compare of the reference on hashes drawn from four values, so
   ties between different vertices are common. *)
let prop_precedes =
  QCheck.Test.make ~count:2000 ~name:"precedes is the (hash, vertex) pair order"
    QCheck.(
      let hash = make ~print:string_of_float (Gen.oneofl [ 0.0; 0.25; 0.5; 0.999 ]) in
      let vertex = int_range 0 4 in
      quad hash vertex hash vertex)
    (fun (hv, v, hb, b) -> Tfree.Unrestricted.precedes hv v hb b = (compare (hv, v) (hb, b) < 0))

(* An alpha of at most 1 is refused before any round is charged: at 1 the
   Hoeffding margin is 0, below 1 the guesses grow without end. *)
let alpha_refused () =
  let parts = parts_of { base with n = 60; d = 4.0 } in
  List.iter
    (fun alpha ->
      let check name f =
        let rt = Runtime.make ~seed:1 parts in
        Alcotest.check_raises
          (Printf.sprintf "%s at alpha %g" name alpha)
          (Invalid_argument "approx_distinct: alpha must exceed 1")
          (fun () -> ignore (f rt));
        Alcotest.(check int) (Printf.sprintf "%s at alpha %g: rounds" name alpha) 0
          (Runtime.cost rt).Cost.rounds
      in
      check "approx_degree" (fun rt ->
          Tfree.Degree_approx.approx_degree rt ~key:1 ~alpha ~tau:0.1 ~boost:1.0 0);
      check "approx_edge_count" (fun rt ->
          Tfree.Degree_approx.approx_edge_count rt ~key:1 ~alpha ~tau:0.1 ~boost:1.0))
    [ 1.0; 0.5 ]

let () =
  Alcotest.run "tfree_unrestricted_kernels"
    [
      ("corners", corners);
      ( "reference",
        [ QCheck_alcotest.to_alcotest prop_agree; QCheck_alcotest.to_alcotest prop_precedes ] );
      ("alpha", [ Alcotest.test_case "alpha of at most 1 refused" `Quick alpha_refused ]);
    ]
