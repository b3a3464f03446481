(** The unrestricted-communication triangle-finding protocol of §3.3
    (Algorithms 1–6), achieving O~(k·(nd)^{1/4} + k²) bits.

    Pipeline, exactly as in the paper:
    + estimate the average degree (Corollary 3.22 — the protocol is
      degree-oblivious);
    + iterate over degree buckets B_i in the window [d_l, d_h] (Lemma 3.12
      guarantees the lowest full bucket B_min lies there);
    + per bucket, sample candidate full vertices uniformly from the suspected
      set B̃_i via shared random priorities (Algorithm 1), filter them by an
      approximate-degree check (Algorithm 3);
    + per candidate, sample its incident edges with probability
      ~sqrt(log n/(ǫ·deg)) (Algorithm 4) — by the extended birthday paradox
      (Lemma 3.9) a full vertex's sample contains a triangle-vee;
    + the coordinator posts the sampled star; any player holding an edge that
      closes a vee into a triangle reports it (the step impossible in the
      query model that powers the (nd)^{1/4} bound).

    One-sided error: a triangle is reported only after the closing edge is
    exhibited by a player that holds it, and both vee edges were received
    from players, so every reported triangle is real. *)

open Tfree_util
open Tfree_graph
open Tfree_comm

type stats = {
  buckets_tried : int;
  candidates_tested : int;
  edges_posted : int;
}

let no_stats = { buckets_tried = 0; candidates_tested = 0; edges_posted = 0 }

(* Player j's suspected-bucket membership B̃ʲ_i for all buckets, computed
   once per protocol run (purely local, so free of communication). *)
let btilde_members rt =
  let n = Runtime.n rt in
  let k = Runtime.k rt in
  let n_buckets = Bucket.count ~n in
  Array.init k (fun j ->
      let input = Runtime.input rt j in
      let lists = Array.make n_buckets [] in
      for v = n - 1 downto 0 do
        let dv = Graph.degree input v in
        if dv > 0 then
          for i = 0 to n_buckets - 1 do
            if Bucket.suspects ~k ~i dv then lists.(i) <- v :: lists.(i)
          done
      done;
      Array.map Array.of_list lists)

(* The priority order of Algorithm 1: (hash, vertex) pairs compared
   lexicographically, so a hash tie goes to the smaller vertex. *)
let[@inline] precedes (hv : float) (v : int) (hb : float) (b : int) = hv < hb || (hv = hb && v < b)

(* Algorithm 1: uniform sample from B̃_i = ∪_j B̃ʲ_i under a shared random
   priority; unbiased despite vertices being suspected by several players.
   [btilde] is the membership {!btilde_members} builds (player -> bucket ->
   vertices); each player's first vertex in that order {!Rng.first_key}
   finds, and the coordinator keeps the best (hash, vertex) of the replies
   in two locals, -1 standing for no vertex yet. *)
let sample_uniform_from_btilde ~btilde rt ~key ~i =
  let rng = Runtime.shared_rng rt ~key in
  let n = Runtime.n rt in
  let best_of j =
    let best = Rng.first_key rng btilde.(j).(i) in
    if best < 0 then None else Some best
  in
  let replies =
    Tfree_trace.Trace.span "candidate-sample" (fun () ->
        Runtime.ask_all rt ~req:Msg.empty (fun j _ -> Msg.vertex_opt ~n (best_of j)))
  in
  let best = ref (-1) and best_h = ref infinity in
  for j = 0 to Array.length replies - 1 do
    match Msg.get_vertex_opt replies.(j) with
    | None -> ()
    | Some v ->
        let hv = Rng.hash_float rng v in
        if precedes hv v !best_h !best then begin
          best := v;
          best_h := hv
        end
  done;
  if !best < 0 then None else Some !best

(* Algorithm 3: candidate full vertices for bucket i, with approximate
   degrees.  Caps follow the paper's q and |C| bounds scaled by boost. *)
let get_full_candidates ~btilde rt (p : Params.t) ~key ~i =
  let n = Runtime.n rt in
  let k = Runtime.k rt in
  let q = max 4 (Params.bucket_samples p ~k ~n) in
  let cap = max 2 (Params.candidate_cap p ~n) in
  let tau = p.delta /. (3.0 *. float_of_int q) in
  let lo = float_of_int (Bucket.d_minus i) /. sqrt 3.0 in
  let hi = sqrt 3.0 *. float_of_int (Bucket.d_plus i) in
  let seen = Hashtbl.create 16 in
  let rec loop count c =
    if count >= q || List.length c >= cap then List.rev c
    else begin
      match sample_uniform_from_btilde ~btilde rt ~key:(key + (31 * (count + 1))) ~i with
      | None -> List.rev c (* no player suspects this bucket: B̃_i is empty *)
      | Some v ->
          if Hashtbl.mem seen v then loop (count + 1) c
          else begin
            Hashtbl.replace seen v ();
            let d_hat =
              Tfree_trace.Trace.span "degree-guess" (fun () ->
                  Degree_approx.approx_degree rt ~key:(key + (997 * (count + 1))) ~alpha:(sqrt 3.0)
                    ~tau ~boost:(Params.degree_approx_boost p) v)
            in
            let fd = float_of_int d_hat in
            if fd >= lo && fd <= hi then loop (count + 1) ((v, d_hat) :: c)
            else loop (count + 1) c
          end
    end
  in
  loop 0 []

(* Algorithm 4: post a sampled star around v; returns the sampled neighbours
   confirmed to exist (union over players, truncated per player by the cap of
   step 2). *)
let sample_edges rt (p : Params.t) ~key v ~d_hat =
  let n = Runtime.n rt in
  let d_eff = Float.max 1.0 (float_of_int d_hat /. sqrt 3.0) in
  let prob = Params.edge_sample_prob p ~n ~d:d_eff in
  let cap =
    int_of_float
      (Float.ceil ((sqrt 3.0 *. float_of_int d_hat *. prob) +. (18.0 *. sqrt 3.0 *. Params.ln6d p)))
  in
  let rng = Runtime.shared_rng rt ~key in
  let marked u = Rng.hash_float rng u < prob in
  (* On a blackboard the players post in turns and skip edges already on the
     board (Theorem 3.23); on private channels each sends its full sample. *)
  let replies =
    Tfree_trace.Trace.span "sample-edges" @@ fun () ->
    Runtime.ask_all_visible rt ~req:(Msg.vertex ~n v) (fun _ input visible ->
        let already = Hashtbl.create 16 in
        List.iter
          (fun prev -> List.iter (fun u -> Hashtbl.replace already u ()) (Msg.get_vertices prev))
          visible;
        let sampled =
          Array.to_list (Graph.neighbors input v)
          |> List.filter (fun u -> marked u && not (Hashtbl.mem already u))
          |> List.filteri (fun idx _ -> idx < cap)
        in
        Msg.vertices ~n sampled)
  in
  let tbl = Hashtbl.create 32 in
  Array.iter (fun reply -> List.iter (fun u -> Hashtbl.replace tbl u ()) (Msg.get_vertices reply)) replies;
  Hashtbl.fold (fun u () acc -> u :: acc) tbl []

(* Close a vee: the coordinator posts the star {v} × ws; each player replies
   with an edge {a,b} ⊆ ws it holds, if any. *)
let close_vee rt ~v ~ws =
  Tfree_trace.Trace.span "broadcast" @@ fun () ->
  let n = Runtime.n rt in
  (* On a blackboard the sampled star is already public; on private channels
     the coordinator must forward it to every player. *)
  (match Runtime.mode rt with
  | Runtime.Coordinator -> Runtime.tell_all rt (Msg.tuple [ Msg.vertex ~n v; Msg.vertices ~n ws ])
  | Runtime.Blackboard -> ());
  let ws_arr = Array.of_list (List.sort_uniq compare ws) in
  let find_closing input =
    let len = Array.length ws_arr in
    let rec outer i =
      if i >= len then None
      else begin
        let rec inner j =
          if j >= len then None
          else if Graph.mem_edge input ws_arr.(i) ws_arr.(j) then Some (ws_arr.(i), ws_arr.(j))
          else inner (j + 1)
        in
        match inner (i + 1) with None -> outer (i + 1) | some -> some
      end
    in
    outer 0
  in
  let replies =
    Runtime.ask_all rt ~req:Msg.empty (fun _ input ->
        match find_closing input with
        | None -> Msg.edges ~n []
        | Some e -> Msg.edges ~n [ e ])
  in
  Array.fold_left
    (fun acc reply ->
      match (acc, Msg.get_edges reply) with
      | None, [ (a, b) ] -> Some (Triangle.normalize (v, a, b))
      | acc, _ -> acc)
    None replies

(* Algorithm 5 for one bucket. *)
let find_triangle_vee ~btilde rt p ~key ~i ~stats =
  let candidates = get_full_candidates ~btilde rt p ~key ~i in
  let rec try_candidates idx = function
    | [] -> None
    | (v, d_hat) :: rest -> begin
        stats := { !stats with candidates_tested = !stats.candidates_tested + 1 };
        let ws = sample_edges rt p ~key:(key + (7 * (idx + 1)) + 3) v ~d_hat in
        stats := { !stats with edges_posted = !stats.edges_posted + List.length ws };
        match close_vee rt ~v ~ws with
        | Some t -> Some t
        | None -> try_candidates (idx + 1) rest
      end
  in
  try_candidates 0 candidates

(** Algorithm 6 with the degree-oblivious window of Corollary 3.22: estimate
    d, then run FindTriangleVee on every bucket intersecting [d_l/2, 2·d_h].
    Returns a real triangle or [None]. *)
let find_triangle rt (p : Params.t) =
  let stats = ref no_stats in
  let n = Runtime.n rt in
  let m_hat =
    Tfree_trace.Trace.span "degree-estimate" (fun () ->
        Degree_approx.approx_edge_count rt ~key:17 ~alpha:2.0 ~tau:(p.delta /. 6.0)
          ~boost:(Params.degree_approx_boost p))
  in
  if m_hat = 0 then (None, !stats)
  else begin
    let btilde = btilde_members rt in
    let d_est = 2.0 *. float_of_int m_hat /. float_of_int n in
    let logn = Params.log_n ~n in
    let dl = p.eps *. d_est /. (2.0 *. logn) /. 2.0 in
    let dh = 2.0 *. sqrt (float_of_int n *. d_est /. p.eps) in
    let i_max = Bucket.count ~n - 1 in
    let rec scan i =
      if i > i_max then None
      else if float_of_int (Bucket.d_plus i) < dl then scan (i + 1)
      else if float_of_int (Bucket.d_minus i) > dh then None
      else begin
        stats := { !stats with buckets_tried = !stats.buckets_tried + 1 };
        match find_triangle_vee ~btilde rt p ~key:(1009 * (i + 1)) ~i ~stats with
        | Some t -> Some t
        | None -> scan (i + 1)
      end
    in
    let result = Tfree_trace.Trace.span "bucket-scan" (fun () -> scan 0) in
    (result, !stats)
  end
