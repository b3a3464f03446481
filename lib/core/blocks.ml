(** Building blocks of §3.1: the property-testing primitives, implemented as
    coordinator-model sub-protocols with their stated costs.

    Several of the primitives must be unbiased under {e edge duplication}
    (the same edge held by several players).  Following the paper, the
    duplication-proof ones impose a shared random priority order and take the
    minimum: an edge's chance of winning depends only on its priority, not on
    how many players hold it. *)

open Tfree_util
open Tfree_graph
open Tfree_comm

(** Edge-existence query — the dense-model primitive.  Each player answers
    one bit; the coordinator announces the OR.  O(k) bits. *)
let query_edge rt (u, v) =
  let u, v = Graph.normalize_edge (u, v) in
  let present = Runtime.any_player rt (fun _ input -> Graph.mem_edge input u v) in
  Runtime.tell_all rt (Msg.bool present);
  present

(* Shared random priority of vertex [u] in the sub-protocol step keyed by
   [rng]; ties are broken by the vertex id, so the order is a uniformly random
   permutation. *)
let priority rng u = (Rng.hash_float rng u, u)

(** Uniformly random edge incident to [v] — the sparse-model primitive.  A
    shared random order over the n-1 potential incident edges is fixed; each
    player reports its first incident edge under that order and the
    coordinator announces the overall first.  Uniform even with duplication.
    O(k log n) bits. *)
let random_incident_edge rt ~key v =
  let rng = Runtime.shared_rng rt ~key in
  let n = Runtime.n rt in
  let best_of input =
    Array.fold_left
      (fun acc u ->
        match acc with
        | Some b when priority rng b <= priority rng u -> acc
        | _ -> Some u)
      None (Graph.neighbors input v)
  in
  let replies = Runtime.ask_all rt ~req:(Msg.vertex ~n v) (fun _ input -> Msg.vertex_opt ~n (best_of input)) in
  let winner =
    Array.fold_left
      (fun acc reply ->
        match (acc, Msg.get_vertex_opt reply) with
        | None, r -> r
        | Some b, Some u when priority rng u < priority rng b -> Some u
        | acc, _ -> acc)
      None replies
  in
  Runtime.tell_all rt (Msg.vertex_opt ~n winner);
  Option.map (fun u -> Graph.normalize_edge (v, u)) winner

(** Random walk of [steps] steps from [src], taking a uniform incident edge
    at each step (the pivotal sparse-model procedure).  Returns the visited
    vertices, starting with [src]; stops early at an isolated vertex. *)
let random_walk rt ~key src ~steps =
  let rec go v step acc =
    if step >= steps then List.rev acc
    else begin
      match random_incident_edge rt ~key:(key + (1000003 * (step + 1))) v with
      | None -> List.rev acc
      | Some (a, b) ->
          let next = if a = v then b else a in
          go next (step + 1) (next :: acc)
    end
  in
  go src 0 [ src ]

(** Uniformly random edge of the whole graph — possible here though not in
    the standard query model.  Shared random priority over all vertex pairs;
    each player sends its top edge.  O(k log n) bits. *)
let random_edge rt ~key =
  let rng = Runtime.shared_rng rt ~key in
  let n = Runtime.n rt in
  let edge_priority (u, v) = (Rng.hash_float2 rng u v, u, v) in
  let best_of input =
    Graph.fold_edges input ~init:None ~f:(fun acc u v ->
        match acc with
        | Some e when edge_priority e <= edge_priority (u, v) -> acc
        | _ -> Some (u, v))
  in
  let replies =
    Runtime.ask_all rt ~req:Msg.empty (fun _ input ->
        match best_of input with
        | None -> Msg.edges ~n []
        | Some e -> Msg.edges ~n [ e ])
  in
  let winner =
    Array.fold_left
      (fun acc reply ->
        match (acc, Msg.get_edges reply) with
        | None, [ e ] -> Some e
        | Some b, [ e ] when edge_priority e < edge_priority b -> Some e
        | acc, _ -> acc)
      None replies
  in
  (match winner with
  | None -> Runtime.tell_all rt (Msg.edges ~n [])
  | Some e -> Runtime.tell_all rt (Msg.edges ~n [ e ]));
  winner

(** All edges of the subgraph induced by [vs] — O(k·m'·log n) bits where m'
    is the subgraph's edge count (cheaper than the query model's |vs|²
    whenever the subgraph is sparse). *)
let induced_subgraph rt vs =
  let n = Runtime.n rt in
  let keep = Array.make n false in
  List.iter (fun v -> keep.(v) <- true) vs;
  let replies =
    Runtime.ask_all rt ~req:(Msg.vertices ~n vs) (fun _ input ->
        Msg.edges ~n
          (List.filter (fun (u, v) -> keep.(u) && keep.(v)) (Graph.edges input)))
  in
  Graph.of_edges ~n (Msg.all_edges replies)

(** Truncated distributed BFS: explore from [src] until either the component
    is exhausted or more than [max_vertices] vertices have been discovered.
    Returns (discovered vertices, exhausted?) — [exhausted = true] means the
    discovered set is the whole component, a certificate of disconnection
    whenever it is smaller than the graph.  The workhorse of the
    connectivity tester. *)
let bfs_limited rt src ~max_vertices =
  let n = Runtime.n rt in
  let seen = Array.make n false in
  seen.(src) <- true;
  let count = ref 1 in
  let rec expand frontier =
    match frontier with
    | [] -> true
    | _ when !count > max_vertices -> false
    | _ ->
        Runtime.tell_all rt (Msg.vertices ~n frontier);
        let in_frontier = Array.make n false in
        List.iter (fun v -> in_frontier.(v) <- true) frontier;
        let replies =
          Runtime.ask_all rt ~req:Msg.empty (fun _ input ->
              Msg.edges ~n
                (List.filter
                   (fun (u, v) -> in_frontier.(u) || in_frontier.(v))
                   (Graph.edges input)))
        in
        let next = ref [] in
        List.iter
          (fun (u, v) ->
            let touch w =
              if not seen.(w) then begin
                seen.(w) <- true;
                incr count;
                next := w :: !next
              end
            in
            if in_frontier.(u) then touch v;
            if in_frontier.(v) then touch u)
          (Msg.all_edges replies);
        expand !next
  in
  let exhausted = expand [ src ] in
  (List.filter (fun v -> seen.(v)) (List.init n (fun v -> v)), exhausted)

(** Distributed BFS from [src]: each layer, the coordinator posts the
    frontier and players reply with their incident edges.  Returns the
    distance array (-1 for unreachable) — O(n log n) bits per §3.1 when run
    on a blackboard. *)
let bfs rt src =
  let n = Runtime.n rt in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let rec expand frontier d =
    match frontier with
    | [] -> ()
    | _ ->
        Runtime.tell_all rt (Msg.vertices ~n frontier);
        let in_frontier = Array.make n false in
        List.iter (fun v -> in_frontier.(v) <- true) frontier;
        let replies =
          Runtime.ask_all rt ~req:Msg.empty (fun _ input ->
              Msg.edges ~n
                (List.filter
                   (fun (u, v) -> in_frontier.(u) || in_frontier.(v))
                   (Graph.edges input)))
        in
        let next = ref [] in
        List.iter
          (fun (u, v) ->
            let touch w =
              if dist.(w) < 0 then begin
                dist.(w) <- d + 1;
                next := w :: !next
              end
            in
            if in_frontier.(u) then touch v;
            if in_frontier.(v) then touch u)
          (Msg.all_edges replies);
        expand !next (d + 1)
  in
  expand [ src ] 0;
  dist
