(** Small-subgraph containment: patterns, embedding search, and greedy
    edge-disjoint packing — the machinery behind the H-freeness extension
    (§5 suggests "generalizing our techniques for detecting a wider class of
    subgraphs"; [19] studies exactly the 4-vertex patterns below in the
    CONGEST model).

    A pattern is a small graph on vertices [0 .. vertices-1]; [find g
    pattern] searches for a (not necessarily induced) embedding: an injective
    vertex map under which every pattern edge is a graph edge.  Backtracking
    with degree pruning — exponential in the pattern size, linear-ish in the
    graph for the ≤5-vertex patterns used here. *)

type pattern = { name : string; vertices : int; edges : (int * int) list }

let triangle = { name = "K3"; vertices = 3; edges = [ (0, 1); (1, 2); (0, 2) ] }

let four_cycle = { name = "C4"; vertices = 4; edges = [ (0, 1); (1, 2); (2, 3); (0, 3) ] }

let four_clique =
  { name = "K4"; vertices = 4; edges = [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ] }

let four_path = { name = "P4"; vertices = 4; edges = [ (0, 1); (1, 2); (2, 3) ] }

let diamond =
  { name = "diamond"; vertices = 4; edges = [ (0, 1); (0, 2); (1, 2); (1, 3); (2, 3) ] }

let five_cycle =
  { name = "C5"; vertices = 5; edges = [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4) ] }

(* Pattern-side adjacency and degree, precomputed. *)
let pattern_adj p =
  let adj = Array.make p.vertices [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    p.edges;
  adj

(** [find g p] returns an embedding as an array [assignment] with
    [assignment.(pattern vertex) = graph vertex], or [None].  The search
    assigns pattern vertices in order, so patterns should list
    well-connected vertices first (all built-in patterns do). *)
let find g p =
  let padj = pattern_adj p in
  let assignment = Array.make p.vertices (-1) in
  let used = Hashtbl.create 8 in
  let n = Graph.n g in
  let consistent pv gv =
    Graph.degree g gv >= List.length padj.(pv)
    && List.for_all
         (fun pu ->
           let gu = assignment.(pu) in
           gu < 0 || Graph.mem_edge g gv gu)
         padj.(pv)
  in
  let rec assign pv =
    if pv >= p.vertices then true
    else begin
      (* Prefer extending from an already-assigned neighbour's adjacency. *)
      let anchored =
        List.find_map (fun pu -> if assignment.(pu) >= 0 then Some assignment.(pu) else None) padj.(pv)
      in
      let candidates =
        match anchored with
        | Some gu -> Array.to_list (Graph.neighbors g gu)
        | None -> List.init n (fun v -> v)
      in
      List.exists
        (fun gv ->
          if (not (Hashtbl.mem used gv)) && consistent pv gv then begin
            assignment.(pv) <- gv;
            Hashtbl.replace used gv ();
            if assign (pv + 1) then true
            else begin
              assignment.(pv) <- -1;
              Hashtbl.remove used gv;
              false
            end
          end
          else false)
        candidates
    end
  in
  if assign 0 then Some (Array.copy assignment) else None

let contains g p = Option.is_some (find g p)

let is_free g p = not (contains g p)

(** Check that [assignment] really embeds [p] in [g] (used to verify
    referee outputs, preserving one-sidedness). *)
let is_embedding g p assignment =
  Array.length assignment = p.vertices
  && Array.for_all (fun v -> v >= 0 && v < Graph.n g) assignment
  && (let distinct = Hashtbl.create 8 in
      Array.for_all
        (fun v ->
          if Hashtbl.mem distinct v then false
          else begin
            Hashtbl.replace distinct v ();
            true
          end)
        assignment)
  && List.for_all (fun (a, b) -> Graph.mem_edge g assignment.(a) assignment.(b)) p.edges

(** Greedy edge-disjoint packing of pattern copies: repeatedly find an
    embedding, remove its edges, recurse.  Its size certifies farness from
    H-freeness exactly as triangle packings do. *)
let greedy_packing g p =
  let rec loop g acc =
    match find g p with
    | None -> List.rev acc
    | Some assignment ->
        let to_remove = Hashtbl.create 8 in
        List.iter
          (fun (a, b) ->
            Hashtbl.replace to_remove (Graph.normalize_edge (assignment.(a), assignment.(b))) ())
          p.edges;
        let g' = Graph.filter_edges g (fun u v -> not (Hashtbl.mem to_remove (u, v))) in
        loop g' (assignment :: acc)
  in
  loop g []
