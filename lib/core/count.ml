(** Approximate triangle-edge counting — the quantity behind the paper's
    hardness results for finding triangle edges (Theorem 4.1) and the
    streaming connection to triangle counting [27].

    Built from two §3.1 blocks: uniform random edges (duplication-unbiased)
    and neighbourhood collection.  [is_triangle_edge] decides Definition 3
    exactly for one edge at cost O(k·deg·log n): the coordinator collects
    and posts N(u) and each player checks its own {v,w} edges against it —
    the closing pair may be split across two players, which local checking
    alone cannot see.  [estimate_triangle_edge_fraction] samples random
    edges and returns the hit fraction; multiplied by an edge-count estimate
    it gives the triangle-edge count within (1+α)·additive-sampling error. *)

open Tfree_graph
open Tfree_comm

(** The full (deduplicated) neighbourhood of [u], collected at the
    coordinator and posted: O(k·deg(u)·log n) bits. *)
let collect_neighbors rt ~key:_ u =
  let n = Runtime.n rt in
  let replies =
    Runtime.ask_all_visible rt ~req:(Msg.vertex ~n u) (fun _ input visible ->
        let already = Hashtbl.create 16 in
        List.iter
          (fun prev -> List.iter (fun w -> Hashtbl.replace already w ()) (Msg.get_vertices prev))
          visible;
        Msg.vertices ~n
          (List.filter (fun w -> not (Hashtbl.mem already w)) (Array.to_list (Graph.neighbors input u))))
  in
  let tbl = Hashtbl.create 32 in
  Array.iter (fun r -> List.iter (fun w -> Hashtbl.replace tbl w ()) (Msg.get_vertices r)) replies;
  Hashtbl.fold (fun w () acc -> w :: acc) tbl []

(** Exact distributed test of Definition 3 for edge (u, v). *)
let is_triangle_edge rt ~key (u, v) =
  let n = Runtime.n rt in
  let nu = collect_neighbors rt ~key u in
  Runtime.tell_all rt (Msg.tuple [ Msg.vertex ~n u; Msg.vertex ~n v; Msg.vertices ~n nu ]);
  let mark = Array.make n false in
  List.iter (fun w -> if w <> v then mark.(w) <- true) nu;
  Runtime.any_player rt (fun _ input ->
      Array.exists (fun w -> w <> u && mark.(w)) (Graph.neighbors input v))

type estimate = {
  sampled : int;  (** edges actually sampled (0 on an empty graph) *)
  hits : int;  (** sampled edges that are triangle edges *)
  fraction : float;  (** hits / sampled *)
}

(** Sample [samples] uniform edges and test each; unbiased estimator of the
    triangle-edge fraction of the input. *)
let estimate_triangle_edge_fraction rt ~key ~samples =
  let rec loop i sampled hits =
    if i >= samples then (sampled, hits)
    else begin
      match Blocks.random_edge rt ~key:(key + (613 * (i + 1))) with
      | None -> (sampled, hits)
      | Some e ->
          let hit = is_triangle_edge rt ~key:(key + (617 * (i + 1))) e in
          loop (i + 1) (sampled + 1) (if hit then hits + 1 else hits)
    end
  in
  let sampled, hits = loop 0 0 0 in
  {
    sampled;
    hits;
    fraction = (if sampled = 0 then 0.0 else float_of_int hits /. float_of_int sampled);
  }

(** Triangle-edge count estimate: fraction × (2-approximate m). *)
let estimate_triangle_edges rt (p : Params.t) ~key ~samples =
  let est = estimate_triangle_edge_fraction rt ~key ~samples in
  let m_hat =
    Degree_approx.approx_edge_count rt ~key:(key + 7) ~alpha:2.0 ~tau:(p.Params.delta /. 4.0)
      ~boost:(Params.degree_approx_boost p)
  in
  est.fraction *. float_of_int m_hat
