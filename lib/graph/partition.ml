(** Dividing an input graph between k players (§2, "Communication complexity
    of property testing in graphs").

    A partition is an array of k graphs on the same vertex set whose union is
    the input.  The model explicitly allows {e edge duplication} — several
    players may hold the same edge — and gives no locality guarantee (a
    vertex's edges may be spread over all players), so we provide partitioners
    covering the whole spectrum the paper discusses: disjoint random,
    duplicated, endpoint-local, skewed, and the degenerate all-to-one. *)

open Tfree_util

type t = Graph.t array

let k (p : t) = Array.length p

let n (p : t) = if Array.length p = 0 then 0 else Graph.n p.(0)

(** Reassemble the underlying input graph: a fold of the linear merge. *)
let union (p : t) = Array.fold_left Graph.union (Graph.empty ~n:(n p)) p

let player (p : t) j = p.(j)

(* Every partitioner that draws routes the edges through [Graph.views] in
   [Graph.iter_edges] order, one draw sequence per edge, so its players
   share the input's rows and the stream is left where it always was. *)

(** Each edge goes to exactly one uniformly random player. *)
let disjoint_random rng ~k g = Graph.views g ~k (fun give _ _ -> give (Rng.int rng k))

(** Each edge goes to one uniform owner, and additionally to every other
    player independently with probability [dup_p] — the duplication regime. *)
let with_duplication rng ~k ~dup_p g =
  Graph.views g ~k (fun give _ _ ->
      let owner = Rng.int rng k in
      give owner;
      for j = 0 to k - 1 do
        if j <> owner && Rng.bool rng ~p:dup_p then give j
      done)

(** Every player receives the whole graph: worst-case duplication. *)
let replicate ~k g = Array.init k (fun _ -> g)

(** Edge (u, v) assigned to the player owning its lower endpoint (hashed):
    a locality-flavoured partition (closest to CONGEST-style inputs). *)
let by_endpoint_hash rng ~k g =
  let salt = Rng.int rng 1_000_000_007 in
  Graph.views g ~k (fun give u _ -> give ((u + salt) mod k))

(** Player 0 receives each edge with probability [bias]; the rest is spread
    uniformly over the other players — exercises the "irrelevant player"
    analysis of §3.4.3.  A lone player receives every edge, drawing
    nothing. *)
let skewed rng ~k ~bias g =
  Graph.views g ~k (fun give _ _ ->
      give (if k = 1 || Rng.bool rng ~p:bias then 0 else 1 + Rng.int rng (k - 1)))

let all_to_one ~k g =
  Array.init k (fun j -> if j = 0 then g else Graph.empty ~n:(Graph.n g))

(** Do the players' inputs overlap anywhere? *)
let has_duplication (p : t) =
  let seen : (Graph.edge, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.exists
    (fun g ->
      Graph.fold_edges g ~init:false ~f:(fun acc u v ->
          let e = (u, v) in
          if Hashtbl.mem seen e then true
          else begin
            Hashtbl.replace seen e ();
            acc
          end))
    p
