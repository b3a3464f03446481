(** Shared-sample membership tables: one byte per vertex, hashed once. *)

open Tfree_util
open Tfree_graph

type t = Bytes.t

let create ~n = Bytes.make n '\000'

(* [Rng.hash_bool] is [hash_float rng v < p] compared inside [Rng], so the
   float is never boxed, even in a build that does not inline [hash_float]
   into this module (the dev profile boxed one per vertex). *)
let mark t rng ~p ~bit =
  for v = 0 to Bytes.length t - 1 do
    if Rng.hash_bool rng v ~p then
      Bytes.unsafe_set t v (Char.unsafe_chr (Char.code (Bytes.unsafe_get t v) lor bit))
  done

let sample rng ~n ~p =
  let t = create ~n in
  mark t rng ~p ~bit:1;
  t

let copy = Bytes.copy

let get t v = Char.code (Bytes.get t v)

(* Rows are sorted, so within a marked row the accepted neighbours come out
   in ascending order: exactly the order [Graph.iter_edges] visits them. *)
let fold_edges t g ~init ~f =
  let n = Bytes.length t in
  if Graph.n g <> n then invalid_arg "Marks.fold_edges: vertex count";
  let acc = ref init in
  for u = 0 to n - 1 do
    if Bytes.unsafe_get t u <> '\000' then begin
      let row = Graph.neighbors g u in
      for i = 0 to Array.length row - 1 do
        let v = Array.unsafe_get row i in
        if u < v && Bytes.unsafe_get t v <> '\000' then acc := f !acc u v
      done
    end
  done;
  !acc
