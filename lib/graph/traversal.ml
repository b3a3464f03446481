(** Centralized traversals used by referees, verifiers and the additional
    property testers: BFS, connected components, 2-coloring and odd-cycle
    extraction. *)

(** Distance array from [src] (-1 = unreachable). *)
let bfs g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let q = Queue.create () in
  Queue.add src q;
  let rec drain () =
    if not (Queue.is_empty q) then begin
      let v = Queue.pop q in
      Array.iter
        (fun u ->
          if dist.(u) < 0 then begin
            dist.(u) <- dist.(v) + 1;
            Queue.add u q
          end)
        (Graph.neighbors g v);
      drain ()
    end
  in
  drain ();
  dist

(** Component label per vertex (labels are arbitrary distinct ints). *)
let components g =
  let n = Graph.n g in
  let label = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) < 0 then begin
      let c = !next in
      incr next;
      label.(v) <- c;
      let q = Queue.create () in
      Queue.add v q;
      let rec drain () =
        if not (Queue.is_empty q) then begin
          let x = Queue.pop q in
          Array.iter
            (fun u ->
              if label.(u) < 0 then begin
                label.(u) <- c;
                Queue.add u q
              end)
            (Graph.neighbors g x);
          drain ()
        end
      in
      drain ()
    end
  done;
  (label, !next)

let is_connected g = Graph.n g <= 1 || snd (components g) = 1

(** Proper 2-coloring if one exists (bipartite), [None] otherwise. *)
let two_color g =
  let n = Graph.n g in
  let color = Array.make n (-1) in
  let ok = ref true in
  for v = 0 to n - 1 do
    if !ok && color.(v) < 0 then begin
      color.(v) <- 0;
      let q = Queue.create () in
      Queue.add v q;
      let rec drain () =
        if !ok && not (Queue.is_empty q) then begin
          let x = Queue.pop q in
          Array.iter
            (fun u ->
              if color.(u) < 0 then begin
                color.(u) <- 1 - color.(x);
                Queue.add u q
              end
              else if color.(u) = color.(x) then ok := false)
            (Graph.neighbors g x);
          drain ()
        end
      in
      drain ()
    end
  done;
  if !ok then Some color else None

let is_bipartite g = Option.is_some (two_color g)

(** An odd cycle (as a vertex list) when the graph is not bipartite: BFS
    levels plus a same-level edge give paths to the ancestor meeting point. *)
let odd_cycle g =
  match two_color g with
  | Some _ -> None
  | None ->
      let n = Graph.n g in
      let parent = Array.make n (-1) in
      let depth = Array.make n (-1) in
      let result = ref None in
      let rec path_to_root v acc = if v < 0 then acc else path_to_root parent.(v) (v :: acc) in
      for root = 0 to n - 1 do
        if !result = None && depth.(root) < 0 then begin
          depth.(root) <- 0;
          let q = Queue.create () in
          Queue.add root q;
          let rec drain () =
            if !result = None && not (Queue.is_empty q) then begin
              let v = Queue.pop q in
              Array.iter
                (fun u ->
                  if !result = None then begin
                    if depth.(u) < 0 then begin
                      depth.(u) <- depth.(v) + 1;
                      parent.(u) <- v;
                      Queue.add u q
                    end
                    else if depth.(u) mod 2 = depth.(v) mod 2 then begin
                      (* same parity: the tree paths + edge (v,u) close an
                         odd cycle; trim the common prefix from the root. *)
                      let pv = path_to_root v [] and pu = path_to_root u [] in
                      let rec trim a b =
                        match (a, b) with
                        | x :: (x' :: _ as a'), y :: (y' :: _ as b') when x = y && x' = y' -> trim a' b'
                        | _ -> (a, b)
                      in
                      let pv, pu = trim pv pu in
                      result := Some (List.rev_append pv (List.tl pu))
                    end
                  end)
                (Graph.neighbors g v);
              drain ()
            end
          in
          drain ()
        end
      done;
      !result
