(* Rows.  A materialized graph holds every sorted row in [adj].  A view
   (a partition's player, built by [views]) shares the rows of the graph it
   was cut from, [src], and owns the arcs whose bits are set in [owned]:
   row v's arcs are [src.(v)] at positions [off.(v) ..], one bit each.  Its
   [adj] starts with every row [unread]; [row] fills row v from the owned
   arcs the first time anything reads it, and keeps it.  Every accessor
   but [equal] reads rows through [row], which on a row already there
   costs one physical comparison.

   Two domains may fill the same row at once.  Each builds its own copy
   from the same bits and stores it with one [caml_modify], which
   publishes the initialised array (a release store in OCaml 5), so a
   reader sees [unread] or one of two equal rows, never a partial one. *)
type t = {
  n : int;
  m : int;
  adj : int array array;
  src : int array array;  (** a view's parent rows; [adj] in a materialized graph *)
  off : int array;  (** arc offsets into [src], n + 1 of them; empty if materialized *)
  owned : Bytes.t;  (** one bit per arc of [src]; empty if materialized *)
}

let materialized ~n ~m adj = { n; m; adj; src = adj; off = [||]; owned = Bytes.empty }

(* A row no one has read yet.  Compared by [==]: every empty array is the
   same atom, so the mark must not be empty. *)
let unread = Array.make 1 (-1)

let owns bits a = Char.code (Bytes.unsafe_get bits (a lsr 3)) land (1 lsl (a land 7)) <> 0

let own bits a =
  let i = a lsr 3 in
  let byte = Char.code (Bytes.unsafe_get bits i) lor (1 lsl (a land 7)) in
  Bytes.unsafe_set bits i (Char.unsafe_chr byte)

(* Row v of a view, filtered out of its parent row and kept.  A row the
   view owns whole is the parent's row itself. *)
let read_row g v =
  let src = g.src.(v) and base = g.off.(v) in
  let len = Array.length src in
  let count = ref 0 in
  for i = 0 to len - 1 do
    if owns g.owned (base + i) then incr count
  done;
  let r =
    if !count = len then src
    else begin
      let r = Array.make !count 0 in
      let j = ref 0 in
      for i = 0 to len - 1 do
        if owns g.owned (base + i) then begin
          Array.unsafe_set r !j (Array.unsafe_get src i);
          incr j
        end
      done;
      r
    end
  in
  g.adj.(v) <- r;
  r
[@@inline never]

(* The one way to a row: bounds-checked by the array access. *)
let[@inline] row g v =
  let r = g.adj.(v) in
  if r != unread then r else read_row g v

type edge = int * int

let normalize_edge (u, v) = if u <= v then (u, v) else (v, u)

let check_vertex n v =
  if v < 0 || v >= n then invalid_arg (Printf.sprintf "Graph: vertex %d out of range [0,%d)" v n)

(* The inverse of [perm]; [who] names the caller when [perm] is not a
   permutation of [0, length perm). *)
let inverse ~who perm =
  let n = Array.length perm in
  let inv = Array.make n (-1) in
  Array.iteri
    (fun v w ->
      if w < 0 || w >= n || inv.(w) >= 0 then
        invalid_arg (Printf.sprintf "Graph.%s: not a permutation of [0,%d)" who n);
      inv.(w) <- v)
    perm;
  inv

(* Construction.  [Builder] buffers endpoints (two int slots per edge, no
   list cells) and turns them into exact-size sorted adjacency rows in
   O(n + m) with no comparison sort:

   - input seen strictly ascending in (u, v) with u < v (what
     [iter_edges] emits, so every partitioner, filter and snapshot takes
     this path) is filled row by row in arc order, which is already sorted
     and duplicate-free: a row receives its smaller neighbours (from
     earlier edges) before its larger ones, each group ascending;
   - anything else is counting-sorted by source into a flat CSR array and
     transposed: visiting sources in ascending order appends each source to
     its neighbours' rows in order, so the rows come out sorted, and a
     duplicate shows up next to its first copy, where it is dropped.
     [relabel] renames the buffered endpoints in place, after which the
     build takes this path. *)
module Builder = struct
  type graph = t

  (* Endpoints live in fixed-size chunks, so growing never copies and a
     build allocates little beyond the rows it keeps. *)
  let chunk = 4096

  type t = {
    n : int;
    mutable full : int array list;  (** filled chunks, newest first *)
    mutable cur : int array;
    mutable pos : int;  (** used slots of [cur], two per edge *)
    mutable ascending : bool;
    mutable last_u : int;
    mutable last_v : int;
  }

  let create ~n =
    { n; full = []; cur = Array.make chunk 0; pos = 0; ascending = true; last_u = -1; last_v = -1 }

  let add b u v =
    check_vertex b.n u;
    check_vertex b.n v;
    if u <> v then begin
      if b.ascending && not (u < v && (u > b.last_u || (u = b.last_u && v > b.last_v))) then
        b.ascending <- false;
      b.last_u <- u;
      b.last_v <- v;
      if b.pos = chunk then begin
        b.full <- b.cur :: b.full;
        b.cur <- Array.make chunk 0;
        b.pos <- 0
      end;
      b.cur.(b.pos) <- u;
      b.cur.(b.pos + 1) <- v;
      b.pos <- b.pos + 2
    end

  (* [f a used] over the chunks in insertion order. *)
  let iter_chunks b f =
    List.iter (fun a -> f a chunk) (List.rev b.full);
    f b.cur b.pos

  (* For every buffered edge (u, v), in insertion order: [set u place.(u) v]
     then [set v place.(v) u], advancing each [place] past the slot it
     filled. *)
  let scatter b place set =
    iter_chunks b (fun a used ->
        let i = ref 0 in
        while !i < used do
          let u = a.(!i) and v = a.(!i + 1) in
          set u place.(u) v;
          place.(u) <- place.(u) + 1;
          set v place.(v) u;
          place.(v) <- place.(v) + 1;
          i := !i + 2
        done)

  (* Rows of exact size [deg], filled in arc order. *)
  let fill_rows b deg =
    let adj = Array.init b.n (fun v -> Array.make deg.(v) 0) in
    scatter b (Array.make b.n 0) (fun u i v -> adj.(u).(i) <- v);
    adj

  (* Counting sort by source, then transpose into the rows.  Sources are
     visited in ascending order, so each row fills in order and a duplicate
     is always the row's last entry so far: it is skipped there, and only
     a row that had one is trimmed. *)
  let sort_rows b deg =
    let n = b.n in
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v) + deg.(v)
    done;
    let by_source = Array.make off.(n) 0 in
    scatter b (Array.sub off 0 n) (fun _ i v -> by_source.(i) <- v);
    let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
    let fill = Array.make n 0 in
    for s = 0 to n - 1 do
      for j = off.(s) to off.(s + 1) - 1 do
        let t = by_source.(j) in
        let row = adj.(t) and k = fill.(t) in
        if k = 0 || row.(k - 1) <> s then begin
          row.(k) <- s;
          fill.(t) <- k + 1
        end
      done
    done;
    for v = 0 to n - 1 do
      if fill.(v) < deg.(v) then adj.(v) <- Array.sub adj.(v) 0 fill.(v)
    done;
    adj

  let relabel b perm =
    if Array.length perm <> b.n then invalid_arg "Graph.Builder.relabel: permutation size mismatch";
    ignore (inverse ~who:"Builder.relabel" perm);
    iter_chunks b (fun a used ->
        for i = 0 to used - 1 do
          a.(i) <- perm.(a.(i))
        done);
    b.ascending <- false

  let build b : graph =
    let n = b.n in
    let deg = Array.make n 0 in
    iter_chunks b (fun a used ->
        for i = 0 to used - 1 do
          let x = a.(i) in
          deg.(x) <- deg.(x) + 1
        done);
    if b.ascending then
      materialized ~n ~m:(((chunk * List.length b.full) + b.pos) / 2) (fill_rows b deg)
    else begin
      let adj = sort_rows b deg in
      materialized ~n ~m:(Array.fold_left (fun s a -> s + Array.length a) 0 adj / 2) adj
    end
end

let of_edge_seq ~n seq =
  let b = Builder.create ~n in
  Seq.iter (fun (u, v) -> Builder.add b u v) seq;
  Builder.build b

let of_edges ~n edges =
  let b = Builder.create ~n in
  List.iter (fun (u, v) -> Builder.add b u v) edges;
  Builder.build b

let empty ~n = materialized ~n ~m:0 (Array.make n [||])

let n g = g.n
let m g = g.m

let avg_degree g = if g.n = 0 then 0.0 else 2.0 *. float_of_int g.m /. float_of_int g.n

let degree g v =
  check_vertex g.n v;
  Array.length (row g v)

let neighbors g v =
  check_vertex g.n v;
  row g v

(* Binary search in a sorted adjacency array. *)
let mem_sorted a x =
  let rec go lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      let y = a.(mid) in
      if y = x then true else if y < x then go (mid + 1) hi else go lo mid
    end
  in
  go 0 (Array.length a)

(* Hot path for every referee and triangle kernel: bounds come from the array
   accesses themselves, and the probe goes straight to the shorter sorted
   adjacency without separate [degree] calls. *)
let mem_edge g u v =
  if u = v then false
  else begin
    let au = row g u and av = row g v in
    let a, x = if Array.length au <= Array.length av then (au, v) else (av, u) in
    mem_sorted a x
  end

let iter_edges g f =
  for u = 0 to g.n - 1 do
    Array.iter (fun v -> if u < v then f u v) (row g u)
  done

let fold_edges g ~init ~f =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g ~init:[] ~f:(fun acc u v -> (u, v) :: acc))

(* The arcs of the edge being routed are [uv] (in row u) and [vu] (in row
   v).  Rows are sorted and [u] ascends, so v's smaller neighbours come up
   in row order: [next.(v)] is the arc of the next one. *)
let views g ~k route =
  let n = g.n in
  for v = 0 to n - 1 do
    ignore (row g v)
  done;
  let rows = g.adj in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length rows.(v)
  done;
  let owned = Array.init k (fun _ -> Bytes.make ((off.(n) + 7) / 8) '\000') in
  let m = Array.make k 0 in
  let uv = ref 0 and vu = ref 0 in
  let give j =
    let bits = owned.(j) in
    if not (owns bits !uv) then begin
      own bits !uv;
      own bits !vu;
      m.(j) <- m.(j) + 1
    end
  in
  let next = Array.sub off 0 n in
  for u = 0 to n - 1 do
    let r = rows.(u) in
    for i = 0 to Array.length r - 1 do
      let v = r.(i) in
      if u < v then begin
        uv := off.(u) + i;
        vu := next.(v);
        next.(v) <- !vu + 1;
        route give u v
      end
    done
  done;
  Array.init k (fun j ->
      { n; m = m.(j); adj = Array.make n unread; src = rows; off; owned = owned.(j) })

(* Merge the sorted adjacency arrays directly instead of rebuilding from the
   concatenated edge lists (no list materialization, no re-sort). *)
let union g1 g2 =
  if g1.n <> g2.n then invalid_arg "Graph.union: vertex counts differ";
  let merge a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) 0 in
      let i = ref 0 and j = ref 0 and k = ref 0 in
      while !i < la && !j < lb do
        let x = a.(!i) and y = b.(!j) in
        if x < y then begin
          out.(!k) <- x;
          incr i
        end
        else if y < x then begin
          out.(!k) <- y;
          incr j
        end
        else begin
          out.(!k) <- x;
          incr i;
          incr j
        end;
        incr k
      done;
      while !i < la do
        out.(!k) <- a.(!i);
        incr i;
        incr k
      done;
      while !j < lb do
        out.(!k) <- b.(!j);
        incr j;
        incr k
      done;
      if !k < la + lb then Array.sub out 0 !k else out
    end
  in
  let deg_sum = ref 0 in
  let adj =
    Array.init g1.n (fun v ->
        let a = merge (row g1 v) (row g2 v) in
        deg_sum := !deg_sum + Array.length a;
        a)
  in
  materialized ~n:g1.n ~m:(!deg_sum / 2) adj

let filter_edges g f =
  let b = Builder.create ~n:g.n in
  iter_edges g (fun u v -> if f u v then Builder.add b u v);
  Builder.build b

let induced g vs =
  let keep = Array.make g.n false in
  List.iter (fun v -> check_vertex g.n v; keep.(v) <- true) vs;
  filter_edges g (fun u v -> keep.(u) && keep.(v))

(* Rows are mapped directly: visiting the new labels w in ascending order
   appends w to each neighbour's new row, so every row comes out sorted. *)
let permute ~who g perm =
  let n = Array.length perm in
  let inv = inverse ~who perm in
  let adj = Array.make n [||] in
  for v = 0 to g.n - 1 do
    adj.(perm.(v)) <- Array.make (Array.length (row g v)) 0
  done;
  let fill = Array.make n 0 in
  for w = 0 to n - 1 do
    let v = inv.(w) in
    if v < g.n then
      Array.iter
        (fun x ->
          let x' = perm.(x) in
          adj.(x').(fill.(x')) <- w;
          fill.(x') <- fill.(x') + 1)
        (row g v)
  done;
  materialized ~n ~m:g.m adj

let relabel g perm =
  if Array.length perm <> g.n then invalid_arg "Graph.relabel: permutation size mismatch";
  permute ~who:"relabel" g perm

let embed g perm =
  if Array.length perm < g.n then invalid_arg "Graph.embed: permutation smaller than the graph";
  permute ~who:"embed" g perm

(* Row v of [g] as it stands: the array it is read from, with the owned
   arcs to filter it by when it is an unread view row ([Bytes.empty]
   filters nothing). *)
let peek g v =
  let r = g.adj.(v) in
  if r != unread then (r, 0, Bytes.empty) else (g.src.(v), g.off.(v), g.owned)

(* Rows are compared in place, so comparing views builds no row: a full
   comparison of a partition's players would otherwise leave every row of
   every player behind. *)
let same_row g1 g2 v =
  let a, base_a, bits_a = peek g1 v and b, base_b, bits_b = peek g2 v in
  let rec skip arr base bits i =
    if i < Array.length arr && Bytes.length bits > 0 && not (owns bits (base + i)) then
      skip arr base bits (i + 1)
    else i
  in
  let rec go i j =
    let i = skip a base_a bits_a i and j = skip b base_b bits_b j in
    if i = Array.length a || j = Array.length b then i = Array.length a && j = Array.length b
    else a.(i) = b.(j) && go (i + 1) (j + 1)
  in
  go 0 0

let equal g1 g2 =
  let rec rows_from v = v >= g1.n || (same_row g1 g2 v && rows_from (v + 1)) in
  g1.n = g2.n && g1.m = g2.m && rows_from 0

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n g.m;
  iter_edges g (fun u v -> Format.fprintf fmt "%d-%d@," u v);
  Format.fprintf fmt "@]"
