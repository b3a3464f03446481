(** Degree bucketing and the input analysis of §3.2 (Definitions 4--8,
    Lemmas 3.4--3.13).

    Buckets are indexed by powers of three, as in Algorithm 2: bucket [i]
    (i >= 0) holds the vertices of degree in [3^i, 3^{i+1}); isolated vertices
    belong to no bucket.  The module computes, for a concrete graph, every
    quantity the protocol's analysis reasons about — disjoint triangle-vee
    counts, full vertices, full buckets, B_min, and the degree window
    [d_l, d_h] — so the lemmas can be checked instance-by-instance and so the
    unrestricted protocol's tests can cross-validate sampling behaviour. *)

let rec log3_floor d = if d < 3 then 0 else 1 + log3_floor (d / 3)

(** Bucket index of a positive degree. *)
let index_of_degree d =
  if d <= 0 then invalid_arg "Bucket.index_of_degree: nonpositive degree";
  log3_floor d

(** Number of bucket indices needed for an n-vertex graph. *)
let count ~n = 1 + log3_floor (max 1 (n - 1))

(* 3^e for every exponent the bounds of a bucket [count] reaches, computed
   once: [suspects] reads two per call, and [Float.pow] is a libm call. *)
let pow3 = Array.init (count ~n:max_int + 1) (fun e -> int_of_float (Float.pow 3.0 (float_of_int e)))

let d_minus i = pow3.(i)
let d_plus i = pow3.(i + 1)

(** [members g] returns an array mapping bucket index to vertex list. *)
let members g =
  let n = Graph.n g in
  let buckets = Array.make (count ~n) [] in
  for v = n - 1 downto 0 do
    let d = Graph.degree g v in
    if d > 0 then begin
      let i = index_of_degree d in
      buckets.(i) <- v :: buckets.(i)
    end
  done;
  buckets

(** ǫ-dependent full-vertex threshold (Definition 5): v is full when at least
    an ǫ/(12·log n) fraction of its incident edges form disjoint vees. *)
let full_vertex_threshold ~n ~eps =
  eps /. (12.0 *. Float.max 1.0 (Tfree_util.Bits.log2 (float_of_int (max 2 n))))

let is_full_vertex g ~eps v =
  let d = Graph.degree g v in
  d > 0
  && begin
       (* A vee consumes two incident edges, so the edge fraction covered by
          the matching is 2·|matching| / d. *)
       let vees = Triangle.count_disjoint_vees_at g v in
       float_of_int (2 * vees) >= full_vertex_threshold ~n:(Graph.n g) ~eps *. float_of_int d
     end

let full_vertices g ~eps =
  List.filter (is_full_vertex g ~eps) (List.init (Graph.n g) (fun v -> v))

(** Disjoint triangle-vees sourced in the bucket, per the paper's notion of
    disjointness (edge-disjoint or different source). *)
let disjoint_vees_in g vs =
  List.fold_left (fun acc v -> acc + Triangle.count_disjoint_vees_at g v) 0 vs

(** Full-bucket threshold (Definition 4): ǫ·n·d / (2·log n) disjoint vees. *)
let full_bucket_threshold g ~eps =
  let n = float_of_int (Graph.n g) in
  let d = Graph.avg_degree g in
  eps *. n *. d /. (2.0 *. Float.max 1.0 (Tfree_util.Bits.log2 (Float.max 2.0 n)))

let is_full_bucket g ~eps vs =
  float_of_int (disjoint_vees_in g vs) >= full_bucket_threshold g ~eps

(** Index of the lowest-degree full bucket, if any (B_min, Definition 4). *)
let b_min g ~eps =
  let bs = members g in
  let rec scan i =
    if i >= Array.length bs then None
    else if bs.(i) <> [] && is_full_bucket g ~eps bs.(i) then Some i
    else scan (i + 1)
  in
  scan 0

(** Degree window of §3.2: d_l = ǫ·d / (2 log n), d_h = sqrt(n·d/ǫ)
    (Definitions 7 and 8). *)
let degree_window g ~eps =
  let n = float_of_int (Graph.n g) in
  let d = Graph.avg_degree g in
  let logn = Float.max 1.0 (Tfree_util.Bits.log2 (Float.max 2.0 n)) in
  let dl = eps *. d /. (2.0 *. logn) in
  let dh = sqrt (n *. d /. eps) in
  (dl, dh)

(** Membership test for the player-side suspected bucket B̃ʲᵢ of §3.3:
    player j suspects v is in bucket i when 3^i/k <= d_j(v) <= 3^{i+1}. *)
let suspects ~k ~i dj_v =
  dj_v > 0
  && float_of_int dj_v >= float_of_int (d_minus i) /. float_of_int k
  && dj_v <= d_plus i
