(** Degree bucketing and the input analysis of §3.2 (Definitions 4–8,
    Lemmas 3.4–3.13).  Bucket [i] holds the vertices of degree in
    [3^i, 3^{i+1}); isolated vertices belong to no bucket. *)

(** Bucket index of a positive degree.
    @raise Invalid_argument on nonpositive degrees. *)
val index_of_degree : int -> int

(** Lower degree bound of bucket [i]: 3^i.
    @raise Invalid_argument if [i] is below 0 or above [count ~n:max_int]. *)
val d_minus : int -> int

(** Upper degree bound (exclusive) of bucket [i]: 3^{i+1}.
    @raise Invalid_argument if [i] is not below [count ~n:max_int]. *)
val d_plus : int -> int

(** Number of bucket indices needed for an n-vertex graph. *)
val count : n:int -> int

(** Vertex lists per bucket index. *)
val members : Graph.t -> int list array

(** Is at least an ǫ/(12·log n) fraction of v's incident edges covered by
    disjoint vees (Definition 5)? *)
val is_full_vertex : Graph.t -> eps:float -> int -> bool

val full_vertices : Graph.t -> eps:float -> int list

(** Index of the lowest-degree full bucket, if any (B_min). *)
val b_min : Graph.t -> eps:float -> int option

(** The degree window [d_l, d_h] of Definitions 7–8 within which B_min must
    fall (Lemma 3.12). *)
val degree_window : Graph.t -> eps:float -> float * float

(** Does a player observing local degree [dj_v] suspect bucket [i]
    (membership in B̃ʲᵢ, §3.3): 3^i/k <= dj_v <= 3^{i+1}? *)
val suspects : k:int -> i:int -> int -> bool
