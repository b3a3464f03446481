(** Bounded log-linear latency histogram (HdrHistogram-style).

    Values are non-negative microseconds, floored to integers and mapped to
    a fixed bucket array: values below [2^sub_bits] land in unit-width
    buckets (exact); above that, each power-of-two octave is split into
    [2^sub_bits] sub-buckets, so a bucket holding value [v] is at most
    [v * 2^-sub_bits] wide.  Memory is O(buckets) — [(64 - sub_bits) *
    2^sub_bits] counters, about 15 KB at the default [sub_bits = 5] — no
    matter how many samples are recorded, and two histograms with the same
    [sub_bits] merge exactly (bucket-wise count addition).

    Recording allocates nothing: counts live in an [int array] and the
    sum/min/max scalars in a [float array] (a flat float array keeps those
    updates unboxed, where mutable float fields in a mixed record would box
    on every write).  This is what lets the serve hot path record per-query
    and per-phase samples inside the [@micro-smoke] minor-words budget.

    Precision: quantiles interpolate between bucket representatives
    (midpoints), clamped into the exact recorded [min, max].  Against
    {!Tfree_util.Stats.quantile} over the raw samples the documented bound
    is [|approx - exact| <= 1.0 + exact * 2^(1 - sub_bits)] — one
    microsecond of floor quantization plus twice the relative bucket
    width.  [quantile] mirrors [Stats.quantile]'s interpolation rule
    (nan on empty, the sample itself on a single sample). *)

type t = {
  sub_bits : int;
  sub_count : int;  (* 1 lsl sub_bits *)
  counts : int array;
  mutable total : int;
  fstate : float array;  (* [| sum; min; max |], unboxed float updates *)
}

let num_buckets_for sub_bits = (64 - sub_bits) lsl sub_bits

let create ?(sub_bits = 5) () =
  if sub_bits < 1 || sub_bits > 16 then
    invalid_arg "Histogram.create: sub_bits must be in 1..16";
  {
    sub_bits;
    sub_count = 1 lsl sub_bits;
    counts = Array.make (num_buckets_for sub_bits) 0;
    total = 0;
    fstate = [| 0.0; infinity; neg_infinity |];
  }

let num_buckets t = Array.length t.counts
let precision t = 1.0 /. float_of_int t.sub_count
let count t = t.total
let sum t = t.fstate.(0)
let min_value t = if t.total = 0 then nan else t.fstate.(1)
let max_value t = if t.total = 0 then nan else t.fstate.(2)
let mean t = if t.total = 0 then nan else t.fstate.(0) /. float_of_int t.total

(* Highest set bit of a positive int; plain tail recursion over int
   arguments so the hot path allocates nothing (a [ref] would). *)
let rec msb_from k u = if u >= 2 then msb_from (k + 1) (u lsr 1) else k

let index_of t u =
  if u < t.sub_count then u
  else begin
    let shift = msb_from 0 u - t.sub_bits in
    ((shift + 1) lsl t.sub_bits) + ((u lsr shift) - t.sub_count)
  end

(* Inverse of [index_of]: the midpoint of bucket [i] (exact for unit-width
   buckets, i.e. the linear region and the first octave above it). *)
let representative t i =
  if i < t.sub_count then float_of_int i
  else begin
    let shift = (i lsr t.sub_bits) - 1 in
    let base = (t.sub_count + (i land (t.sub_count - 1))) lsl shift in
    float_of_int base +. (float_of_int ((1 lsl shift) - 1) /. 2.0)
  end

let record_int t u =
  let u = if u < 0 then 0 else u in
  let i = index_of t u in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  let v = float_of_int u in
  t.fstate.(0) <- t.fstate.(0) +. v;
  if v < t.fstate.(1) then t.fstate.(1) <- v;
  if v > t.fstate.(2) then t.fstate.(2) <- v

(* [4e18 < max_int] keeps [int_of_float] defined; nan and negatives clamp
   to zero so a corrupt sample cannot crash or poison the buckets. *)
let record t v =
  let v = if v > 0.0 then (if v > 4e18 then 4e18 else v) else 0.0 in
  let i = index_of t (int_of_float v) in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1;
  t.fstate.(0) <- t.fstate.(0) +. v;
  if v < t.fstate.(1) then t.fstate.(1) <- v;
  if v > t.fstate.(2) then t.fstate.(2) <- v

let merge t other =
  if t.sub_bits <> other.sub_bits then
    invalid_arg "Histogram.merge: sub_bits mismatch";
  Array.iteri (fun i n -> if n > 0 then t.counts.(i) <- t.counts.(i) + n) other.counts;
  t.total <- t.total + other.total;
  t.fstate.(0) <- t.fstate.(0) +. other.fstate.(0);
  if other.fstate.(1) < t.fstate.(1) then t.fstate.(1) <- other.fstate.(1);
  if other.fstate.(2) > t.fstate.(2) then t.fstate.(2) <- other.fstate.(2)

let copy t =
  {
    t with
    counts = Array.copy t.counts;
    fstate = Array.copy t.fstate;
  }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.total <- 0;
  t.fstate.(0) <- 0.0;
  t.fstate.(1) <- infinity;
  t.fstate.(2) <- neg_infinity

let equal a b =
  a.sub_bits = b.sub_bits && a.total = b.total && a.counts = b.counts

(* Value at 0-based rank [r] of the sorted multiset: the exact min/max at
   the extremes, a clamped bucket representative in between. *)
let rank_value t r =
  if r <= 0 then t.fstate.(1)
  else if r >= t.total - 1 then t.fstate.(2)
  else begin
    let rec find i cum =
      let cum = cum + t.counts.(i) in
      if cum > r then i else find (i + 1) cum
    in
    let v = representative t (find 0 0) in
    Float.min t.fstate.(2) (Float.max t.fstate.(1) v)
  end

let quantile t q =
  if t.total = 0 then nan
  else if t.total = 1 then t.fstate.(2)
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let pos = q *. float_of_int (t.total - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (t.total - 1) in
    let frac = pos -. float_of_int lo in
    (rank_value t lo *. (1.0 -. frac)) +. (rank_value t hi *. frac)
  end

let max_error t exact = 1.0 +. (Float.abs exact *. (2.0 *. precision t))

let buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

open Tfree_util

let to_json t =
  Jsonout.Obj
    [
      ("sub_bits", Jsonout.Num (float_of_int t.sub_bits));
      ("count", Jsonout.Num (float_of_int t.total));
      ("sum", Jsonout.Num t.fstate.(0));
      ("min", if t.total = 0 then Jsonout.Null else Jsonout.Num t.fstate.(1));
      ("max", if t.total = 0 then Jsonout.Null else Jsonout.Num t.fstate.(2));
      ( "buckets",
        Jsonout.List
          (List.map
             (fun (i, n) ->
               Jsonout.List [ Jsonout.Num (float_of_int i); Jsonout.Num (float_of_int n) ])
             (buckets t)) );
    ]

(* Compact single-token codec for histogram shipping over the load
   generator's tally pipe: no spaces, so it survives a space-split line
   format.  Floats travel as hex floats ([%h]) — exact round-trip.
   Example: "5:3:0x1.8p+6:0x1p+4:0x1.cp+5:16.1,22.2". *)
let to_compact t =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (Printf.sprintf "%d:%d:%h:%h:%h:" t.sub_bits t.total t.fstate.(0) t.fstate.(1)
       t.fstate.(2));
  List.iteri
    (fun j (i, n) ->
      if j > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b '.';
      Buffer.add_string b (string_of_int n))
    (buckets t);
  Buffer.contents b

let of_compact s =
  match String.split_on_char ':' s with
  | [ sb; total; sum; mn; mx; bk ] -> (
      try
        let t = create ~sub_bits:(int_of_string sb) () in
        t.total <- int_of_string total;
        t.fstate.(0) <- float_of_string sum;
        t.fstate.(1) <- float_of_string mn;
        t.fstate.(2) <- float_of_string mx;
        if bk <> "" then
          List.iter
            (fun tok ->
              match String.split_on_char '.' tok with
              | [ i; n ] ->
                  let i = int_of_string i in
                  if i < 0 || i >= Array.length t.counts then
                    failwith "bucket index out of range";
                  let n = int_of_string n in
                  if n < 0 then failwith "negative bucket count";
                  t.counts.(i) <- n
              | _ -> failwith "bad bucket token")
            (String.split_on_char ',' bk);
        let by_buckets = Array.fold_left ( + ) 0 t.counts in
        if by_buckets <> t.total then failwith "count does not match buckets";
        Ok t
      with
      | Failure msg -> Error (Printf.sprintf "Histogram.of_compact: %s" msg)
      | Invalid_argument msg -> Error (Printf.sprintf "Histogram.of_compact: %s" msg))
  | _ -> Error "Histogram.of_compact: expected 6 colon-separated fields"
