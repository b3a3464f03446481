(* Tests for Tfree_util: PRNG, sampling, bit accounting, statistics. *)

open Tfree_util

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 7 and b = Rng.create 8 in
  checkb "different seeds diverge" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_split_independent_of_parent_advance () =
  (* split depends only on current state: same state + key -> same child. *)
  let a = Rng.create 7 in
  let c1 = Rng.split a 3 and c2 = Rng.split a 3 in
  check Alcotest.int64 "split is pure" (Rng.next_int64 c1) (Rng.next_int64 c2)

let test_rng_split_key_sensitivity () =
  let a = Rng.create 7 in
  let c1 = Rng.split a 3 and c2 = Rng.split a 4 in
  checkb "different keys diverge" true (Rng.next_int64 c1 <> Rng.next_int64 c2)

let test_rng_int_bounds () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    checkb "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let r = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 2 in
  for _ = 1 to 1000 do
    let f = Rng.float r in
    checkb "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_float_mean () =
  let r = Rng.create 3 in
  let xs = List.init 20_000 (fun _ -> Rng.float r) in
  let m = Stats.mean xs in
  checkb "mean near 1/2" true (Float.abs (m -. 0.5) < 0.02)

let test_rng_bool_probability () =
  let r = Rng.create 4 in
  let hits = List.length (List.filter (fun x -> x) (List.init 20_000 (fun _ -> Rng.bool r ~p:0.3))) in
  checkb "p=0.3 respected" true (abs (hits - 6000) < 400)

let test_rng_hash_float_deterministic () =
  let r = Rng.create 5 in
  check (Alcotest.float 0.0) "same key same hash" (Rng.hash_float r 42) (Rng.hash_float r 42)

let test_rng_hash_float_spread () =
  let r = Rng.create 5 in
  let xs = List.init 10_000 (fun i -> Rng.hash_float r i) in
  checkb "mean near 1/2" true (Float.abs (Stats.mean xs -. 0.5) < 0.02)

let test_rng_hash_float2_symmetry_breaking () =
  let r = Rng.create 6 in
  checkb "pair order matters" true (Rng.hash_float2 r 1 2 <> Rng.hash_float2 r 2 1)

(* The shared-randomness kernels against the per-key float tests they
   replace: [mark_word] bit by bit against [hash_bool] under [split], and
   [first_key] against the least (hash_float, key) pair. *)

let splits_of t slot_keys =
  let c = Rng.splits (Array.length slot_keys) in
  Array.iteri (fun i key -> Rng.set_split c i t key) slot_keys;
  c

let ref_mark_word t slot_keys ~first ~count ~p keys =
  let word = ref 0 in
  for b = 0 to count - 1 do
    let child = Rng.split t slot_keys.(first + b) in
    if Array.exists (fun x -> Rng.hash_bool child x ~p) keys then word := !word lor (1 lsl b)
  done;
  !word

(* One key under one slot: the integer threshold test alone. *)
let marked_one t key x ~p = Rng.mark_word (splits_of t [| key |]) ~first:0 ~count:1 ~p [| x |] = 1

let ref_first_key t keys =
  Array.fold_left
    (fun best v ->
      match best with
      | Some b when compare (Rng.hash_float t b, b) (Rng.hash_float t v, v) <= 0 -> best
      | _ -> Some v)
    None keys
  |> Option.value ~default:(-1)

(* At p = j·2^-53 for the hash's own j, and one float either side of it,
   where a threshold off by one flips; then the clamped and special p. *)
let test_rng_threshold_corners () =
  for seed = 0 to 40 do
    let t = Rng.create seed in
    let key = seed * 31 and x = seed * 7919 in
    let h = Rng.hash_float (Rng.split t key) x in
    List.iter
      (fun p ->
        checkb (Printf.sprintf "seed %d p %h" seed p) (h < p) (marked_one t key x ~p))
      [
        h; Float.succ h; Float.pred h; h +. 0x1p-53; h -. 0x1p-53; 0.0; -0.0; 1.0; Float.pred 1.0;
        Float.succ 1.0; 2.0; infinity; -1.0; neg_infinity; Float.nan; Float.min_float;
        Float.succ 0.0; Float.pred Float.min_float; 0x1p-53; 0x1p-54;
      ]
  done

let test_rng_mark_word_reference () =
  let t = Rng.create 17 in
  let slot_keys = Array.init 70 (fun i -> (i * 104729) + 3) in
  let c = splits_of t slot_keys in
  List.iter
    (fun len ->
      let keys = Array.init len (fun i -> (i * 613) + 11) in
      List.iter
        (fun p ->
          List.iter
            (fun first ->
              for count = 0 to 61 do
                checki
                  (Printf.sprintf "len %d p %g first %d count %d" len p first count)
                  (ref_mark_word t slot_keys ~first ~count ~p keys)
                  (Rng.mark_word c ~first ~count ~p keys)
              done)
            [ 0; 9 ])
        [ 0.5; 1.0 /. float_of_int (max 1 len); 0.002 ])
    [ 0; 1; 400 ]

let test_rng_mark_word_bounds () =
  let c = Rng.splits 70 in
  let raises name ~first ~count =
    Alcotest.check_raises name (Invalid_argument "Rng.mark_word: slot range out of bounds")
      (fun () -> ignore (Rng.mark_word c ~first ~count ~p:0.5 [| 1 |]))
  in
  raises "62 bits" ~first:0 ~count:62;
  raises "negative count" ~first:0 ~count:(-1);
  raises "negative first" ~first:(-1) ~count:1;
  raises "past the last slot" ~first:10 ~count:61;
  raises "first overflows" ~first:(max_int / 8) ~count:1;
  checki "no bits at the end" 0 (Rng.mark_word c ~first:70 ~count:0 ~p:1.0 [| 1 |]);
  checki "last slot" 1 (Rng.mark_word c ~first:69 ~count:1 ~p:1.0 [| 1 |])

let test_rng_first_key_reference () =
  let t = Rng.create 23 in
  checki "empty" (-1) (Rng.first_key t [||]);
  List.iter
    (fun keys -> checki "first key" (ref_first_key t keys) (Rng.first_key t keys))
    [ [| 5 |]; [| 5; 5 |]; Array.init 300 (fun i -> 299 - i); [| -4; 0; max_int; min_int; 7; -4 |] ]

let test_rng_geometric_zero_p_one () =
  let r = Rng.create 7 in
  checki "p=1 gives 0" 0 (Rng.geometric r ~p:1.0)

let test_rng_geometric_mean () =
  let r = Rng.create 8 in
  let p = 0.2 in
  let xs = List.init 20_000 (fun _ -> float_of_int (Rng.geometric r ~p)) in
  (* mean of failures before success = (1-p)/p = 4 *)
  checkb "geometric mean" true (Float.abs (Stats.mean xs -. 4.0) < 0.25)

let test_rng_copy_isolated () =
  let a = Rng.create 9 in
  let b = Rng.copy a in
  ignore (Rng.next_int64 a);
  ignore (Rng.next_int64 a);
  let b1 = Rng.next_int64 b in
  let a' = Rng.create 9 in
  check Alcotest.int64 "copy preserved original state" (Rng.next_int64 a') b1

(* ------------------------------------------------------------- Sampling *)

let test_bernoulli_subset_extremes () =
  let r = Rng.create 1 in
  checki "p=0 empty" 0 (List.length (Sampling.bernoulli_subset r 100 ~p:0.0));
  checki "p=1 full" 100 (List.length (Sampling.bernoulli_subset r 100 ~p:1.0))

let test_bernoulli_subset_sorted_distinct () =
  let r = Rng.create 2 in
  let s = Sampling.bernoulli_subset r 1000 ~p:0.3 in
  checkb "sorted" true (List.sort compare s = s);
  checki "distinct" (List.length s) (List.length (List.sort_uniq compare s))

let test_bernoulli_subset_size () =
  let r = Rng.create 3 in
  let sizes =
    List.init 200 (fun _ -> float_of_int (List.length (Sampling.bernoulli_subset r 1000 ~p:0.25)))
  in
  checkb "expected size" true (Float.abs (Stats.mean sizes -. 250.0) < 10.0)

let test_without_replacement_basic () =
  let r = Rng.create 4 in
  let s = Sampling.without_replacement r 50 20 in
  checki "size" 20 (List.length s);
  checki "distinct" 20 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> checkb "in range" true (v >= 0 && v < 50)) s

let test_without_replacement_all () =
  let r = Rng.create 5 in
  let s = Sampling.without_replacement r 10 10 in
  Alcotest.(check (list int)) "whole range" (List.init 10 (fun i -> i)) s

let test_without_replacement_too_many () =
  let r = Rng.create 5 in
  Alcotest.check_raises "m > n" (Invalid_argument "Sampling.without_replacement: m > n") (fun () ->
      ignore (Sampling.without_replacement r 3 4))

let test_without_replacement_uniform () =
  (* Each element appears with probability m/n. *)
  let r = Rng.create 6 in
  let counts = Array.make 10 0 in
  for _ = 1 to 5000 do
    List.iter (fun v -> counts.(v) <- counts.(v) + 1) (Sampling.without_replacement r 10 3)
  done;
  Array.iter (fun c -> checkb "near 1500" true (abs (c - 1500) < 200)) counts

let test_shuffle_permutation () =
  let r = Rng.create 7 in
  let l = List.init 30 (fun i -> i) in
  let s = Sampling.shuffle r l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_choose_member () =
  let r = Rng.create 8 in
  for _ = 1 to 100 do
    checkb "member" true (List.mem (Sampling.choose r [ 1; 5; 9 ]) [ 1; 5; 9 ])
  done

let test_choose_empty () =
  let r = Rng.create 8 in
  Alcotest.check_raises "empty" (Invalid_argument "Sampling.choose: empty list") (fun () ->
      ignore (Sampling.choose r []))

let test_reservoir_short_input () =
  let r = Rng.create 9 in
  let got = Sampling.reservoir r 10 (List.to_seq [ 1; 2; 3 ]) in
  Alcotest.(check (list int)) "keeps everything" [ 1; 2; 3 ] got

let test_reservoir_size_and_membership () =
  let r = Rng.create 10 in
  let got = Sampling.reservoir r 5 (Seq.init 100 (fun i -> i)) in
  checki "size" 5 (List.length got);
  List.iter (fun v -> checkb "member" true (v >= 0 && v < 100)) got

let test_reservoir_uniform () =
  let r = Rng.create 11 in
  let counts = Array.make 20 0 in
  for _ = 1 to 4000 do
    List.iter (fun v -> counts.(v) <- counts.(v) + 1) (Sampling.reservoir r 4 (Seq.init 20 (fun i -> i)))
  done;
  (* each element kept w.p. 4/20 = 1/5 -> 800 expected *)
  Array.iter (fun c -> checkb "near 800" true (abs (c - 800) < 150)) counts

let test_binomial_bounds_and_mean () =
  let r = Rng.create 12 in
  let xs = List.init 3000 (fun _ -> Sampling.binomial r ~n:40 ~p:0.25) in
  List.iter (fun x -> checkb "bounds" true (x >= 0 && x <= 40)) xs;
  checkb "mean near 10" true (Float.abs (Stats.mean (List.map float_of_int xs) -. 10.0) < 0.5)

(* ----------------------------------------------------------------- Bits *)

(* The cardinality code behind [vertex] and [int_in_range]: [c] values
   cost the smallest [b] with [2^b >= c] bits, and at least 1. *)
let test_bits_for_card () =
  List.iter
    (fun (c, b) ->
      checki (Printf.sprintf "range of %d" c) b (Bits.int_in_range ~lo:0 ~hi:(c - 1));
      checki (Printf.sprintf "vertex of %d" c) b (Bits.vertex ~n:c))
    [ (1, 1); (2, 1); (3, 2); (4, 2); (5, 3); (1024, 10); (1025, 11) ]

let test_bits_vertex_edge () =
  checki "vertex of 1000" 10 (Bits.vertex ~n:1000);
  checki "edge is twice vertex" (2 * Bits.vertex ~n:1000) (Bits.edge ~n:1000)

let test_bits_int_in_range () =
  checki "range [0,0]" 1 (Bits.int_in_range ~lo:0 ~hi:0);
  checki "range [0,255]" 8 (Bits.int_in_range ~lo:0 ~hi:255);
  checki "range [-1,62]" 6 (Bits.int_in_range ~lo:(-1) ~hi:62);
  (* the widest ranges: the count hi - lo + 1 no longer fits an int *)
  checki "range [0,max_int]" 62 (Bits.int_in_range ~lo:0 ~hi:max_int);
  checki "range [0,2^61-1]" 61 (Bits.int_in_range ~lo:0 ~hi:((1 lsl 61) - 1));
  checki "range [-1,max_int-1]" 62 (Bits.int_in_range ~lo:(-1) ~hi:(max_int - 1));
  checki "range [min_int,-1]" 62 (Bits.int_in_range ~lo:min_int ~hi:(-1))

let test_bits_int_in_range_invalid () =
  Alcotest.check_raises "hi < lo" (Invalid_argument "Bits.int_in_range: hi < lo") (fun () ->
      ignore (Bits.int_in_range ~lo:3 ~hi:2));
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "[%d,%d] holds more than 2^62 values" lo hi)
        (Invalid_argument "Bits.int_in_range: more than 2^62 values")
        (fun () -> ignore (Bits.int_in_range ~lo ~hi)))
    [ (min_int, max_int); (-1, max_int); (min_int, 0) ]

let test_bits_elias_gamma () =
  checki "0" 1 (Bits.elias_gamma 0);
  checki "1" 3 (Bits.elias_gamma 1);
  checki "2" 3 (Bits.elias_gamma 2);
  checki "3" 5 (Bits.elias_gamma 3);
  checki "7" 7 (Bits.elias_gamma 7)

let test_bits_log2 () =
  checkb "log2 8 = 3" true (Float.abs (Bits.log2 8.0 -. 3.0) < 1e-9)

(* ---------------------------------------------------------------- Stats *)

let test_stats_mean_variance () =
  checkb "mean" true (Float.abs (Stats.mean [ 1.0; 2.0; 3.0 ] -. 2.0) < 1e-9);
  checkb "variance" true (Float.abs (Stats.variance [ 1.0; 2.0; 3.0 ] -. 1.0) < 1e-9);
  checkb "stddev" true (Float.abs (Stats.stddev [ 1.0; 2.0; 3.0 ] -. 1.0) < 1e-9)

let test_stats_empty_mean_nan () = checkb "nan" true (Float.is_nan (Stats.mean []))

let test_stats_quantiles () =
  let xs = [ 4.0; 1.0; 3.0; 2.0 ] in
  checkb "median" true (Float.abs (Stats.median xs -. 2.5) < 1e-9);
  checkb "q0" true (Float.abs (Stats.quantile 0.0 xs -. 1.0) < 1e-9);
  checkb "q1" true (Float.abs (Stats.quantile 1.0 xs -. 4.0) < 1e-9)

let test_stats_quantile_edges () =
  checkb "empty list is nan" true (Float.is_nan (Stats.quantile 0.5 []));
  List.iter
    (fun q ->
      checkb (Printf.sprintf "single sample at q=%.2f" q) true (Stats.quantile q [ 9.0 ] = 9.0))
    [ 0.0; 0.25; 1.0 ];
  (* input order must not matter: quantile sorts internally *)
  let sorted = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] and shuffled = [ 3.0; 5.0; 1.0; 4.0; 2.0 ] in
  List.iter
    (fun q ->
      checkb
        (Printf.sprintf "order-independent at q=%.2f" q)
        true
        (Stats.quantile q sorted = Stats.quantile q shuffled))
    [ 0.0; 0.3; 0.5; 0.9; 1.0 ];
  (* out-of-range q clamps to the extremes *)
  checkb "q < 0 clamps to min" true (Stats.quantile (-1.0) sorted = 1.0);
  checkb "q > 1 clamps to max" true (Stats.quantile 2.0 sorted = 5.0)

let test_stats_linear_fit_exact () =
  let pts = List.map (fun x -> (x, (3.0 *. x) +. 1.0)) [ 0.0; 1.0; 2.0; 5.0 ] in
  let f = Stats.linear_fit pts in
  checkb "slope" true (Float.abs (f.Stats.slope -. 3.0) < 1e-9);
  checkb "intercept" true (Float.abs (f.Stats.intercept -. 1.0) < 1e-9);
  checkb "r2" true (Float.abs (f.Stats.r2 -. 1.0) < 1e-9)

let test_stats_loglog_exponent () =
  (* y = 2 x^1.5 *)
  let pts = List.map (fun x -> (x, 2.0 *. Float.pow x 1.5)) [ 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let f = Stats.loglog_exponent pts in
  checkb "exponent 1.5" true (Float.abs (f.Stats.slope -. 1.5) < 1e-9)

let test_stats_loglog_skips_nonpositive () =
  let pts = [ (0.0, 1.0); (1.0, 2.0); (2.0, 4.0); (4.0, 8.0) ] in
  let f = Stats.loglog_exponent pts in
  checkb "finite" true (Float.is_finite f.Stats.slope)

let test_stats_wilson () =
  let lo, hi = Stats.wilson_interval ~successes:50 ~trials:100 () in
  checkb "contains p-hat" true (lo < 0.5 && hi > 0.5);
  checkb "bounded" true (lo >= 0.0 && hi <= 1.0);
  let lo0, hi0 = Stats.wilson_interval ~successes:0 ~trials:0 () in
  checkb "degenerate" true (lo0 = 0.0 && hi0 = 1.0)

let test_stats_chi2_uniform () =
  checkb "uniform counts -> 0" true (Stats.chi2_uniform [| 10; 10; 10 |] < 1e-9);
  checkb "skewed counts -> large" true (Stats.chi2_uniform [| 30; 0; 0 |] > 10.0)

(* ---------------------------------------------------------------- Table *)

let contains_substring s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = if i + lsub > ls then false else String.sub s i lsub = sub || go (i + 1) in
  go 0

let test_table_render () =
  let t = Table.make ~title:"t" ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
  let s = Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 4 = "## t");
  checkb "has header cell" true (contains_substring s "bb");
  checkb "has data cell" true (contains_substring s "33");
  checki "five lines" 5 (List.length (String.split_on_char '\n' (String.trim s)))

let test_table_fcell () =
  Alcotest.(check string) "fcell" "1.50" (Table.fcell 1.5);
  Alcotest.(check string) "nan" "-" (Table.fcell Float.nan);
  Alcotest.(check string) "prec" "1.234" (Table.fcell ~prec:3 1.2341)

(* ------------------------------------------------------------- Jsonout *)

let test_jsonout_roundtrip () =
  let doc =
    Jsonout.Obj
      [
        ("schema", Str "tfree-bench/v1");
        ("n", Num 42.0);
        ("pi", Num 3.5);
        ("flag", Bool true);
        ("nothing", Null);
        ("rows", List [ Num 1.0; Num 2.0; Obj [] ]);
        ("empty", List []);
      ]
  in
  match Jsonout.parse (Jsonout.to_string doc) with
  | Ok v -> checkb "roundtrip" true (v = doc)
  | Error msg -> Alcotest.fail msg

let test_jsonout_escaping () =
  let doc = Jsonout.Obj [ ("k\"ey", Str "line\nbreak\tand \\ quote \"") ] in
  match Jsonout.parse (Jsonout.to_string doc) with
  | Ok v -> checkb "escaped roundtrip" true (v = doc)
  | Error msg -> Alcotest.fail msg

let test_jsonout_integral_floats () =
  checkb "42 bare" true (contains_substring (Jsonout.to_string (Jsonout.Num 42.0)) "42");
  checkb "no decimal point" false (contains_substring (Jsonout.to_string (Jsonout.Num 42.0)) ".");
  (* NaN has no JSON encoding; it must degrade to null, not emit "nan". *)
  checkb "nan -> null" true (contains_substring (Jsonout.to_string (Jsonout.Num Float.nan)) "null")

let test_jsonout_rejects_garbage () =
  let bad s = match Jsonout.parse s with Ok _ -> false | Error _ -> true in
  checkb "unterminated" true (bad "{\"a\": 1");
  checkb "trailing" true (bad "{} {}");
  checkb "bare word" true (bad "bogus");
  checkb "empty" true (bad "")

let test_jsonout_member () =
  let doc = Jsonout.Obj [ ("a", Num 1.0); ("b", Bool false) ] in
  checkb "present" true (Jsonout.member "a" doc = Some (Jsonout.Num 1.0));
  checkb "absent" true (Jsonout.member "z" doc = None);
  checkb "non-object" true (Jsonout.member "a" (Jsonout.Num 1.0) = None);
  checkb "to_float" true (Jsonout.to_float (Jsonout.Num 1.5) = Some 1.5);
  checkb "to_list" true (Jsonout.to_list (Jsonout.List []) = Some [])

(* ----------------------------------------------------------------- Lru *)

let test_lru_basics () =
  let c = Lru.create 2 in
  checkb "fresh empty" true (Lru.length c = 0 && Lru.lookups c = 0);
  checkb "miss" true (Lru.find_opt c "a" = None);
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  checkb "hit a" true (Lru.find_opt c "a" = Some 1);
  checkb "hit b" true (Lru.find_opt c "b" = Some 2);
  checki "hits" 2 (Lru.hits c);
  checki "misses" 1 (Lru.misses c);
  checki "lookups" 3 (Lru.lookups c)

let test_lru_evicts_least_recently_used () =
  let c = Lru.create 2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  ignore (Lru.find_opt c "a");  (* refresh a: b is now oldest *)
  Lru.add c "c" 3;
  checkb "b evicted" true (not (Lru.mem c "b"));
  checkb "a survives" true (Lru.mem c "a");
  checkb "c present" true (Lru.mem c "c");
  checki "at capacity" 2 (Lru.length c)

let test_lru_replace_same_key () =
  let c = Lru.create 2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "a" 10;  (* replace, not insert: nothing evicted *)
  checkb "replaced" true (Lru.find_opt c "a" = Some 10);
  checkb "b kept" true (Lru.mem c "b");
  checki "length" 2 (Lru.length c)

let test_lru_find_or_add () =
  let c = Lru.create 4 in
  let builds = ref 0 in
  let build () = incr builds; !builds in
  checki "built once" 1 (Lru.find_or_add c 7 build);
  checki "cached" 1 (Lru.find_or_add c 7 build);
  checki "builds" 1 !builds;
  checki "hits" 1 (Lru.hits c);
  checki "misses" 1 (Lru.misses c)

let test_lru_rejects_bad_capacity () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () -> ignore (Lru.create 0))

let test_lru_clear () =
  let c = Lru.create 2 in
  Lru.add c 1 "x";
  ignore (Lru.find_opt c 1);
  Lru.clear c;
  checkb "empty" true (Lru.length c = 0 && Lru.hits c = 0 && Lru.misses c = 0)

(* -------------------------------------------------------------- QCheck *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"rng float is the top 53 bits over 2^53" ~count:200 (pair int int)
      (fun (seed, key) ->
        let r = Rng.split (Rng.create seed) key in
        let c = Rng.copy r in
        List.for_all
          (fun _ ->
            let mantissa = Int64.to_float (Int64.shift_right_logical (Rng.next_int64 c) 11) in
            Int64.equal
              (Int64.bits_of_float (Rng.float r))
              (Int64.bits_of_float (mantissa /. 9007199254740992.0)))
          (List.init 64 Fun.id));
    Test.make ~name:"bernoulli_subset within range" ~count:200
      (pair small_nat (float_range 0.0 1.0))
      (fun (n, p) ->
        let r = Rng.create (n + 1) in
        List.for_all (fun i -> i >= 0 && i < n) (Sampling.bernoulli_subset r n ~p));
    Test.make ~name:"without_replacement size/distinct" ~count:200 (pair (int_range 1 200) (int_range 0 200))
      (fun (n, m) ->
        let m = min m n in
        let r = Rng.create (n + (7 * m)) in
        let s = Sampling.without_replacement r n m in
        List.length s = m && List.length (List.sort_uniq compare s) = m);
    Test.make ~name:"bits monotone in cardinality" ~count:200 (int_range 1 1_000_000) (fun c ->
        Bits.int_in_range ~lo:0 ~hi:(c - 1) <= Bits.int_in_range ~lo:0 ~hi:c);
    Test.make ~name:"for_card inverts power of two" ~count:30 (int_range 1 30) (fun b ->
        Bits.int_in_range ~lo:0 ~hi:((1 lsl b) - 1) = b);
    Test.make ~name:"elias gamma grows logarithmically" ~count:200 (int_range 0 1_000_000) (fun v ->
        Bits.elias_gamma v <= (2 * 20) + 1);
    Test.make ~name:"quantile within min..max" ~count:200
      (pair (list_of_size (Gen.int_range 1 30) (float_range (-100.) 100.)) (float_range 0.0 1.0))
      (fun (xs, q) ->
        let v = Stats.quantile q xs in
        let lo = List.fold_left Float.min Float.infinity xs in
        let hi = List.fold_left Float.max Float.neg_infinity xs in
        v >= lo -. 1e-9 && v <= hi +. 1e-9);
    Test.make ~name:"shuffle preserves multiset" ~count:100 (list small_int) (fun l ->
        let r = Rng.create (Hashtbl.hash l) in
        List.sort compare (Sampling.shuffle r l) = List.sort compare l);
    Test.make ~name:"lru never exceeds capacity; counters reconcile" ~count:200
      (pair (int_range 1 8) (list (pair (int_range 0 20) bool)))
      (fun (cap, ops) ->
        let c = Lru.create cap in
        let lookups = ref 0 in
        List.iter
          (fun (key, write) ->
            if write then Lru.add c key key
            else begin
              incr lookups;
              match Lru.find_opt c key with
              | Some v -> assert (v = key)
              | None -> ()
            end)
          ops;
        Lru.length c <= cap && Lru.lookups c = !lookups && Lru.hits c + Lru.misses c = !lookups);
    Test.make ~name:"rng integer threshold is hash_float < p" ~count:500
      (quad int int int (oneof [ float; float_range (-0.1) 1.1; float_range 0.0 0x1p-40 ]))
      (fun (seed, key, x, p) ->
        let t = Rng.create seed in
        marked_one t key x ~p = (Rng.hash_float (Rng.split t key) x < p));
    Test.make ~name:"rng mark_word is hash_bool per slot" ~count:200
      (quad int (int_range 0 61) (array_of_size Gen.(int_range 0 40) int) (float_range 0.0 0.2))
      (fun (seed, count, keys, p) ->
        let t = Rng.create seed in
        let slot_keys = Array.init 64 (fun i -> seed + (i * 7919)) in
        Rng.mark_word (splits_of t slot_keys) ~first:(64 - count) ~count ~p keys
        = ref_mark_word t slot_keys ~first:(64 - count) ~count ~p keys);
    Test.make ~name:"rng first_key is the least (hash, key)" ~count:300
      (pair int (array_of_size Gen.(int_range 0 60) small_signed_int))
      (fun (seed, keys) ->
        let t = Rng.create seed in
        Rng.first_key t keys = ref_first_key t keys);
  ]

let () =
  Alcotest.run "tfree_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split purity" `Quick test_rng_split_independent_of_parent_advance;
          Alcotest.test_case "split key sensitivity" `Quick test_rng_split_key_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "bool probability" `Quick test_rng_bool_probability;
          Alcotest.test_case "hash_float deterministic" `Quick test_rng_hash_float_deterministic;
          Alcotest.test_case "hash_float spread" `Quick test_rng_hash_float_spread;
          Alcotest.test_case "hash_float2 order" `Quick test_rng_hash_float2_symmetry_breaking;
          Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_zero_p_one;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "copy isolation" `Quick test_rng_copy_isolated;
          Alcotest.test_case "threshold corners" `Quick test_rng_threshold_corners;
          Alcotest.test_case "mark_word reference" `Quick test_rng_mark_word_reference;
          Alcotest.test_case "mark_word bounds" `Quick test_rng_mark_word_bounds;
          Alcotest.test_case "first_key reference" `Quick test_rng_first_key_reference;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_subset_extremes;
          Alcotest.test_case "bernoulli sorted+distinct" `Quick test_bernoulli_subset_sorted_distinct;
          Alcotest.test_case "bernoulli expected size" `Quick test_bernoulli_subset_size;
          Alcotest.test_case "without_replacement basic" `Quick test_without_replacement_basic;
          Alcotest.test_case "without_replacement all" `Quick test_without_replacement_all;
          Alcotest.test_case "without_replacement m>n" `Quick test_without_replacement_too_many;
          Alcotest.test_case "without_replacement uniform" `Quick test_without_replacement_uniform;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "choose member" `Quick test_choose_member;
          Alcotest.test_case "choose empty" `Quick test_choose_empty;
          Alcotest.test_case "reservoir short" `Quick test_reservoir_short_input;
          Alcotest.test_case "reservoir size" `Quick test_reservoir_size_and_membership;
          Alcotest.test_case "reservoir uniform" `Quick test_reservoir_uniform;
          Alcotest.test_case "binomial" `Quick test_binomial_bounds_and_mean;
        ] );
      ( "bits",
        [
          Alcotest.test_case "for_card" `Quick test_bits_for_card;
          Alcotest.test_case "vertex/edge" `Quick test_bits_vertex_edge;
          Alcotest.test_case "int_in_range" `Quick test_bits_int_in_range;
          Alcotest.test_case "int_in_range invalid" `Quick test_bits_int_in_range_invalid;
          Alcotest.test_case "elias gamma" `Quick test_bits_elias_gamma;
          Alcotest.test_case "log2" `Quick test_bits_log2;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "empty mean" `Quick test_stats_empty_mean_nan;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "quantile edges" `Quick test_stats_quantile_edges;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit_exact;
          Alcotest.test_case "loglog exponent" `Quick test_stats_loglog_exponent;
          Alcotest.test_case "loglog nonpositive" `Quick test_stats_loglog_skips_nonpositive;
          Alcotest.test_case "wilson" `Quick test_stats_wilson;
          Alcotest.test_case "chi2" `Quick test_stats_chi2_uniform;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "fcell" `Quick test_table_fcell;
        ] );
      ( "jsonout",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonout_roundtrip;
          Alcotest.test_case "escaping" `Quick test_jsonout_escaping;
          Alcotest.test_case "integral floats" `Quick test_jsonout_integral_floats;
          Alcotest.test_case "rejects garbage" `Quick test_jsonout_rejects_garbage;
          Alcotest.test_case "member/accessors" `Quick test_jsonout_member;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "evicts LRU" `Quick test_lru_evicts_least_recently_used;
          Alcotest.test_case "replace same key" `Quick test_lru_replace_same_key;
          Alcotest.test_case "find_or_add" `Quick test_lru_find_or_add;
          Alcotest.test_case "bad capacity" `Quick test_lru_rejects_bad_capacity;
          Alcotest.test_case "clear" `Quick test_lru_clear;
        ] );
      ("qcheck", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
