(* Tests for the Params formulas: profile semantics, monotonicity, and the
   documented equalities at the default parameters. *)


let checkb = Alcotest.(check bool)

let paper = Tfree.Params.paper
let practical = Tfree.Params.practical

let test_defaults () =
  checkb "paper eps" true (paper.Tfree.Params.eps = 0.1);
  checkb "paper delta" true (Float.abs (paper.Tfree.Params.delta -. (1.0 /. 3.0)) < 1e-9);
  checkb "profiles differ" true (paper.Tfree.Params.profile <> practical.Tfree.Params.profile)

let test_with_setters () =
  let p = Tfree.Params.with_eps practical 0.25 in
  checkb "eps set" true (p.Tfree.Params.eps = 0.25);
  checkb "delta preserved" true (p.Tfree.Params.delta = practical.Tfree.Params.delta);
  let q = Tfree.Params.with_delta practical 0.1 in
  checkb "delta set" true (q.Tfree.Params.delta = 0.1);
  let r = Tfree.Params.with_boost practical 2.0 in
  checkb "boost set" true (r.Tfree.Params.boost = 2.0)

let test_paper_budgets_dominate () =
  (* the paper profile is never less conservative than practical *)
  List.iter
    (fun (k, n) ->
      checkb "bucket samples" true
        (Tfree.Params.bucket_samples paper ~k ~n >= Tfree.Params.bucket_samples practical ~k ~n);
      checkb "candidate cap" true
        (Tfree.Params.candidate_cap paper ~n >= Tfree.Params.candidate_cap practical ~n))
    [ (2, 100); (4, 1000); (16, 10000) ]

let test_bucket_samples_monotone () =
  checkb "grows with k" true
    (Tfree.Params.bucket_samples practical ~k:8 ~n:1000
    >= Tfree.Params.bucket_samples practical ~k:4 ~n:1000);
  checkb "grows with n" true
    (Tfree.Params.bucket_samples practical ~k:4 ~n:10000
    >= Tfree.Params.bucket_samples practical ~k:4 ~n:100)

let test_edge_sample_prob_shape () =
  (* p ∝ 1/sqrt(d): halves when d quadruples; capped at 1 *)
  let p1 = Tfree.Params.edge_sample_prob practical ~n:10000 ~d:400.0 in
  let p2 = Tfree.Params.edge_sample_prob practical ~n:10000 ~d:1600.0 in
  checkb "in (0,1]" true (p1 > 0.0 && p1 <= 1.0);
  checkb "sqrt scaling" true (Float.abs ((p1 /. p2) -. 2.0) < 0.01);
  checkb "capped at 1 for tiny d" true (Tfree.Params.edge_sample_prob practical ~n:100 ~d:1.0 = 1.0)

let test_edge_sample_prob_eps_dependence () =
  let tight = Tfree.Params.with_eps practical 0.01 in
  checkb "smaller eps, larger p" true
    (Tfree.Params.edge_sample_prob tight ~n:10000 ~d:1000.0
    > Tfree.Params.edge_sample_prob practical ~n:10000 ~d:1000.0)

let test_sim_c_matches_paper_at_default () =
  (* c = 8/(9δ) at ǫ = 0.1 *)
  let expected = 8.0 /. (9.0 *. practical.Tfree.Params.delta) in
  checkb "default value" true (Float.abs (Tfree.Params.sim_c practical -. expected) < 1e-9);
  checkb "grows as eps shrinks" true
    (Tfree.Params.sim_c (Tfree.Params.with_eps practical 0.05) > Tfree.Params.sim_c practical)

let test_log_helpers () =
  checkb "log_n floor" true (Tfree.Params.log_n ~n:1 = 1.0);
  checkb "log_n 1024" true (Float.abs (Tfree.Params.log_n ~n:1024 -. 10.0) < 1e-9);
  checkb "ln6d positive" true (Tfree.Params.ln6d practical > 0.0)

let test_sim_caps_monotone_in_n () =
  checkb "sim-low cap grows" true
    (Tfree.Sim_low.edge_cap practical ~n:10000 ~d:5.0 > Tfree.Sim_low.edge_cap practical ~n:100 ~d:5.0);
  let s1 = Tfree.Sim_high.sample_size practical ~n:1000 ~d:40.0 in
  let s2 = Tfree.Sim_high.sample_size practical ~n:4000 ~d:80.0 in
  checkb "sim-high sample grows" true (s2 > s1)

let test_oblivious_guess_range_covers_truth () =
  (* a relevant player's window contains the true degree *)
  let k = 8 and n = 4096 in
  List.iter
    (fun (d_true, d_bar) ->
      let guesses = Tfree.Sim_oblivious.guess_range practical ~k ~n d_bar in
      let covered =
        List.exists
          (fun t ->
            let g = Float.pow 2.0 (float_of_int t) in
            d_true >= g /. 2.0 && d_true <= g *. 2.0)
          guesses
      in
      checkb (Printf.sprintf "window covers d=%g from d_bar=%g" d_true d_bar) true covered)
    [ (8.0, 8.0); (16.0, 4.0); (64.0, 2.0) ]

let test_oblivious_guess_range_total () =
  (* eps past 1 puts the window's top below its bottom: no guesses, no raise *)
  checkb "empty window" true
    (Tfree.Sim_oblivious.guess_range (Tfree.Params.with_eps practical 100.0) ~k:4 ~n:300 24.0 = []);
  List.iter
    (fun eps ->
      List.iter
        (fun d_bar ->
          match Tfree.Sim_oblivious.guess_range (Tfree.Params.with_eps practical eps) ~k:4 ~n:300 d_bar with
          | _ -> ()
          | exception e -> Alcotest.failf "eps=%g d_bar=%g raised %s" eps d_bar (Printexc.to_string e))
        [ 0.0; 0.5; 24.0; 299.0 ])
    [ 100.0; 1.5; 0.0; -0.1; Float.nan; Float.infinity; Float.neg_infinity ]

let () =
  Alcotest.run "tfree_params"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_defaults;
          Alcotest.test_case "setters" `Quick test_with_setters;
          Alcotest.test_case "paper dominates" `Quick test_paper_budgets_dominate;
          Alcotest.test_case "bucket samples monotone" `Quick test_bucket_samples_monotone;
          Alcotest.test_case "edge prob shape" `Quick test_edge_sample_prob_shape;
          Alcotest.test_case "edge prob eps" `Quick test_edge_sample_prob_eps_dependence;
          Alcotest.test_case "sim_c default" `Quick test_sim_c_matches_paper_at_default;
          Alcotest.test_case "log helpers" `Quick test_log_helpers;
          Alcotest.test_case "caps monotone" `Quick test_sim_caps_monotone_in_n;
          Alcotest.test_case "oblivious window" `Quick test_oblivious_guess_range_covers_truth;
          Alcotest.test_case "oblivious window is total" `Quick test_oblivious_guess_range_total;
        ] );
    ]
