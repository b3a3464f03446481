(** Constant-factor approximation of the number of distinct elements held
    jointly by the players — Theorem 3.1 (with duplication) and Lemma 3.2
    (without).

    Instantiated with a vertex's incident edges this approximates deg(v); with
    the whole edge set it approximates m (the paper notes the procedure
    "solves the more general problem of approximating the number of distinct
    elements in a set", which is exactly how we implement it).

    Structure of the duplication-tolerant procedure (Theorem 3.1):
    - {b Phase 1}: each player sends the index of the most significant bit of
      its local count; the sum of the rounded counts d′ satisfies
      D ≤ d′ ≤ 2k·D, a k-factor window.
    - {b Phase 2}: geometric guesses g = d′, d′/√α, … — for each guess the
      players run shared-randomness Bernoulli experiments (mark each universe
      element with probability 1/g; report whether they hold a marked
      element) and stop at the first guess whose empirical success rate
      clears a threshold.  A guess's experiments are non-adaptive (only
      their success count is read), so one round carries them all: each
      player answers one bit per experiment, packed into words.

    The paper's threshold constant ("F(r)/c") contains typos; we use the
    statistically equivalent choice documented in DESIGN.md §2: the midpoint
    between the success probabilities at the two α-approximation boundaries,
    1−e^{−1/α} (guess too high) and 1−e^{−√α} (guess low enough), with a
    Hoeffding sample count.  The two-phase structure and the O(k log log +
    k·polylog) cost are the paper's. *)

open Tfree_util
open Tfree_graph
open Tfree_comm

let msb_index c =
  if c <= 0 then -1
  else begin
    let rec go acc x = if x <= 1 then acc else go (acc + 1) (x lsr 1) in
    go 0 c
  end

(* Success-rate boundaries for approximation factor alpha (see header). *)
let thresholds ~alpha =
  let low = 1.0 -. exp (-1.0 /. alpha) in
  let high = 1.0 -. exp (-.sqrt alpha) in
  let theta = (low +. high) /. 2.0 in
  let margin = (high -. low) /. 2.0 in
  (theta, margin)

(* A player's answer at one guess carries one bit per experiment, LSB-first
   in words of at most [word_bits] bits ({!Rng.mark_word}'s limit).  Each
   word is a range code over [0, 2^w - 1], which costs exactly its w bits,
   so a player's reply costs m_exp bits, as many as m_exp one-bit answers
   would. *)
let word_bits = 61

(* Player reply: bit e is whether [els] holds an element marked in
   experiment e (slot e of [marks]). *)
let mark_words marks ~p ~m_exp els =
  let rec words first =
    if first >= m_exp then []
    else begin
      let w = min word_bits (m_exp - first) in
      let word = Rng.mark_word marks ~first ~count:w ~p els in
      Msg.int_in ~lo:0 ~hi:((1 lsl w) - 1) word :: words (first + w)
    end
  in
  Msg.tuple (words 0)

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* The experiments some player succeeded in: the set bits of the OR, word
   by word, of the players' replies. *)
let successes ~m_exp replies =
  let ors = Array.make ((m_exp + word_bits - 1) / word_bits) 0 in
  Array.iter
    (fun reply ->
      List.iteri (fun i word -> ors.(i) <- ors.(i) lor Msg.get_int word) (Msg.get_tuple reply))
    replies;
  Array.fold_left (fun acc word -> acc + popcount word) 0 ors

(** [approx_distinct rt ~key ~alpha ~tau ~boost ~elements] returns an
    α-approximation (with probability >= 1-τ) of |∪_j elements(E_j)|, where
    [elements] gives a player's universe elements as integers agreed upon by
    all players (e.g. neighbour ids of a fixed vertex); the arrays are read
    in place, never written.  Returns 0 when no player holds any element. *)
let approx_distinct rt ~key ~alpha ~tau ~boost ~elements =
  (* At alpha = 1 the Hoeffding margin is 0 and sizes an infinite run; below
     1 the guesses grow instead of shrinking and the scan never ends. *)
  if alpha <= 1.0 then invalid_arg "approx_distinct: alpha must exceed 1";
  let local : int array array = Array.init (Runtime.k rt) (fun j -> elements (Runtime.input rt j)) in
  (* Phase 1: MSB indices of the local counts. *)
  let replies =
    Runtime.ask_all rt ~req:Msg.empty (fun j _ ->
        Msg.int_in ~lo:(-1) ~hi:62 (msb_index (Array.length local.(j))))
  in
  let d' =
    Array.fold_left
      (fun acc reply ->
        let i = Msg.get_int reply in
        if i < 0 then acc else acc +. Float.pow 2.0 (float_of_int (i + 1)))
      0.0 replies
  in
  if d' = 0.0 then 0
  else begin
    (* Phase 2: geometric guesses down to d'/(2k·alpha). *)
    let k = float_of_int (Runtime.k rt) in
    let floor_guess = Float.max 1.0 (d' /. (2.0 *. k *. alpha)) in
    let theta, margin = thresholds ~alpha in
    let n_guesses =
      1 + int_of_float (Float.ceil (Float.log (d' /. floor_guess) /. Float.log (sqrt alpha)))
    in
    let m_exp =
      let hoeffding = Float.log (2.0 *. float_of_int n_guesses /. tau) /. (2.0 *. margin *. margin) in
      max 8 (int_of_float (Float.ceil (boost *. hoeffding)))
    in
    (* Experiment e's mark stream, derived once per guess into slot e and
       read by every player. *)
    let marks = Rng.splits m_exp in
    let run_guess idx g =
      let p = Float.min 1.0 (1.0 /. g) in
      for e = 0 to m_exp - 1 do
        Runtime.shared_split rt marks e ~key:(key + (7919 * idx) + (104729 * (e + 1)))
      done;
      (* The experiments are non-adaptive, so one round runs them all:
         each player answers with its mark bits for every experiment. *)
      let replies =
        Runtime.ask_all rt ~req:Msg.empty (fun j _ -> mark_words marks ~p ~m_exp local.(j))
      in
      float_of_int (successes ~m_exp replies) /. float_of_int m_exp >= theta
    in
    let rec scan idx g =
      if g <= floor_guess then g
      else if run_guess idx g then g
      else scan (idx + 1) (g /. sqrt alpha)
    in
    let answer = scan 0 d' in
    (* The coordinator announces the outcome's exponent so all players agree. *)
    Runtime.tell_all rt (Msg.int_in ~lo:0 ~hi:127 (max 0 (msb_index (int_of_float answer))));
    max 1 (int_of_float (Float.round answer))
  end

(** Lemma 3.2: without duplication each player just sends the top bits of its
    exact local count; the truncated sum under-counts by at most the factor
    α.  O(k·log log) bits, no experiments. *)
let approx_distinct_nodup rt ~key:_ ~alpha ~elements =
  if alpha <= 1.0 then invalid_arg "approx_distinct_nodup: alpha must exceed 1";
  (* Keep b top bits so truncation loses < 2^{1-b} <= alpha - 1 relatively. *)
  let b =
    let rec go b = if Float.pow 2.0 (float_of_int (1 - b)) <= alpha -. 1.0 then b else go (b + 1) in
    go 1
  in
  let replies =
    Runtime.ask_all rt ~req:Msg.empty (fun _ input ->
        let c = List.length (elements input) in
        let i = msb_index c in
        if i < 0 then Msg.tuple [ Msg.int_in ~lo:(-1) ~hi:62 (-1); Msg.int_in ~lo:0 ~hi:((1 lsl b) - 1) 0 ]
        else begin
          let shift = max 0 (i - b + 1) in
          Msg.tuple
            [ Msg.int_in ~lo:(-1) ~hi:62 i; Msg.int_in ~lo:0 ~hi:((1 lsl b) - 1) ((c lsr shift) land ((1 lsl b) - 1)) ]
        end)
  in
  Array.fold_left
    (fun acc reply ->
      match Msg.get_tuple reply with
      | [ idx; top ] ->
          let i = Msg.get_int idx in
          if i < 0 then acc
          else begin
            (* Truncation loses < 2^shift <= c·2^{1-b}, an under-count only. *)
            let shift = max 0 (i - b + 1) in
            acc + (Msg.get_int top lsl shift)
          end
      | _ -> invalid_arg "approx_distinct_nodup: malformed reply")
    0 replies

(** α-approximate deg(v) under duplication (Theorem 3.1 specialized). *)
let approx_degree rt ~key ~alpha ~tau ~boost v =
  approx_distinct rt ~key ~alpha ~tau ~boost ~elements:(fun input -> Graph.neighbors input v)

(** α-approximate total edge count m (for the degree-oblivious driver,
    Corollary 3.22). *)
let approx_edge_count rt ~key ~alpha ~tau ~boost =
  let n = Runtime.n rt in
  approx_distinct rt ~key ~alpha ~tau ~boost ~elements:(fun input ->
      let codes = Array.make (Graph.m input) 0 in
      let next = ref 0 in
      Graph.iter_edges input (fun u v ->
          codes.(!next) <- (u * n) + v;
          incr next);
      codes)
