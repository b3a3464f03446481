(** Sampling primitives shared by the protocols and the generators. *)

(** [iter_bernoulli rng n ~p f] calls [f] on the indices in [0, n), in
    ascending order, each selected independently with probability [p].
    Geometric skips keep the cost proportional to the output, not to [n]. *)
let iter_bernoulli rng n ~p f =
  if p <= 0.0 then ()
  else if p >= 1.0 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    (* [Rng.geometric]'s logarithm, computed once: the same float, so the
       same skips.  Boxed once here, so that a build that does not inline
       [geometric_log] across modules does not box it on every call. *)
    let log_q = Sys.opaque_identity (Float.log1p (-.p)) in
    let i = ref (Rng.geometric_log rng ~log_q) in
    while !i < n do
      f !i;
      i := !i + 1 + Rng.geometric_log rng ~log_q
    done
  end

let bernoulli_subset rng n ~p =
  let acc = ref [] in
  iter_bernoulli rng n ~p (fun i -> acc := i :: !acc);
  List.rev !acc

(** [without_replacement rng n m] samples [m] distinct indices from [0, n),
    returned sorted.  Uses Floyd's algorithm: O(m) expected time and space. *)
let without_replacement rng n m =
  if m > n then invalid_arg "Sampling.without_replacement: m > n";
  let seen = Hashtbl.create (2 * m) in
  let rec pick j acc =
    if j >= n then acc
    else begin
      let t = Rng.int rng (j + 1) in
      let chosen = if Hashtbl.mem seen t then j else t in
      Hashtbl.replace seen chosen ();
      pick (j + 1) (chosen :: acc)
    end
  in
  let picks = pick (n - m) [] in
  List.sort compare picks

let shuffle_in_place rng a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle rng l =
  let a = Array.of_list l in
  shuffle_in_place rng a;
  Array.to_list a

(** Uniform element of a non-empty list. *)
let choose rng l =
  match l with
  | [] -> invalid_arg "Sampling.choose: empty list"
  | _ -> List.nth l (Rng.int rng (List.length l))

(** Reservoir sampling of [m] items from a sequence of unknown length. *)
let reservoir rng m seq =
  let buf = Array.make m None in
  let count = ref 0 in
  Seq.iter
    (fun x ->
      let i = !count in
      incr count;
      if i < m then buf.(i) <- Some x
      else begin
        let j = Rng.int rng (i + 1) in
        if j < m then buf.(j) <- Some x
      end)
    seq;
  let taken = min m !count in
  List.init taken (fun i ->
      match buf.(i) with Some x -> x | None -> assert false)

(** [binomial rng ~n ~p] — number of successes in [n] iid trials.  Exact
    summation for small [n]; normal approximation would bias the tail
    statistics the experiments rely on, so we pay the linear cost. *)
let binomial rng ~n ~p =
  let rec loop i acc = if i >= n then acc else loop (i + 1) (acc + if Rng.bool rng ~p then 1 else 0) in
  loop 0 0
