open Tfree_graph
module E = Dataset_error

let tokens line =
  String.map (fun c -> if c = '\t' || c = '\r' then ' ' else c) line
  |> String.split_on_char ' '
  |> List.filter (fun s -> s <> "")

let int_token ~line s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> E.bad_line ~line "vertex %S is not an integer" s

(* The vertex count is only known after the last line (absent [?n]), so
   endpoints buffer in a growable flat int array; the graph build then
   streams pairs back out of it. *)
let parse_lines ?n lines =
  let buf = ref (Array.make 4096 0) in
  let len = ref 0 in
  let push x =
    if !len = Array.length !buf then begin
      let grown = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 grown 0 !len;
      buf := grown
    end;
    !buf.(!len) <- x;
    incr len
  in
  let maxv = ref (-1) in
  let lineno = ref 0 in
  Seq.iter
    (fun l ->
      incr lineno;
      match tokens l with
      | [] -> ()
      | t :: _ when t.[0] = '#' -> ()
      | [ su; sv ] ->
          let u = int_token ~line:!lineno su in
          let v = int_token ~line:!lineno sv in
          if u < 0 then E.bad_line ~line:!lineno "negative vertex %d" u;
          if v < 0 then E.bad_line ~line:!lineno "negative vertex %d" v;
          (match n with
          | Some n ->
              if u >= n then E.out_of_range ~line:!lineno ~value:u ~n;
              if v >= n then E.out_of_range ~line:!lineno ~value:v ~n
          | None -> ());
          if u > !maxv then maxv := u;
          if v > !maxv then maxv := v;
          push u;
          push v
      | _ -> E.bad_line ~line:!lineno "expected 'u v'")
    lines;
  let n = match n with Some n -> n | None -> !maxv + 1 in
  let flat = !buf and total = !len in
  let rec step i () =
    if i >= total then Seq.Nil else Seq.Cons ((flat.(i), flat.(i + 1)), step (i + 2))
  in
  Graph.of_edge_seq ~n (step 0)

let parse_string ?n s = parse_lines ?n (List.to_seq (String.split_on_char '\n' s))

let load ?n path =
  let ic = try open_in_bin path with Sys_error msg -> E.io "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec lines () =
        match In_channel.input_line ic with Some l -> Seq.Cons (l, lines) | None -> Seq.Nil
      in
      try parse_lines ?n lines with Sys_error msg -> E.io "%s" msg)

let to_string g =
  let b = Buffer.create (64 + (8 * Graph.m g)) in
  Buffer.add_string b (Printf.sprintf "# tfree dataset: n=%d m=%d\n" (Graph.n g) (Graph.m g));
  Graph.iter_edges g (fun u v -> Buffer.add_string b (Printf.sprintf "%d %d\n" u v));
  Buffer.contents b
