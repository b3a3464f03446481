(** Deterministic fault schedules for the wire stack.

    A schedule is a finite list of [(op, kind)] events: when the [op]-th
    write operation of a faulty component comes up (0-based — the frame
    index for a {!Transport.faulty} wrapper, the reply index for a
    [tfree-serve --fault-spec] daemon), the named fault fires on it.  Two
    constructions, both reproducible:

    - {!parse} reads an explicit spec such as ["2:drop,5:corrupt@13,9:close"];
    - {!random} derives a schedule from a seed and a per-op fault rate, so
      chaos sweeps are a function of [(seed, rate, ops)] alone.

    The [--fault-spec] grammar accepts both forms:

    {v
    SPEC  ::= EVENT ("," EVENT)*                explicit schedule
            | "seed=" INT "," "rate=" FLOAT "," "ops=" INT
              ["," "kinds=" KINDNAME ("+" KINDNAME)*]
    EVENT ::= OP ":" KIND
    KIND  ::= "drop" | "corrupt" ["@" BIT] | "truncate" ["@" KEEP]
            | "delay" ["@" AMOUNT] | "partial" ["@" AT] | "close"
    v}

    Fault semantics (see {!Transport.faulty} and {!Service.serve} for the
    exchange-level and reply-level interpretations):
    - [drop]: the write is swallowed whole;
    - [corrupt@b]: bit [b] (modulo the buffer length) is flipped;
    - [truncate@k]: only the first [k] bytes are delivered;
    - [delay@a]: the reply is held back [a] milliseconds; an exchange,
      which reads its own write straight back, is fault-free;
    - [partial@p]: the reply is split at byte [p] into two writes — a
      correct byte stream must reassemble it, so this fault is benign (and
      fault-free on an exchange);
    - [close]: the connection is closed, losing the write. *)

type kind =
  | Drop
  | Corrupt of { bit : int }
  | Truncate of { keep : int }
  | Delay of { amount : int }
  | Partial of { at : int }
  | Close

type event = { op : int; kind : kind }
type schedule = event list

let kind_name = function
  | Drop -> "drop"
  | Corrupt _ -> "corrupt"
  | Truncate _ -> "truncate"
  | Delay _ -> "delay"
  | Partial _ -> "partial"
  | Close -> "close"

let all_kind_names = [ "drop"; "corrupt"; "truncate"; "delay"; "partial"; "close" ]

let kind_to_string = function
  | Drop -> "drop"
  | Corrupt { bit } -> Printf.sprintf "corrupt@%d" bit
  | Truncate { keep } -> Printf.sprintf "truncate@%d" keep
  | Delay { amount } -> Printf.sprintf "delay@%d" amount
  | Partial { at } -> Printf.sprintf "partial@%d" at
  | Close -> "close"

(** Canonical explicit form; {!parse} inverts it exactly. *)
let to_string schedule =
  String.concat "," (List.map (fun e -> Printf.sprintf "%d:%s" e.op (kind_to_string e.kind)) schedule)

(** Whether a kind delivers the same bytes it was given (possibly split or
    late) — a correct stack must survive it with an unchanged verdict. *)
let benign = function Delay _ | Partial _ -> true | Drop | Corrupt _ | Truncate _ | Close -> false

(** The first event scheduled at [op], if any. *)
let find schedule op = Option.map (fun e -> e.kind) (List.find_opt (fun e -> e.op = op) schedule)

let flip_bit b ~off ~len bit =
  let nbits = 8 * len in
  if nbits > 0 then begin
    let i = ((bit mod nbits) + nbits) mod nbits in
    let byte = off + (i / 8) in
    Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (i mod 8))))
  end

let normalize schedule = List.sort_uniq (fun a b -> compare (a.op, a.kind) (b.op, b.kind)) schedule

(* ---------------------------------------------------------------- parse *)

let parse_kind s =
  let name, arg =
    match String.index_opt s '@' with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let num what = function
    | None -> Error (Printf.sprintf "fault %S needs a numeric @%s argument" name what)
    | Some a -> (
        match int_of_string_opt a with
        | Some v when v >= 0 -> Ok v
        | _ -> Error (Printf.sprintf "bad @%s argument %S for fault %S" what a name))
  in
  let no_arg k = match arg with None -> Ok k | Some _ -> Error (Printf.sprintf "fault %S takes no argument" name) in
  let with_default ~default mk =
    match arg with None -> Ok (mk default) | Some _ -> Result.map mk (num "arg" arg)
  in
  match name with
  | "drop" -> no_arg Drop
  | "close" -> no_arg Close
  | "corrupt" -> with_default ~default:0 (fun bit -> Corrupt { bit })
  | "truncate" -> with_default ~default:1 (fun keep -> Truncate { keep })
  | "delay" -> with_default ~default:1 (fun amount -> Delay { amount })
  | "partial" -> with_default ~default:1 (fun at -> Partial { at })
  | _ -> Error (Printf.sprintf "unknown fault kind %S" name)

let split_on_string ~sep s =
  (* stdlib has only char split; the grammar needs none longer than 1 *)
  String.split_on_char sep s

let parse_event s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "fault event %S is not OP:KIND" s)
  | Some i -> (
      let op_s = String.sub s 0 i and kind_s = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt op_s with
      | Some op when op >= 0 -> Result.map (fun kind -> { op; kind }) (parse_kind kind_s)
      | _ -> Error (Printf.sprintf "bad fault op %S" op_s))

let lookup_assoc fields k = List.assoc_opt k fields

(* A seeded schedule is drawn op by op, so an unbounded count would let
   one spec stall whoever parses it. *)
let max_seeded_ops = 1_000_000

(* The seeded form: seed=..,rate=..,ops=..[,kinds=a+b]. *)
let parse_seeded s =
  let fields =
    List.filter_map
      (fun part ->
        match String.index_opt part '=' with
        | None -> None
        | Some i -> Some (String.sub part 0 i, String.sub part (i + 1) (String.length part - i - 1)))
      (split_on_string ~sep:',' s)
  in
  let int_f k = Option.bind (lookup_assoc fields k) int_of_string_opt in
  let float_f k = Option.bind (lookup_assoc fields k) float_of_string_opt in
  match (int_f "seed", float_f "rate", int_f "ops") with
  | Some seed, Some rate, Some ops
    when rate >= 0.0 && rate <= 1.0 && ops >= 0 && ops <= max_seeded_ops ->
      let kinds =
        match lookup_assoc fields "kinds" with
        | None -> Ok None
        | Some ks ->
            let names = split_on_string ~sep:'+' ks in
            if List.for_all (fun n -> List.mem n all_kind_names) names && names <> [] then Ok (Some names)
            else Error (Printf.sprintf "bad kinds list %S" ks)
      in
      Result.map (fun kinds -> `Seeded (seed, rate, ops, kinds)) kinds
  | _ ->
      Error
        (Printf.sprintf
           "seeded fault spec needs seed=INT, rate=FLOAT in [0,1] and ops=INT in [0,%d]"
           max_seeded_ops)

(* ---------------------------------------------------------------- random *)

(** Deterministic seeded schedule: each op in [0, ops) independently draws a
    Bernoulli([rate]) fault whose kind and argument come from the same
    stream — a pure function of the arguments.  [kinds] (default: all six)
    restricts the palette, e.g. to transient-only kinds for retry sweeps. *)
let random ~seed ~rate ~ops ?kinds () =
  let rng = Tfree_util.Rng.create (0x0fa17 + (31 * seed)) in
  let palette =
    match kinds with
    | Some (_ :: _ as ks) -> Array.of_list ks
    | _ -> Array.of_list all_kind_names
  in
  let pick op =
    let arg = Tfree_util.Rng.int rng 64 in
    match palette.(Tfree_util.Rng.int rng (Array.length palette)) with
    | "drop" -> Drop
    | "corrupt" -> Corrupt { bit = arg }
    | "truncate" -> Truncate { keep = arg }
    | "delay" -> Delay { amount = 1 + (arg mod 4) }
    | "partial" -> Partial { at = 1 + arg }
    | "close" -> Close
    | _ -> Corrupt { bit = op }
  in
  List.filter_map
    (fun op -> if Tfree_util.Rng.float rng < rate then Some { op; kind = pick op } else None)
    (List.init ops Fun.id)

(** Parse either grammar form; [""] is the empty schedule. *)
let parse s =
  if String.trim s = "" then Ok []
  else if String.length s >= 5 && String.sub s 0 5 = "seed=" then
    match parse_seeded s with
    | Ok (`Seeded (seed, rate, ops, kinds)) -> Ok (random ~seed ~rate ~ops ?kinds ())
    | Error e -> Error e
  else
    let rec go acc = function
      | [] -> Ok (normalize (List.rev acc))
      | part :: rest -> (
          match parse_event (String.trim part) with
          | Ok e -> go (e :: acc) rest
          | Error e -> Error e)
    in
    go [] (split_on_string ~sep:',' s)
