(* Golden serve transcript: a fixed list of request units driven through
   forked tfree-serve daemons over JSON v1 lines and binary v2 frames.
   For every unit it prints the request, the exact reply bytes (a v1 line
   verbatim, a v2 frame in hex), the queries it served and the nonzero
   deltas of every stats counter.  Stats and health replies are printed
   with their timing fields (uptime, rates, latency and phase histograms)
   and the in-flight gauges masked out.  A last section prints the bytes
   each of the six reply-fault kinds writes for one fixed reply, in each
   version.

   Run by the runtest alias and diffed against serve_transcript.expected;
   a deliberate behaviour change is accepted with [dune promote]. *)

open Tfree_util
open Tfree_graph
module Service = Tfree_wire.Service
module Proto = Tfree_wire.Proto
module Fault = Tfree_wire.Fault
module Snapshot = Tfree_dataset.Snapshot
module Registry = Tfree_dataset.Registry

(* ------------------------------------------------------------- requests *)

type payload = Line of string | Frame of string

let query = { Service.default_request with protocol = Service.Exact; n = 60 }
let line_of_json j = Line (Jsonout.to_line j)

let frame_of fill =
  let b = Proto.create_buf () in
  fill b;
  Frame (Bytes.sub_string (Proto.storage b) (Proto.frame_off b) (Proto.frame_len b))

(* A frame around a hand-built body: [tag] then the raw [body] bytes. *)
let raw_frame tag body =
  frame_of (fun b ->
      Proto.begin_frame b;
      Proto.put_u8 b tag;
      String.iter (fun c -> Proto.put_u8 b (Char.code c)) body;
      Proto.end_frame b)

(* The body bytes an encoder writes after its tag byte. *)
let body_after_tag fill =
  let b = Proto.create_buf () in
  fill b;
  let body = Proto.frame_body_len b in
  let varint = Proto.frame_len b - body - 2 in
  Bytes.sub_string (Proto.storage b) (Proto.frame_off b + varint + 1) (body - 1)

let query_body r = body_after_tag (fun b -> Service.encode_query_frame b r)
let dataset_body ~name r = body_after_tag (fun b -> Service.encode_dataset_frame b ~name r)

(* [s] with byte [i] replaced by [c] *)
let poke s i c = String.mapi (fun j x -> if j = i then Char.chr c else x) s

let varint n =
  let b = Buffer.create 4 in
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents b

(* ------------------------------------------------------------- printing *)

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* A v1 line as text: printable ASCII as is, other bytes as \xNN, and
   whether the terminating newline arrived. *)
let text s =
  let n = String.length s in
  let complete = n > 0 && s.[n - 1] = '\n' in
  let body = if complete then String.sub s 0 (n - 1) else s in
  let b = Buffer.create n in
  String.iter
    (fun c ->
      if c >= ' ' && c <= '~' then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "\\x%02x" (Char.code c)))
    body;
  if complete then Buffer.contents b else Buffer.contents b ^ " [no newline]"

let masked_keys = [ "uptime_s"; "served_per_sec"; "latency_us"; "phases"; "in_flight" ]

let rec mask = function
  | Jsonout.Obj fields ->
      Jsonout.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k masked_keys then None else Some (k, mask v))
           fields)
  | j -> j

(* A stats or health reply carries timing; everything else prints as is. *)
let show_reply ~version reply =
  if reply = "" then "(nothing: connection closed)"
  else if version = 1 then
    match Jsonout.parse reply with
    | Ok (Jsonout.Obj fields as j)
      when List.mem_assoc "stats" fields || List.mem_assoc "health" fields ->
        "masked " ^ Jsonout.to_line (mask j)
    | _ -> text reply
  else
    let data = Bytes.of_string reply in
    let cur = Proto.cursor () in
    match Proto.try_frame data ~pos:0 ~limit:(Bytes.length data) cur with
    | exception _ -> hex reply
    | n when n = Bytes.length data -> (
        let tag = Proto.get_u8 cur in
        if tag = 7 || tag = 12 then
          match Jsonout.parse (Proto.get_string cur) with
          | Ok j -> Printf.sprintf "masked tag=%d %s" tag (Jsonout.to_line (mask j))
          | Error _ -> hex reply
        else hex reply)
    | _ -> hex reply

(* Every numeric leaf of a stats object, by dotted path. *)
let rec leaves prefix = function
  | Jsonout.Obj fields ->
      List.concat_map
        (fun (k, v) -> leaves (if prefix = "" then k else prefix ^ "." ^ k) v)
        fields
  | Jsonout.Num f -> [ (prefix, f) ]
  | _ -> []

let delta_ignored = [ "queries_served"; "connections.accepted" ]

let show_deltas before after =
  let b = leaves "" (mask before) and a = leaves "" (mask after) in
  let d =
    List.filter_map
      (fun (k, v) ->
        let v0 = Option.value ~default:0.0 (List.assoc_opt k b) in
        if v <> v0 && not (List.mem k delta_ignored) then
          Some (Printf.sprintf "%s%+g" k (v -. v0))
        else None)
      a
  in
  if d = [] then "-" else String.concat " " d

(* ------------------------------------------------------------ transport *)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
  fd

let write_string fd s =
  let n = String.length s in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd s !sent (n - !sent)
  done

let next_byte fd =
  let one = Bytes.create 1 in
  match Unix.read fd one 0 1 with
  | 0 -> None
  | _ -> Some (Bytes.get one 0)
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> None

(* One reply's bytes: a line through its newline, a frame through its
   length prefix; either way whatever arrived before the server closed. *)
let read_reply fd ~version =
  let buf = Buffer.create 256 in
  let take () =
    match next_byte fd with
    | Some c ->
        Buffer.add_char buf c;
        Some c
    | None -> None
  in
  (if version = 1 then
     let rec line () = match take () with Some '\n' | None -> () | Some _ -> line () in
     line ()
   else
     let rec len shift acc =
       match take () with
       | None -> None
       | Some c ->
           let acc = acc lor ((Char.code c land 0x7f) lsl shift) in
           if Char.code c land 0x80 <> 0 then len (shift + 7) acc else Some acc
     in
     match len 0 0 with
     | None -> ()
     | Some l ->
         let rec body k = if k > 0 && take () <> None then body (k - 1) in
         body l);
  Buffer.contents buf

(* Open a unit connection speaking [version]: v2 shakes hands first. *)
let open_unit path ~version =
  let fd = connect path in
  if version = 2 then begin
    write_string fd (Proto.hello 2);
    let a = next_byte fd and b = next_byte fd in
    if a <> Some Proto.magic || b <> Some '\002' then failwith "v2 handshake refused"
  end;
  fd

let exchange path payload =
  let version, bytes = match payload with Line s -> (1, s ^ "\n") | Frame s -> (2, s) in
  let fd = open_unit path ~version in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_string fd bytes;
      read_reply fd ~version)

(* ---------------------------------------------------------------- servers *)

(* Fork a daemon, run [f path probe] against it, and print the served
   count [serve] returned in the child.  [probe ()] fetches the stats
   object over a persistent v1 connection.  [f] must end with a shutdown
   unit. *)
let with_server ?registry ?(fault = "") tag f =
  let serve path =
    let fault = match Fault.parse fault with Ok s -> s | Error m -> failwith m in
    Service.serve ?registry ~fault ~line_timeout_s:20.0 ~path ()
  in
  let (), served =
    Tfree_fixture.run_daemon ~tag:("golden-" ^ tag) serve (fun path ->
        let probe_fd = lazy (connect path) in
        let probe () =
          let fd = Lazy.force probe_fd in
          write_string fd "{\"op\": \"stats\"}\n";
          match Jsonout.parse (read_reply fd ~version:1) with
          | Ok j -> (
              match Jsonout.member "stats" j with Some s -> s | None -> failwith "probe: no stats")
          | Error m -> failwith ("probe: " ^ m)
        in
        Fun.protect
          ~finally:(fun () -> if Lazy.is_val probe_fd then Unix.close (Lazy.force probe_fd))
          (fun () -> f path probe))
  in
  Printf.printf "## %s: serve returned %d\n\n" tag (Option.get served)

let unit_ path probe name payload =
  let version = match payload with Line _ -> 1 | Frame _ -> 2 in
  let before = probe () in
  let reply = exchange path payload in
  let after = probe () in
  let served = Jsonout.(to_float (Option.get (member "queries_served" after)))
  and served0 = Jsonout.(to_float (Option.get (member "queries_served" before))) in
  Printf.printf "== v%d %s\n> %s\n< %s\n  served=%g deltas: %s\n\n" version name
    (match payload with Line s -> text (s ^ "\n") | Frame s -> hex s)
    (show_reply ~version reply)
    (Option.get served -. Option.get served0)
    (show_deltas before after)

(* The last unit of a server: no stats probe after it. *)
let shutdown_unit path name payload =
  let version = match payload with Line _ -> 1 | Frame _ -> 2 in
  let reply = exchange path payload in
  Printf.printf "== v%d %s\n> %s\n< %s\n\n" version name
    (match payload with Line s -> text (s ^ "\n") | Frame s -> hex s)
    (show_reply ~version reply)

(* ------------------------------------------------------------------ units *)

let both path probe name ~line ~frame =
  unit_ path probe name (line_of_json line);
  unit_ path probe name frame

let main_server () =
  with_server "main" (fun path probe ->
      let qn name r =
        both path probe name ~line:(Service.request_to_json r)
          ~frame:(frame_of (fun b -> Service.encode_query_frame b r))
      in
      qn "query exact" query;
      qn "query sim socketpair"
        { query with protocol = Service.Sim; seed = 2; transport = Tfree_wire.Wire_runtime.Socketpair };
      qn "query unrestricted" { query with protocol = Service.Unrestricted; seed = 3 };
      qn "query oblivious free" { query with protocol = Service.Oblivious; family = Service.Free };
      qn "query cache hit" { query with protocol = Service.Sim };
      qn "query run failure" { query with n = -5 };
      qn "query injected fault" { query with fault = "0:drop" };
      (* stats and health *)
      let op name = Jsonout.Obj [ ("op", Jsonout.Str name) ] in
      both path probe "stats" ~line:(op "stats") ~frame:(raw_frame 6 "");
      both path probe "health" ~line:(op "health") ~frame:(raw_frame 11 "");
      unit_ path probe "stats with trailing bytes" (raw_frame 6 "\000");
      let batch = [ query; { query with n = -5 }; { query with seed = 4 } ] in
      both path probe "batch with a run failure" ~line:(Service.batch_request_to_json batch)
        ~frame:(frame_of (fun b -> Service.encode_batch_frame b batch));
      both path probe "empty batch" ~line:(Service.batch_request_to_json [])
        ~frame:(frame_of (fun b -> Service.encode_batch_frame b []));
      (* batches whose items fail to decode *)
      unit_ path probe "batch with bad enum item"
        (Line
           ("{\"op\": \"batch\", \"requests\": "
           ^ "[{\"protocol\": \"exact\", \"n\": 60}, {\"protocol\": \"quantum\"}]}"));
      unit_ path probe "batch with bad enum item"
        (raw_frame 4 (varint 2 ^ query_body query ^ poke (query_body query) 2 9));
      unit_ path probe "batch with bad fault item"
        (raw_frame 4 (varint 1 ^ query_body { query with fault = "3:gremlins" }));
      unit_ path probe "batch with non-object items"
        (Line "{\"op\": \"batch\", \"requests\": [0, true]}");
      unit_ path probe "batch truncated after two items"
        (raw_frame 4 (varint 3 ^ query_body query ^ query_body { query with seed = 5 }));
      unit_ path probe "batch with trailing bytes"
        (raw_frame 4 (varint 1 ^ query_body query ^ "\000"));
      unit_ path probe "batch without requests" (Line "{\"op\": \"batch\"}");
      unit_ path probe "batch requests not a list" (Line "{\"op\": \"batch\", \"requests\": 3}");
      (* unknown ops and malformed units *)
      unit_ path probe "unknown op" (Line "{\"op\": \"levitate\"}");
      unit_ path probe "unknown tag" (raw_frame 99 "");
      unit_ path probe "unknown command" (Line "{\"cmd\": \"dance\"}");
      unit_ path probe "cmd not a string" (Line "{\"cmd\": 1}");
      unit_ path probe "op not a string" (Line "{\"op\": 5}");
      unit_ path probe "bad JSON" (Line "{nope");
      unit_ path probe "bad field type" (Line "{\"n\": \"many\"}");
      unit_ path probe "bad family" (Line "{\"family\": \"klein\"}");
      unit_ path probe "bad family code" (raw_frame 1 (poke (query_body query) 0 9));
      unit_ path probe "bad transport code" (raw_frame 1 (poke (query_body query) 3 7));
      unit_ path probe "bad fault spec" (Line "{\"fault\": \"3:gremlins\"}");
      unit_ path probe "bad fault spec"
        (raw_frame 1 (query_body { query with fault = "3:gremlins" }));
      unit_ path probe "query truncated" (raw_frame 1 (String.sub (query_body query) 0 6));
      unit_ path probe "query with trailing bytes" (raw_frame 1 (query_body query ^ "\000"));
      (* non-object lines *)
      List.iter
        (fun s -> unit_ path probe "non-object line" (Line s))
        [ "5"; "[1,2]"; "\"x\""; "null" ];
      (* dataset ops without a registry *)
      let d = Service.default_request and name = "gen" in
      both path probe "dataset, no registry" ~line:(Service.dataset_request_to_json ~name d)
        ~frame:(frame_of (fun b -> Service.encode_dataset_frame b ~name d));
      unit_ path probe "dataset without name, no registry" (Line "{\"op\": \"dataset\"}");
      unit_ path probe "dataset bad partition code, no registry"
        (raw_frame 10 (poke (dataset_body ~name d) 4 9));
      unit_ path probe "dataset truncated, no registry"
        (raw_frame 10 (String.sub (dataset_body ~name d) 0 3));
      unit_ path probe "shutdown with trailing bytes" (raw_frame 8 "\000");
      shutdown_unit path "shutdown" (Line "{\"cmd\": \"shutdown\"}"))

let with_registry f =
  let dir = Filename.temp_file "tfree_golden" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let g = Service.build_instance Service.Far (Service.graph_rng 5) ~n:60 ~d:6.0 ~eps:0.1 in
      Snapshot.save g (Filename.concat dir "g.tfs");
      let reg = Registry.create ~dir () in
      Registry.add reg
        {
          Registry.name = "gen";
          path = "g.tfs";
          format = Registry.Snapshot;
          n = Graph.n g;
          m = Graph.m g;
          gen = None;
        };
      f reg)

let dataset_server () =
  with_registry (fun registry ->
      with_server ~registry "datasets" (fun path probe ->
          let d = { Service.default_request with protocol = Service.Exact; seed = 5 } in
          let ds ?(name = "gen") unit d =
            both path probe unit ~line:(Service.dataset_request_to_json ~name d)
              ~frame:(frame_of (fun b -> Service.encode_dataset_frame b ~name d))
          in
          ds "dataset" d;
          ds "dataset cache hit" { d with protocol = Service.Sim };
          ds ~name:"nope" "dataset unknown name" d;
          (* a dataset query ignores the generator fields, however bad *)
          unit_ path probe "dataset with stray generator fields"
            (Line
               "{\"op\": \"dataset\", \"name\": \"gen\", \"protocol\": \"exact\", \"seed\": 5, \
                \"family\": \"bogus\", \"n\": -5, \"d\": \"x\"}");
          unit_ path probe "dataset without name" (Line "{\"op\": \"dataset\"}");
          unit_ path probe "dataset bad partition code"
            (raw_frame 10 (poke (dataset_body ~name:"gen" d) 4 9));
          unit_ path probe "dataset truncated"
            (raw_frame 10 (String.sub (dataset_body ~name:"gen" d) 0 3));
          shutdown_unit path "shutdown" (raw_frame 8 "")))

(* One fixed reply per fault kind and version: replies 0-5 go out as v1
   lines, 6-11 as v2 frames. *)
let kinds = [ "drop"; "close"; "corrupt@13"; "truncate@10"; "delay@1"; "partial@7" ]

let fault_server () =
  let spec =
    String.concat "," (List.mapi (fun i k -> Printf.sprintf "%d:%s,%d:%s" i k (i + 6) k) kinds)
  in
  with_server ~fault:spec "faults" (fun path _probe ->
      List.iter
        (fun payload ->
          let version = match payload with Line _ -> 1 | Frame _ -> 2 in
          List.iter
            (fun k ->
              let reply = exchange path payload in
              Printf.printf "== v%d fault %s\n< %s\n\n" version k
                (if reply = "" then "(nothing: connection closed)"
                 else if version = 1 then text reply
                 else hex reply))
            kinds)
        [
          line_of_json (Service.request_to_json query);
          frame_of (fun b -> Service.encode_query_frame b query);
        ];
      shutdown_unit path "shutdown" (Line "{\"cmd\": \"shutdown\"}"))

let () =
  main_server ();
  dataset_server ();
  fault_server ()
