(* Append-only warm-restart journal: magic header, then framed records
   (4-byte BE payload length, 4-byte BE CRC32, JSON payload).

   The payload re-uses the wire vocabulary so a journal is debuggable
   with the same eyes as the protocol: the knobs go through the
   protocol's own codec (which also reads older journals' spelled-out
   defaults, "mode":"relax", "transport":"store-and-forward" and
   "slowdown":1), and the embedded schedule object round-trips
   byte-exactly: it is stored as an escaped JSON *string*, and
   Obs.Json's unescape is the exact inverse of Obs.Json.Writer's escape
   for the bytes the exporter produces. *)

module P = Protocol
module Json = Obs.Json

type sched_record = {
  s_key : string;
  s_graph : P.graph_spec;
  s_arch : string;
  s_knobs : P.knobs;
  s_length : int;
  s_passes : int;
  s_schedule_json : string;
}

type replan_record = {
  r_key : string;
  r_parent : string;
  r_fail_pes : int list;
  r_fail_links : (int * int) list;
  r_length : int;
  r_strategy : string;
  r_migration_cost : int;
  r_moved : int;
  r_surviving : int;
  r_schedule_json : string;
}

type record = Sched of sched_record | Replan of replan_record

let key = function Sched s -> s.s_key | Replan r -> r.r_key

let magic = "ccsched-state/1\n"

(* Records are small (a schedule object and its inputs); anything
   claiming to be bigger than this is a corrupt length field, and
   trusting it would make replay allocate the claim. *)
let max_payload = 1 lsl 26

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven — no zlib dependency.              *)
(* ------------------------------------------------------------------ *)

(* Native ints hold the 32-bit register without boxing, so the checksum
   allocates nothing whatever the length. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c :=
      crc_table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* Payload encoding/decoding                                            *)
(* ------------------------------------------------------------------ *)

(* The payload's size is its escaped string fields plus a few hundred
   bytes of keys, numbers and knobs; sizing the buffer up front keeps a
   large record from being copied at every doubling. *)
let payload_size_hint r =
  let strings =
    match r with
    | Sched s ->
        [ s.s_key; (match s.s_graph with P.Workload w | P.Inline w -> w);
          s.s_arch; s.s_schedule_json ]
    | Replan r -> [ r.r_key; r.r_parent; r.r_strategy; r.r_schedule_json ]
  in
  List.fold_left (fun acc s -> acc + Json.Writer.escaped_length s) 1024 strings

let encode_payload r =
  let buf = Buffer.create (payload_size_hint r) in
  let str k v =
    Printf.bprintf buf ",\"%s\":\"" k;
    Json.Writer.add_escaped buf v;
    Buffer.add_char buf '"'
  in
  let int k v = Printf.bprintf buf ",\"%s\":%d" k v in
  (match r with
  | Sched s ->
      Buffer.add_string buf "{\"t\":\"sched\"";
      str "key" s.s_key;
      (match s.s_graph with
      | P.Workload w -> str "workload" w
      | P.Inline g -> str "graph" g);
      str "arch" s.s_arch;
      (* a deadline belongs to the request that set it: a restarted
         daemon's re-derivation must not inherit it *)
      P.add_knobs buf { s.s_knobs with P.deadline_ms = None };
      int "length" s.s_length;
      int "passes_run" s.s_passes;
      str "schedule" s.s_schedule_json
  | Replan r ->
      Buffer.add_string buf "{\"t\":\"replan\"";
      str "key" r.r_key;
      str "parent" r.r_parent;
      Printf.bprintf buf ",\"fail_pes\":[%s]"
        (String.concat "," (List.map string_of_int r.r_fail_pes));
      Printf.bprintf buf ",\"fail_links\":[%s]"
        (String.concat ","
           (List.map
              (fun (a, b) -> Printf.sprintf "[%d,%d]" a b)
              r.r_fail_links));
      int "length" r.r_length;
      str "strategy" r.r_strategy;
      int "migration_cost" r.r_migration_cost;
      int "moved" r.r_moved;
      int "surviving" r.r_surviving;
      str "schedule" r.r_schedule_json);
  Buffer.add_char buf '}';
  Buffer.contents buf

let decode_payload payload =
  let ( let* ) = Result.bind in
  let* json =
    match Json.parse payload with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "record is not valid JSON: %s" e)
  in
  let str name = Option.bind (Json.member name json) Json.to_str in
  let int name = Option.bind (Json.member name json) Json.to_int in
  let require what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "record is missing %S" what)
  in
  let* key = require "key" (str "key") in
  let* schedule = require "schedule" (str "schedule") in
  let* length = require "length" (int "length") in
  match str "t" with
  | Some "sched" ->
      let* graph =
        match (str "workload", str "graph") with
        | Some w, None -> Ok (P.Workload w)
        | None, Some g -> Ok (P.Inline g)
        | _ -> Error "record needs exactly one of workload/graph"
      in
      let* arch = require "arch" (str "arch") in
      let* knobs =
        Result.map_error (fun e -> e.P.message) (P.parse_knobs json)
      in
      let* passes_run = require "passes_run" (int "passes_run") in
      Ok
        (Sched
           {
             s_key = key;
             s_graph = graph;
             s_arch = arch;
             s_knobs = knobs;
             s_length = length;
             s_passes = passes_run;
             s_schedule_json = schedule;
           })
  | Some "replan" ->
      let* parent = require "parent" (str "parent") in
      let ints name =
        match Option.map (List.map Json.to_int) (Option.bind (Json.member name json) Json.to_list) with
        | Some l when List.for_all Option.is_some l ->
            Some (List.map Option.get l)
        | _ -> None
      in
      let* fail_pes = require "fail_pes" (ints "fail_pes") in
      let* fail_links =
        match Option.bind (Json.member "fail_links" json) Json.to_list with
        | Some items ->
            let link item =
              match Option.map (List.map Json.to_int) (Json.to_list item) with
              | Some [ Some a; Some b ] -> Some (a, b)
              | _ -> None
            in
            let links = List.map link items in
            if List.for_all Option.is_some links then
              Ok (List.map Option.get links)
            else Error "fail_links must be an array of [a,b] pairs"
        | None -> Error "record is missing \"fail_links\""
      in
      let* strategy = require "strategy" (str "strategy") in
      let* migration_cost = require "migration_cost" (int "migration_cost") in
      let* moved = require "moved" (int "moved") in
      let* surviving = require "surviving" (int "surviving") in
      Ok
        (Replan
           {
             r_key = key;
             r_parent = parent;
             r_fail_pes = fail_pes;
             r_fail_links = fail_links;
             r_length = length;
             r_strategy = strategy;
             r_migration_cost = migration_cost;
             r_moved = moved;
             r_surviving = surviving;
             r_schedule_json = schedule;
           })
  | Some t -> Error (Printf.sprintf "unknown record type %S" t)
  | None -> Error "record is missing \"t\""

let header payload =
  let b = Bytes.create 8 in
  Bytes.set_int32_be b 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_be b 4 (crc32 payload);
  Bytes.unsafe_to_string b

let encode_record r =
  let payload = encode_payload r in
  header payload ^ payload

(* Replay stops at a payload over [max_payload] and truncates it with
   every later record, so such a record is never written: its entry
   serves from memory only. *)
let replayable r =
  let payload = encode_payload r in
  if String.length payload > max_payload then None else Some payload

(* ------------------------------------------------------------------ *)
(* Replay                                                               *)
(* ------------------------------------------------------------------ *)

(* Scan framed records from a full file image.  Returns the good
   records in order plus the byte offset of the first bad frame — the
   truncation point.  Any defect (short header, implausible length,
   short payload, CRC mismatch, undecodable JSON) ends the scan: the
   journal is append-only, so nothing after a bad frame can be trusted
   to be aligned. *)
let scan data =
  let n = String.length data in
  let m = String.length magic in
  if n < m || String.sub data 0 m <> magic then (`Bad_magic, [], 0)
  else begin
    let rec loop pos acc =
      if pos + 8 > n then (List.rev acc, pos)
      else
        let len = Int32.to_int (String.get_int32_be data pos) in
        if len < 0 || len > max_payload || pos + 8 + len > n then
          (List.rev acc, pos)
        else
          let payload = String.sub data (pos + 8) len in
          if crc32 payload <> String.get_int32_be data (pos + 4) then
            (List.rev acc, pos)
          else
            match decode_payload payload with
            | Ok r -> loop (pos + 8 + len) (r :: acc)
            | Error _ -> (List.rev acc, pos)
    in
    let records, good_end = loop m [] in
    (`Ok, records, good_end)
  end

(* ------------------------------------------------------------------ *)
(* File handle                                                          *)
(* ------------------------------------------------------------------ *)

type t = {
  file : string;
  mutable fd : Unix.file_descr option;  (* None once disabled or closed *)
  mutable n_appended : int;
}

let path t = t.file
let appended t = t.n_appended

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Header, then payload: the frame is never assembled in memory. *)
let write_record fd payload =
  write_all fd (header payload);
  write_all fd payload

let read_file fd size =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let b = Bytes.create size in
  let off = ref 0 in
  (try
     while !off < size do
       match Unix.read fd b !off (size - !off) with
       | 0 -> raise Exit
       | n -> off := !off + n
     done
   with Exit -> ());
  Bytes.sub_string b 0 !off

let open_ ~dir =
  match
    if Sys.file_exists dir then () else Unix.mkdir dir 0o755
  with
  | exception Unix.Unix_error (Unix.EEXIST, _, _) | () -> (
      let file = Filename.concat dir "state.ccsj" in
      match Unix.openfile file [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "%s: %s" file (Unix.error_message e))
      | fd ->
          let size = (Unix.fstat fd).Unix.st_size in
          let t = { file; fd = Some fd; n_appended = 0 } in
          if size = 0 then begin
            write_all fd magic;
            Ok (t, [], 0)
          end
          else begin
            let data = read_file fd size in
            let records, dropped =
              match scan data with
              | `Ok, records, good_end ->
                  if good_end < String.length data then
                    Unix.ftruncate fd good_end;
                  (records, String.length data - good_end)
              | `Bad_magic, _, _ ->
                  (* the whole file is untrustworthy; start over *)
                  Unix.ftruncate fd 0;
                  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
                  write_all fd magic;
                  ([], String.length data)
            in
            ignore (Unix.lseek fd 0 Unix.SEEK_END);
            Ok (t, records, dropped)
          end)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" dir (Unix.error_message e))

let append t r =
  match (t.fd, replayable r) with
  | None, _ | _, None -> ()
  | Some fd, Some payload -> (
      match write_record fd payload with
      | () -> t.n_appended <- t.n_appended + 1
      | exception Unix.Unix_error _ ->
          (* a failing disk must not fail requests: degrade to the
             no-journal behaviour for the rest of the run *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          t.fd <- None)

let compact t records =
  match t.fd with
  | None -> ()
  | Some fd -> (
      let tmp = t.file ^ ".tmp" in
      match
        Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      with
      | exception Unix.Unix_error _ -> ()
      | tmp_fd -> (
          match
            write_all tmp_fd magic;
            List.iter
              (fun r -> Option.iter (write_record tmp_fd) (replayable r))
              records;
            Unix.fsync tmp_fd;
            Unix.close tmp_fd;
            Unix.rename tmp t.file
          with
          | exception Unix.Unix_error _ ->
              (try Unix.close tmp_fd with Unix.Unix_error _ -> ());
              (try Unix.unlink tmp with Unix.Unix_error _ -> ())
          | () -> (
              (* the old fd still points at the unlinked inode: reopen *)
              (try Unix.close fd with Unix.Unix_error _ -> ());
              match Unix.openfile t.file [ Unix.O_RDWR ] 0o644 with
              | exception Unix.Unix_error _ -> t.fd <- None
              | fd ->
                  ignore (Unix.lseek fd 0 Unix.SEEK_END);
                  t.fd <- Some fd;
                  t.n_appended <- 0)))

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
