(* Workload daemon-mix: the real `ccsched serve --state DIR` daemon as a
   child process, driven over one Service.Client connection by a closed
   loop of wire requests — the only path where the protocol, the
   engine's resolve and cache, the warm-restart journal and the socket
   do most of the work.

   Each pass of the op list holds 400 requests: 300 named schedule
   requests over the 120-entry hot set (the suite on six machines), 40
   of the same loops sent inline as graph text, 40 misses on fresh
   seeded 8-14-node loops and 20 replans that fail the last processor
   of the schedule requested just before; a health and a metrics
   scrape follow every 200 requests. *)

module P = Service.Protocol
module Client = Service.Client
module Csdfg = Dataflow.Csdfg
module Sim = Machine.Simulator

let archs = Suite_simulate.archs
let cache = 256
let restarts = 7
let nominal_ops_per_s = 1500.
let scrape_every = 200

(* Requests between two calibration samples (about a quarter second). *)
let block = 400

(* Per pass: hot named singles, hot named + replan pairs, inline hot,
   miss singles, miss + replan pairs. *)
let named_singles = 286
let named_replans = 14
let inline_hot = 40
let miss_singles = 34
let miss_replans = 6

(* Misses and replans recomputed in-process to check their replies. *)
let sampled_misses = 24
let sampled_replans = 12

(* How a reply can be recomputed in-process. *)
type twin =
  | Compact of Csdfg.t * string  (** compaction of the loop on the arch *)
  | Degrade of Csdfg.t * string  (** its replan without the last PE *)

type kind = Named | Inline | Miss | Replan | Scrape

type req = {
  kind : kind;
  request : P.request;
  key : string;  (** the request line with id 0: equal keys, equal replies *)
  twin : twin option;
}

let default_mode = Cyclo.Remap.With_relaxation

let session g arch =
  Cyclo.Cachekey.digest ~mode:default_mode
    ~transport:Cyclo.Cachekey.Store_and_forward g
    (Result.get_ok (Topology.of_spec arch))

let make kind request twin =
  { kind; request; key = P.request_to_json ~id:0 request; twin }

let schedule graph arch =
  P.Schedule { graph; arch; knobs = P.default_knobs }

let hot =
  Array.of_list
    (List.concat_map
       (fun (name, g) -> List.map (fun arch -> (name, g, arch)) archs)
       (Workloads.Suite.all ()))

let named_req (name, g, arch) =
  make Named (schedule (P.Workload name) arch) (Some (Compact (g, arch)))

let inline_req (_, g, arch) =
  make Inline (schedule (P.Inline (Dataflow.Io.to_string g)) arch)
    (Some (Compact (g, arch)))

let replan_req g arch =
  let np = Topology.n_processors (Result.get_ok (Topology.of_spec arch)) in
  make Replan
    (P.Replan
       {
         session = session g arch;
         fail_pes = [ np ];
         fail_links = [];
         deadline_ms = None;
       })
    (Some (Degrade (g, arch)))

let miss_req st =
  let nodes = 8 + Random.State.int st 7 in
  let text =
    Dataflow.Io.to_string
      (Workloads.Random_gen.generate_connected
         ~params:{ Workloads.Random_gen.default with nodes }
         ~seed:(Random.State.bits st) ())
  in
  (* the daemon sees only the text: key and twin use its parse *)
  let g = Dataflow.Io.of_string_exn text in
  let arch = List.nth archs (Random.State.int st (List.length archs)) in
  ( g,
    arch,
    make Miss (schedule (P.Inline text) arch) (Some (Compact (g, arch))) )

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The whole op sequence of a run: [passes] passes, fresh misses in
   each. *)
let op_list ~seed ~passes =
  let st = Random.State.make [| seed; 0xd43 |] in
  let pick () = hot.(Random.State.int st (Array.length hot)) in
  let scrapes = [ make Scrape P.Health None; make Scrape P.Metrics None ] in
  List.concat
    (List.init passes (fun _ ->
         (* explicit lets: the draws must not depend on evaluation order *)
         let named =
           List.init named_singles (fun _ -> [ named_req (pick ()) ])
         in
         let named_then_replan =
           List.init named_replans (fun _ ->
               let ((_, g, arch) as h) = pick () in
               [ named_req h; replan_req g arch ])
         in
         let inline =
           List.init inline_hot (fun _ -> [ inline_req (pick ()) ])
         in
         let misses =
           List.init miss_singles (fun _ ->
               let _, _, r = miss_req st in
               [ r ])
         in
         let miss_then_replan =
           List.init miss_replans (fun _ ->
               let g, arch, r = miss_req st in
               [ r; replan_req g arch ])
         in
         let units =
           Array.of_list
             (List.concat
                [ named; named_then_replan; inline; misses; miss_then_replan ])
         in
         shuffle st units;
         List.concat
           (List.mapi
              (fun i r ->
                if (i + 1) mod scrape_every = 0 then r :: scrapes else [ r ])
              (List.concat (Array.to_list units)))))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* The daemon child                                                     *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  stdout : in_channel;
  mutable client : Client.t option;
}

let find_from s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i =
    if i + m > n then None else if matches i 0 then Some i else go (i + 1)
  in
  go from

let contains s sub = find_from s sub 0 <> None

(* Spawn, wait for the ready line, connect. *)
let spawn ~ccsched ~socket ~state =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process ccsched
      [|
        ccsched; "serve"; "--socket"; socket; "--state"; state; "--cache";
        string_of_int cache;
      |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  let d = { pid; stdout = Unix.in_channel_of_descr r; client = None } in
  let ready =
    match Unix.select [ r ] [] [] 30. with
    | [], _, _ -> false
    | _ -> (
        match input_line d.stdout with
        | line -> contains line "listening"
        | exception End_of_file -> false)
  in
  if ready then
    d.client <-
      (match Client.connect socket with Ok c -> Some c | Error _ -> None);
  (d, d.client <> None)

let rec wait_exit pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait_exit pid deadline
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Stop through the shutdown op, SIGTERM as the fallback, then reap. *)
let stop d =
  (match d.client with
  | Some c ->
      ignore (Client.rpc_line c (P.request_to_json ~id:0 P.Shutdown));
      Client.close c;
      d.client <- None
  | None -> ());
  if not (wait_exit d.pid (Unix.gettimeofday () +. 10.)) then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit d.pid (Unix.gettimeofday () +. 10.)) then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit d.pid (Unix.gettimeofday () +. 10.))
    end
  end;
  close_in_noerr d.stdout

let rpc d line =
  match Client.rpc_line (Option.get d.client) line with
  | Ok reply -> reply
  | Error e -> failwith ("daemon: " ^ Client.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Reply handling                                                       *)
(* ------------------------------------------------------------------ *)

(* A traced reply is the untraced one with ,"trace":[...] spliced in
   before the closing brace. *)
let untraced reply =
  let marker = ",\"trace\":[" in
  let rec last from found =
    match find_from reply marker from with
    | Some i -> last (i + 1) (Some i)
    | None -> found
  in
  match last 0 None with
  | Some i -> String.sub reply 0 i ^ "}"
  | None -> reply

let server_spans reply =
  match find_from reply ",\"trace\":" 0 with
  | None -> []
  | Some _ -> (
      match Obs.Json.parse reply with
      | Error _ -> []
      | Ok json ->
          Option.value ~default:[]
            (Option.bind (Obs.Json.member "trace" json) Obs.Json.to_list)
          |> List.filter_map (fun s ->
                 match
                   ( Option.bind (Obs.Json.member "span" s) Obs.Json.to_str,
                     Option.bind (Obs.Json.member "ns" s) Obs.Json.to_int )
                 with
                 | Some name, Some ns -> Some (name, ns)
                 | _ -> None))

(* The reply with its id and cached flag blanked, so repeats compare
   byte for byte. *)
let normalize reply =
  (* both fields sit in the reply's header, each followed by a comma *)
  let drop field s =
    match find_from s field 0 with
    | None -> s
    | Some i -> (
        match String.index_from_opt s i ',' with
        | Some j -> String.sub s 0 i ^ String.sub s j (String.length s - j)
        | None -> s)
  in
  untraced reply |> drop "\"id\":" |> drop "\"cached\":"

let rec twin_result = function
  | Compact (g, arch) ->
      let topo = Result.get_ok (Topology.of_spec arch) in
      Ok ((Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best, topo)
  | Degrade (g, arch) -> (
      let best, topo = Result.get_ok (twin_result (Compact (g, arch))) in
      match
        Cyclo.Degrade.replan best topo
          ~failed_pes:[ Topology.n_processors topo - 1 ]
          ~failed_links:[]
      with
      | Ok plan -> Ok (plan.Cyclo.Degrade.schedule, plan.Cyclo.Degrade.topology)
      | Error m -> Error m)

let twin_key = function
  | Compact (g, arch) -> "schedule " ^ session g arch
  | Degrade (g, arch) -> "replan " ^ session g arch

(* ------------------------------------------------------------------ *)
(* The run                                                              *)
(* ------------------------------------------------------------------ *)

(* What the daemon's own telemetry says after the loop: the median
   queue wait (a log2 bucket bound of the service.queue_wait histogram)
   and its compaction counters. *)
type telemetry = { queue_wait_ms : float; passes : float; compacted : float }

let telemetry body =
  let families =
    match Obs.Exposition.parse body with Ok f -> f | Error _ -> []
  in
  let samples name =
    match
      List.find_opt (fun f -> f.Obs.Exposition.fam_name = name) families
    with
    | Some f -> f.Obs.Exposition.fam_samples
    | None -> []
  in
  let counter name =
    match samples name with s :: _ -> s.Obs.Exposition.value | [] -> 0.
  in
  let buckets =
    List.filter_map
      (fun s ->
        match s.Obs.Exposition.labels with
        | [ ("le", le) ] when le <> "+Inf" ->
            Some (float_of_string le, s.Obs.Exposition.value)
        | _ -> None)
      (samples "ccsched_service_queue_wait")
  in
  let count = List.fold_left (fun a (_, c) -> Float.max a c) 0. buckets in
  {
    queue_wait_ms =
      (match List.find_opt (fun (_, c) -> c >= count /. 2.) buckets with
      | Some (le, _) -> le /. 1e6
      | None -> 0.);
    passes = counter "ccsched_compaction_passes";
    compacted = counter "ccsched_compaction_outcome_compacted";
  }

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* One instance's closed loop over [lines], then the figures read from
   the daemon before it stops. *)
type served = {
  cal_ns : float array;  (** calibrated round trips *)
  replies : string array;
  peak_rss : float;
  stats : P.stats option;
  telemetry : telemetry;
}

let serve d ~traced lines =
  let total = Array.length lines in
  let lat_ns = Array.make total 0 in
  let replies = Array.make total "" in
  let kernel = Array.make (((total + block - 1) / block) + 1) 0. in
  if traced then Ledger.start ();
  for k = 0 to total - 1 do
    if k mod block = 0 then kernel.(k / block) <- Common.kernel_ns ();
    let t0 = Common.now_ns () in
    let reply =
      if traced then
        Ledger.op k (fun () ->
            Ledger.span "transport" (fun () -> rpc d lines.(k)))
      else rpc d lines.(k)
    in
    lat_ns.(k) <- Common.now_ns () - t0;
    replies.(k) <- reply
  done;
  kernel.(Array.length kernel - 1) <- Common.kernel_ns ();
  if traced then Ledger.stop ();
  let peak_rss =
    match P.parse_reply (rpc d (P.request_to_json ~id:0 P.Health)) with
    | Ok (P.Health_reply { health; _ }) ->
        Common.mib_of_bytes health.P.peak_rss_bytes
    | _ -> failwith "daemon: no health reply"
  in
  let stats =
    match P.parse_reply (rpc d (P.request_to_json ~id:0 P.Stats)) with
    | Ok (P.Stats_reply { stats; _ }) -> Some stats
    | _ -> None
  in
  let telemetry =
    match P.parse_reply (rpc d (P.request_to_json ~id:0 P.Metrics)) with
    | Ok (P.Metrics_reply { body; _ }) -> telemetry body
    | _ -> telemetry ""
  in
  {
    cal_ns = Common.calibrate ~block ~kernel lat_ns;
    replies;
    peak_rss;
    stats;
    telemetry;
  }

let run ~seed ~seconds ~traced ~spans_path ~ccsched ~dir =
  if ccsched = "" || not (Sys.file_exists ccsched) then
    failwith "daemon-mix needs --ccsched PATH to the ccsched binary";
  let per_pass =
    named_singles + (2 * named_replans) + inline_hot + miss_singles
    + (2 * miss_replans)
  in
  let passes =
    Common.passes ~seconds ~nominal_ops_per_s
      ~ops:(per_pass + (2 * (per_pass / scrape_every)))
  in
  let ops = op_list ~seed ~passes in
  let total = Array.length ops in
  let lines ~trace =
    Array.mapi (fun k r -> P.request_to_json ~trace ~id:(k + 1) r.request) ops
  in
  let op_digest =
    Common.op_digest ~passes (Array.to_list (lines ~trace:false))
  in
  let problems = ref [] in
  (* A fresh directory per run for the socket and the journal, removed
     afterwards with the daemon stopped and reaped. *)
  let dir = Filename.concat dir (Printf.sprintf "daemon-%d" (Unix.getpid ())) in
  Common.remove_tree dir;
  Common.ensure_dir dir;
  let socket = Filename.concat dir "s.sock" in
  let state = Filename.concat dir "state" in
  let journal = Filename.concat state "state.ccsj" in
  let live = ref None in
  let start () =
    match spawn ~ccsched ~socket ~state with
    | d, true ->
        live := Some d;
        d
    | d, false ->
        stop d;
        failwith "daemon did not come up"
  in
  let finish d =
    stop d;
    live := None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter stop !live;
      Common.remove_tree dir)
  @@ fun () ->
  (* An untimed first instance serves the hot set into the journal. *)
  let d = start () in
  let hot_replies =
    Array.mapi
      (fun i h -> rpc d (P.request_to_json ~id:(i + 1) (named_req h).request))
      hot
  in
  finish d;
  let hot_journal = read_file journal in
  (* Set-up: spawn -> journal replay -> first reply, over warm restarts;
     the last instance serves the timed loop. *)
  let first_request = P.request_to_json ~id:0 (named_req hot.(0)).request in
  let warm_start () =
    let before = Common.kernel_ns () in
    let t0 = Common.now_ns () in
    let d = start () in
    let reply = rpc d first_request in
    let dt = Common.now_ns () - t0 in
    Common.check problems "a warm restart serves the hot set from its journal"
      (contains reply "\"cached\":true");
    (d, Common.calibrated_s ~before ~after:(Common.kernel_ns ()) dt)
  in
  let restart_s =
    List.init (restarts - 1) (fun _ ->
        let d, dt = warm_start () in
        finish d;
        dt)
  in
  let d, dt = warm_start () in
  let setup_s = Common.median_float (dt :: restart_s) in
  let timed = serve d ~traced:false (lines ~trace:false) in
  finish d;
  (* The traced run replays the same op sequence on an instance restarted
     from the same journal, so its cache starts in the same state. *)
  let traced_run =
    if not traced then None
    else begin
      write_file journal hot_journal;
      let d, _ = warm_start () in
      let t = serve d ~traced:true (lines ~trace:true) in
      finish d;
      Some t
    end
  in
  let journal_bytes =
    try (Unix.stat journal).Unix.st_size with Unix.Unix_error _ -> 0
  in
  let replies = timed.replies in
  (* Checks, after the daemon has stopped. *)
  let op_ok = Array.make total true in
  let errors = Hashtbl.create 8 in
  Array.iteri
    (fun k reply ->
      match P.parse_reply reply with
      | Ok (P.Error_reply { err; _ }) ->
          op_ok.(k) <- false;
          Hashtbl.replace errors err.P.code
            (1 + Option.value ~default:0 (Hashtbl.find_opt errors err.P.code))
      | Ok _ -> ()
      | Error _ -> op_ok.(k) <- false)
    replies;
  Common.check problems "no error replies" (Hashtbl.length errors = 0);
  (* Repeats: byte-identical modulo id and cached, to each other and,
     for the hot set, to the first instance's replies before any
     restart. *)
  let first = Hashtbl.create 1024 in
  Array.iteri
    (fun i h ->
      Hashtbl.add first (named_req h).key (-1, normalize hot_replies.(i)))
    hot;
  Array.iteri
    (fun k r ->
      if r.kind <> Scrape then
        let norm = normalize replies.(k) in
        match Hashtbl.find_opt first r.key with
        | None -> Hashtbl.add first r.key (k, norm)
        | Some (_, norm0) ->
            if norm <> norm0 then begin
              op_ok.(k) <- false;
              Common.check problems
                (Printf.sprintf "op %d: repeat reply differs from the first" k)
                false
            end)
    ops;
  (* Twins: every hot-set reply, and a seeded sample of misses and
     replans, must equal the export of the same request computed
     in-process, and that twin must be legal.  A reply omits the
     retiming, so it cannot be validated from its bytes alone. *)
  let st = Random.State.make [| seed; 0x7a1 |] in
  let distinct kind =
    Hashtbl.fold
      (fun _ (k, _) acc ->
        if k >= 0 && ops.(k).kind = kind then k :: acc else acc)
      first []
    |> List.sort compare |> Array.of_list
  in
  let sample kind n =
    let a = distinct kind in
    shuffle st a;
    Array.to_list (Array.sub a 0 (min n (Array.length a)))
  in
  let twins = Hashtbl.create 256 in
  let twin t =
    match Hashtbl.find_opt twins (twin_key t) with
    | Some x -> x
    | None ->
        let x =
          match twin_result t with
          | Ok (best, topo) when Steps.legal best topo ->
              Some (Cyclo.Export.to_json best, best, topo)
          | Ok _ | Error _ -> None
        in
        Hashtbl.add twins (twin_key t) x;
        x
  in
  let matches reply t =
    match twin t with
    | Some (json, _, _) ->
        String.ends_with ~suffix:(json ^ "}") (untraced reply)
    | None -> false
  in
  let bad = ref 0 in
  let fail_key key =
    incr bad;
    Array.iteri (fun j o -> if o.key = key then op_ok.(j) <- false) ops
  in
  Array.iteri
    (fun i h ->
      let r = named_req h in
      if not (matches hot_replies.(i) (Option.get r.twin)) then fail_key r.key)
    hot;
  List.iter
    (fun k ->
      if not (matches replies.(k) (Option.get ops.(k).twin)) then
        fail_key ops.(k).key)
    (List.concat
       [
         Array.to_list (distinct Inline);
         sample Miss sampled_misses;
         sample Replan sampled_replans;
       ]);
  Common.check problems "checked replies equal their legal in-process twins"
    (!bad = 0);
  (match traced_run with
  | Some t ->
      let differ = ref 0 in
      Array.iteri
        (fun k reply ->
          if ops.(k).kind <> Scrape && untraced reply <> replies.(k) then begin
            incr differ;
            op_ok.(k) <- false
          end)
        t.replies;
      Common.check problems "traced replies equal the untraced ones"
        (!differ = 0)
  | None -> ());
  let failed = Array.fold_left (fun a ok -> if ok then a else a + 1) 0 op_ok in
  (* Schedule quality over the fixed hot set, as the daemon answered it
     before its first restart. *)
  let lengths =
    Array.to_list
      (Array.map
         (fun reply ->
           match P.parse_reply reply with
           | Ok (P.Scheduled { length; _ }) -> float_of_int length
           | _ -> failwith "hot-set reply is not a schedule")
         hot_replies)
  in
  let periods =
    Array.to_list
      (Array.map
         (fun h ->
           match twin (Option.get (named_req h).twin) with
           | Some (_, best, topo) ->
               (Sim.execute ~policy:Sim.Fifo_links best topo ~iterations:40)
                 .Sim.average_period
           | None -> failwith "hot-set twin is illegal")
         hot)
  in
  match traced_run with
  | None ->
      {
        Common.attempted = total;
        failed;
        problems = !problems;
        op_digest;
        metrics =
          Common.end_to_end ~passes ~setup_s ~setup_samples:restarts
            ~cal_ns:timed.cal_ns ~failed ~peak_rss_mb:timed.peak_rss ~lengths
            ~periods;
      }
  | Some t ->
      let transport = Ledger.spans_named "transport" in
      Array.iteri
        (fun k reply ->
          match Hashtbl.find_opt transport k with
          | Some parent ->
              Ledger.external_spans ~parent
                (List.map
                   (fun (name, ns) -> ("engine." ^ name, ns))
                   (server_spans reply))
          | None -> ())
        t.replies;
      Ledger.write spans_path;
      let layers =
        ("transport_ms", "transport", `Ms)
        :: List.map
             (fun s -> ("engine." ^ s ^ "_ms", "engine." ^ s, `Ms))
             [
               "parse"; "resolve"; "cache_lookup"; "compaction"; "replan";
               "render"; "export";
             ]
      in
      let values =
        Ledger.values problems layers
        @ [
            ("server.queue_wait_p50_ms", t.telemetry.queue_wait_ms);
            ("compaction.passes", t.telemetry.passes /. float_of_int total);
            ( "compaction.useful_ratio",
              t.telemetry.compacted /. Float.max 1. t.telemetry.passes );
            ("statefile.bytes", float_of_int journal_bytes);
            ( "trace.overhead_ratio",
              Common.sum t.cal_ns /. Common.sum timed.cal_ns );
          ]
        @ (match t.stats with
          | Some s ->
              [
                ( "engine.hit_ratio",
                  float_of_int s.P.hits
                  /. float_of_int (max 1 (s.P.hits + s.P.misses)) );
                ("engine.evictions", float_of_int s.P.evictions);
              ]
          | None -> [])
        @ Hashtbl.fold
            (fun code n acc -> ("errors." ^ code, float_of_int n) :: acc)
            errors []
      in
      {
        Common.attempted = 2 * total;
        failed;
        problems = !problems;
        op_digest;
        metrics = Common.per_layer ~samples:total values;
      }
