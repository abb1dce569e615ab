type stall_cause =
  | Input_wait of { src : int; dst : int; msg : int }
  | Link_busy of { link : int * int; msg : int }
  | Pe_busy
  | Link_down of { link : int * int; msg : int }

type event =
  | Instance_start of { t : int; node : int; iter : int; pe : int }
  | Instance_finish of { t : int; node : int; iter : int; pe : int }
  | Msg_send of {
      t : int;
      msg : int;
      src : int;
      dst : int;
      src_iter : int;
      dst_iter : int;
      from_pe : int;
      to_pe : int;
      volume : int;
    }
  | Msg_hop of { t : int; msg : int; link : int * int; busy : int }
  | Msg_deliver of {
      t : int;
      msg : int;
      node : int;
      iter : int;
      latency : int;
    }
  | Stall of {
      t : int;
      node : int;
      iter : int;
      pe : int;
      wait : int;
      cause : stall_cause;
    }
  | Msg_retry of {
      t : int;
      msg : int;
      link : int * int;
      attempt : int;
      backoff : int;
    }
  | Msg_dropped of { t : int; msg : int; link : int * int; attempts : int }
  | Pe_fail of { t : int; pe : int }
  | Link_fail of { t : int; link : int * int; until : int option }
  | Degraded of {
      t : int;
      survivors : int list;
      moved : int;
      migration_cost : int;
      length : int;
    }

let time = function
  | Instance_start { t; _ }
  | Instance_finish { t; _ }
  | Msg_send { t; _ }
  | Msg_hop { t; _ }
  | Msg_deliver { t; _ }
  | Stall { t; _ }
  | Msg_retry { t; _ }
  | Msg_dropped { t; _ }
  | Pe_fail { t; _ }
  | Link_fail { t; _ }
  | Degraded { t; _ } ->
      t

type recorder = { mutable items : event list; mutable n : int }

let recorder () = { items = []; n = 0 }

let record r ev =
  r.items <- ev :: r.items;
  r.n <- r.n + 1

let count r = r.n
let events r = List.rev r.items
let by_time evs = List.stable_sort (fun a b -> compare (time a) (time b)) evs

let deliveries evs =
  List.length (List.filter (function Msg_deliver _ -> true | _ -> false) evs)

let hops evs =
  List.length (List.filter (function Msg_hop _ -> true | _ -> false) evs)

let stalls evs =
  List.length (List.filter (function Stall _ -> true | _ -> false) evs)

let retries evs =
  List.length (List.filter (function Msg_retry _ -> true | _ -> false) evs)

let drops evs =
  List.length (List.filter (function Msg_dropped _ -> true | _ -> false) evs)

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

(* One whole line rendered straight into the shared buffer — digits via
   Obs.Json.Writer, no intermediate sprintf strings.  A scale-tier run
   dumps 10^5+ events, so per-event allocation here is the dump's hot
   path. *)

let add_line buf ev =
  let w = Buffer.add_string buf in
  let fi k v =
    Buffer.add_char buf ',';
    Obs.Json.Writer.add_field_int buf k v
  in
  (match ev with
  | Instance_start { t; node; iter; pe } ->
      w {|{"ev":"instance_start"|};
      fi "t" t;
      fi "node" node;
      fi "iter" iter;
      fi "pe" pe
  | Instance_finish { t; node; iter; pe } ->
      w {|{"ev":"instance_finish"|};
      fi "t" t;
      fi "node" node;
      fi "iter" iter;
      fi "pe" pe
  | Msg_send { t; msg; src; dst; src_iter; dst_iter; from_pe; to_pe; volume }
    ->
      w {|{"ev":"msg_send"|};
      fi "t" t;
      fi "msg" msg;
      fi "src" src;
      fi "dst" dst;
      fi "src_iter" src_iter;
      fi "dst_iter" dst_iter;
      fi "from_pe" from_pe;
      fi "to_pe" to_pe;
      fi "volume" volume
  | Msg_hop { t; msg; link = a, b; busy } ->
      w {|{"ev":"msg_hop"|};
      fi "t" t;
      fi "msg" msg;
      fi "a" a;
      fi "b" b;
      fi "busy" busy
  | Msg_deliver { t; msg; node; iter; latency } ->
      w {|{"ev":"msg_deliver"|};
      fi "t" t;
      fi "msg" msg;
      fi "node" node;
      fi "iter" iter;
      fi "latency" latency
  | Stall { t; node; iter; pe; wait; cause } -> (
      w {|{"ev":"stall"|};
      fi "t" t;
      fi "node" node;
      fi "iter" iter;
      fi "pe" pe;
      fi "wait" wait;
      match cause with
      | Input_wait { src; dst; msg } ->
          w {|,"cause":"input_wait"|};
          fi "src" src;
          fi "dst" dst;
          fi "msg" msg
      | Link_busy { link = a, b; msg } ->
          w {|,"cause":"link_busy"|};
          fi "a" a;
          fi "b" b;
          fi "msg" msg
      | Pe_busy -> w {|,"cause":"pe_busy"|}
      | Link_down { link = a, b; msg } ->
          w {|,"cause":"link_down"|};
          fi "a" a;
          fi "b" b;
          fi "msg" msg)
  | Msg_retry { t; msg; link = a, b; attempt; backoff } ->
      w {|{"ev":"msg_retry"|};
      fi "t" t;
      fi "msg" msg;
      fi "a" a;
      fi "b" b;
      fi "attempt" attempt;
      fi "backoff" backoff
  | Msg_dropped { t; msg; link = a, b; attempts } ->
      w {|{"ev":"msg_dropped"|};
      fi "t" t;
      fi "msg" msg;
      fi "a" a;
      fi "b" b;
      fi "attempts" attempts
  | Pe_fail { t; pe } ->
      w {|{"ev":"pe_fail"|};
      fi "t" t;
      fi "pe" pe
  | Link_fail { t; link = a, b; until } ->
      w {|{"ev":"link_fail"|};
      fi "t" t;
      fi "a" a;
      fi "b" b;
      fi "until" (Option.value ~default:(-1) until)
  | Degraded { t; survivors; moved; migration_cost; length } ->
      w {|{"ev":"degraded"|};
      fi "t" t;
      w {|,"survivors":[|};
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char buf ',';
          Obs.Json.Writer.add_int buf p)
        survivors;
      Buffer.add_char buf ']';
      fi "moved" moved;
      fi "migration_cost" migration_cost;
      fi "length" length);
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n'

let to_jsonl evs =
  let evs = by_time evs in
  let buf = Buffer.create (4096 + (64 * List.length evs)) in
  Buffer.add_string buf {|{"schema":"ccsched-sim-events/2","events":|};
  Obs.Json.Writer.add_int buf (List.length evs);
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n';
  List.iter (add_line buf) evs;
  Buffer.contents buf
