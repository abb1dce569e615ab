type reject_reason =
  | Comm_bound of { pred : int; hops : int; volume : int }
  | Occupied of { holder : int }
  | Mobility of { winner : int }

type binding =
  | Rows of { last : int }
  | Delayed_edge of { src : int; dst : int; delay : int; psl : int }

type event =
  | Candidate of { node : int; cs : int; pe : int; reason : reject_reason }
  | Placed of {
      node : int;
      cs : int;
      pe : int;
      pf : int;
      mobility : int;
      static_level : int;
      arrival : int;
    }
  | Rotated of { nodes : int list }
  | Pass of { pass : int; length : int; outcome : string; binding : binding }
  | Refine_move of { node : int; cs : int; pe : int; accepted : bool }

let collection : event Collector.t = Collector.create ()
let enabled () = Collector.enabled collection
let enable () = Collector.enable collection
let disable () = Collector.disable collection
let reset () = Collector.reset collection
let record ev = Collector.record collection ev
let events () = Collector.items collection

let default_label v = "n" ^ string_of_int v

let pp_reason ?(label = default_label) ppf = function
  | Comm_bound { pred; hops; volume } ->
      Format.fprintf ppf "comm-bound by %s (%d hop%s x volume %d)"
        (label pred) hops
        (if hops = 1 then "" else "s")
        volume
  | Occupied { holder } -> Format.fprintf ppf "occupied by %s" (label holder)
  | Mobility { winner } ->
      Format.fprintf ppf "lost priority tie-break to %s" (label winner)

let pp_binding ?(label = default_label) ppf = function
  | Rows { last } -> Format.fprintf ppf "last occupied row %d" last
  | Delayed_edge { src; dst; delay; psl } ->
      Format.fprintf ppf "edge %s->%s (delay %d) psl %d" (label src)
        (label dst) delay psl

let pp_event ?(label = default_label) ppf = function
  | Candidate { node; cs; pe; reason } ->
      Format.fprintf ppf "candidate %s cs %d pe%d: %a" (label node) cs
        (pe + 1)
        (pp_reason ~label) reason
  | Placed { node; cs; pe; pf; mobility; static_level; arrival } ->
      Format.fprintf ppf
        "placed %s cs %d pe%d (pf %d, mobility %d, level %d, data until %d)"
        (label node) cs (pe + 1) pf mobility static_level arrival
  | Rotated { nodes } ->
      Format.fprintf ppf "rotated {%s}"
        (String.concat " " (List.map label nodes))
  | Pass { pass; length; outcome; binding } ->
      Format.fprintf ppf "pass %d -> length %d (%s), bound by %a" pass length
        outcome
        (pp_binding ~label) binding
  | Refine_move { node; cs; pe; accepted } ->
      Format.fprintf ppf "refine %s -> cs %d pe%d: %s" (label node) cs (pe + 1)
        (if accepted then "accepted" else "rejected")

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

(* One whole line rendered into the shared buffer, one flush per line
   (Json.Writer discipline): a 10^5-decision journal dump is a handful
   of writes, not one per field. *)

let add_line buf ev =
  let w = Buffer.add_string buf in
  let fi k v =
    Buffer.add_char buf ',';
    Json.Writer.add_field_int buf k v
  in
  (match ev with
  | Candidate { node; cs; pe; reason } ->
      w {|{"ev":"candidate"|};
      fi "node" node;
      fi "cs" cs;
      fi "pe" pe;
      (match reason with
      | Comm_bound { pred; hops; volume } ->
          w {|,"reason":"comm_bound"|};
          fi "pred" pred;
          fi "hops" hops;
          fi "volume" volume
      | Occupied { holder } ->
          w {|,"reason":"occupied"|};
          fi "holder" holder
      | Mobility { winner } ->
          w {|,"reason":"mobility"|};
          fi "winner" winner)
  | Placed { node; cs; pe; pf; mobility; static_level; arrival } ->
      w {|{"ev":"placed"|};
      fi "node" node;
      fi "cs" cs;
      fi "pe" pe;
      fi "pf" pf;
      fi "mobility" mobility;
      fi "static_level" static_level;
      fi "arrival" arrival
  | Rotated { nodes } ->
      w {|{"ev":"rotated","nodes":[|};
      List.iteri
        (fun i n ->
          if i > 0 then Buffer.add_char buf ',';
          Json.Writer.add_int buf n)
        nodes;
      Buffer.add_char buf ']'
  | Pass { pass; length; outcome; binding } ->
      w {|{"ev":"pass"|};
      fi "pass" pass;
      fi "length" length;
      Buffer.add_char buf ',';
      Json.Writer.add_field_str buf "outcome" outcome;
      (match binding with
      | Rows { last } ->
          w {|,"binding":"rows"|};
          fi "last" last
      | Delayed_edge { src; dst; delay; psl } ->
          w {|,"binding":"delayed_edge"|};
          fi "src" src;
          fi "dst" dst;
          fi "delay" delay;
          fi "psl" psl)
  | Refine_move { node; cs; pe; accepted } ->
      w {|{"ev":"refine_move"|};
      fi "node" node;
      fi "cs" cs;
      fi "pe" pe;
      w (if accepted then {|,"accepted":true|} else {|,"accepted":false|}));
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n'

let to_jsonl evs =
  let buf = Buffer.create (256 + (48 * List.length evs)) in
  Buffer.add_string buf {|{"schema":"ccsched-journal/1","events":|};
  Json.Writer.add_int buf (List.length evs);
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n';
  List.iter (add_line buf) evs;
  Buffer.contents buf
