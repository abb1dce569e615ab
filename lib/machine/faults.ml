type fault =
  | Pe_fail_stop of { pe : int; at : int }
  | Link_down of { a : int; b : int; from_t : int; until : int option }
  | Link_lossy of { a : int; b : int; loss : float }

type scenario = {
  name : string;
  faults : fault list;
  max_retries : int;
  backoff_base : int;
  detect_delay : int;
}

let scenario ?(max_retries = 4) ?(backoff_base = 1) ?(detect_delay = 0) ~name
    faults =
  if max_retries < 0 then invalid_arg "Faults.scenario: max_retries < 0";
  if backoff_base < 1 then invalid_arg "Faults.scenario: backoff_base < 1";
  if detect_delay < 0 then invalid_arg "Faults.scenario: detect_delay < 0";
  List.iter
    (function
      | Link_lossy { loss; _ } ->
          if not (loss >= 0. && loss < 1.) then
            invalid_arg "Faults.scenario: loss probability outside [0, 1)"
      | Pe_fail_stop { at; _ } ->
          if at < 0 then invalid_arg "Faults.scenario: negative fault time"
      | Link_down { from_t; until; _ } ->
          if from_t < 0 then
            invalid_arg "Faults.scenario: negative fault time";
          (match until with
          | Some u when u <= from_t ->
              invalid_arg "Faults.scenario: window ends before it starts"
          | _ -> ()))
    faults;
  { name; faults; max_retries; backoff_base; detect_delay }

let validate sc topo =
  let np = Topology.n_processors topo in
  let check_pe what p =
    if p < 0 || p >= np then
      Error
        (Printf.sprintf "%s: processor %d out of range for %s (%d processors)"
           what (p + 1) (Topology.name topo) np)
    else Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | Pe_fail_stop { pe; _ } :: rest -> (
        match check_pe "fail-pe" pe with Ok () -> go rest | e -> e)
    | (Link_down { a; b; _ } | Link_lossy { a; b; _ }) :: rest -> (
        if a = b then Error "link fault: endpoints must differ"
        else
          match check_pe "link fault" a with
          | Ok () -> (
              match check_pe "link fault" b with Ok () -> go rest | e -> e)
          | e -> e)
  in
  go sc.faults

(* ------------------------------------------------------------------ *)
(* DSL                                                                 *)
(* ------------------------------------------------------------------ *)

type error = { line : int; message : string }

let error_to_string e =
  if e.line > 0 then Printf.sprintf "line %d: %s" e.line e.message
  else e.message

let of_string text =
  let name = ref "unnamed" in
  let faults = ref [] in
  let max_retries = ref 4 in
  let backoff_base = ref 1 in
  let detect_delay = ref 0 in
  let error line message = Error { line; message } in
  let strip_comment line =
    match String.index_opt line '#' with
    | None -> line
    | Some i -> String.sub line 0 i
  in
  let parse_nat lineno what s k =
    match int_of_string_opt s with
    | Some v when v >= 0 -> k v
    | _ -> error lineno (Printf.sprintf "invalid %s %S" what s)
  in
  (* 1-based processor id in the text, 0-based in the types *)
  let parse_pe lineno s k =
    match int_of_string_opt s with
    | Some v when v >= 1 -> k (v - 1)
    | _ -> error lineno (Printf.sprintf "invalid processor id %S (1-based)" s)
  in
  let parse_line lineno line =
    let words =
      strip_comment line |> String.split_on_char ' '
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> Ok ()
    | [ "scenario"; n ] ->
        name := n;
        Ok ()
    | [ "retries"; n ] ->
        parse_nat lineno "retry bound" n (fun v ->
            max_retries := v;
            Ok ())
    | [ "backoff"; n ] ->
        parse_nat lineno "backoff base" n (fun v ->
            if v < 1 then error lineno "backoff base must be >= 1"
            else begin
              backoff_base := v;
              Ok ()
            end)
    | [ "detect"; n ] ->
        parse_nat lineno "detection delay" n (fun v ->
            detect_delay := v;
            Ok ())
    | [ "fail-pe"; p; "at"; t ] ->
        parse_pe lineno p (fun pe ->
            parse_nat lineno "fault time" t (fun at ->
                faults := Pe_fail_stop { pe; at } :: !faults;
                Ok ()))
    | [ "link-down"; a; b; "from"; t ] ->
        parse_pe lineno a (fun a ->
            parse_pe lineno b (fun b ->
                parse_nat lineno "fault time" t (fun from_t ->
                    faults := Link_down { a; b; from_t; until = None } :: !faults;
                    Ok ())))
    | [ "link-down"; a; b; "from"; t; "until"; u ] ->
        parse_pe lineno a (fun a ->
            parse_pe lineno b (fun b ->
                parse_nat lineno "fault time" t (fun from_t ->
                    parse_nat lineno "window end" u (fun until ->
                        if until <= from_t then
                          error lineno "window ends before it starts"
                        else begin
                          faults :=
                            Link_down { a; b; from_t; until = Some until }
                            :: !faults;
                          Ok ()
                        end))))
    | [ "link-lossy"; a; b; p ] ->
        parse_pe lineno a (fun a ->
            parse_pe lineno b (fun b ->
                match float_of_string_opt p with
                | Some loss when loss >= 0. && loss < 1. ->
                    faults := Link_lossy { a; b; loss } :: !faults;
                    Ok ()
                | _ ->
                    error lineno
                      (Printf.sprintf "invalid loss probability %S (need [0, 1))"
                         p)))
    | kw :: _ -> error lineno (Printf.sprintf "unrecognised directive %S" kw)
  in
  let lines = String.split_on_char '\n' text in
  let rec run lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_line lineno line with
        | Ok () -> run (lineno + 1) rest
        | Error _ as e -> e)
  in
  match run 1 lines with
  | Error _ as e -> e
  | Ok () ->
      Ok
        {
          name = !name;
          faults = List.rev !faults;
          max_retries = !max_retries;
          backoff_base = !backoff_base;
          detect_delay = !detect_delay;
        }

let read_file ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error msg -> Error { line = 0; message = msg }

let to_string sc =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "scenario %s\n" sc.name);
  Buffer.add_string buf (Printf.sprintf "retries %d\n" sc.max_retries);
  Buffer.add_string buf (Printf.sprintf "backoff %d\n" sc.backoff_base);
  Buffer.add_string buf (Printf.sprintf "detect %d\n" sc.detect_delay);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (match f with
        | Pe_fail_stop { pe; at } ->
            Printf.sprintf "fail-pe %d at %d\n" (pe + 1) at
        | Link_down { a; b; from_t; until = None } ->
            Printf.sprintf "link-down %d %d from %d\n" (a + 1) (b + 1) from_t
        | Link_down { a; b; from_t; until = Some u } ->
            Printf.sprintf "link-down %d %d from %d until %d\n" (a + 1) (b + 1)
              from_t u
        | Link_lossy { a; b; loss } ->
            Printf.sprintf "link-lossy %d %d %g\n" (a + 1) (b + 1) loss))
    sc.faults;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Deterministic draws                                                 *)
(* ------------------------------------------------------------------ *)

type armed = { scenario : scenario; seed : int }

let arm ?(seed = 0) scenario = { scenario; seed }

(* Avalanching integer hash (splitmix-style finalizer) over the triple.
   30 bits of uniformity are plenty for loss draws, and native-int
   arithmetic keeps it allocation-free. *)
let mix seed msg xmit =
  let h =
    ref ((seed * 0x9E3779B9) lxor (msg * 0x85EBCA6B) lxor (xmit * 0xC2B2AE35))
  in
  h := !h lxor (!h lsr 16);
  h := !h * 0x7FEB352D;
  h := !h lxor (!h lsr 15);
  h := !h * 0x846CA68B;
  h := !h lxor (!h lsr 16);
  !h land 0x3FFFFFFF

let lost ~seed ~msg ~xmit p =
  p > 0. && float_of_int (mix seed msg xmit) /. 1073741824. < p

(* ------------------------------------------------------------------ *)
(* Run report                                                          *)
(* ------------------------------------------------------------------ *)

type report = {
  scenario_name : string;
  seed : int;
  failed_pes : int list;
  failed_links : (int * int) list;
  fault_time : int option;
  surviving_pes : int;
  retries : int;
  drops : int;
  undelivered : int;
  lost_instances : int;
  completed_iterations : int;
  replayed_iterations : int;
  pre_fault_period : float;
  post_fault_period : float;
  migration_cost : int;
  moved_nodes : int;
  recovery_latency : int;
  degraded_length : int option;
  replan_error : string option;
}

let pp_report ppf r =
  let pes l = String.concat " " (List.map (fun p -> "pe" ^ string_of_int (p + 1)) l) in
  Format.fprintf ppf "@[<v>fault scenario %s (seed %d)@," r.scenario_name r.seed;
  (match (r.failed_pes, r.failed_links) with
  | [], [] -> Format.fprintf ppf "no permanent faults@,"
  | pes_l, links ->
      if pes_l <> [] then Format.fprintf ppf "failed processors: %s@," (pes pes_l);
      if links <> [] then
        Format.fprintf ppf "failed links: %s@,"
          (String.concat " "
             (List.map
                (fun (a, b) -> Printf.sprintf "pe%d--pe%d" (a + 1) (b + 1))
                links));
      (match r.fault_time with
      | Some t -> Format.fprintf ppf "first permanent fault at t=%d@," t
      | None -> ());
      Format.fprintf ppf "surviving processors: %d@," r.surviving_pes);
  Format.fprintf ppf "messages: %d retried, %d dropped, %d undelivered@,"
    r.retries r.drops r.undelivered;
  if r.lost_instances > 0 then
    Format.fprintf ppf "lost instances: %d@," r.lost_instances;
  Format.fprintf ppf
    "iterations: %d completed pre-fault, %d replayed degraded@,"
    r.completed_iterations r.replayed_iterations;
  Format.fprintf ppf "period: %.2f pre-fault, %.2f post-fault@,"
    r.pre_fault_period r.post_fault_period;
  (match r.degraded_length with
  | Some l ->
      Format.fprintf ppf
        "recovery: latency %d (migration cost %d, %d nodes moved), degraded \
         table length %d@,"
        r.recovery_latency r.migration_cost r.moved_nodes l
  | None -> ());
  (match r.replan_error with
  | Some e -> Format.fprintf ppf "UNRECOVERABLE: %s@," e
  | None -> ());
  Format.fprintf ppf "@]"
