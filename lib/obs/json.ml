type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of int * string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let fail msg = raise (Fail (!pos, msg)) in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let lit word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit"
  in
  let utf8 buf cp =
    (* BMP only: surrogate pairs are rare in our own emitters; a lone
       surrogate is encoded as-is, which round-trips for display. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let cp =
                    (hex text.[!pos] lsl 12)
                    lor (hex text.[!pos + 1] lsl 8)
                    lor (hex text.[!pos + 2] lsl 4)
                    lor hex text.[!pos + 3]
                  in
                  pos := !pos + 4;
                  utf8 buf cp
              | _ -> fail "bad escape"));
          go ()
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numeric c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_body ())
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | _ -> fail "expected a value"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else begin
      let members = ref [] in
      let rec go () =
        skip_ws ();
        let key = string_body () in
        skip_ws ();
        expect ':';
        let v = value () in
        members := (key, v) :: !members;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      go ();
      Obj (List.rev !members)
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else begin
      let items = ref [] in
      let rec go () =
        let v = value () in
        items := v :: !items;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            go ()
        | Some ']' -> advance ()
        | _ -> fail "expected ',' or ']'"
      in
      go ();
      Arr (List.rev !items)
    end
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" at msg)

let member key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  let escape_slow b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b "\\u00";
            Buffer.add_char b "0123456789abcdef".[Char.code c lsr 4];
            Buffer.add_char b "0123456789abcdef".[Char.code c land 15]
        | c -> Buffer.add_char b c)
      s

  (* The scans and digit loops below are top-level functions taking the
     string or the buffer as an argument, so a call allocates no
     closure. *)
  let rec clean_from s i n =
    i >= n
    ||
    match String.unsafe_get s i with
    | '"' | '\\' -> false
    | c when Char.code c < 0x20 -> false
    | _ -> clean_from s (i + 1) n

  let clean s = clean_from s 0 (String.length s)

  let add_escaped b s =
    if clean s then Buffer.add_string b s else escape_slow b s

  let escaped_length s =
    let n = ref 0 in
    String.iter
      (fun c ->
        n :=
          !n
          +
          match c with
          | '"' | '\\' | '\n' | '\r' | '\t' -> 2
          | c when Char.code c < 0x20 -> 6
          | _ -> 1)
      s;
    !n

  let escape s =
    if clean s then s
    else begin
      let b = Buffer.create (String.length s + 16) in
      escape_slow b s;
      Buffer.contents b
    end

  (* The digits of [-n] for [n <= 0]: computed in negative space, so
     [min_int] needs no special case. *)
  let rec add_digits_neg b n =
    if n <= -10 then add_digits_neg b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

  let add_int b n =
    if n < 0 then begin
      Buffer.add_char b '-';
      add_digits_neg b n
    end
    else add_digits_neg b (-n)

  let add_float b x =
    if Float.is_integer x && Float.abs x < 1e15 then begin
      (* trailing ".0"-free integers keep the emitters byte-compatible
         with the previous %d-based formatting *)
      add_int b (int_of_float x)
    end
    else Buffer.add_string b (Printf.sprintf "%.17g" x)

  let add_str b s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'

  let add_key b k =
    add_str b k;
    Buffer.add_char b ':'

  let add_field_int b k n =
    add_key b k;
    add_int b n

  let add_field_str b k s =
    add_key b k;
    add_str b s
end
