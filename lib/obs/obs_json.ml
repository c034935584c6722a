type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      (* %.6g, except that an integer below 1e15 is never rounded and
         never loses its point.  So whatever is read back is written as
         the same bytes: 1030890.33 is written 1.03089e+06, which reads
         back as 1030890.0 and is again written 1.03089e+06. *)
      let s = Printf.sprintf "%.6g" f in
      Buffer.add_string buf
        (if not (Float.is_integer f && Float.abs f < 1e15) then s
         else if float_of_string s <> f then Printf.sprintf "%.1f" f
         else if String.contains s 'e' then s
         else s ^ ".0")
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (String k);
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 1024 in
  write buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* A small recursive-descent parser, used to validate exported traces. *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" c.pos msg))

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let parse_literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.s
    && String.sub c.s c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_raw c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
        | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
        | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
            let hex = String.sub c.s c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* keep it simple: encode BMP code points as UTF-8 *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            loop ()
        | Some x -> advance c; Buffer.add_char buf x; loop ()
        | None -> fail c "unterminated escape")
    | Some x ->
        advance c;
        Buffer.add_char buf x;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec loop () =
    match peek c with Some x when is_num_char x -> advance c; loop () | _ -> ()
  in
  loop ();
  let text = String.sub c.s start (c.pos - start) in
  match int_of_string_opt text with
  | Some n -> Int n
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c (Printf.sprintf "bad number %S" text))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> parse_literal c "null" Null
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some '"' -> String (parse_string_raw c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elems (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (elems [])
      end
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let member () =
          skip_ws c;
          let k = parse_string_raw c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec members acc =
          let kv = member () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members (kv :: acc)
          | Some '}' ->
              advance c;
              List.rev (kv :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some x -> fail c (Printf.sprintf "unexpected character %C" x)

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos <> String.length s then Error "trailing garbage after value"
      else Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None
