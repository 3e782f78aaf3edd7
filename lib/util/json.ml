type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- emitter ------------------------------------------------------- *)

let buf_string buf s =
  Buffer.add_char buf '"';
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
  Buffer.add_char buf '"'

let buf_float buf x =
  (* JSON has no nan/infinity literal. *)
  if not (Float.is_finite x) then Buffer.add_string buf "null"
  else if Float.is_integer x && abs_float x < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" x)
  else Buffer.add_string buf (Printf.sprintf "%.12g" x)

let rec buf_json buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> buf_float buf x
  | Str s -> buf_string buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        buf_json buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        buf_string buf k;
        Buffer.add_char buf ':';
        buf_json buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  buf_json buf j;
  Buffer.contents buf

(* --- parser -------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some x when x = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let l = String.length word in
  if
    cur.pos + l <= String.length cur.src
    && String.sub cur.src cur.pos l = word
  then begin
    cur.pos <- cur.pos + l;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
      advance cur;
      match peek cur with
      | Some '"' -> advance cur; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance cur; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance cur; Buffer.add_char buf '/'; go ()
      | Some 'n' -> advance cur; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance cur; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance cur; Buffer.add_char buf '\t'; go ()
      | Some 'b' -> advance cur; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance cur; Buffer.add_char buf '\012'; go ()
      | Some 'u' ->
        advance cur;
        if cur.pos + 4 > String.length cur.src then fail cur "bad \\u escape";
        let hex = String.sub cur.src cur.pos 4 in
        let code =
          match int_of_string_opt ("0x" ^ hex) with
          | Some c -> c
          | None -> fail cur "bad \\u escape"
        in
        cur.pos <- cur.pos + 4;
        (* Encode the code point as UTF-8 (surrogates are kept as-is
           bytes-wise; the emitter only produces codes < 0x20). *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
        end;
        go ()
      | _ -> fail cur "bad escape")
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek cur with
    | Some c when is_num_char c ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub cur.src start (cur.pos - start) in
  let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s in
  if is_float then
    match float_of_string_opt s with
    | Some x -> Float x
    | None -> fail cur "bad number"
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt s with
      | Some x -> Float x
      | None -> fail cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members ((k, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((k, v) :: acc)
        | _ -> fail cur "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          elems (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']'"
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> parse_number cur

let of_string s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos <> String.length s then Error "trailing garbage after JSON value"
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors ----------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float x when Float.is_integer x -> Some (int_of_float x)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function Arr xs -> Some xs | _ -> None

(* --- document decoding and files ----------------------------------- *)

let field ~what j k conv =
  match Option.bind (member k j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed field %S" what k)

let list_field ~what j k conv ~bad =
  match field ~what j k to_list_opt with
  | Error _ as e -> e
  | Ok xs ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: tl -> (
        match conv x with
        | Some v -> go (v :: acc) tl
        | None -> Error (what ^ ": " ^ bad))
    in
    go [] xs

let save ~path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string j);
      output_char oc '\n')

let load ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> of_string contents
