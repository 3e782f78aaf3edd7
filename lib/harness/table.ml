type t = {
  id : string;
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;
  metrics : (string * float) list;
}

let make ~id ~title ~columns ?(notes = []) ?(metrics = []) rows =
  List.iter
    (fun r ->
      if List.length r <> List.length columns then
        invalid_arg "Table.make: row width mismatch")
    rows;
  { id; title; columns; rows; notes; metrics }

(* Display width: the UTF-8 code points, i.e. the bytes that do not
   continue a multi-byte sequence. *)
let width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

let render t =
  let all = t.columns :: t.rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> widths.(i) <- max widths.(i) (width cell)))
    all;
  let buf = Buffer.create 1024 in
  let line ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - width cell) ' ');
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf (Printf.sprintf "=== %s: %s ===\n" t.id t.title);
  line '-';
  row t.columns;
  line '=';
  List.iter row t.rows;
  line '-';
  List.iter (fun n -> Buffer.add_string buf ("  " ^ n ^ "\n")) t.notes;
  Buffer.contents buf

let print t = print_string (render t)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 512 in
  let row cells =
    Buffer.add_string buf (String.concat "," (List.map csv_escape cells));
    Buffer.add_char buf '\n'
  in
  row t.columns;
  List.iter row t.rows;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

module Json = Bprc_util.Json

let cell_json s =
  (* Numeric cells become JSON numbers so reports diff numerically. *)
  match int_of_string_opt s with
  | Some i -> Json.Int i
  | None -> (
    match float_of_string_opt s with
    | Some x when Float.is_finite x -> Json.Float x
    | Some _ | None -> Json.Str s)

let to_json t =
  Json.(
    Obj
      [
        ("id", Str t.id);
        ("title", Str t.title);
        ("columns", Arr (List.map (fun c -> Str c) t.columns));
        ("rows", Arr (List.map (fun r -> Arr (List.map cell_json r)) t.rows));
        ("notes", Arr (List.map (fun s -> Str s) t.notes));
        ("metrics", Obj (List.map (fun (k, v) -> (k, Float v)) t.metrics));
      ])

let fmt_float x =
  if Float.is_integer x && abs_float x < 1e15 then
    Printf.sprintf "%.0f" x
  else if abs_float x >= 100.0 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.3f" x

let fmt_int = string_of_int
