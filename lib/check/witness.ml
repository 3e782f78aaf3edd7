module Json = Bprc_util.Json

let kind = "bprc-check-witness"
let version = 1

type t = {
  config : string;
  n : int;
  max_steps : int;
  choices : int list;
  flips : bool list;
  failure : string;
  clock : int;
}

let of_witness ~config ~n ~max_steps (w : Explorer.witness) =
  {
    config;
    n;
    max_steps;
    choices = w.choices;
    flips = w.flips;
    failure = w.failure;
    clock = w.clock;
  }

let to_explorer t =
  {
    Explorer.choices = t.choices;
    flips = t.flips;
    failure = t.failure;
    clock = t.clock;
  }

let to_json t =
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("version", Json.Int version);
      ("config", Json.Str t.config);
      ("n", Json.Int t.n);
      ("max_steps", Json.Int t.max_steps);
      ("choices", Json.Arr (List.map (fun c -> Json.Int c) t.choices));
      ("flips", Json.Arr (List.map (fun b -> Json.Bool b) t.flips));
      ("failure", Json.Str t.failure);
      ("clock", Json.Int t.clock);
    ]

let ( let* ) = Result.bind

let what = "witness"
let field j k conv = Json.field ~what j k conv

let of_json j =
  let* k = field j "kind" Json.to_string_opt in
  let* () =
    if k = kind then Ok ()
    else Error (Printf.sprintf "witness: not a check witness (kind %S)" k)
  in
  let* v = field j "version" Json.to_int_opt in
  let* () =
    if v = version then Ok ()
    else Error (Printf.sprintf "witness: unsupported version %d" v)
  in
  let* config = field j "config" Json.to_string_opt in
  let* n = field j "n" Json.to_int_opt in
  let* max_steps = field j "max_steps" Json.to_int_opt in
  let* choices =
    Json.list_field ~what j "choices" Json.to_int_opt
      ~bad:"non-integer choice"
  in
  let* flips =
    Json.list_field ~what j "flips" Json.to_bool_opt
      ~bad:"non-boolean flip"
  in
  let* failure = field j "failure" Json.to_string_opt in
  let* clock = field j "clock" Json.to_int_opt in
  Ok { config; n; max_steps; choices; flips; failure; clock }

let to_string t = Json.to_string (to_json t)

let of_string str =
  let* j = Json.of_string str in
  of_json j

let save ~path t = Json.save ~path (to_json t)
let load ~path = Result.bind (Json.load ~path) of_json
