module Json = Bprc_util.Json

let kind = "bprc-hunt-script"
let version = 1

type t = {
  scenario : string;
  n : int;
  seed : int;
  trial : int;
  plan : Fault_plan.t;
  choices : int list;
  flips : bool list;
  failure : string;
  clock : int;
}

let to_json s =
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("version", Json.Int version);
      ("scenario", Json.Str s.scenario);
      ("n", Json.Int s.n);
      ("seed", Json.Int s.seed);
      ("trial", Json.Int s.trial);
      ("plan", Fault_plan.to_json s.plan);
      ("choices", Json.Arr (List.map (fun c -> Json.Int c) s.choices));
      ("flips", Json.Arr (List.map (fun b -> Json.Bool b) s.flips));
      ("failure", Json.Str s.failure);
      ("clock", Json.Int s.clock);
    ]

let ( let* ) = Result.bind

let what = "script"
let field j k conv = Json.field ~what j k conv

let of_json j =
  let* k = field j "kind" Json.to_string_opt in
  let* () =
    if k = kind then Ok ()
    else Error (Printf.sprintf "script: not a hunt script (kind %S)" k)
  in
  let* v = field j "version" Json.to_int_opt in
  let* () =
    if v = version then Ok ()
    else Error (Printf.sprintf "script: unsupported version %d" v)
  in
  let* scenario = field j "scenario" Json.to_string_opt in
  let* n = field j "n" Json.to_int_opt in
  let* seed = field j "seed" Json.to_int_opt in
  let* trial = field j "trial" Json.to_int_opt in
  let* plan =
    match Json.member "plan" j with
    | Some p -> Fault_plan.of_json p
    | None -> Error "script: missing \"plan\""
  in
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
  Ok { scenario; n; seed; trial; plan; choices; flips; failure; clock }

let to_string s = Json.to_string (to_json s)

let of_string str =
  let* j = Json.of_string str in
  of_json j

let save ~path s = Json.save ~path (to_json s)
let load ~path = Result.bind (Json.load ~path) of_json
