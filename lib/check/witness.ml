module Json = Bprc_util.Json

module type HEADER = sig
  type t

  val kind : string
  val noun : string
  val what : string
  val to_fields : t -> (string * Json.t) list
  val of_json : Json.t -> (t, string) result
end

module type S = sig
  type header
  type t = { header : header; schedule : Explorer.witness }

  val to_string : t -> string
  val of_string : string -> (t, string) result
  val save : path:string -> t -> unit
  val load : path:string -> (t, string) result
end

let ( let* ) = Result.bind

let positive ~what j k =
  let* v = Json.field ~what j k Json.to_int_opt in
  if v >= 1 then Ok v
  else Error (Printf.sprintf "%s: field %S must be positive, got %d" what k v)

module Make (H : HEADER) = struct
  type header = H.t
  type t = { header : header; schedule : Explorer.witness }

  let version = 1

  let to_json { header; schedule = w } =
    Json.Obj
      ((("kind", Json.Str H.kind) :: ("version", Json.Int version)
       :: H.to_fields header)
      @ [
          ("choices", Json.Arr (List.map (fun c -> Json.Int c) w.choices));
          ("flips", Json.Arr (List.map (fun b -> Json.Bool b) w.flips));
          ("failure", Json.Str w.failure);
          ("clock", Json.Int w.clock);
        ])

  let what = H.what
  let field j k conv = Json.field ~what j k conv

  let of_json j =
    let* k = field j "kind" Json.to_string_opt in
    let* () =
      if k = H.kind then Ok ()
      else Error (Printf.sprintf "%s: not a %s (kind %S)" what H.noun k)
    in
    let* v = field j "version" Json.to_int_opt in
    let* () =
      if v = version then Ok ()
      else Error (Printf.sprintf "%s: unsupported version %d" what v)
    in
    let* header = H.of_json j in
    let* choices =
      Json.list_field ~what j "choices" Json.to_int_opt
        ~bad:"non-integer choice"
    in
    let* () =
      match List.find_opt (fun c -> c < 0) choices with
      | None -> Ok ()
      | Some c -> Error (Printf.sprintf "%s: negative choice %d" what c)
    in
    let* flips =
      Json.list_field ~what j "flips" Json.to_bool_opt ~bad:"non-boolean flip"
    in
    let* failure = field j "failure" Json.to_string_opt in
    let* clock = field j "clock" Json.to_int_opt in
    Ok { header; schedule = { Explorer.choices; flips; failure; clock } }

  let to_string t = Json.to_string (to_json t)
  let of_string str = Result.bind (Json.of_string str) of_json
  let save ~path t = Json.save ~path (to_json t)
  let load ~path = Result.bind (Json.load ~path) of_json
end

type header = { config : string; n : int; max_steps : int }

module Header = struct
  type t = header

  let kind = "bprc-check-witness"
  let noun = "check witness"
  let what = "witness"

  let to_fields h =
    [
      ("config", Json.Str h.config);
      ("n", Json.Int h.n);
      ("max_steps", Json.Int h.max_steps);
    ]

  let of_json j =
    let* config = Json.field ~what j "config" Json.to_string_opt in
    let* n = positive ~what j "n" in
    let* max_steps = positive ~what j "max_steps" in
    Ok { config; n; max_steps }
end

include (Make (Header) : S with type header := header)
