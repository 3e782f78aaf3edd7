module Json = Bprc_util.Json

type semantics = Safe | Regular

type fault =
  | Crash of { pid : int; at_step : int }
  | Stall of { pid : int; at_step : int; steps : int }
  | Weaken of { index : int; semantics : semantics }

type t = fault list

let weaken_all semantics = [ Weaken { index = -1; semantics } ]

let strengths =
  { Bprc_util.Axis.noun = "register strength";
    tokens =
      [ ("atomic", []); ("regular", weaken_all Regular);
        ("safe", weaken_all Safe) ] }

let semantics_to_string s = Bprc_util.Axis.token strengths (weaken_all s)

let weakens plan = List.exists (function Weaken _ -> true | _ -> false) plan

let weaken_target plan ~index =
  (* Last matching fault wins; index -1 targets every register. *)
  List.fold_left
    (fun acc f ->
      match f with
      | Weaken w when w.index = -1 || w.index = index -> Some w.semantics
      | _ -> acc)
    None plan

let fault_to_json = function
  | Crash { pid; at_step } ->
    Json.Obj
      [ ("fault", Json.Str "crash"); ("pid", Json.Int pid);
        ("at_step", Json.Int at_step) ]
  | Stall { pid; at_step; steps } ->
    Json.Obj
      [ ("fault", Json.Str "stall"); ("pid", Json.Int pid);
        ("at_step", Json.Int at_step); ("steps", Json.Int steps) ]
  | Weaken { index; semantics } ->
    Json.Obj
      [ ("fault", Json.Str "weaken"); ("index", Json.Int index);
        ("semantics", Json.Str (semantics_to_string semantics)) ]

let ( let* ) = Result.bind

let field_int j k =
  match Option.bind (Json.member k j) Json.to_int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "fault: missing integer field %S" k)

let fault_of_json j =
  match Option.bind (Json.member "fault" j) Json.to_string_opt with
  | None -> Error "fault: missing \"fault\" tag"
  | Some "crash" ->
    let* pid = field_int j "pid" in
    let* at_step = field_int j "at_step" in
    Ok (Crash { pid; at_step })
  | Some "stall" ->
    let* pid = field_int j "pid" in
    let* at_step = field_int j "at_step" in
    let* steps = field_int j "steps" in
    Ok (Stall { pid; at_step; steps })
  | Some "weaken" -> (
    let* index = field_int j "index" in
    match Option.bind (Json.member "semantics" j) Json.to_string_opt with
    | None -> Error "fault: missing \"semantics\""
    | Some s -> (
      (* A strength's token is its semantics' name. *)
      match List.assoc_opt s strengths.tokens with
      | Some [ Weaken { semantics; _ } ] -> Ok (Weaken { index; semantics })
      | _ -> Error (Printf.sprintf "unknown register semantics %S" s)))
  | Some tag -> Error (Printf.sprintf "fault: unknown kind %S" tag)

let to_json plan = Json.Arr (List.map fault_to_json plan)

let of_json = function
  | Json.Arr l ->
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* f = fault_of_json j in
        Ok (f :: acc))
      (Ok []) l
    |> Result.map List.rev
  | _ -> Error "fault plan: expected an array"

let pp_fault ppf = function
  | Crash { pid; at_step } -> Fmt.pf ppf "crash(p%d@@%d)" pid at_step
  | Stall { pid; at_step; steps } ->
    Fmt.pf ppf "stall(p%d@@%d for %d)" pid at_step steps
  | Weaken { index; semantics } ->
    Fmt.pf ppf "weaken(%s->%s)"
      (if index = -1 then "all" else Printf.sprintf "r%d" index)
      (semantics_to_string semantics)

let pp ppf plan =
  if plan = [] then Fmt.string ppf "(no faults)"
  else Fmt.(list ~sep:comma pp_fault) ppf plan
