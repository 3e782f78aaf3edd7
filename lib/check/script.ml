module Json = Bprc_util.Json
module Fault_plan = Bprc_faults.Fault_plan

type header = {
  scenario : string;
  n : int;
  seed : int;
  trial : int;
  plan : Fault_plan.t;
}

let ( let* ) = Result.bind

module Header = struct
  type t = header

  let kind = "bprc-hunt-script"
  let noun = "hunt script"
  let what = "script"

  let to_fields h =
    [
      ("scenario", Json.Str h.scenario);
      ("n", Json.Int h.n);
      ("seed", Json.Int h.seed);
      ("trial", Json.Int h.trial);
      ("plan", Fault_plan.to_json h.plan);
    ]

  let of_json j =
    let field k conv = Json.field ~what j k conv in
    let* scenario = field "scenario" Json.to_string_opt in
    let* n = Witness.positive ~what j "n" in
    let* seed = field "seed" Json.to_int_opt in
    let* trial = field "trial" Json.to_int_opt in
    let* plan =
      match Json.member "plan" j with
      | Some p -> Fault_plan.of_json p
      | None -> Error "script: missing \"plan\""
    in
    Ok { scenario; n; seed; trial; plan }
end

include (Witness.Make (Header) : Witness.S with type header := header)
