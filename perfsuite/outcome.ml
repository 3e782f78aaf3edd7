(* What one workload run reports, and its JSON forms: the one-line
   result the run prints last, and the detailed report a parent
   [suite.exe run]/[trace]/[smoke] reads back. *)

module J = Bprc_util.Json

type t = {
  workload : string;
  seed : int;
  correct : bool;
  problems : string list;  (** failed self-checks and wrong outputs *)
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** value of every reported metric *)
  samples : (string * float list) list;
      (** per-sample values behind the medians *)
  exact : (string * int) list;  (** counts that repeat across samples *)
  detail : (string * J.t) list;  (** ledger, span summary, spans *)
}

let metric_unit name =
  match
    List.find_opt
      (fun m -> m.Catalog.m_name = name)
      (Catalog.end_to_end @ Catalog.per_layer)
  with
  | Some m -> m.Catalog.m_unit
  | None -> invalid_arg ("unknown metric " ^ name)

let float x = J.Float x

(* The line the benchmark contract reads: exactly these four keys. *)
let result_line o =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool o.correct);
         ("attempted", J.Int o.attempted);
         ("failed", J.Int o.failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun (name, v) ->
                  ( name,
                    J.Obj [ ("value", float v); ("unit", J.Str (metric_unit name)) ]
                  ))
                o.metrics) );
       ])

let to_json o =
  J.Obj
    [
      ("workload", J.Str o.workload);
      ("seed", J.Int o.seed);
      ("correct", J.Bool o.correct);
      ("problems", J.Arr (List.map (fun s -> J.Str s) o.problems));
      ("attempted", J.Int o.attempted);
      ("failed", J.Int o.failed);
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, float v)) o.metrics));
      ( "samples",
        J.Obj
          (List.map (fun (k, vs) -> (k, J.Arr (List.map float vs))) o.samples)
      );
      ("exact", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) o.exact));
      ("detail", J.Obj o.detail);
    ]

let number = function
  | J.Float x -> Some x
  | J.Int i -> Some (float_of_int i)
  | J.Null -> Some nan
  | _ -> None

let field k j = match J.member k j with Some v -> v | None -> J.Null

let obj k j = match field k j with J.Obj kvs -> kvs | _ -> []

let of_json j =
  let int k = Option.value (J.to_int_opt (field k j)) ~default:0 in
  let str k = Option.value (J.to_string_opt (field k j)) ~default:"" in
  let bool k = Option.value (J.to_bool_opt (field k j)) ~default:false in
  {
    workload = str "workload";
    seed = int "seed";
    correct = bool "correct";
    problems =
      List.filter_map J.to_string_opt
        (Option.value (J.to_list_opt (field "problems" j)) ~default:[]);
    attempted = int "attempted";
    failed = int "failed";
    metrics =
      List.filter_map
        (fun (k, v) -> Option.map (fun x -> (k, x)) (number v))
        (obj "metrics" j);
    samples =
      List.map
        (fun (k, v) ->
          ( k,
            List.filter_map number (Option.value (J.to_list_opt v) ~default:[])
          ))
        (obj "samples" j);
    exact =
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (J.to_int_opt v))
        (obj "exact" j);
    detail = obj "detail" j;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      output_char oc '\n')

let load path =
  match J.of_string (read_file path) with
  | Ok j -> of_json j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
