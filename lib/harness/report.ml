module Json = Bprc_util.Json

type entry = { table : Table.t; wall_s : float }

type t = {
  date : string;
  workers : int;
  quick : bool;
  total_wall_s : float;
  entries : entry list;
}

let schema_version = 2

let iso8601 time =
  let tm = Unix.gmtime time in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let column_summaries (table : Table.t) =
  List.mapi
    (fun c name ->
      let samples =
        List.filter_map
          (fun row ->
            match List.nth_opt row c with
            | None -> None
            | Some cell -> (
              match float_of_string_opt cell with
              | Some x when Float.is_finite x -> Some x
              | Some _ | None -> None))
          table.Table.rows
      in
      (name, samples))
    table.Table.columns
  |> List.filter_map (fun (name, samples) ->
         if samples = [] then None else Some (name, Stats.summarize samples))

let summary_json (s : Stats.summary) =
  Json.Obj
    [
      ("count", Json.Int s.Stats.count);
      ("mean", Json.Float s.Stats.mean);
      ("median", Json.Float s.Stats.median);
      ("ci95", Json.Float s.Stats.ci95);
      ("min", Json.Float s.Stats.min);
      ("max", Json.Float s.Stats.max);
    ]

let entry_json e =
  let base =
    match Table.to_json e.table with
    | Json.Obj kvs -> kvs
    | _ -> assert false
  in
  Json.Obj
    (base
    @ [
        ("wall_s", Json.Float e.wall_s);
        ( "column_summaries",
          Json.Obj
            (List.map
               (fun (name, s) -> (name, summary_json s))
               (column_summaries e.table)) );
      ])

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.Str "bprc-bench-report");
      ("date", Json.Str r.date);
      ("workers", Json.Int r.workers);
      ("quick", Json.Bool r.quick);
      ("total_wall_s", Json.Float r.total_wall_s);
      ("experiments", Json.Arr (List.map entry_json r.entries));
    ]

let to_string r = Json.to_string (to_json r)

let write ~path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string r);
      output_char oc '\n')
