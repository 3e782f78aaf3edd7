(* The benchmark program.

     suite.exe --workload NAME --seed N --seconds S --trace 0|1
               [--scale F] [--report FILE]
         one workload in this process; the last line of standard output
         is the result: {"correct", "attempted", "failed", "metrics"}.
         --trace 0 reports the end-to-end metrics, --trace 1 the
         per-layer ones (and prints the layer ledger).  --scale shrinks
         the per-sample work; --report writes every sample, exact count
         and ledger as JSON.
     suite.exe run [--seed N] [--seconds S] [--out FILE]
         every workload, each in its own process, untraced; writes a
         report (default perfsuite/out/run.json) for compare
     suite.exe trace [--seed N] [--out FILE]
         the traced run of every workload (default perfsuite/out/trace.json,
         spans included)
     suite.exe compare A.json[,A2.json...] B.json[,B2.json...]
         improved / within-noise / regressed / unresolved for every
         workload and end-to-end metric, and exact counts
     suite.exe smoke
         every workload at 1% size, untraced twice and traced once:
         result keys, repeated exact counts, wiring checks, and
         BENCHMARK.json against this program's own tables *)

module J = Bprc_util.Json

let usage () =
  prerr_string
    "usage: suite.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale F] [--report FILE]\n\
    \       suite.exe run [--seed N] [--seconds S] [--out FILE]\n\
    \       suite.exe trace [--seed N] [--out FILE]\n\
    \       suite.exe compare A.json[,...] B.json[,...]\n\
    \       suite.exe smoke\n";
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* ---- one workload in this process -------------------------------------- *)

let print_metrics (o : Outcome.t) =
  List.iter
    (fun (name, v) ->
      let spread =
        match List.assoc_opt name o.Outcome.samples with
        | Some (_ :: _ :: _ as xs) ->
          let q1, _, q3 = Meter.quartiles xs in
          Printf.sprintf "  [q1 %.6g, q3 %.6g, %d samples]" q1 q3
            (List.length xs)
        | _ -> ""
      in
      Printf.printf "  %-34s %14.6g %-6s%s\n" name v (Outcome.metric_unit name)
        spread)
    o.Outcome.metrics;
  List.iter
    (fun (name, xs) ->
      if String.starts_with ~prefix:"raw." name || name = "probe_s" then
        Printf.printf "  %-34s %14.6g        [median, not scaled]\n" name (Meter.median xs))
    o.Outcome.samples

let drive args =
  let workload = ref None
  and seed = ref None
  and seconds = ref None
  and trace = ref None
  and scale = ref 1.0
  and report = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: tl ->
      workload := Some v;
      go tl
    | "--seed" :: v :: tl ->
      seed := int_of_string_opt v;
      go tl
    | "--seconds" :: v :: tl ->
      seconds := float_of_string_opt v;
      go tl
    | "--trace" :: v :: tl ->
      trace := Some v;
      go tl
    | "--scale" :: v :: tl ->
      scale := Option.value (float_of_string_opt v) ~default:nan;
      go tl
    | "--report" :: v :: tl ->
      report := Some v;
      go tl
    | _ -> usage ()
  in
  go args;
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace
    when seconds >= 0.0 && (trace = "0" || trace = "1") && !scale > 0.0 -> (
    match Catalog.find name with
    | None ->
      fail "unknown workload %s (known: %s)" name
        (String.concat ", " (List.map (fun w -> w.Catalog.name) Catalog.workloads))
    | Some w ->
      let o =
        if trace = "1" then Traced.run ~scale:!scale ~seed w
        else Measure.untraced ~scale:!scale ~seed ~seconds w
      in
      Printf.printf "%s seed %d: %s, %d of %d requests failed\n" name seed
        (if o.Outcome.correct then "correct" else "INCORRECT")
        o.Outcome.failed o.Outcome.attempted;
      List.iter (Printf.printf "  problem: %s\n") o.Outcome.problems;
      print_metrics o;
      Option.iter
        (fun path -> Outcome.write_file path (J.to_string (Outcome.to_json o)))
        !report;
      print_endline (Outcome.result_line o))
  | _ -> usage ()

(* ---- child processes --------------------------------------------------- *)

(* Run this executable on one workload and read back its report.  The
   child's output goes to ours unless [capture], which returns it. *)
let child ?(capture = false) ~report args =
  let argv = Array.of_list (Sys.executable_name :: args @ [ "--report"; report ]) in
  let status, out =
    if capture then begin
      let ic = Unix.open_process_args_in Sys.executable_name argv in
      let out = In_channel.input_all ic in
      (Unix.close_process_in ic, out)
    end
    else begin
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout
          Unix.stderr
      in
      (snd (Unix.waitpid [] pid), "")
    end
  in
  let o =
    match status with
    | Unix.WEXITED 0 when Sys.file_exists report ->
      let o = Outcome.load report in
      Sys.remove report;
      Some o
    | _ -> None
  in
  (o, out)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let split_commas s = List.filter (( <> ) "") (String.split_on_char ',' s)

let suite_args ~default_out args =
  let seed = ref 1 and seconds = ref 25.0 and out = ref default_out in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: tl ->
      seed := Option.value (int_of_string_opt v) ~default:!seed;
      go tl
    | "--seconds" :: v :: tl ->
      seconds := Option.value (float_of_string_opt v) ~default:!seconds;
      go tl
    | "--out" :: v :: tl ->
      out := v;
      go tl
    | _ -> usage ()
  in
  go args;
  (!seed, !seconds, !out)

(* Each workload in its own process, one after the other. *)
let suite ~trace args =
  let seed, seconds, out =
    suite_args
      ~default_out:(if trace then "perfsuite/out/trace.json" else "perfsuite/out/run.json")
      args
  in
  mkdir_p (Filename.dirname out);
  let t0 = Meter.now_ns () in
  let results =
    List.map
      (fun (w : Catalog.workload) ->
        let name = w.name in
        let report = Printf.sprintf "%s.%s.part" out name in
        let o, _ =
          child ~report
            [
              "--workload"; name; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
            ]
        in
        (name, o))
      Catalog.workloads
  in
  let wall = Meter.since_s t0 in
  let done_ = List.filter_map snd results in
  Outcome.write_file out
    (J.to_string
       (J.Obj
          [
            ("kind", J.Str (if trace then "bprc-perfsuite-trace" else "bprc-perfsuite-run"));
            ("seed", J.Int seed);
            ("seconds", J.Float seconds);
            ("wall_s", J.Float wall);
            ("workloads", J.Arr (List.map Outcome.to_json done_));
          ]));
  Printf.printf "\n%s: %d workloads in %.1f s, written to %s\n"
    (if trace then "trace" else "run") (List.length done_) wall out;
  let bad =
    List.filter_map
      (fun (name, o) ->
        match o with
        | None -> Some (name ^ ": the run failed")
        | Some o when not o.Outcome.correct -> Some (name ^ ": incorrect")
        | Some _ -> None)
      results
  in
  List.iter (Printf.printf "  %s\n") bad;
  if bad <> [] then exit 1

(* ---- compare ----------------------------------------------------------- *)

let load_reports arg =
  List.concat_map
    (fun path ->
      let j =
        match J.of_string (Outcome.read_file path) with
        | Ok j -> j
        | Error e -> fail "%s: %s" path e
      in
      match J.member "workloads" j with
      | Some (J.Arr ws) -> List.map Outcome.of_json ws
      | _ -> [ Outcome.of_json j ])
    (split_commas arg)

let compare_reports a b =
  let a = load_reports a and b = load_reports b in
  let rows = Compare.rows ~a ~b in
  Compare.print rows;
  (match Compare.exact_mismatches ~a ~b with
  | [] -> print_endline "exact counts: identical wherever the seeds match"
  | ws -> Printf.printf "exact counts DIFFER: %s\n" (String.concat ", " ws));
  let count v = List.length (List.filter (fun r -> r.Compare.verdict = v) rows) in
  Printf.printf "%d improved, %d within-noise, %d regressed, %d unresolved\n"
    (count Compare.Improved) (count Compare.Within_noise)
    (count Compare.Regressed) (count Compare.Unresolved)

(* ---- smoke ------------------------------------------------------------- *)

let keys = function J.Obj kvs -> List.map fst kvs | _ -> []

(* The last line a child printed must be the contract's result object
   with exactly [expected] metrics, each with its unit. *)
let check_result_line ~expected out =
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  match List.rev lines with
  | [] -> Error "no output"
  | last :: _ -> (
    match J.of_string last with
    | Error e -> Error ("last line is not JSON: " ^ e)
    | Ok j ->
      let metrics = match J.member "metrics" j with Some m -> m | None -> J.Null in
      let units_ok =
        List.for_all
          (fun (m : Catalog.metric) ->
            match J.member m.m_name metrics with
            | Some v -> J.member "unit" v = Some (J.Str m.m_unit)
            | None -> false)
          expected
      in
      if keys j <> [ "correct"; "attempted"; "failed"; "metrics" ] then
        Error "result keys are not correct/attempted/failed/metrics"
      else if
        List.sort compare (keys metrics)
        <> List.sort compare (List.map (fun m -> m.Catalog.m_name) expected)
        || not units_ok
      then Error "metric names or units differ from the catalog"
      else Ok ())

(* BENCHMARK.json, when present in the working directory, must restate
   this program's workloads and metrics. *)
let check_benchmark_json () =
  let path = "BENCHMARK.json" in
  if not (Sys.file_exists path) then Ok "BENCHMARK.json not present, skipped"
  else
    match J.of_string (Outcome.read_file path) with
    | Error e -> Error ("BENCHMARK.json: " ^ e)
    | Ok j ->
      let list k = Option.value (Option.bind (J.member k j) J.to_list_opt) ~default:[] in
      let str k x = Option.bind (J.member k x) J.to_string_opt in
      let metrics k (table : Catalog.metric list) with_bound =
        List.map
          (fun x ->
            ( str "name" x,
              str "unit" x,
              str "better" x,
              if with_bound then Option.bind (J.member "bound" x) Outcome.number
              else None ))
          (list k)
        = List.map
            (fun (m : Catalog.metric) ->
              ( Some m.m_name,
                Some m.m_unit,
                Some (Catalog.better_name m.better),
                if with_bound then Some m.bound else None ))
            table
      in
      let workloads =
        List.map (fun x -> (str "name" x, str "why" x)) (list "workloads")
        = List.map
            (fun (w : Catalog.workload) -> (Some w.name, Some w.why))
            Catalog.workloads
      in
      if not workloads then Error "BENCHMARK.json workloads differ from the catalog"
      else if not (metrics "end_to_end" Catalog.end_to_end true) then
        Error "BENCHMARK.json end_to_end differs from the catalog"
      else if not (metrics "per_layer" Catalog.per_layer false) then
        Error "BENCHMARK.json per_layer differs from the catalog"
      else Ok "BENCHMARK.json matches the catalog"

let smoke () =
  let t0 = Meter.now_ns () in
  let dir = Filename.concat "perfsuite" "out" in
  mkdir_p dir;
  let failures = ref [] in
  let note w fmt =
    Printf.ksprintf (fun s -> failures := Printf.sprintf "%s: %s" w s :: !failures) fmt
  in
  List.iter
    (fun (w : Catalog.workload) ->
      let args trace =
        [
          "--workload"; w.name; "--seed"; "1"; "--seconds"; "0"; "--trace"; trace;
          "--scale"; "0.01";
        ]
      in
      let report = Filename.concat dir (w.name ^ ".smoke.part") in
      let run trace expected =
        let o, out = child ~capture:true ~report (args trace) in
        (match o with None -> note w.name "--trace %s run failed" trace | Some _ -> ());
        (match check_result_line ~expected out with
        | Ok () -> ()
        | Error e -> note w.name "--trace %s: %s" trace e);
        o
      in
      let a = run "0" Catalog.end_to_end in
      let b = run "0" Catalog.end_to_end in
      let t = run "1" Catalog.per_layer in
      (match (a, b) with
      | Some a, Some b when a.Outcome.exact <> b.Outcome.exact ->
        note w.name "exact counts differ between two runs of one seed"
      | _ -> ());
      List.iter
        (function
          | Some o when not o.Outcome.correct ->
            note w.name "incorrect: %s" (String.concat "; " o.Outcome.problems)
          | _ -> ())
        [ a; b; t ];
      Printf.printf "smoke %-22s %s\n%!" w.name
        (if List.exists (fun f -> String.starts_with ~prefix:(w.name ^ ":") f) !failures
         then "FAIL"
         else "ok"))
    Catalog.workloads;
  (match check_benchmark_json () with
  | Ok msg -> print_endline msg
  | Error e -> failures := e :: !failures);
  Printf.printf "smoke: %.1f s\n" (Meter.since_s t0);
  List.iter (Printf.printf "  %s\n") (List.rev !failures);
  if !failures <> [] then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> suite ~trace:false args
  | "trace" :: args -> suite ~trace:true args
  | [ "compare"; a; b ] -> compare_reports a b
  | [ "smoke" ] -> smoke ()
  | ("help" | "--help" | "-h") :: _ -> usage ()
  | args -> drive args
