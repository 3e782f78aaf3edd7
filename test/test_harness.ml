open Bprc_harness
module Json = Bprc_util.Json

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_mean () =
  Alcotest.(check bool) "empty" true (feq (Stats.mean []) 0.0);
  Alcotest.(check bool) "simple" true (feq (Stats.mean [ 1.0; 2.0; 3.0 ]) 2.0)

let test_stddev () =
  Alcotest.(check bool) "constant" true (feq (Stats.stddev [ 5.0; 5.0; 5.0 ]) 0.0);
  (* Sample stddev of {2,4,4,4,5,5,7,9} is ~2.138. *)
  let s = Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check bool) (Printf.sprintf "known value (%f)" s) true
    (abs_float (s -. 2.13809) < 1e-4)

let test_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check bool) "p0 = min" true (feq (Stats.percentile 0.0 xs) 1.0);
  Alcotest.(check bool) "p100 = max" true (feq (Stats.percentile 100.0 xs) 5.0);
  Alcotest.(check bool) "median" true (feq (Stats.median xs) 3.0);
  Alcotest.(check bool) "p25 interp" true (feq (Stats.percentile 25.0 xs) 2.0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty list")
    (fun () -> ignore (Stats.percentile 50.0 []))

let test_percentile_single () =
  (* A one-element sample is every percentile of itself. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f of singleton" p)
        true
        (feq (Stats.percentile p [ 7.5 ]) 7.5))
    [ 0.0; 25.0; 50.0; 100.0 ]

let test_summarize () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.(check bool) "mean" true (feq s.Stats.mean 2.5);
  Alcotest.(check bool) "median" true (feq s.Stats.median 2.5);
  Alcotest.(check bool) "min" true (feq s.Stats.min 1.0);
  Alcotest.(check bool) "max" true (feq s.Stats.max 4.0);
  let e = Stats.summarize [] in
  Alcotest.(check int) "empty count" 0 e.Stats.count;
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan e.Stats.mean)

let test_loglog_slope () =
  (* y = 3 x^2 exactly. *)
  let pts = List.map (fun x -> (x, 3.0 *. x *. x)) [ 1.0; 2.0; 4.0; 8.0 ] in
  Alcotest.(check bool) "slope 2" true
    (abs_float (Stats.loglog_slope pts -. 2.0) < 1e-9);
  (* Non-positive points are dropped, not crashed on. *)
  let with_zero = (0.0, 5.0) :: pts in
  Alcotest.(check bool) "zero dropped" true
    (abs_float (Stats.loglog_slope with_zero -. 2.0) < 1e-9)

let test_linear_slope () =
  let pts = [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  Alcotest.(check bool) "slope 2" true (feq (Stats.linear_slope pts) 2.0);
  Alcotest.(check bool) "degenerate" true (feq (Stats.linear_slope [ (1., 1.) ]) 0.0)

let test_ci95_shrinks () =
  let narrow = List.init 100 (fun i -> float_of_int (i mod 2)) in
  let wide = [ 0.0; 1.0 ] in
  Alcotest.(check bool) "more data, tighter ci" true
    (Stats.ci95 narrow < Stats.ci95 wide)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (float_bound_exclusive 100.0))
        (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_exclusive 1000.0))
    (fun xs ->
      let m = Stats.mean xs in
      m >= Stats.minimum xs -. 1e-9 && m <= Stats.maximum xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let sample_table () =
  Table.make ~id:"T0" ~title:"sample" ~columns:[ "a"; "bb" ]
    ~notes:[ "a note" ]
    [ [ "1"; "2" ]; [ "33"; "4" ] ]

let test_table_render () =
  let s = Table.render (sample_table ()) in
  Alcotest.(check bool) "has title" true
    (Astring.String.is_infix ~affix:"T0: sample" s
     || String.length s > 0 && String.sub s 0 3 = "===");
  Alcotest.(check bool) "has note" true
    (String.length s > 0
    && List.exists
         (fun line -> String.trim line = "a note")
         (String.split_on_char '\n' s))

let test_table_unicode_alignment () =
  (* Cells with multi-byte UTF-8 text pad by code points, so every
     row of the rendered table has the same display width. *)
  let t =
    Table.make ~id:"U" ~title:"widths" ~columns:[ "bound 1/(2δ)"; "b" ]
      [ [ "0.25"; "§2" ]; [ "handshake (paper §2)"; "x" ] ]
  in
  let width s =
    String.fold_left
      (fun w c -> if Char.code c land 0xC0 <> 0x80 then w + 1 else w)
      0 s
  in
  let lines =
    String.split_on_char '\n' (Table.render t)
    |> List.filter (fun l -> l <> "" && (l.[0] = '|' || l.[0] = '+'))
  in
  Alcotest.(check int) "header, rule lines, rows" 6 (List.length lines);
  List.iter
    (fun l -> Alcotest.(check int) ("width of " ^ l) 29 (width l))
    lines;
  Alcotest.(check string) "csv unchanged"
    "bound 1/(2δ),b\n0.25,§2\nhandshake (paper §2),x\n" (Table.to_csv t)

let test_table_row_mismatch () =
  Alcotest.check_raises "row width" (Invalid_argument "Table.make: row width mismatch")
    (fun () ->
      ignore
        (Table.make ~id:"X" ~title:"t" ~columns:[ "a"; "b" ] [ [ "1" ] ]))

let test_table_csv () =
  let csv = Table.to_csv (sample_table ()) in
  Alcotest.(check string) "csv" "a,bb\n1,2\n33,4\n" csv

let test_table_csv_escaping () =
  let t =
    Table.make ~id:"X" ~title:"t" ~columns:[ "a" ] [ [ "x,y" ]; [ "q\"z" ] ]
  in
  Alcotest.(check string) "escaped" "a\n\"x,y\"\n\"q\"\"z\"\n" (Table.to_csv t)

let test_fmt_float () =
  Alcotest.(check string) "integer" "42" (Table.fmt_float 42.0);
  Alcotest.(check string) "small" "0.125" (Table.fmt_float 0.125);
  Alcotest.(check string) "large" "1234.5" (Table.fmt_float 1234.5)

let test_table_to_json () =
  let t =
    Table.make ~id:"T1" ~title:"json sample" ~columns:[ "n"; "mean"; "tag" ]
      ~notes:[ "note" ]
      ~metrics:[ ("slope", 2.0) ]
      [ [ "4"; "1.5"; "ok" ]; [ "8"; "2.5"; "-" ] ]
  in
  let s = Json.to_string (Table.to_json t) in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("contains " ^ affix) true
        (Astring.String.is_infix ~affix s))
    [
      "\"id\":\"T1\"";
      "\"columns\":[\"n\",\"mean\",\"tag\"]";
      "[4,1.5,\"ok\"]";
      "[8,2.5,\"-\"]";
      "\"slope\":2";
    ]

let test_json_string_escaping () =
  let s =
    Json.to_string
      (Json.Arr
         [
           Json.Str "a\"b";
           Json.Str "c\\d";
           Json.Str "e\nf";
           Json.Str "\x01";
           Json.Float nan;
           Json.Float 0.5;
           Json.Bool true;
           Json.Null;
         ])
  in
  Alcotest.(check string) "escaped"
    "[\"a\\\"b\",\"c\\\\d\",\"e\\nf\",\"\\u0001\",null,0.5,true,null]" s

let test_report_json () =
  let table =
    Table.make ~id:"E0" ~title:"t" ~columns:[ "x"; "label" ]
      [ [ "1"; "a" ]; [ "3"; "b" ] ]
  in
  let r =
    {
      Report.date = Report.iso8601 0.0;
      workers = 2;
      quick = true;
      total_wall_s = 1.25;
      entries = [ { Report.table; wall_s = 0.25 } ];
    }
  in
  let s = Report.to_string r in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("contains " ^ affix) true
        (Astring.String.is_infix ~affix s))
    [
      "\"schema_version\":2";
      "\"date\":\"1970-01-01T00:00:00Z\"";
      "\"workers\":2";
      "\"id\":\"E0\"";
      "\"wall_s\":0.25";
    ];
  Alcotest.(check bool) "schema 2 has no calibration" false
    (Astring.String.is_infix ~affix:"calibration" s);
  (* Column summaries cover numeric columns only. *)
  let sums = Report.column_summaries table in
  Alcotest.(check (list string)) "numeric columns" [ "x" ] (List.map fst sums);
  let x = List.assoc "x" sums in
  Alcotest.(check int) "samples" 2 x.Stats.count;
  Alcotest.(check bool) "mean" true (feq x.Stats.mean 2.0)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let with_pool workers f =
  let p = Pool.create ~workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let test_pool_map_order () =
  with_pool 3 (fun p ->
      let r = Pool.map p 20 (fun i -> i * i) in
      Alcotest.(check (array int)) "ordered results"
        (Array.init 20 (fun i -> i * i))
        r;
      Alcotest.(check (array int)) "empty map" [||] (Pool.map p 0 (fun i -> i)))

let test_pool_workers_deterministic () =
  (* The same seeded trial function must give bit-identical results at
     any worker count. *)
  let trial rng = List.init 5 (fun _ -> Bprc_rng.Splitmix.int rng 1000) in
  let run workers =
    with_pool workers (fun p ->
        let rng = Bprc_rng.Splitmix.create ~seed:99 in
        Pool.map_seeded p ~rng ~trials:37 trial)
  in
  let one = run 1 in
  Alcotest.(check bool) "2 workers = sequential" true (run 2 = one);
  Alcotest.(check bool) "5 workers = sequential" true (run 5 = one)

let test_pool_map_seeded_preserves_rng () =
  with_pool 2 (fun p ->
      let rng = Bprc_rng.Splitmix.create ~seed:7 in
      let probe = Bprc_rng.Splitmix.copy rng in
      ignore (Pool.map_seeded p ~rng ~trials:10 (fun r -> Bprc_rng.Splitmix.int r 10));
      Alcotest.(check int64) "caller rng not advanced"
        (Bprc_rng.Splitmix.next64 probe)
        (Bprc_rng.Splitmix.next64 rng))

let test_pool_exception_propagates () =
  with_pool 3 (fun p ->
      Alcotest.check_raises "trial exception surfaces" (Failure "trial 7")
        (fun () ->
          ignore
            (Pool.map p 16 (fun i ->
                 if i = 7 then failwith "trial 7" else i)));
      (* The pool survives a failed batch. *)
      Alcotest.(check (array int)) "still usable"
        (Array.init 4 (fun i -> i))
        (Pool.map p 4 (fun i -> i)))

let test_pool_nested_map_rejected () =
  with_pool 2 (fun p ->
      Alcotest.check_raises "nested map"
        (Invalid_argument "Pool.map: nested map on the same pool") (fun () ->
          ignore (Pool.map p 2 (fun _ -> Pool.map p 2 (fun i -> i)))))

let test_pool_default_other_domain_rejected () =
  (* Touch the shared pool from this (main) domain first so the owner
     id is pinned, then probe it from a helper domain: it must raise a
     clear Invalid_argument instead of deadlocking on the shared job
     queue. *)
  let p = Pool.default () in
  Alcotest.(check bool) "main domain gets the pool" true (Pool.workers p >= 1);
  let from_helper =
    Domain.join
      (Domain.spawn (fun () ->
           match Pool.default () with
           | _ -> `No_raise
           | exception Invalid_argument msg -> `Rejected msg))
  in
  (match from_helper with
  | `Rejected msg ->
    Alcotest.(check bool)
      "message names Pool.default" true
      (String.length msg >= 12 && String.sub msg 0 12 = "Pool.default")
  | `No_raise -> Alcotest.fail "Pool.default usable from a helper domain");
  (* The main domain is unaffected. *)
  Alcotest.(check (array int)) "still usable from owner"
    (Array.init 3 (fun i -> i))
    (Pool.map p 3 (fun i -> i))

let test_pool_map_list () =
  with_pool 3 (fun p ->
      Alcotest.(check (list int)) "order preserved" [ 1; 4; 9; 16 ]
        (Pool.map_list p (fun x -> x * x) [ 1; 2; 3; 4 ]);
      Alcotest.(check (list int)) "empty" [] (Pool.map_list p (fun x -> x) []))

let test_pool_experiment_matches_sequential () =
  (* End to end: an experiment over a multi-worker pool equals the
     1-worker run row for row. *)
  match Experiments.by_id "E2" with
  | None -> Alcotest.fail "E2 missing"
  | Some fn ->
    let seq = with_pool 1 (fun p -> fn ~quick:true ~pool:p ()) in
    let par = with_pool 4 (fun p -> fn ~quick:true ~pool:p ()) in
    Alcotest.(check bool) "identical tables" true
      (seq.Table.rows = par.Table.rows && seq.Table.metrics = par.Table.metrics)

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

let test_inputs_of_pattern () =
  Alcotest.(check (array bool)) "unanimous" [| true; true; true |]
    (Run.inputs_of_pattern (Run.Unanimous true) ~n:3 ~seed:1);
  Alcotest.(check (array bool)) "split" [| true; false; true; false |]
    (Run.inputs_of_pattern Run.Split ~n:4 ~seed:1);
  let a = Run.inputs_of_pattern Run.Random_inputs ~n:8 ~seed:5 in
  let b = Run.inputs_of_pattern Run.Random_inputs ~n:8 ~seed:5 in
  Alcotest.(check (array bool)) "random deterministic" a b

(* [accepted] lists tokens with the values they name: each must parse
   to its value, and the value must print as a token that parses back
   to it. *)
let round_trip what ~parse ~print accepted =
  List.iter
    (fun (token, v) ->
      if parse token <> Ok v then
        Alcotest.failf "%s: %s parses to another value" what token;
      let printed = print v in
      if parse printed <> Ok v then
        Alcotest.failf "%s: %s prints as %s, which does not parse back" what
          token printed)
    accepted

(* ... and [accepted] is every token of [axis]. *)
let axis_round_trip what axis accepted =
  let sorted l = List.sort compare (List.map fst l) in
  Alcotest.(check (list string))
    (what ^ ": every token") (sorted accepted)
    (sorted axis.Bprc_util.Axis.tokens);
  round_trip what ~parse:(Bprc_util.Axis.parse axis)
    ~print:(Bprc_util.Axis.token axis) accepted

let test_axis_tokens_round_trip () =
  let open Bprc_core.Ads89 in
  axis_round_trip "algo" Run.algos
    [
      ("ads", Run.Ads Shared_walk);
      ("ads89", Run.Ads Shared_walk);
      ("local", Run.Ads Local_flips);
      ("oracle", Run.Ads Oracle_shared);
      ("esnap", Run.Ads_esnap Shared_walk);
      ("ads-esnap", Run.Ads_esnap Shared_walk);
      ("esnap-local", Run.Ads_esnap Local_flips);
      ("esnap-oracle", Run.Ads_esnap Oracle_shared);
      ("ah", Run.Ah);
      ("ah88", Run.Ah);
    ];
  (* Every value the library runs has a token, so a report can name
     the command that reproduces it. *)
  List.iter
    (fun algo ->
      match Bprc_util.Axis.token Run.algos algo with
      | token ->
        if Bprc_util.Axis.parse Run.algos token <> Ok algo then
          Alcotest.failf "algo %s: token %s names another value"
            (Run.algo_name algo) token
      | exception Not_found ->
        Alcotest.failf "algo %s has no token" (Run.algo_name algo))
    (Run.Ah
    :: List.concat_map
         (fun coin -> [ Run.Ads coin; Run.Ads_esnap coin ])
         [ Shared_walk; Local_flips; Oracle_shared ]);
  let scheds =
    [
      ("random", Run.Random_sched);
      ("rr", Run.Round_robin_sched);
      ("round-robin", Run.Round_robin_sched);
      ("anti-coin", Run.Anti_coin_sched);
      ("split", Run.Osc_coin_sched);
    ]
  in
  axis_round_trip "sched" Run.schedulers scheds;
  round_trip "sched" ~parse:Run.sched_of_token ~print:Run.sched_token
    (("bursty:1", Run.Bursty_sched 1)
     :: ("bursty:7", Run.Bursty_sched 7)
     :: scheds);
  List.iter
    (fun (token, refusal) ->
      Alcotest.(check (result reject string))
        token (Error refusal) (Run.sched_of_token token))
    [
      ("bursty:0", "bursty:<positive burst> expected");
      ("bursty:x", "bursty:<positive burst> expected");
      ("bursty-7", "unknown scheduler bursty-7");
    ];
  axis_round_trip "inputs" Run.patterns
    [
      ("random", Run.Random_inputs);
      ("split", Run.Split);
      ("ones", Run.Unanimous true);
      ("zeros", Run.Unanimous false);
    ];
  let module F = Bprc_faults.Fault_plan in
  axis_round_trip "registers" F.strengths
    [
      ("atomic", []);
      ("regular", [ F.Weaken { index = -1; semantics = F.Regular } ]);
      ("safe", [ F.Weaken { index = -1; semantics = F.Safe } ]);
    ];
  let module E = Bprc_service.Engine in
  axis_round_trip "mode" E.modes
    [
      ("det", E.Deterministic);
      ("deterministic", E.Deterministic);
      ("thr", E.Throughput);
      ("throughput", E.Throughput);
    ]

let test_coin_once_deterministic () =
  let a = Run.coin_once ~n:3 ~seed:11 () in
  let b = Run.coin_once ~n:3 ~seed:11 () in
  Alcotest.(check bool) "same values" true (a.Run.values = b.Run.values);
  Alcotest.(check int) "same steps" a.Run.walk_steps b.Run.walk_steps

let test_coin_once_adaptive_completes () =
  List.iter
    (fun sched ->
      let r = Run.coin_once ~sched ~n:4 ~seed:3 () in
      Alcotest.(check bool)
        (Run.sched_name sched ^ " completes")
        true r.Run.coin_completed;
      Alcotest.(check int)
        (Run.sched_name sched ^ " everyone decides")
        4
        (List.length r.Run.values))
    [ Run.Anti_coin_sched; Run.Osc_coin_sched ]

let test_consensus_once_all_scheds () =
  List.iter
    (fun sched ->
      let r =
        Run.consensus_once ~sched ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
          ~pattern:Run.Split ~n:4 ~seed:2 ()
      in
      Alcotest.(check bool) (Run.sched_name sched ^ " ok") true
        (r.Run.completed && r.Run.spec = Ok ()))
    [
      Run.Random_sched;
      Run.Round_robin_sched;
      Run.Bursty_sched 5;
      Run.Anti_coin_sched;
      Run.Osc_coin_sched;
    ]

let test_consensus_once_crash () =
  let r =
    Run.consensus_once
      ~faults:[ Bprc_faults.Fault_plan.Crash { pid = 0; at_step = 26 } ]
      ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk) ~pattern:Run.Random_inputs
      ~n:3 ~seed:4 ()
  in
  Alcotest.(check bool) "completes despite crash" true r.Run.completed;
  Alcotest.(check bool) "spec holds" true (r.Run.spec = Ok ())

(* A run cut at its step cap is a timeout whose steps equal the cap; a
   finished run with a failed spec is a violation, and still finished. *)
let test_tally () =
  let n = 4 and cap = 50 in
  let algo = Run.Ads Bprc_core.Ads89.Shared_walk in
  let sim =
    Bprc_runtime.Sim.create ~seed:1 ~max_steps:cap ~n
      ~adversary:(Bprc_runtime.Adversary.random ()) ()
  in
  let cut =
    Run.consensus_on sim ~protocol:(Run.protocol algo) ~max_steps:cap
      ~inputs:(Run.inputs_of_pattern Run.Split ~n ~seed:1)
      ()
  in
  Alcotest.(check bool) "cut run incomplete" false cut.Run.completed;
  Alcotest.(check int) "cut run's steps equal the cap" cap cut.Run.steps;
  let clean = Run.consensus_once ~algo ~pattern:Run.Split ~n ~seed:2 () in
  Alcotest.(check bool) "clean run" true
    (clean.Run.completed && clean.Run.spec = Ok ());
  let violating = { clean with Run.spec = Error "stub" } in
  let t = Run.tally [| clean; cut; violating |] in
  Alcotest.(check int) "trials" 3 t.Run.trials;
  Alcotest.(check bool) "finished, in trial order" true
    (List.length t.Run.finished = 2
    && List.for_all2 ( == ) t.Run.finished [ clean; violating ]);
  Alcotest.(check int) "violations" 1 t.Run.violations;
  Alcotest.(check int) "timeouts" 1 t.Run.timeouts

(* ------------------------------------------------------------------ *)
(* Experiments (smoke at tiny sizes)                                   *)
(* ------------------------------------------------------------------ *)

let test_experiments_registry () =
  (* No E14: ids are not renumbered when an experiment is removed. *)
  Alcotest.(check (list string))
    "experiment ids"
    [ "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
      "E12"; "E13"; "E15"; "E16" ]
    Experiments.ids;
  List.iter
    (fun id ->
      match Experiments.by_id id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing %s" id)
    Experiments.ids;
  Alcotest.(check bool) "case-insensitive" true (Experiments.by_id "e1" <> None);
  Alcotest.(check bool) "unknown" true (Experiments.by_id "E99" = None)

let test_experiment_tables_well_formed () =
  (* The fast experiments, at quick sizes: tables render and rows align. *)
  List.iter
    (fun id ->
      match Experiments.by_id id with
      | None -> Alcotest.failf "missing %s" id
      | Some fn ->
        let t = fn ~quick:true () in
        let rendered = Table.render t in
        Alcotest.(check bool) (id ^ " renders") true (String.length rendered > 0))
    [ "E3"; "E4"; "E7"; "E8" ]

let test_e8_reports_zero_mismatches () =
  match Experiments.by_id "E8" with
  | None -> Alcotest.fail "E8 missing"
  | Some fn ->
    let t = fn ~quick:true () in
    List.iter
      (fun row ->
        match List.rev row with
        | mismatches :: _ ->
          Alcotest.(check string) "no mismatches" "0" mismatches
        | [] -> Alcotest.fail "empty row")
      t.Table.rows

let test_e9_reports_zero_violations () =
  match Experiments.by_id "E9" with
  | None -> Alcotest.fail "E9 missing"
  | Some fn ->
    let t = fn ~quick:true () in
    List.iter
      (fun row ->
        match row with
        | _ :: _ :: _ :: _ :: violations :: _ ->
          Alcotest.(check string) "no violations" "0" violations
        | _ -> Alcotest.fail "unexpected row shape")
      t.Table.rows

let suite =
  [
    Alcotest.test_case "stats: mean" `Quick test_mean;
    Alcotest.test_case "stats: stddev" `Quick test_stddev;
    Alcotest.test_case "stats: percentile" `Quick test_percentile;
    Alcotest.test_case "stats: percentile singleton" `Quick
      test_percentile_single;
    Alcotest.test_case "stats: summarize" `Quick test_summarize;
    Alcotest.test_case "stats: loglog slope" `Quick test_loglog_slope;
    Alcotest.test_case "stats: linear slope" `Quick test_linear_slope;
    Alcotest.test_case "stats: ci95" `Quick test_ci95_shrinks;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_mean_between_min_max;
    Alcotest.test_case "table: render" `Quick test_table_render;
    Alcotest.test_case "table: row mismatch" `Quick test_table_row_mismatch;
    Alcotest.test_case "table: pads by display width" `Quick
      test_table_unicode_alignment;
    Alcotest.test_case "table: csv" `Quick test_table_csv;
    Alcotest.test_case "table: csv escaping" `Quick test_table_csv_escaping;
    Alcotest.test_case "table: float formatting" `Quick test_fmt_float;
    Alcotest.test_case "table: to_json" `Quick test_table_to_json;
    Alcotest.test_case "json: string escaping" `Quick test_json_string_escaping;
    Alcotest.test_case "report: json rendering" `Quick test_report_json;
    Alcotest.test_case "pool: map order" `Quick test_pool_map_order;
    Alcotest.test_case "pool: deterministic across workers" `Quick
      test_pool_workers_deterministic;
    Alcotest.test_case "pool: map_seeded preserves rng" `Quick
      test_pool_map_seeded_preserves_rng;
    Alcotest.test_case "pool: exceptions propagate" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: default rejected off-domain" `Quick
      test_pool_default_other_domain_rejected;
    Alcotest.test_case "pool: map_list" `Quick test_pool_map_list;
    Alcotest.test_case "pool: nested map rejected" `Quick
      test_pool_nested_map_rejected;
    Alcotest.test_case "pool: experiment matches sequential" `Slow
      test_pool_experiment_matches_sequential;
    Alcotest.test_case "run: input patterns" `Quick test_inputs_of_pattern;
    Alcotest.test_case "run: axis tokens round-trip" `Quick
      test_axis_tokens_round_trip;
    Alcotest.test_case "run: coin deterministic" `Quick
      test_coin_once_deterministic;
    Alcotest.test_case "run: adaptive coins complete" `Quick
      test_coin_once_adaptive_completes;
    Alcotest.test_case "run: consensus all schedulers" `Quick
      test_consensus_once_all_scheds;
    Alcotest.test_case "run: crash injection" `Quick test_consensus_once_crash;
    Alcotest.test_case "run: tally" `Quick test_tally;
    Alcotest.test_case "experiments: registry" `Quick test_experiments_registry;
    Alcotest.test_case "experiments: tables well-formed" `Slow
      test_experiment_tables_well_formed;
    Alcotest.test_case "experiments: E8 zero mismatches" `Slow
      test_e8_reports_zero_mismatches;
    Alcotest.test_case "experiments: E9 zero violations" `Slow
      test_e9_reports_zero_violations;
  ]
