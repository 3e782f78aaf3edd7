open Bprc_faults
open Bprc_check

(* ------------------------------------------------------------------ *)
(* Fault plans and scripts: JSON round-trips                           *)
(* ------------------------------------------------------------------ *)

let all_kinds_plan : Fault_plan.t =
  [
    Fault_plan.Crash { pid = 2; at_step = 17 };
    Fault_plan.Stall { pid = 0; at_step = 5; steps = 300 };
    Fault_plan.Weaken { index = -1; semantics = Fault_plan.Safe };
    Fault_plan.Weaken { index = 3; semantics = Fault_plan.Regular };
  ]

let scenario name = Result.get_ok (Config.find_scenario name)
let snapshot_unsafe = scenario "snapshot-unsafe"
let consensus = scenario "consensus"

let plan_testable =
  Alcotest.testable Fault_plan.pp (fun (a : Fault_plan.t) b -> a = b)

let test_plan_json_roundtrip () =
  let j = Fault_plan.to_json all_kinds_plan in
  (match Fault_plan.of_json j with
  | Ok p -> Alcotest.check plan_testable "round-trip" all_kinds_plan p
  | Error e -> Alcotest.failf "decode failed: %s" e);
  (* Text round-trip too: through the printer/parser pair. *)
  let s = Bprc_util.Json.to_string j in
  match Bprc_util.Json.of_string s with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok j' -> (
    match Fault_plan.of_json j' with
    | Ok p -> Alcotest.check plan_testable "text round-trip" all_kinds_plan p
    | Error e -> Alcotest.failf "decode after reparse failed: %s" e)

(* A script saved with a link fault ("drop", "duplicate", "delay") holds
   an unknown kind too: it is refused, not replayed without the fault. *)
let test_plan_json_rejects_garbage () =
  let open Bprc_util.Json in
  List.iter
    (fun (tag, fields) ->
      match Fault_plan.of_json (Arr [ Obj (("fault", Str tag) :: fields) ]) with
      | Error e ->
        Alcotest.(check string)
          tag (Printf.sprintf "fault: unknown kind %S" tag) e
      | Ok _ -> Alcotest.failf "unknown fault tag %S must be rejected" tag)
    [
      ("melt", []);
      ("drop", [ ("nth", Int 12) ]);
      ("duplicate", [ ("nth", Int 40) ]);
      ("delay", [ ("nth", Int 7); ("by", Int 25) ]);
    ]

let test_weaken_target () =
  let get = Fault_plan.weaken_target all_kinds_plan in
  Alcotest.(check bool) "index 3 regular" true
    (get ~index:3 = Some Fault_plan.Regular);
  Alcotest.(check bool) "other indices safe via -1" true
    (get ~index:0 = Some Fault_plan.Safe);
  Alcotest.(check bool) "no weaken -> none" true
    (Fault_plan.weaken_target
       [ Fault_plan.Crash { pid = 0; at_step = 0 } ]
       ~index:0
    = None)

let sample_script : Script.t =
  {
    Script.header =
      {
        scenario = "snapshot-unsafe";
        n = 4;
        seed = 123456789;
        trial = 42;
        plan = all_kinds_plan;
      };
    schedule =
      {
        choices = [ 0; 2; 1; 1; 0 ];
        flips = [ true; false; true ];
        failure = "snapshot: P1: scan returned stale value";
        clock = 321;
      };
  }

let test_script_roundtrip () =
  match Script.of_string (Script.to_string sample_script) with
  | Ok s ->
    Alcotest.(check bool) "script round-trips" true (s = sample_script)
  | Error e -> Alcotest.failf "script decode failed: %s" e

let test_script_save_load () =
  let path = Filename.temp_file "bprc-script" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Script.save ~path sample_script;
      match Script.load ~path with
      | Ok s -> Alcotest.(check bool) "save/load identity" true (s = sample_script)
      | Error e -> Alcotest.failf "load failed: %s" e);
  match Script.load ~path:"/nonexistent/bprc-script.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loading a missing file must return Error"

let test_script_rejects_wrong_kind () =
  match Script.of_string {|{"kind":"something-else","version":1}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong kind discriminator must be rejected"

(* ------------------------------------------------------------------ *)
(* ddmin                                                               *)
(* ------------------------------------------------------------------ *)

let test_ddmin_single_culprit () =
  let input = List.init 32 (fun i -> i) in
  let got = Shrink.ddmin ~test:(fun l -> List.mem 17 l) input in
  Alcotest.(check (list int)) "isolates the culprit" [ 17 ] got

let test_ddmin_pair () =
  let input = List.init 20 (fun i -> i) in
  let test l = List.mem 3 l && List.mem 15 l in
  let got = Shrink.ddmin ~test input in
  Alcotest.(check (list int)) "keeps exactly the pair, in order" [ 3; 15 ] got

let test_ddmin_edge_cases () =
  Alcotest.(check (list int)) "empty passing input" []
    (Shrink.ddmin ~test:(fun _ -> true) []);
  Alcotest.(check (list int)) "non-failing input unchanged" [ 1; 2; 3 ]
    (Shrink.ddmin ~test:(fun l -> List.length l > 5) [ 1; 2; 3 ]);
  let calls = ref 0 in
  let got =
    Shrink.ddmin
      ~test:(fun l -> incr calls; List.length l >= 3)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check int) "any 3 elements suffice" 3 (List.length got);
  Alcotest.(check bool) "every candidate was validated" true (!calls > 0)

(* ------------------------------------------------------------------ *)
(* Record / replay on a live scenario                                  *)
(* ------------------------------------------------------------------ *)

(* Record a run, then replay its choices and flips: the outcome must be
   bit-identical (same failure or lack of one, same final clock).  Each
   scenario runs three plans of its own generator. *)
let test_record_replay_identity () =
  List.iter
    (fun (scenario : Config.scenario) ->
      let exec = Hunt.exec scenario ~n:4 in
      let rng = Bprc_rng.Splitmix.create ~seed:7 in
      for seed = 1 to 3 do
        let plan = scenario.gen_plan ~n:4 ~rng in
        let r1 = exec ~seed ~plan ~mode:Hunt.Record in
        let r2 =
          exec ~seed ~plan
            ~mode:
              (Hunt.Replay
                 { choices = r1.Hunt.choices; flips = r1.Hunt.flips })
        in
        let label = Printf.sprintf "%s seed %d" scenario.name seed in
        Alcotest.(check (option string))
          (label ^ ": same failure") r1.Hunt.failure r2.Hunt.failure;
        Alcotest.(check int)
          (label ^ ": same clock") r1.Hunt.clock r2.Hunt.clock
      done)
    Config.scenarios

(* One run, two drivers: a hunt run of [snapshot-unsafe] under a plan
   that only weakens registers, replayed by the explorer on the same
   program, fails alike at the same clock.  Each pinned seed fails at
   its size; over seeds 1-5000 the two agree on all 52 failing runs
   (31, 16 and 5 at n = 2, 3 and 4). *)
let test_hunt_run_replays_in_explorer () =
  let plan =
    [ Fault_plan.Weaken { index = -1; semantics = Fault_plan.Safe } ]
  in
  List.iter
    (fun (n, seed) ->
      let r =
        Hunt.exec snapshot_unsafe ~n ~seed ~plan ~mode:Hunt.Record
      in
      let label = Printf.sprintf "n=%d seed=%d" n seed in
      match r.Hunt.failure with
      | None -> Alcotest.failf "%s: the hunt run did not fail" label
      | Some failure -> (
        match
          Explorer.replay ~n ~max_steps:10_000 ~choices:r.Hunt.choices
            ~flips:r.Hunt.flips
            ~setup:(snapshot_unsafe.program ~n ~plan)
            ()
        with
        | Explorer.Fail f, clock ->
          Alcotest.(check string) (label ^ ": same failure") failure
            ("snapshot: " ^ f);
          Alcotest.(check int) (label ^ ": same clock") r.Hunt.clock clock
        | Explorer.Pass, _ -> Alcotest.failf "%s: explorer passed" label
        | Explorer.Cutoff, _ -> Alcotest.failf "%s: explorer cut off" label))
    [ (2, 39); (2, 77); (3, 108); (3, 965); (4, 1249) ]

(* With no overlap possible (single process), weakened registers must
   behave exactly like atomic ones, for both semantics. *)
let test_weaken_no_overlap_is_atomic () =
  let open Bprc_runtime in
  List.iter
    (fun semantics ->
      let sim =
        Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) ()
      in
      let plan = [ Fault_plan.Weaken { index = -1; semantics } ] in
      let module R = (val Inject.weaken_runtime (Sim.runtime sim) ~plan) in
      let h =
        Sim.spawn sim (fun () ->
            let r = R.make_reg ~name:"x" 0 in
            R.write r 5;
            let a = R.read r in
            R.write r 9;
            (a, R.read r))
      in
      ignore (Sim.run sim);
      Alcotest.(check (option (pair int int)))
        "sequential reads see latest writes" (Some (5, 9)) (Sim.result h))
    [ Fault_plan.Safe; Fault_plan.Regular ]

(* One writer and two readers over one weakened register, under a
   random schedule: the writer writes 1..4, each reader reads four
   times.  Returns the history. *)
let weakened_history ~semantics ~seed =
  let open Bprc_runtime in
  let sim = Sim.create ~seed ~n:3 ~adversary:(Adversary.random ()) () in
  let plan = [ Fault_plan.Weaken { index = -1; semantics } ] in
  let module R = (val Inject.weaken_runtime (Sim.runtime sim) ~plan) in
  let reg = R.make_reg ~name:"x" 0 in
  let hist = Hist.create () in
  let timed pid f =
    let start_time = Hist.stamp hist in
    let op = f () in
    Hist.record hist ~pid ~start_time ~finish_time:(Hist.stamp hist) op
  in
  ignore
    (Sim.spawn sim (fun () ->
         for v = 1 to 4 do
           timed 0 (fun () ->
               R.write reg v;
               Specs.Write v)
         done));
  for pid = 1 to 2 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 4 do
             timed pid (fun () -> Specs.Read (R.read reg))
           done))
  done;
  ignore (Sim.run sim);
  Hist.events hist

let test_weaken_regular_histories () =
  for seed = 1 to 60 do
    if
      not
        (Specs.regular
           (weakened_history ~semantics:Fault_plan.Regular ~seed))
    then Alcotest.failf "regular violation at seed %d" seed
  done

(* A safe read returns the initial value or the value of a write that
   started before the read finished. *)
let test_weaken_safe_values_written () =
  for seed = 1 to 40 do
    let h = weakened_history ~semantics:Fault_plan.Safe ~seed in
    let written_before v time =
      List.exists
        (fun (w : Specs.reg_op Hist.event) ->
          w.op = Specs.Write v && w.start_time < time)
        h
    in
    List.iter
      (fun (e : Specs.reg_op Hist.event) ->
        match e.op with
        | Specs.Read v when v <> 0 && not (written_before v e.finish_time) ->
          Alcotest.failf "safe read of %d at seed %d" v seed
        | _ -> ())
      h
  done

(* ------------------------------------------------------------------ *)
(* The hunt: end-to-end acceptance                                     *)
(* ------------------------------------------------------------------ *)

(* The deliberately injected bug — every register weakened to safe
   semantics under the handshake snapshot — must be found by the hunt;
   the emitted script must replay bit-identically; the shrunk script
   must be no longer and still failing.  Seed 1 is known to fail within
   150 trials (trial 138). *)
let hunt_unsafe ~map () =
  Hunt.run ?map ~scenario:snapshot_unsafe ~trials:150 ~seed:1 ~n:4 ()

let test_hunt_finds_injected_bug () =
  match hunt_unsafe ~map:None () with
  | Hunt.No_failure _ -> Alcotest.fail "hunt missed the injected bug"
  | Hunt.Budget_exhausted _ -> Alcotest.fail "no budget was set"
  | Hunt.Found f ->
    Alcotest.(check bool) "replay bit-identical" true f.Hunt.replay_verified;
    let orig = f.Hunt.script and small = f.Hunt.shrunk in
    Alcotest.(check bool) "plan not longer" true
      (List.length small.header.plan <= List.length orig.header.plan);
    Alcotest.(check bool) "choices not longer" true
      (List.length small.schedule.choices
      <= List.length orig.schedule.choices);
    Alcotest.(check bool) "flips not longer" true
      (List.length small.schedule.flips <= List.length orig.schedule.flips);
    (* The shrunk plan must retain the weakening — it IS the bug. *)
    Alcotest.(check bool) "shrunk plan keeps the weakening" true
      (Fault_plan.weaken_target small.header.plan ~index:0 <> None);
    (* The shrunk script still fails, exactly as it says on the tin. *)
    let r = Hunt.replay_script ~scenario:snapshot_unsafe small in
    Alcotest.(check (option string))
      "shrunk script reproduces its recorded failure"
      (Some small.schedule.failure) r.Hunt.failure;
    Alcotest.(check int) "shrunk script reproduces its recorded clock"
      small.schedule.clock r.Hunt.clock;
    (* And it survives a serialization round-trip before replay. *)
    match Script.of_string (Script.to_string small) with
    | Error e -> Alcotest.failf "shrunk script does not round-trip: %s" e
    | Ok reloaded ->
      let r' = Hunt.replay_script ~scenario:snapshot_unsafe reloaded in
      Alcotest.(check (option string)) "reload replays identically"
        r.Hunt.failure r'.Hunt.failure

(* The hunt outcome must not depend on how the probe map schedules the
   batch: a shuffled-execution map and a Pool-backed map must both find
   the same trial and produce byte-identical scripts. *)
let test_hunt_worker_independent () =
  let scripts =
    List.map
      (fun map ->
        match hunt_unsafe ~map () with
        | Hunt.Found f -> (f.Hunt.trial, Script.to_string f.Hunt.shrunk)
        | _ -> Alcotest.fail "hunt missed the injected bug")
      [
        None;
        (* Processes the batch back-to-front but returns results in
           input order — a stand-in for arbitrary scheduling. *)
        Some (fun f idxs -> List.rev (List.rev_map f idxs));
        (* A real 3-domain pool, as the CLI wires in. *)
        (let pool = Bprc_harness.Pool.create ~workers:3 () in
         Some
           (fun f idxs ->
             let arr = Array.of_list idxs in
             Bprc_harness.Pool.map pool (Array.length arr) (fun j -> f arr.(j))
             |> Array.to_list));
      ]
  in
  match scripts with
  | (t0, s0) :: rest ->
    List.iteri
      (fun i (t, s) ->
        Alcotest.(check int) (Printf.sprintf "map %d: same trial" (i + 1)) t0 t;
        Alcotest.(check string)
          (Printf.sprintf "map %d: identical script" (i + 1))
          s0 s)
      rest
  | [] -> assert false

let test_hunt_clean_scenarios () =
  (* The expected-clean scenarios must come up clean on a modest bounded
     hunt (this is what the CI smoke run enforces at larger scale). *)
  List.iter
    (fun (scenario : Config.scenario) ->
      match Hunt.run ~scenario ~trials:60 ~seed:1 ~n:4 () with
      | Hunt.No_failure { trials_run } ->
        Alcotest.(check int)
          (scenario.name ^ ": all trials ran")
          60 trials_run
      | Hunt.Found f ->
        Alcotest.failf "%s: unexpected failure %S" scenario.name
          f.Hunt.script.schedule.failure
      | Hunt.Budget_exhausted _ -> Alcotest.fail "no budget was set")
    (List.filter
       (fun (s : Config.scenario) -> not s.expect_violation)
       Config.scenarios)

let test_hunt_budget_exhausted () =
  match
    Hunt.run ~budget_s:0.0 ~scenario:consensus ~trials:1_000 ~seed:1
      ~n:4 ()
  with
  | Hunt.Budget_exhausted { trials_run } ->
    Alcotest.(check int) "stopped before the first batch" 0 trials_run
  | _ -> Alcotest.fail "a zero budget must exhaust immediately"

let test_hunt_rejects_bad_args () =
  Alcotest.check_raises "negative trials"
    (Invalid_argument "Hunt.run: negative trial count") (fun () ->
      ignore (Hunt.run ~scenario:consensus ~trials:(-1) ~seed:1 ~n:4 ()));
  Alcotest.check_raises "zero batch"
    (Invalid_argument "Hunt.run: batch must be positive") (fun () ->
      ignore
        (Hunt.run ~batch:0 ~scenario:consensus ~trials:1 ~seed:1 ~n:4 ()))

(* ------------------------------------------------------------------ *)
(* Faults through the harness runner                                   *)
(* ------------------------------------------------------------------ *)

let test_consensus_once_with_faults () =
  let r =
    Bprc_harness.Run.consensus_once
      ~faults:
        [
          Fault_plan.Crash { pid = 0; at_step = 25 };
          Fault_plan.Stall { pid = 1; at_step = 10; steps = 200 };
        ]
      ~algo:(Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
      ~pattern:Bprc_harness.Run.Split ~n:4 ~seed:11 ()
  in
  Alcotest.(check bool) "survivors decided" true r.Bprc_harness.Run.completed;
  (match r.Bprc_harness.Run.spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spec violated under crash+stall: %s" e);
  Alcotest.(check (option bool)) "crashed process undecided" None
    r.Bprc_harness.Run.decisions.(0)

(* ------------------------------------------------------------------ *)
(* The fault driver is exact                                          *)
(* ------------------------------------------------------------------ *)

(* The reference semantics [Inject.drive] must reproduce, one step at
   a time: every due plan fault, then one step. *)
let reference_drive sim ~driver ~max_steps =
  let open Bprc_runtime in
  let rec go () =
    Inject.fire driver sim;
    if Sim.clock sim >= max_steps then false
    else if Sim.step sim then go ()
    else true
  in
  go ()

(* What a driven run leaves behind: completion, clock, decisions, and
   per pid its steps, flips and whether it crashed, plus the trace. *)
let fingerprint sim ~n ~completed ~decisions =
  let open Bprc_runtime in
  ( (completed, Sim.clock sim, decisions),
    List.init n (fun pid ->
        (Sim.steps_of sim pid, Sim.flips_of sim pid, Sim.crashed sim pid)),
    Trace.digest (Option.get (Sim.trace sim)) )

let driver_n = 4
let driver_max_steps = 200_000

let traced_arena () =
  let open Bprc_runtime in
  Sim.create ~seed:0 ~max_steps:driver_max_steps ~n:driver_n ~record_trace:true
    ~adversary:(Adversary.random ()) ()

(* [Run.consensus_once] driven by [Inject.drive], against the same
   instance wired by hand and driven by [reference_drive]. *)
let compare_drivers ~sched ~seed ~max_steps ~faults =
  let open Bprc_runtime in
  let module Run = Bprc_harness.Run in
  let n = driver_n in
  let mode = Bprc_core.Ads89.Shared_walk in
  let sim = traced_arena () in
  let r =
    Run.consensus_once ~sim ~max_steps ~sched ~faults
      ~algo:(Run.Ads mode) ~pattern:Run.Random_inputs ~n ~seed ()
  in
  let got =
    fingerprint sim ~n ~completed:r.Run.completed ~decisions:r.Run.decisions
  in
  let sim = traced_arena () in
  let adversary =
    match sched with
    | Run.Random_sched -> Adversary.random ()
    | Run.Round_robin_sched -> Adversary.round_robin ()
    | Run.Bursty_sched b -> Adversary.bursty ~burst:b ()
    | _ -> Alcotest.fail "adaptive schedulers are not wired here"
  in
  Sim.reset ~seed ~adversary sim;
  let inputs = Run.inputs_of_pattern Run.Random_inputs ~n ~seed in
  let module R = (val Inject.weaken_runtime (Sim.runtime sim) ~plan:faults) in
  let module C = Bprc_core.Ads89.Make (R) in
  let t = C.create ~coin_mode:mode ~oracle_seed:seed () in
  let handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
  in
  let completed =
    reference_drive sim ~driver:(Inject.driver ~n faults) ~max_steps
  in
  let want =
    fingerprint sim ~n ~completed ~decisions:(Array.map Sim.result handles)
  in
  (want, got)

let test_drive_matches_step_loop () =
  let module Run = Bprc_harness.Run in
  let cases =
    [
      ("no faults", driver_max_steps, []);
      ( "crash and stall plans",
        driver_max_steps,
        [
          Fault_plan.Crash { pid = 0; at_step = 25 };
          Fault_plan.Stall { pid = 1; at_step = 10; steps = 200 };
          Fault_plan.Stall { pid = 2; at_step = 0; steps = 30 };
          Fault_plan.Stall { pid = 3; at_step = max_int; steps = 5 };
        ] );
      ( "stall on a crashed pid",
        driver_max_steps,
        [
          Fault_plan.Crash { pid = 2; at_step = 3 };
          Fault_plan.Crash { pid = 1; at_step = 15 };
          Fault_plan.Stall { pid = 1; at_step = 15; steps = 100 };
          Fault_plan.Stall { pid = 1; at_step = 16; steps = 50 };
          Fault_plan.Stall { pid = 2; at_step = 40; steps = 60 };
          Fault_plan.Stall { pid = 3; at_step = 20; steps = 70 };
        ] );
      ( "weakened register (per-access under batching)",
        driver_max_steps,
        [
          Fault_plan.Weaken { index = 3; semantics = Fault_plan.Regular };
          Fault_plan.Crash { pid = 2; at_step = 30 };
        ] );
      ( "budget runs out with faults pending",
        150,
        [
          Fault_plan.Crash { pid = 0; at_step = 37 };
          Fault_plan.Stall { pid = 2; at_step = 30; steps = 500 };
          Fault_plan.Crash { pid = 3; at_step = 1_000 };
        ] );
    ]
  in
  List.iter
    (fun sched ->
      List.iter
        (fun seed ->
          List.iter
            (fun (name, max_steps, faults) ->
              let want, got = compare_drivers ~sched ~seed ~max_steps ~faults in
              let label what =
                Printf.sprintf "%s, %s, seed %d: %s" name (Run.sched_name sched)
                  seed what
              in
              let (wc, wclock, wd), wper, wdigest = want
              and (gc, gclock, gd), gper, gdigest = got in
              Alcotest.(check bool) (label "completed") wc gc;
              Alcotest.(check int) (label "clock") wclock gclock;
              Alcotest.(check bool) (label "decisions") true (wd = gd);
              Alcotest.(check (list (triple int int bool)))
                (label "per-pid steps, flips, crashed") wper gper;
              Alcotest.(check string) (label "trace digest") wdigest gdigest)
            cases)
        [ 1; 2 ])
    [ Run.Random_sched; Run.Round_robin_sched; Run.Bursty_sched 3 ]

let suite =
  [
    Alcotest.test_case "plan: json round-trip" `Quick test_plan_json_roundtrip;
    Alcotest.test_case "plan: rejects garbage" `Quick test_plan_json_rejects_garbage;
    Alcotest.test_case "plan: weaken target" `Quick test_weaken_target;
    Alcotest.test_case "script: round-trip" `Quick test_script_roundtrip;
    Alcotest.test_case "script: save/load" `Quick test_script_save_load;
    Alcotest.test_case "script: wrong kind" `Quick test_script_rejects_wrong_kind;
    Alcotest.test_case "ddmin: single culprit" `Quick test_ddmin_single_culprit;
    Alcotest.test_case "ddmin: pair" `Quick test_ddmin_pair;
    Alcotest.test_case "ddmin: edge cases" `Quick test_ddmin_edge_cases;
    Alcotest.test_case "record/replay identity" `Quick test_record_replay_identity;
    Alcotest.test_case "hunt run replays in the explorer" `Quick
      test_hunt_run_replays_in_explorer;
    Alcotest.test_case "weaken: no overlap = atomic" `Quick
      test_weaken_no_overlap_is_atomic;
    Alcotest.test_case "weaken: regular histories" `Quick
      test_weaken_regular_histories;
    Alcotest.test_case "weaken: safe reads written values" `Quick
      test_weaken_safe_values_written;
    Alcotest.test_case "hunt: finds injected bug (e2e)" `Quick
      test_hunt_finds_injected_bug;
    Alcotest.test_case "hunt: worker independent" `Quick
      test_hunt_worker_independent;
    Alcotest.test_case "hunt: clean scenarios" `Quick test_hunt_clean_scenarios;
    Alcotest.test_case "hunt: budget" `Quick test_hunt_budget_exhausted;
    Alcotest.test_case "hunt: bad args" `Quick test_hunt_rejects_bad_args;
    Alcotest.test_case "harness: consensus_once faults" `Quick
      test_consensus_once_with_faults;
    Alcotest.test_case "drive: matches the step-by-step loop" `Quick
      test_drive_matches_step_loop;
  ]
