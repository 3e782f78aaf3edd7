open Bprc_runtime

(* A counter incremented concurrently: read, local bump, write.  Lost
   updates are expected under adversarial interleaving; the final value
   must be between 1 and the number of increments. *)
let racy_increment read write reg rounds () =
  for _ = 1 to rounds do
    let v = read reg in
    write reg (v + 1)
  done

let test_run_completes () =
  let n = 3 in
  let sim = Sim.create ~seed:1 ~n ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg ~name:"counter" 0 in
  for _ = 1 to n do
    ignore (Sim.spawn sim (racy_increment R.read R.write reg 5))
  done;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "unexpected step limit");
  let v = R.peek reg in
  Alcotest.(check bool)
    (Printf.sprintf "final counter in [1,15], got %d" v)
    true
    (v >= 1 && v <= 15)

let test_round_robin_serializes () =
  (* Under round-robin with one process, increments are sequential. *)
  let sim = Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  ignore (Sim.spawn sim (racy_increment R.read R.write reg 10));
  ignore (Sim.run sim);
  Alcotest.(check int) "single process: no lost updates" 10 (R.peek reg)

let test_results_returned () =
  let sim = Sim.create ~seed:2 ~n:2 ~adversary:(Adversary.random ()) () in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 100 in
  let h1 = Sim.spawn sim (fun () -> R.read reg + 1) in
  let h2 = Sim.spawn sim (fun () -> R.pid ()) in
  ignore (Sim.run sim);
  Alcotest.(check (option int)) "h1 result" (Some 101) (Sim.result h1);
  Alcotest.(check (option int)) "h2 pid" (Some 1) (Sim.result h2)

let test_pid_identity () =
  let n = 4 in
  let sim = Sim.create ~seed:3 ~n ~adversary:(Adversary.random ()) () in
  let (module R) = Sim.runtime sim in
  let regs = Array.init n (fun i -> R.make_reg ~name:(Printf.sprintf "r%d" i) (-1)) in
  let handles =
    Array.init n (fun i ->
        Sim.spawn sim (fun () ->
            let me = R.pid () in
            R.write regs.(i) me;
            me))
  in
  ignore (Sim.run sim);
  Array.iteri
    (fun i h ->
      Alcotest.(check (option int)) "pid matches spawn order" (Some i)
        (Sim.result h);
      Alcotest.(check int) "register written by own pid" i (R.peek regs.(i)))
    handles

let test_crash_excludes () =
  let sim = Sim.create ~seed:4 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  let h0 = Sim.spawn sim (fun () -> R.write reg 1; 0) in
  let _h1 = Sim.spawn sim (fun () -> R.read reg) in
  Sim.crash sim 0;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "step limit");
  Alcotest.(check (option int)) "crashed process produced nothing" None
    (Sim.result h0);
  Alcotest.(check int) "crashed process never wrote" 0 (R.peek reg);
  Alcotest.(check bool) "crashed flag" true (Sim.crashed sim 0);
  Alcotest.(check bool) "other finished" true (Sim.finished sim 1)

let test_step_limit () =
  let sim =
    Sim.create ~seed:5 ~max_steps:50 ~n:1 ~adversary:(Adversary.round_robin ())
      ()
  in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  ignore
    (Sim.spawn sim (fun () ->
         while true do
           R.write reg (R.read reg + 1)
         done));
  (match Sim.run sim with
  | Sim.Hit_step_limit -> ()
  | Sim.Completed -> Alcotest.fail "expected step limit");
  Alcotest.(check int) "clock at limit" 50 (Sim.clock sim)

let test_step_accounting () =
  let sim = Sim.create ~seed:6 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  ignore (Sim.spawn sim (fun () -> racy_increment R.read R.write reg 3 ()));
  ignore (Sim.spawn sim (fun () -> ()));
  ignore (Sim.run sim);
  (* p0: 1 start step + 6 ops; p1: 1 start step. *)
  Alcotest.(check int) "p0 steps" 7 (Sim.steps_of sim 0);
  Alcotest.(check int) "p1 steps" 1 (Sim.steps_of sim 1);
  Alcotest.(check int) "clock is total" 8 (Sim.clock sim)

let test_flip_recorded_and_counted () =
  let sim =
    Sim.create ~seed:7 ~record_trace:true ~n:1
      ~adversary:(Adversary.round_robin ()) ()
  in
  let (module R) = Sim.runtime sim in
  ignore
    (Sim.spawn sim (fun () ->
         let h = ref 0 in
         for _ = 1 to 20 do
           if R.flip () then incr h
         done;
         !h));
  ignore (Sim.run sim);
  Alcotest.(check int) "flips counted" 20 (Sim.flips_of sim 0);
  let flips = ref 0 in
  (match Sim.trace sim with
  | None -> Alcotest.fail "trace missing"
  | Some tr ->
    Trace.iter
      (fun e -> match e.Trace.kind with Trace.Flip _ -> incr flips | _ -> ())
      tr);
  Alcotest.(check int) "flips traced" 20 !flips

let test_determinism_same_seed () =
  let final_value seed =
    let sim = Sim.create ~seed ~n:3 ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let reg = R.make_reg 0 in
    for _ = 1 to 3 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 10 do
               if R.flip () then R.write reg (R.read reg + 1)
               else R.write reg (R.read reg - 1)
             done))
    done;
    ignore (Sim.run sim);
    (R.peek reg, Sim.clock sim)
  in
  Alcotest.(check bool) "same seed, same run" true
    (final_value 42 = final_value 42);
  ignore (final_value 43)

let test_trace_times_monotonic () =
  let sim =
    Sim.create ~seed:8 ~record_trace:true ~n:2
      ~adversary:(Adversary.random ()) ()
  in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  for _ = 1 to 2 do
    ignore (Sim.spawn sim (racy_increment R.read R.write reg 4))
  done;
  ignore (Sim.run sim);
  match Sim.trace sim with
  | None -> Alcotest.fail "trace missing"
  | Some tr ->
    let prev = ref (-1) in
    Trace.iter
      (fun e ->
        if e.Trace.time < !prev then Alcotest.fail "trace times not monotone";
        prev := e.Trace.time)
      tr;
    Alcotest.(check bool) "trace nonempty" true (Trace.length tr > 0)

let test_prioritize_starves () =
  (* Favored process 0 runs an infinite loop; process 1 never moves, so
     the run hits the step limit with p1 having taken no steps. *)
  let sim =
    Sim.create ~seed:9 ~max_steps:100 ~n:2
      ~adversary:(Adversary.prioritize ~favored:[ 0 ] ()) ()
  in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  ignore
    (Sim.spawn sim (fun () ->
         while true do
           ignore (R.read reg)
         done));
  ignore (Sim.spawn sim (fun () -> R.write reg 9));
  (match Sim.run sim with
  | Sim.Hit_step_limit -> ()
  | Sim.Completed -> Alcotest.fail "expected starvation");
  Alcotest.(check int) "starved process took no steps" 0 (Sim.steps_of sim 1);
  Alcotest.(check int) "victim register untouched" 0 (R.peek reg)

let test_bursty_progress () =
  let sim =
    Sim.create ~seed:10 ~n:3 ~adversary:(Adversary.bursty ~burst:5 ()) ()
  in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  for _ = 1 to 3 do
    ignore (Sim.spawn sim (racy_increment R.read R.write reg 10))
  done;
  match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "bursty adversary should finish"

let test_spawn_too_many () =
  let sim = Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) () in
  ignore (Sim.spawn sim (fun () -> ()));
  Alcotest.check_raises "overspawn"
    (Invalid_argument "Sim.spawn: already spawned n processes") (fun () ->
      ignore (Sim.spawn sim (fun () -> ())))

let test_run_underspawned () =
  let sim = Sim.create ~seed:1 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  ignore (Sim.spawn sim (fun () -> ()));
  Alcotest.check_raises "underspawn"
    (Invalid_argument "Sim.run: fewer processes spawned than n") (fun () ->
      ignore (Sim.run sim))

let test_flip_source_override () =
  let sim = Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) () in
  Sim.set_flip_source sim (fun ~pid:_ -> true);
  let (module R) = Sim.runtime sim in
  let h =
    Sim.spawn sim (fun () ->
        let c = ref 0 in
        for _ = 1 to 10 do
          if R.flip () then incr c
        done;
        !c)
  in
  ignore (Sim.run sim);
  Alcotest.(check (option int)) "all heads" (Some 10) (Sim.result h)

(* --- Exhaustive exploration -------------------------------------------- *)

let test_explore_exhausts_tiny () =
  (* Two processes, one op each: the tree is tiny and must be exhausted. *)
  let stats =
    Exhaust.explore ~n:2 (fun (module R : Runtime_intf.S) ->
        let reg = R.make_reg 0 in
        let body i = R.write reg i in
        let check () =
          let v = R.peek reg in
          if v <> 0 && v <> 1 then Error "impossible final value" else Ok ()
        in
        (body, check))
  in
  Exhaust.no_violation stats;
  Alcotest.(check bool) "exhausted" true stats.exhausted;
  Alcotest.(check bool) "explored more than one run" true (stats.runs > 1)

let test_explore_finds_race () =
  (* Exploration must find the interleaving in which both processes read
     0 before either writes, i.e. final counter 1 despite 2 increments. *)
  let found_lost_update = ref false in
  let stats =
    Exhaust.explore ~n:2 (fun (module R : Runtime_intf.S) ->
        let reg = R.make_reg 0 in
        let body _ =
          let v = R.read reg in
          R.write reg (v + 1)
        in
        let check () =
          if R.peek reg = 1 then found_lost_update := true;
          Ok ()
        in
        (body, check))
  in
  Alcotest.(check bool) "exhausted" true stats.exhausted;
  Alcotest.(check bool) "lost update found" true !found_lost_update

let test_explore_branches_on_flips () =
  (* One process, two flips: 4 leaf outcomes must all be observed. *)
  let seen = Hashtbl.create 4 in
  let stats =
    Exhaust.explore ~n:1 (fun (module R : Runtime_intf.S) ->
        let reg = R.make_reg (false, false) in
        let body _ =
          let a = R.flip () in
          let b = R.flip () in
          R.write reg (a, b)
        in
        let check () =
          Hashtbl.replace seen (R.peek reg) ();
          Ok ()
        in
        (body, check))
  in
  Alcotest.(check bool) "exhausted" true stats.exhausted;
  Alcotest.(check int) "all four flip outcomes" 4 (Hashtbl.length seen)

let test_explore_run_count_two_writers () =
  (* Two procs, each: start + 1 write = 2 steps; schedules of the 4-step
     word with 2 a's and 2 b's = C(4,2) = 6 executions. *)
  let stats =
    Exhaust.explore ~n:2 (fun (module R : Runtime_intf.S) ->
        let reg = R.make_reg 0 in
        let body i = R.write reg i in
        (body, fun () -> Ok ()))
  in
  Alcotest.(check int) "C(4,2) interleavings" 6 stats.runs

let test_explore_respects_max_runs () =
  let stats =
    Exhaust.explore ~n:2 ~max_runs:3 (fun (module R : Runtime_intf.S) ->
        let reg = R.make_reg 0 in
        let body i =
          R.write reg i;
          R.write reg (i + 1);
          R.write reg (i + 2)
        in
        (body, fun () -> Ok ()))
  in
  Alcotest.(check int) "stopped at max_runs" 3 stats.runs;
  Alcotest.(check bool) "not exhausted" false stats.exhausted

let suite =
  [
    Alcotest.test_case "run completes" `Quick test_run_completes;
    Alcotest.test_case "single process serial" `Quick test_round_robin_serializes;
    Alcotest.test_case "results returned" `Quick test_results_returned;
    Alcotest.test_case "pid identity" `Quick test_pid_identity;
    Alcotest.test_case "crash excludes process" `Quick test_crash_excludes;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "step accounting" `Quick test_step_accounting;
    Alcotest.test_case "flips recorded" `Quick test_flip_recorded_and_counted;
    Alcotest.test_case "determinism per seed" `Quick test_determinism_same_seed;
    Alcotest.test_case "trace monotone" `Quick test_trace_times_monotonic;
    Alcotest.test_case "prioritize starves" `Quick test_prioritize_starves;
    Alcotest.test_case "bursty progresses" `Quick test_bursty_progress;
    Alcotest.test_case "overspawn rejected" `Quick test_spawn_too_many;
    Alcotest.test_case "underspawn rejected" `Quick test_run_underspawned;
    Alcotest.test_case "flip source override" `Quick test_flip_source_override;
    Alcotest.test_case "explore: exhausts tiny" `Quick test_explore_exhausts_tiny;
    Alcotest.test_case "explore: finds race" `Quick test_explore_finds_race;
    Alcotest.test_case "explore: flip branching" `Quick test_explore_branches_on_flips;
    Alcotest.test_case "explore: counts interleavings" `Quick
      test_explore_run_count_two_writers;
    Alcotest.test_case "explore: max_runs" `Quick test_explore_respects_max_runs;
  ]

(* --- Trace statistics -------------------------------------------------- *)

let test_trace_stats () =
  let sim =
    Sim.create ~seed:21 ~record_trace:true ~n:2
      ~adversary:(Adversary.round_robin ()) ()
  in
  let (module R) = Sim.runtime sim in
  let a = R.make_reg ~name:"hot" 0 in
  let b = R.make_reg ~name:"cold" 0 in
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 5 do
           R.write a (R.read a + 1)
         done;
         ignore (R.flip ())));
  ignore (Sim.spawn sim (fun () -> R.write b 1));
  ignore (Sim.run sim);
  match Sim.trace sim with
  | None -> Alcotest.fail "no trace"
  | Some tr ->
    let st = Trace_stats.analyze tr ~n:2 in
    Alcotest.(check int) "reads" 5 st.Trace_stats.reads;
    Alcotest.(check int) "writes" 6 st.Trace_stats.writes;
    Alcotest.(check int) "flips" 1 st.Trace_stats.flips;
    (match st.Trace_stats.hottest_registers with
    | ("hot", hits) :: _ -> Alcotest.(check int) "hot register accesses" 10 hits
    | other ->
      Alcotest.failf "unexpected hottest list (%d entries)" (List.length other));
    Alcotest.(check bool) "monopoly at least writes run" true
      (st.Trace_stats.longest_monopoly >= 1)

let test_trace_stats_empty () =
  let tr = Trace.create () in
  let st = Trace_stats.analyze tr ~n:1 in
  Alcotest.(check int) "no events" 0 st.Trace_stats.events

let trace_stats_suite =
  [
    Alcotest.test_case "trace stats" `Quick test_trace_stats;
    Alcotest.test_case "trace stats: empty" `Quick test_trace_stats_empty;
  ]

let suite = suite @ trace_stats_suite

(* --- Gap-filling tests -------------------------------------------------- *)

let test_scripted_adversary () =
  let fallback = Adversary.round_robin () in
  let adv = Adversary.scripted ~choices:[ 0; 0; 0; 0 ] ~fallback () in
  let sim = Sim.create ~seed:1 ~n:2 ~adversary:adv () in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  ignore (Sim.spawn sim (fun () -> R.write reg 1; R.write reg 2));
  ignore (Sim.spawn sim (fun () -> R.write reg 9));
  (* The script keeps picking the lowest runnable pid: process 0 runs
     its 3 steps first (start + 2 writes), then round-robin finishes. *)
  ignore (Sim.run sim);
  Alcotest.(check int) "p0 ran first under script" 3 (Sim.steps_of sim 0);
  Alcotest.(check int) "final value from p1" 9 (R.peek reg)

(* Minor words per [choose] call: the marginal cost of [calls] more
   calls, over a runnable set that alternates between dense and sparse
   so every branch of every adversary runs. *)
let words_per_choose (a : Adversary.t) =
  let dense = [| 0; 1; 2; 3 |] and sparse = [| 1; 3 |] in
  let ctx =
    {
      Adversary.clock = 0;
      runnable = dense;
      rng = Bprc_rng.Splitmix.create ~seed:5;
    }
  in
  let words calls =
    let m0 = Gc.minor_words () in
    for i = 1 to calls do
      ctx.Adversary.runnable <- (if i land 4 = 0 then dense else sparse);
      ignore (a.Adversary.choose ctx : int)
    done;
    Gc.minor_words () -. m0
  in
  (words 20_000 -. words 10_000) /. 10_000.

let test_choose_allocation_free () =
  List.iter
    (fun (name, a) ->
      Alcotest.(check (float 0.)) (name ^ ": words per choose") 0.
        (words_per_choose a))
    [
      ("round-robin", Adversary.round_robin ());
      ("random", Adversary.random ());
      ("bursty-7", Adversary.bursty ~burst:7 ());
      ("prioritize", Adversary.prioritize ~favored:[ 2; 3 ] ());
    ]

let gap_suite =
  [
    Alcotest.test_case "scripted adversary" `Quick test_scripted_adversary;
    Alcotest.test_case "adversaries: choose allocates nothing" `Quick
      test_choose_allocation_free;
  ]

let suite = suite @ gap_suite

(* --- Stalls, flip observer, explore accounting ----------------------- *)

let test_stall_delays_process () =
  let order = ref [] in
  let sim = Sim.create ~seed:6 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let body () =
    for _ = 1 to 3 do
      order := R.pid () :: !order;
      R.yield ()
    done
  in
  ignore (Sim.spawn sim body);
  ignore (Sim.spawn sim body);
  Sim.stall sim 0 ~steps:1_000;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "stall must not hit the step limit");
  Alcotest.(check (list int)) "p1 ran to completion before stalled p0"
    [ 1; 1; 1; 0; 0; 0 ] (List.rev !order)

let test_stall_expiry_reschedules () =
  (* Regression: the runnable cache must be rebuilt at clock = stall
     expiry, not only strictly before it.  With the rebuild condition
     [clock < max_stall], the last rebuild (at clock = max_stall - 1)
     still excluded the stalled pid and the stale cache was then reused
     forever, starving the process until an unrelated status change. *)
  let sim = Sim.create ~seed:9 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let body () =
    for _ = 1 to 10 do
      R.yield ()
    done
  in
  ignore (Sim.spawn sim body);
  ignore (Sim.spawn sim body);
  Sim.stall sim 1 ~steps:3;
  (* Clocks 0..2: only pid 0 is runnable. *)
  for _ = 1 to 3 do
    ignore (Sim.step sim)
  done;
  Alcotest.(check int) "stalled pid took no step before expiry" 0
    (Sim.steps_of sim 1);
  (* At clock = 3 the stall has expired and round-robin (having just run
     pid 0) must schedule pid 1 immediately. *)
  ignore (Sim.step sim);
  Alcotest.(check int) "stalled pid rescheduled at exactly stall expiry" 1
    (Sim.steps_of sim 1);
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "run must complete after the stall");
  Alcotest.(check bool) "stalled pid finished" true (Sim.finished sim 1)

let test_stall_everyone_cannot_deadlock () =
  (* When every runnable process is stalled the stalls are ignored
     rather than deadlocking the run. *)
  let sim = Sim.create ~seed:7 ~n:2 ~adversary:(Adversary.random ()) () in
  let (module R) = Sim.runtime sim in
  let reg = R.make_reg 0 in
  ignore (Sim.spawn sim (fun () -> R.write reg 1));
  ignore (Sim.spawn sim (fun () -> R.write reg 2));
  Sim.stall sim 0 ~steps:5_000;
  Sim.stall sim 1 ~steps:5_000;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "all-stalled run must still progress");
  Alcotest.check_raises "negative stall rejected"
    (Invalid_argument "Sim.stall: negative duration") (fun () ->
      Sim.stall sim 0 ~steps:(-1))

let test_flip_observer () =
  let sim = Sim.create ~seed:8 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let observed = ref [] in
  Sim.set_flip_observer sim (fun ~pid b -> observed := (pid, b) :: !observed);
  let spawn_flipper () =
    Sim.spawn sim (fun () -> List.init 4 (fun _ -> R.flip ()))
  in
  let h0 = spawn_flipper () in
  let h1 = spawn_flipper () in
  ignore (Sim.run sim);
  let observed = List.rev !observed in
  Alcotest.(check int) "observer saw every flip" 8 (List.length observed);
  let of_pid p = List.filter_map (fun (q, b) -> if q = p then Some b else None) observed in
  Alcotest.(check (option (list bool))) "pid 0 flips match results"
    (Sim.result h0) (Some (of_pid 0));
  Alcotest.(check (option (list bool))) "pid 1 flips match results"
    (Sim.result h1) (Some (of_pid 1))

let test_explore_counts_step_limited () =
  let stats =
    Exhaust.explore ~n:1 ~max_steps:3 (fun (module R : Runtime_intf.S) ->
        let reg = R.make_reg 0 in
        let body _ =
          for i = 1 to 10 do
            R.write reg i
          done
        in
        (body, fun () -> Ok ()))
  in
  Alcotest.(check int) "one (deterministic) run" 1 stats.runs;
  Alcotest.(check int) "that run was cut short" 1 stats.step_limited;
  Alcotest.(check bool) "tree still exhausted" true stats.exhausted

exception Violation of int

(* Two racy increments whose check raises on a lost update, carrying
   the final counter as evidence.  The raise is that run's violation:
   a shrunk witness that replays to the same failure and clock.  A
   raise from a process body or from the setup itself is reported the
   same way. *)
let test_explore_propagates_violation () =
  let module Explorer = Bprc_check.Explorer in
  let lost_update ~raise_in (module R : Runtime_intf.S) =
    if raise_in = `Setup then raise (Violation 1);
    let reg = R.make_reg 0 in
    let body _ =
      let v = R.read reg in
      if raise_in = `Body && v = 1 then raise (Violation v);
      R.write reg (v + 1)
    in
    let check () =
      if R.peek reg < 2 then raise (Violation (R.peek reg));
      Ok ()
    in
    (body, check)
  in
  let witness ?shrink ~raise_in label =
    match (Exhaust.explore ~n:2 ?shrink (lost_update ~raise_in)).violation with
    | Some w -> w
    | None -> Alcotest.failf "%s: lost update not reported" label
  in
  let replays ~raise_in label (w : Explorer.witness) =
    let outcome, clock =
      Explorer.replay ~n:2 ~choices:w.choices ~flips:w.flips
        ~setup:(Exhaust.setup ~n:2 (lost_update ~raise_in))
        ()
    in
    (match outcome with
    | Explorer.Fail f ->
      Alcotest.(check string) (label ^ ": replayed failure") w.failure f
    | Explorer.Pass | Explorer.Cutoff ->
      Alcotest.failf "%s: witness does not replay" label);
    Alcotest.(check int) (label ^ ": replayed clock") w.clock clock
  in
  let evidence = "raised: " ^ Printexc.to_string (Violation 1) in
  let seq = witness ~raise_in:`Check "sequential" in
  Alcotest.(check string) "lost update reported with evidence" evidence
    seq.failure;
  replays ~raise_in:`Check "sequential" seq;
  let raw = witness ~shrink:false ~raise_in:`Check "unshrunk" in
  Alcotest.(check bool) "witness shrunk" true
    (List.length seq.choices <= List.length raw.choices);
  List.iter
    (fun (raise_in, label) ->
      let w = witness ~raise_in label in
      Alcotest.(check string) (label ^ " reported") evidence w.failure;
      replays ~raise_in label w)
    [ (`Body, "body raise"); (`Setup, "setup raise") ]

let faults_support_suite =
  [
    Alcotest.test_case "stall: delays process" `Quick test_stall_delays_process;
    Alcotest.test_case "stall: rescheduled at exact expiry" `Quick
      test_stall_expiry_reschedules;
    Alcotest.test_case "stall: cannot deadlock" `Quick
      test_stall_everyone_cannot_deadlock;
    Alcotest.test_case "flip observer" `Quick test_flip_observer;
    Alcotest.test_case "explore: step-limited runs counted" `Quick
      test_explore_counts_step_limited;
    Alcotest.test_case "explore: violation propagates" `Quick
      test_explore_propagates_violation;
  ]

let suite = suite @ faults_support_suite

(* ---- Sim.reset: bit-identical arena reuse ----------------------------- *)

(* Drive one full run on [sim] (which must be freshly created or freshly
   reset) and fingerprint everything observable: per-process results,
   final register contents, the clock, and per-process step/flip
   counters.  The workload mixes reads, writes, coin flips and explicit
   yields so every hot-path access kind participates. *)
let reset_fingerprint n sim =
  let (module R : Runtime_intf.S) = Sim.runtime sim in
  let a = R.make_reg ~name:"a" 0 in
  let b = R.make_reg ~name:"b" 0 in
  let handles =
    Array.init n (fun i ->
        Sim.spawn sim (fun () ->
            let acc = ref 0 in
            for round = 1 to 8 do
              let v = R.read a in
              R.write a (v + i + 1);
              if R.flip () then begin
                let w = R.read b in
                R.write b (w + round)
              end;
              R.yield ();
              acc := !acc + R.read b
            done;
            !acc))
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "reset fingerprint: step limit");
  ( Array.to_list (Array.map (fun h -> Option.get (Sim.result h)) handles),
    R.peek a,
    R.peek b,
    Sim.clock sim,
    List.init n (fun i -> (Sim.steps_of sim i, Sim.flips_of sim i)) )

let test_reset_equivalent_to_fresh () =
  let n = 3 in
  (* Adversaries are stateful (round-robin's cursor, bursty's current
     burst), so every run gets a fresh instance — exactly how the
     explorer uses [reset]. *)
  let adversaries =
    [
      ("rr", fun () -> Adversary.round_robin ());
      ("random", fun () -> Adversary.random ());
      ("bursty", fun () -> Adversary.bursty ~burst:3 ());
    ]
  in
  List.iter
    (fun (aname, mk) ->
      for seed = 0 to 4 do
        let fresh = Sim.create ~seed ~n ~adversary:(mk ()) () in
        let expect = reset_fingerprint n fresh in
        (* The reused arena first runs a different seed entirely, then
           rewinds; any state leaking across [reset] breaks equality. *)
        let reused = Sim.create ~seed:(seed + 977) ~n ~adversary:(mk ()) () in
        ignore (reset_fingerprint n reused);
        Sim.reset ~seed ~adversary:(mk ()) reused;
        let got = reset_fingerprint n reused in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: reset run = fresh run" aname seed)
          true (expect = got);
        (* And a second reset of the same arena still replays it. *)
        Sim.reset ~seed ~adversary:(mk ()) reused;
        let again = reset_fingerprint n reused in
        Alcotest.(check bool)
          (Printf.sprintf "%s seed %d: reset is repeatable" aname seed)
          true (expect = again)
      done)
    adversaries

let reset_suite =
  [
    Alcotest.test_case "reset: bit-identical to fresh" `Quick
      test_reset_equivalent_to_fresh;
  ]

let suite = suite @ reset_suite

(* --- Arena ownership ------------------------------------------------- *)

let spawn_yielders sim k =
  for _ = 1 to k do
    ignore
      (Sim.spawn sim (fun () ->
           let (module R) = Sim.runtime sim in
           R.yield ()))
  done

let test_owner_rejects_foreign_domain () =
  (* An arena created here must refuse to be driven from another domain:
     its scratch buffers and suspended continuations are single-domain
     state.  [Sim.reset] adopts ownership, after which the helper domain
     may drive it — that is exactly how pool workers inherit arenas. *)
  let sim = Sim.create ~seed:3 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  spawn_yielders sim 2;
  let step_rejected, run_rejected, after_reset_ok =
    Domain.join
      (Domain.spawn (fun () ->
           let expect_owner_error f =
             match f () with
             | _ -> false
             | exception Invalid_argument msg ->
                 Astring.String.is_prefix ~affix:"Sim." msg
           in
           let step_rejected = expect_owner_error (fun () -> Sim.step sim) in
           let run_rejected = expect_owner_error (fun () -> Sim.run sim) in
           Sim.reset ~seed:3 ~adversary:(Adversary.round_robin ()) sim;
           spawn_yielders sim 2;
           let after_reset_ok = Sim.run sim = Sim.Completed in
           (step_rejected, run_rejected, after_reset_ok)))
  in
  Alcotest.(check bool) "step from foreign domain rejected" true step_rejected;
  Alcotest.(check bool) "run from foreign domain rejected" true run_rejected;
  Alcotest.(check bool) "reset adopts ownership" true after_reset_ok;
  (* The helper domain's reset moved ownership there; this domain is now
     the foreigner until it resets the arena back. *)
  (match Sim.step sim with
  | _ -> Alcotest.fail "ownership did not move with reset"
  | exception Invalid_argument _ -> ());
  Sim.reset ~seed:3 ~adversary:(Adversary.round_robin ()) sim;
  spawn_yielders sim 2;
  ignore (Sim.step sim)

let owner_suite =
  [
    Alcotest.test_case "owner: foreign domain rejected, reset adopts" `Quick
      test_owner_rejects_foreign_domain;
  ]

let suite = suite @ owner_suite

(* --- Bounded driving: run_to ----------------------------------------- *)

let spawn_loopers sim k ~yields =
  for _ = 1 to k do
    ignore
      (Sim.spawn sim (fun () ->
           let (module R) = Sim.runtime sim in
           for _ = 1 to yields do
             R.yield ()
           done))
  done

let test_run_to_pauses_and_resumes () =
  (* Pausing at chosen clocks and resuming must make exactly the run
     [Sim.run] makes in one go. *)
  let fresh () =
    let sim =
      Sim.create ~seed:5 ~n:3 ~record_trace:true
        ~adversary:(Adversary.random ()) ()
    in
    spawn_loopers sim 3 ~yields:20;
    sim
  in
  let whole = fresh () in
  Alcotest.(check bool) "one-go run completes" true (Sim.run whole = Sim.Completed);
  let paused = fresh () in
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "paused at %d" c)
        true
        (Sim.run_to paused ~clock:c = None);
      Alcotest.(check int) (Printf.sprintf "clock is %d" c) c (Sim.clock paused))
    [ 0; 1; 7; 30 ];
  Alcotest.(check bool) "a target behind the clock pauses at once" true
    (Sim.run_to paused ~clock:5 = None);
  Alcotest.(check int) "no step taken" 30 (Sim.clock paused);
  Alcotest.(check bool) "resumes to completion" true
    (Sim.run_to paused ~clock:max_int = Some Sim.Completed);
  Alcotest.(check int) "same length" (Sim.clock whole) (Sim.clock paused);
  for pid = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "pid %d steps" pid)
      (Sim.steps_of whole pid) (Sim.steps_of paused pid)
  done;
  let events sim = Trace.to_list (Option.get (Sim.trace sim)) in
  Alcotest.(check bool) "same trace" true (events whole = events paused)

let test_run_to_respects_arena_bound () =
  let bounded () =
    let sim =
      Sim.create ~seed:1 ~max_steps:10 ~n:2
        ~adversary:(Adversary.round_robin ()) ()
    in
    spawn_loopers sim 2 ~yields:50;
    sim
  in
  let sim = bounded () in
  Alcotest.(check bool) "paused before the bound" true
    (Sim.run_to sim ~clock:4 = None);
  Alcotest.(check bool) "the bound stops a later target" true
    (Sim.run_to sim ~clock:100 = Some Sim.Hit_step_limit);
  Alcotest.(check int) "stopped at the bound" 10 (Sim.clock sim);
  Alcotest.(check bool) "the bound is sticky" true
    (Sim.run_to sim ~clock:100 = Some Sim.Hit_step_limit);
  let sim = bounded () in
  Alcotest.(check bool) "a target at the bound reports the bound" true
    (Sim.run_to sim ~clock:10 = Some Sim.Hit_step_limit);
  let unspawned =
    Sim.create ~seed:1 ~n:2 ~adversary:(Adversary.round_robin ()) ()
  in
  spawn_loopers unspawned 1 ~yields:1;
  Alcotest.check_raises "fewer processes spawned"
    (Invalid_argument "Sim.run_to: fewer processes spawned than n") (fun () ->
      ignore (Sim.run_to unspawned ~clock:5))

let test_run_to_rejects_foreign_domain () =
  let sim = Sim.create ~seed:3 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  spawn_yielders sim 2;
  let rejected =
    Domain.join
      (Domain.spawn (fun () ->
           match Sim.run_to sim ~clock:1 with
           | _ -> false
           | exception Invalid_argument msg ->
             Astring.String.is_prefix ~affix:"Sim.run_to: arena owned" msg))
  in
  Alcotest.(check bool) "run_to from foreign domain rejected" true rejected;
  Alcotest.(check int) "no step taken" 0 (Sim.clock sim);
  Alcotest.(check bool) "the owner still drives it" true
    (Sim.run_to sim ~clock:1 = None)

(* With validation on, a choice outside the runnable set raises the same
   error whichever driver took the step, and valid choices step as
   usual up to it. *)
let test_validate_rejects_non_runnable () =
  let bad_at = 4 in
  let adversary =
    Adversary.make ~name:"bad" (fun ctx ->
        if ctx.Adversary.clock = bad_at then 2 else ctx.Adversary.runnable.(0))
  in
  let fresh () =
    let sim = Sim.create ~seed:1 ~n:3 ~adversary () in
    spawn_loopers sim 3 ~yields:10;
    Sim.crash sim 2;
    Sim.set_validate sim true;
    sim
  in
  let expected =
    Invalid_argument "Sim.step: adversary bad chose non-runnable pid 2"
  in
  let sim = fresh () in
  for c = 1 to bad_at do
    Alcotest.(check bool) (Printf.sprintf "step %d taken" c) true (Sim.step sim)
  done;
  Alcotest.check_raises "step" expected (fun () -> ignore (Sim.step sim));
  Alcotest.(check int) "step: the bad choice is not taken" bad_at
    (Sim.clock sim);
  let sim = fresh () in
  Alcotest.(check bool) "run_to: valid choices step" true
    (Sim.run_to sim ~clock:bad_at = None);
  Alcotest.check_raises "run_to" expected (fun () ->
      ignore (Sim.run_to sim ~clock:max_int));
  Alcotest.(check int) "run_to: the bad choice is not taken" bad_at
    (Sim.clock sim);
  let sim = fresh () in
  Alcotest.check_raises "run" expected (fun () -> ignore (Sim.run sim));
  Alcotest.(check int) "run: the bad choice is not taken" bad_at
    (Sim.clock sim)

(* --- Arena-local storage ---------------------------------------------- *)

let test_local_slots () =
  let made = ref 0 in
  let slot = Sim.new_local (fun sim -> incr made; (Sim.n sim, ref 0)) in
  let a = Sim.create ~seed:1 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let b = Sim.create ~seed:1 ~n:3 ~adversary:(Adversary.round_robin ()) () in
  let va = Sim.local a slot in
  Alcotest.(check int) "made from its arena" 2 (fst va);
  Alcotest.(check bool) "same value on every use" true (Sim.local a slot == va);
  Sim.reset a;
  Alcotest.(check bool) "kept across reset" true (Sim.local a slot == va);
  Alcotest.(check int) "another arena gets its own" 3 (fst (Sim.local b slot));
  Alcotest.(check int) "one init per arena" 2 !made;
  Alcotest.(check bool) "the runtime module is one per arena" true
    (Sim.runtime a == Sim.runtime a && Sim.runtime a != Sim.runtime b)

let run_to_suite =
  [
    Alcotest.test_case "local: one value per arena, kept across reset"
      `Quick test_local_slots;
    Alcotest.test_case "run_to: pauses exactly, resumes" `Quick
      test_run_to_pauses_and_resumes;
    Alcotest.test_case "run_to: respects the arena bound" `Quick
      test_run_to_respects_arena_bound;
    Alcotest.test_case "run_to: foreign domain rejected" `Quick
      test_run_to_rejects_foreign_domain;
    Alcotest.test_case "validate: non-runnable choice rejected by every driver"
      `Quick test_validate_rejects_non_runnable;
  ]

let suite = suite @ run_to_suite

(* Allocation ceiling for the simulator's step loop: n=4 processes
   spinning on write/read of private registers under round-robin,
   driven by one [Sim.run], setup included.  A step costs the 2-word
   effect continuation and nothing else; above 3.0 words/step a
   per-step allocation has crept back in. *)
let test_raw_sim_words_per_step () =
  let n = 4 and iters = 100_000 in
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let sim =
    Sim.create ~seed:1 ~max_steps:max_int ~n
      ~adversary:(Adversary.round_robin ()) ()
  in
  let (module R) = Sim.runtime sim in
  for i = 0 to n - 1 do
    let r = R.make_reg ~name:(Printf.sprintf "r%d" i) 0 in
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to iters do
             R.write r k;
             ignore (R.read r)
           done))
  done;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "unexpected step limit");
  let per = (Gc.minor_words () -. m0) /. float_of_int (Sim.clock sim) in
  if per > 3.0 then
    Alcotest.failf "raw-sim minor words/step %.2f > 3.0" per

let alloc_suite =
  [
    Alcotest.test_case "alloc: raw-sim words/step ceiling" `Quick
      test_raw_sim_words_per_step;
  ]

let suite = suite @ alloc_suite
