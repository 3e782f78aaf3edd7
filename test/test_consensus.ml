open Bprc_runtime
open Bprc_core

type outcome = {
  completed : bool;
  decisions : bool option array;
  total_steps : int;
}

let run_ads89 ?(max_steps = 3_000_000) ?params ?coin_mode ?(oracle_seed = 0)
    ?(faults = []) ~n ~seed ~adversary ~inputs () =
  let sim = Sim.create ~seed ~max_steps ~n ~adversary () in
  let module C = Ads89.Make ((val Sim.runtime sim)) in
  let t = C.create ?params ?coin_mode ~oracle_seed () in
  let handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
  in
  let driver = Bprc_faults.Inject.driver ~n faults in
  let completed = Bprc_faults.Inject.drive sim ~driver ~max_steps in
  {
    completed;
    decisions = Array.map Sim.result handles;
    total_steps = Sim.clock sim;
  }

let mixed_inputs n seed =
  let r = Bprc_rng.Splitmix.create ~seed:(seed * 7919) in
  Array.init n (fun _ -> Bprc_rng.Splitmix.bool r)

let check_outcome ~name ~seed ~inputs ~require_all outcome =
  if not outcome.completed then
    Alcotest.failf "%s: seed %d hit step limit (%d steps)" name seed
      outcome.total_steps;
  (match Spec.check ~inputs ~decisions:outcome.decisions with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: seed %d: %s" name seed e);
  if require_all && Array.exists (fun d -> d = None) outcome.decisions then
    Alcotest.failf "%s: seed %d: some process failed to decide" name seed

let test_singleton () =
  List.iter
    (fun v ->
      let o =
        run_ads89 ~n:1 ~seed:1 ~adversary:(Adversary.round_robin ())
          ~inputs:[| v |] ()
      in
      Alcotest.(check (array (option bool))) "decides own input" [| Some v |]
        o.decisions)
    [ true; false ]

let test_unanimous_all_sizes () =
  List.iter
    (fun n ->
      List.iter
        (fun v ->
          let inputs = Array.make n v in
          let o =
            run_ads89 ~n ~seed:(n + 13) ~adversary:(Adversary.random ())
              ~inputs ()
          in
          check_outcome ~name:"unanimous" ~seed:n ~inputs ~require_all:true o;
          Array.iter
            (fun d ->
              Alcotest.(check (option bool)) "validity" (Some v) d)
            o.decisions)
        [ true; false ])
    [ 2; 3; 4; 5 ]

let test_mixed_random_adversary () =
  for seed = 1 to 30 do
    let n = 2 + (seed mod 4) in
    let inputs = mixed_inputs n seed in
    let o = run_ads89 ~n ~seed ~adversary:(Adversary.random ()) ~inputs () in
    check_outcome ~name:"mixed/random" ~seed ~inputs ~require_all:true o
  done

let test_mixed_round_robin () =
  for seed = 1 to 10 do
    let n = 2 + (seed mod 3) in
    let inputs = mixed_inputs n (seed + 100) in
    let o =
      run_ads89 ~n ~seed ~adversary:(Adversary.round_robin ()) ~inputs ()
    in
    check_outcome ~name:"mixed/rr" ~seed ~inputs ~require_all:true o
  done

let test_mixed_bursty () =
  for seed = 1 to 10 do
    let n = 3 in
    let inputs = mixed_inputs n (seed + 200) in
    let o =
      run_ads89 ~n ~seed ~adversary:(Adversary.bursty ~burst:11 ()) ~inputs ()
    in
    check_outcome ~name:"mixed/bursty" ~seed ~inputs ~require_all:true o
  done

let test_crash_tolerance () =
  (* Crash up to n-1 processes at various points; survivors decide and
     stay consistent. *)
  for seed = 1 to 15 do
    let n = 4 in
    let inputs = mixed_inputs n (seed + 300) in
    let crashed = [ seed mod n; (seed + 1) mod n ] in
    let faults =
      List.map2
        (fun pid at_step -> Bprc_faults.Fault_plan.Crash { pid; at_step })
        crashed
        [ (50 + (seed * 17)) / n; (200 + (seed * 23)) / n ]
    in
    let o =
      run_ads89 ~n ~seed ~adversary:(Adversary.random ()) ~inputs ~faults ()
    in
    if not o.completed then
      Alcotest.failf "crash: seed %d hit step limit" seed;
    (match Spec.check ~inputs ~decisions:o.decisions with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash: seed %d: %s" seed e);
    (* At least the never-crashed processes decided. *)
    Array.iteri
      (fun i d ->
        if (not (List.mem i crashed)) && d = None then
          Alcotest.failf "crash: survivor %d undecided at seed %d" i seed)
      o.decisions
  done

let test_determinism () =
  let once () =
    let inputs = [| true; false; true |] in
    let o = run_ads89 ~n:3 ~seed:77 ~adversary:(Adversary.random ()) ~inputs () in
    (o.decisions, o.total_steps)
  in
  Alcotest.(check bool) "same seed same run" true (once () = once ())

let test_local_flips_mode_small_n () =
  (* Exponential baseline still correct for tiny n. *)
  for seed = 1 to 10 do
    let inputs = mixed_inputs 2 (seed + 400) in
    let o =
      run_ads89 ~n:2 ~seed ~adversary:(Adversary.random ())
        ~coin_mode:Ads89.Local_flips ~inputs ()
    in
    check_outcome ~name:"local-flips" ~seed ~inputs ~require_all:true o
  done

let test_oracle_mode () =
  for seed = 1 to 10 do
    let inputs = mixed_inputs 4 (seed + 500) in
    let o =
      run_ads89 ~n:4 ~seed ~adversary:(Adversary.random ())
        ~coin_mode:Ads89.Oracle_shared ~oracle_seed:seed ~inputs ()
    in
    check_outcome ~name:"oracle" ~seed ~inputs ~require_all:true o
  done

let test_register_bits_constant () =
  let sim = Sim.create ~seed:1 ~n:3 ~adversary:(Adversary.random ()) () in
  let module C = Ads89.Make ((val Sim.runtime sim)) in
  let t = C.create () in
  let width t = Bprc_space.Space.max_register_bits (C.space t) in
  let before = width t in
  let _ =
    Array.init 3 (fun i -> Sim.spawn sim (fun () -> C.run t ~input:(i = 0)))
  in
  ignore (Sim.run sim);
  Alcotest.(check int) "register bound unchanged by execution" before
    (width t);
  let st = C.stats t in
  Alcotest.(check bool) "protocol did real work" true (st.Ads89.scans > 0);
  Alcotest.(check bool) "rounds advanced" true (st.Ads89.max_raw_round >= 1)

(* Every decision [Run.consensus_once] returns is its process's own
   [Sim.result] in the same run driven directly, whether the result
   holds one of the arena's shared unanimous vectors (complete runs) or
   an array of its own (a run cut short, with undecided processes). *)
let test_decisions_mirror_results () =
  let module Run = Bprc_harness.Run in
  let n = 3 in
  let arena =
    Sim.create ~seed:0 ~max_steps:20_000_000 ~n
      ~adversary:(Adversary.round_robin ()) ()
  in
  List.iter
    (fun (seed, max_steps) ->
      let r =
        Run.consensus_once ~sim:arena ~max_steps
          ~algo:(Run.Ads Ads89.Shared_walk) ~pattern:Run.Random_inputs ~n
          ~seed ()
      in
      let inputs = Run.inputs_of_pattern Run.Random_inputs ~n ~seed in
      let sim =
        Sim.create ~seed ~max_steps ~n
          ~adversary:(Run.plain_adversary Run.Random_sched) ()
      in
      let module C = Ads89.Make_batched ((val Sim.batched sim)) in
      let t = C.create ~oracle_seed:seed () in
      let handles =
        Array.init n (fun i ->
            Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
      in
      let completed = Sim.run sim = Sim.Completed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d completion" seed)
        completed r.Run.completed;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: undecided iff cut short" seed)
        (not completed)
        (Array.exists Option.is_none r.Run.decisions);
      Array.iteri
        (fun i h ->
          Alcotest.(check (option bool))
            (Printf.sprintf "seed %d, process %d" seed i)
            (Sim.result h) r.Run.decisions.(i))
        handles)
    [ (2, 20_000_000); (3, 20_000_000); (2, 20); (3, 20_000_000) ]

(* --- AH88 baseline ---------------------------------------------------- *)

(* Returns (completed, decisions, max_round, register_bits). *)
let run_ah88 ?(max_steps = 3_000_000) ~n ~seed ~adversary ~inputs () =
  let sim = Sim.create ~seed ~max_steps ~n ~adversary () in
  let module C = Ah88.Make_batched ((val Sim.batched sim)) in
  let t = C.create () in
  let handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
  in
  let completed = Sim.run sim = Sim.Completed in
  ( completed,
    Array.map Sim.result handles,
    (C.stats t).Ads89.max_raw_round,
    Bprc_space.Space.max_register_bits (C.space t) )

let test_ah88_correct () =
  for seed = 1 to 20 do
    let n = 2 + (seed mod 3) in
    let inputs = mixed_inputs n (seed + 600) in
    let completed, decisions, _, _ =
      run_ah88 ~n ~seed ~adversary:(Adversary.random ()) ~inputs ()
    in
    if not completed then Alcotest.failf "ah88: seed %d step limit" seed;
    (match Spec.check ~inputs ~decisions with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ah88: seed %d: %s" seed e);
    if Array.exists (fun d -> d = None) decisions then
      Alcotest.failf "ah88: seed %d: undecided process" seed
  done

let test_ah88_space_grows_with_rounds () =
  let _, _, max_round, bits =
    run_ah88 ~n:3 ~seed:5 ~adversary:(Adversary.random ())
      ~inputs:[| true; false; true |] ()
  in
  Alcotest.(check bool) "rounds entered" true (max_round >= 1);
  (* One counter per round: the register necessarily outgrows a
     single-round footprint. *)
  Alcotest.(check bool) "register grew with rounds" true (bits > max_round)

let test_spec_checker () =
  Alcotest.(check bool) "agreement ok" true
    (Spec.check ~inputs:[| true; false |] ~decisions:[| Some true; Some true |]
    = Ok ());
  Alcotest.(check bool) "disagreement flagged" true
    (Spec.check ~inputs:[| true; false |] ~decisions:[| Some true; Some false |]
    <> Ok ());
  Alcotest.(check bool) "validity flagged" true
    (Spec.check ~inputs:[| true; true |] ~decisions:[| Some false; None |]
    <> Ok ());
  Alcotest.(check bool) "undecided ignored" true
    (Spec.check ~inputs:[| true; false |] ~decisions:[| None; None |] = Ok ())

(* The edge counters are stored one per byte, and 3K of them must fit:
   K = 85 runs, K = 86 is refused before any counter can wrap. *)
let test_k_fits_a_byte () =
  let at k = { Params.default with Params.k } in
  let n = 2 and inputs = [| true; false |] in
  let o =
    run_ads89 ~params:(at 85) ~n ~seed:3 ~adversary:(Adversary.random ())
      ~inputs ()
  in
  check_outcome ~name:"k=85" ~seed:3 ~inputs ~require_all:true o;
  Alcotest.check_raises "k=86"
    (Invalid_argument
       "Params: k must be at most 85, so that the 3K edge-counter values fit \
        a byte")
    (fun () ->
      ignore
        (run_ads89 ~params:(at 86) ~n ~seed:3 ~adversary:(Adversary.random ())
           ~inputs ()))

let suite =
  [
    Alcotest.test_case "spec checker" `Quick test_spec_checker;
    Alcotest.test_case "singleton decides" `Quick test_singleton;
    Alcotest.test_case "unanimous validity (n=2..5)" `Quick
      test_unanimous_all_sizes;
    Alcotest.test_case "mixed inputs / random adversary" `Quick
      test_mixed_random_adversary;
    Alcotest.test_case "mixed inputs / round robin" `Quick test_mixed_round_robin;
    Alcotest.test_case "mixed inputs / bursty" `Quick test_mixed_bursty;
    Alcotest.test_case "crash tolerance" `Quick test_crash_tolerance;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "local-flips mode (n=2)" `Quick
      test_local_flips_mode_small_n;
    Alcotest.test_case "oracle mode" `Quick test_oracle_mode;
    Alcotest.test_case "register bits constant" `Quick test_register_bits_constant;
    Alcotest.test_case "decisions mirror results" `Quick
      test_decisions_mirror_results;
    Alcotest.test_case "ah88: correct" `Quick test_ah88_correct;
    Alcotest.test_case "ah88: space grows" `Quick test_ah88_space_grows_with_rounds;
    Alcotest.test_case "params: K fits a byte" `Quick test_k_fits_a_byte;
  ]

(* --- Multivalued extension -------------------------------------------- *)

let run_multivalued ~n ~seed ~width ~inputs =
  let sim =
    Sim.create ~seed ~max_steps:6_000_000 ~n ~adversary:(Adversary.random ())
      ()
  in
  let module M = Multivalued.Make ((val Sim.runtime sim)) in
  let t = M.create ~width () in
  let handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> M.run t ~input:inputs.(i)))
  in
  let completed = Sim.run sim = Sim.Completed in
  (completed, Array.map Sim.result handles)

let test_multivalued_agreement_and_validity () =
  for seed = 1 to 12 do
    let n = 2 + (seed mod 3) in
    let r = Bprc_rng.Splitmix.create ~seed:(seed * 131) in
    let inputs = Array.init n (fun _ -> Bprc_rng.Splitmix.int r 256) in
    let completed, results = run_multivalued ~n ~seed ~width:8 ~inputs in
    if not completed then Alcotest.failf "mv: seed %d timed out" seed;
    let decided = Array.to_list results |> List.filter_map Fun.id in
    Alcotest.(check int) "all decided" n (List.length decided);
    (match decided with
    | [] -> ()
    | d :: rest ->
      List.iter (fun d' -> Alcotest.(check int) "agreement" d d') rest;
      (* Strong validity: the decision is somebody's actual input. *)
      if not (Array.exists (Int.equal d) inputs) then
        Alcotest.failf "mv: seed %d decided non-input %d" seed d)
  done

let test_multivalued_unanimous () =
  let inputs = Array.make 3 199 in
  let completed, results = run_multivalued ~n:3 ~seed:5 ~width:8 ~inputs in
  Alcotest.(check bool) "completed" true completed;
  Array.iter
    (fun d -> Alcotest.(check (option int)) "unanimous value" (Some 199) d)
    results

let test_multivalued_domain_check () =
  let sim = Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) () in
  let module M = Multivalued.Make ((val Sim.runtime sim)) in
  let t = M.create ~width:4 () in
  ignore
    (Sim.spawn sim (fun () ->
         Alcotest.check_raises "domain"
           (Invalid_argument "Multivalued.run: input outside domain")
           (fun () -> ignore (M.run t ~input:16))));
  ignore (Sim.run sim)

let multivalued_suite =
  [
    Alcotest.test_case "multivalued: agreement+validity" `Quick
      test_multivalued_agreement_and_validity;
    Alcotest.test_case "multivalued: unanimous" `Quick test_multivalued_unanimous;
    Alcotest.test_case "multivalued: domain check" `Quick
      test_multivalued_domain_check;
  ]

let suite = suite @ multivalued_suite

(* --- Snapshot ablation: the protocol over the unbounded snapshot ----- *)

let test_consensus_over_unbounded_snapshot () =
  (* The protocol only relies on P1-P3, so it must run unchanged over
     the classical double-collect snapshot. *)
  for seed = 1 to 10 do
    let n = 3 in
    let sim =
      Sim.create ~seed ~max_steps:3_000_000 ~n ~adversary:(Adversary.random ())
        ()
    in
    let module Snap = Bprc_snapshot.Unbounded.Make ((val Sim.runtime sim)) in
    let module C = Ads89.Make_over_snapshot ((val Sim.runtime sim)) (Snap) in
    let t = C.create () in
    let inputs = mixed_inputs n (seed + 700) in
    let handles =
      Array.init n (fun i ->
          Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
    in
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> Alcotest.failf "ablation: seed %d timed out" seed);
    match Spec.check ~inputs ~decisions:(Array.map Sim.result handles) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ablation: seed %d: %s" seed e
  done

(* --- Systematic (capped) schedule exploration ------------------------ *)

let test_consensus_explored_schedules () =
  (* Unlike the seeded random tests, this drives consensus down
     thousands of *systematically distinct* schedule prefixes (DFS by
     the explorer), checking consistency and validity on each complete
     run.  Exhaustion is far out of reach; coverage of the deepest
     decision points is the value. *)
  let params = { Params.default with Params.m = Some 40 } in
  let runs_checked = ref 0 in
  let stats =
    Exhaust.explore ~n:2 ~max_steps:1500 ~max_runs:1500
      (fun (module R : Runtime_intf.S) ->
        let module C = Ads89.Make ((val (module R : Runtime_intf.S))) in
        let t = C.create ~params () in
        let inputs = [| true; false |] in
        let decisions = [| None; None |] in
        let body i = decisions.(i) <- Some (C.run t ~input:inputs.(i)) in
        (* Runs cut off at the step bound never reach the check. *)
        let check () =
          incr runs_checked;
          match Spec.check ~inputs ~decisions with
          | Error _ as e -> e
          | Ok () ->
            if Array.exists (fun d -> d = None) decisions then
              Error "explored run completed without decisions"
            else Ok ()
        in
        (body, check))
  in
  Exhaust.no_violation stats;
  Alcotest.(check bool) "explored many runs" true (stats.runs >= 1500);
  Alcotest.(check bool) "checked complete runs" true (!runs_checked > 0)

let extra_suite =
  [
    Alcotest.test_case "snapshot ablation (unbounded)" `Quick
      test_consensus_over_unbounded_snapshot;
    Alcotest.test_case "explored schedules (DFS)" `Slow
      test_consensus_explored_schedules;
  ]

let suite = suite @ extra_suite

(* --- Parameter-space fuzzing ------------------------------------------ *)

(* [QCheck.int_range lo hi] draws in range but shrinks toward 0, out of
   it; this one draws the same values and shrinks toward [lo]. *)
let in_range lo hi =
  QCheck.(
    set_print Print.int
      (map ~rev:(fun x -> x - lo) (fun x -> x + lo) (int_range 0 (hi - lo))))

let prop_consensus_param_fuzz =
  (* Random legal parameter combinations, sizes, schedulers, inputs:
     the spec must hold and the run must complete.  k starts at 2, the
     paper's K: at K=1 the §5 decide rule breaks agreement in many
     n=3 and n=4 runs (ROADMAP item 13), a known defect this test
     would only rediscover.  Every range shrinks toward its low end,
     so a failure reports a draw the generator can make, not a
     [Params] refusal. *)
  QCheck.Test.make ~name:"consensus correct across the parameter space"
    ~count:60
    QCheck.(
      quad (in_range 2 4) (* k *)
        (in_range 1 3) (* delta *)
        (in_range 1 5) (* n *)
        (pair small_int (int_range 0 2) (* seed, scheduler *)))
    (fun (k, delta, n, (seed, sched_ix)) ->
      let params = { Params.default with Params.k; delta } in
      let adversary =
        match sched_ix with
        | 0 -> Adversary.random ()
        | 1 -> Adversary.round_robin ()
        | _ -> Adversary.bursty ~burst:7 ()
      in
      let sim = Sim.create ~seed ~max_steps:3_000_000 ~n ~adversary () in
      let module C = Ads89.Make ((val Sim.runtime sim)) in
      let t = C.create ~params () in
      let inputs = mixed_inputs n (seed + 9000) in
      let handles =
        Array.init n (fun i ->
            Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
      in
      let completed = Sim.run sim = Sim.Completed in
      completed
      && Spec.check ~inputs ~decisions:(Array.map Sim.result handles) = Ok ())

let prop_multivalued_fuzz =
  QCheck.Test.make ~name:"multivalued consensus across widths" ~count:25
    QCheck.(pair (int_range 1 10) (pair (int_range 2 3) small_int))
    (fun (width, (n, seed)) ->
      let sim =
        Sim.create ~seed ~max_steps:10_000_000 ~n
          ~adversary:(Adversary.random ()) ()
      in
      let module M = Multivalued.Make ((val Sim.runtime sim)) in
      let t = M.create ~width () in
      let rng = Bprc_rng.Splitmix.create ~seed:(seed + 1) in
      let inputs =
        Array.init n (fun _ -> Bprc_rng.Splitmix.int rng (1 lsl width))
      in
      let handles =
        Array.init n (fun i ->
            Sim.spawn sim (fun () -> M.run t ~input:inputs.(i)))
      in
      let completed = Sim.run sim = Sim.Completed in
      let decisions = Array.map Sim.result handles |> Array.to_list in
      completed
      &&
      match List.filter_map Fun.id decisions with
      | [] -> false
      | d :: rest ->
        List.for_all (Int.equal d) rest && Array.exists (Int.equal d) inputs)

let fuzz_suite =
  [
    QCheck_alcotest.to_alcotest prop_consensus_param_fuzz;
    QCheck_alcotest.to_alcotest prop_multivalued_fuzz;
  ]

let suite = suite @ fuzz_suite

(* --- Allocation regression: the protocol decision path ----------------- *)

(* Steady-state minor words per decision for the full ADS89 stack —
   scan-into view buffers, scratch counter/graph decode, reused
   simulator arena — over repeated instances at n=4.  The arena is
   reused via [~sim] so the gauge reads the protocol path, not
   simulator construction.  It reads about 687 words; the ceiling
   (700, a 2% margin) sits below the 704 a segment with one more
   per-write field costs.  A second input builds a fresh arena per
   instance, so simulator construction counts too; it reads about 616
   words and is pinned with a 4% margin.  The seeds are fixed, so the
   counts repeat exactly.  Both inputs run the random scheduler. *)
let test_ads89_words_per_decision_bounded () =
  let module Run = Bprc_harness.Run in
  let n = 4 in
  let words_per_decision ~ceiling ~what run seeds =
    Gc.full_major ();
    let decisions = ref 0 in
    let m0 = Gc.minor_words () in
    List.iter
      (fun seed ->
        let r = run seed in
        if not r.Run.completed then Alcotest.fail "instance did not complete";
        Array.iter
          (function Some _ -> incr decisions | None -> ())
          r.Run.decisions)
      seeds;
    let per = (Gc.minor_words () -. m0) /. float_of_int !decisions in
    if per > ceiling then
      Alcotest.failf "%s: ads89 minor words/decision %.0f > %.0f" what per
        ceiling
  in
  let max_steps = 3_000_000 in
  let sim =
    Sim.create ~seed:1 ~max_steps ~n ~adversary:(Adversary.round_robin ()) ()
  in
  let reused seed =
    Run.consensus_once ~sim ~max_steps
      ~algo:(Run.Ads Ads89.Shared_walk)
      ~pattern:Run.Random_inputs ~n ~seed ()
  in
  for s = 1 to 5 do
    ignore (reused s)
  done;
  words_per_decision ~ceiling:700.0 ~what:"reused arena" reused
    (List.init 40 (fun i -> 101 + i));
  (* A fresh arena per instance, creation included: the whole decision
     path as a one-shot caller pays for it. *)
  let fresh seed =
    Run.consensus_once
      ~algo:(Run.Ads Ads89.Shared_walk)
      ~pattern:Run.Random_inputs ~n ~seed ()
  in
  words_per_decision ~ceiling:640.0 ~what:"fresh arenas" fresh
    (List.init 24 (fun i -> 0x7E5 + 1 + i))

(* Minor words of one n=64 ADS89 decision over the embedded snapshot
   (oracle coin, round-robin) on a reused arena, whose applied protocol
   module already exists.  It reads 32,800 words, and the ceiling sits
   2% above, below what one more per-instance n x n buffer (4,160
   words) costs.  The run is deterministic, so the count repeats
   exactly. *)
let test_esnap_words_per_decision_bounded () =
  let module Run = Bprc_harness.Run in
  let n = 64 and max_steps = 3_000_000 in
  let sim =
    Sim.create ~seed:1 ~max_steps ~n ~adversary:(Adversary.round_robin ()) ()
  in
  let decide seed =
    let r =
      Run.consensus_once ~sim ~max_steps ~sched:Run.Round_robin_sched
        ~algo:(Run.Ads_esnap Ads89.Oracle_shared) ~pattern:Run.Random_inputs
        ~n ~seed ()
    in
    if not r.Run.completed then Alcotest.fail "instance did not complete"
  in
  decide 1;
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  decide 11;
  let words = Gc.minor_words () -. m0 in
  if words > 33_450.0 then
    Alcotest.failf "esnap n=64: minor words per decision %.0f > 33450" words

(* A reused-arena n=64 decision started with 24k words left in the
   minor heap.  Left alone, the heap overflows once the instance and
   its n x n blocks exist, and the collection promotes them: 22,994
   words.  [Run.consensus_once] empties the minor heap first, so the
   run promotes 180.  A major cycle that begins mid-run forces a minor
   collection anyway, so the least of three runs is checked. *)
let test_large_reused_run_starts_empty () =
  let module Run = Bprc_harness.Run in
  let n = 64 and max_steps = 3_000_000 in
  let sim =
    Sim.create ~seed:1 ~max_steps ~n ~adversary:(Adversary.round_robin ()) ()
  in
  let sink = ref [||] in
  let promoted seed =
    Gc.minor ();
    for _ = 1 to ((Gc.get ()).Gc.minor_heap_size - 24_000) / 101 do
      sink := Array.make 100 0
    done;
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    let r =
      Run.consensus_once ~sim ~max_steps ~sched:Run.Round_robin_sched
        ~algo:(Run.Ads_esnap Ads89.Oracle_shared) ~pattern:Run.Random_inputs
        ~n ~seed ()
    in
    if not r.Run.completed then Alcotest.fail "instance did not complete";
    (Gc.quick_stat ()).Gc.promoted_words -. p0
  in
  ignore (promoted 1 : float);
  let least = List.fold_left min infinity (List.map promoted [ 11; 12; 13 ]) in
  if least > 4_000.0 then
    Alcotest.failf "n=64 reused run on a full minor heap promoted %.0f words"
      least

let alloc_suite =
  [
    Alcotest.test_case "alloc: large reused run starts on an empty minor heap"
      `Quick test_large_reused_run_starts_empty;
    Alcotest.test_case "alloc: ads89 words/decision ceiling" `Quick
      test_ads89_words_per_decision_bounded;
    Alcotest.test_case "alloc: esnap n=64 words/decision ceiling" `Quick
      test_esnap_words_per_decision_bounded;
  ]

let suite = suite @ alloc_suite

(* --- Strip-decode counters ---------------------------------------------- *)

(* Under a cooperative runtime the shared decode scratch is never found
   claimed, and every scan is decoded exactly once: fully, only in its
   changed rows, or not at all when no row changed.  Round robin runs
   the n=32 processes in lockstep, so each round's first decode finds
   every row republished (a full refill) and the other 31 reuse it.
   The random scheduler spreads the writes out: after the first decode
   nearly every refill is incremental or a reuse. *)
let run_decode_counters ~adversary ~seed =
  let n = 32 in
  let sim = Sim.create ~seed ~max_steps:20_000_000 ~n ~adversary () in
  let module C = Ads89.Make ((val Sim.runtime sim)) in
  let t = C.create ~coin_mode:Ads89.Oracle_shared ~oracle_seed:seed () in
  let inputs = mixed_inputs n seed in
  let handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  (match Spec.check ~inputs ~decisions:(Array.map Sim.result handles) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let r = C.decode_stats t and st = C.stats t in
  Alcotest.(check int) "every scan decoded once" st.Ads89.scans
    (r.full_refills + r.incremental_refills + r.reuses);
  (r, st)

let test_decode_counters_round_robin () =
  let d, st = run_decode_counters ~adversary:(Adversary.round_robin ()) ~seed:3 in
  Alcotest.(check bool)
    (Printf.sprintf "full refills %d <= rounds %d + 1"
       d.Bprc_strip.Edge_counters.full_refills st.Ads89.max_raw_round)
    true
    (d.full_refills <= st.max_raw_round + 1);
  Alcotest.(check int) "the rest reuse the round's view"
    (st.scans - d.full_refills) d.reuses

let test_decode_counters_random () =
  let d, _ = run_decode_counters ~adversary:(Adversary.random ()) ~seed:3 in
  Alcotest.(check bool)
    (Printf.sprintf "full refills %d <= 2"
       d.Bprc_strip.Edge_counters.full_refills)
    true (d.full_refills <= 2);
  Alcotest.(check bool) "incremental path taken" true
    (d.incremental_refills > 0
    && d.rows_redecoded >= d.incremental_refills
    && d.rows_redecoded <= 16 * d.incremental_refills)

(* [Local_flips] yields at its flip between decode and write.  A
   process crashed while suspended there holds nothing: the survivors
   keep decoding into the shared scratch and decide. *)
let test_local_flips_crash_on_flip () =
  let crashes = ref 0 in
  for seed = 1 to 8 do
    let n = 3 in
    let sim =
      Sim.create ~seed ~max_steps:3_000_000 ~n ~adversary:(Adversary.random ())
        ()
    in
    let at_flip = Array.make n false in
    let module R = struct
      include (val Sim.runtime sim : Runtime_intf.S)

      let flip () =
        at_flip.(pid ()) <- true;
        flip ()
    end in
    let module C = Ads89.Make (R) in
    let t = C.create ~coin_mode:Ads89.Local_flips () in
    let inputs = mixed_inputs n (seed + 800) in
    let handles =
      Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
    in
    (* Crash the first process seen suspended at its flip. *)
    let victim = ref (-1) and decodes_at_crash = ref 0 in
    let decodes () =
      let d = C.decode_stats t in
      d.full_refills + d.incremental_refills + d.reuses
    in
    let rec go () =
      if Sim.step sim then begin
        (if !victim < 0 then
           match Array.find_index Fun.id at_flip with
           | Some p ->
             Sim.crash sim p;
             victim := p;
             decodes_at_crash := decodes ()
           | None -> ());
        go ()
      end
    in
    go ();
    if !victim >= 0 then begin
      incr crashes;
      (match Spec.check ~inputs ~decisions:(Array.map Sim.result handles) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e);
      Array.iteri
        (fun i h ->
          if i <> !victim && Sim.result h = None then
            Alcotest.failf "seed %d: survivor %d undecided" seed i)
        handles;
      Alcotest.(check bool) "survivors kept decoding" true
        (decodes () > !decodes_at_crash)
    end
  done;
  Alcotest.(check bool) "some process crashed at its flip" true (!crashes > 0)

let decode_suite =
  [
    Alcotest.test_case "decode counters: n=32 round robin" `Quick
      test_decode_counters_round_robin;
    Alcotest.test_case "decode counters: n=32 random" `Quick
      test_decode_counters_random;
    Alcotest.test_case "decode counters: local-flips crash at flip" `Quick
      test_local_flips_crash_on_flip;
  ]

let suite = suite @ decode_suite
