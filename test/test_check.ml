open Bprc_check

(* ------------------------------------------------------------------ *)
(* Wing–Gong checker unit tests                                        *)
(* ------------------------------------------------------------------ *)

module Reg_lin = Lin.Make (Specs.Register)
module Cons_lin = Lin.Make (Specs.Consensus)

let ev pid s f op = { Hist.pid; start_time = s; finish_time = f; op }

let reg_verdict evs =
  match Reg_lin.check evs with
  | Reg_lin.Linearizable _ -> true
  | Reg_lin.Not_linearizable -> false

let test_lin_empty () =
  Alcotest.(check bool) "empty history linearizable" true (reg_verdict [])

let test_lin_sequential () =
  let h =
    [
      ev 0 1 2 (Specs.Write 5);
      ev 1 3 4 (Specs.Read 5);
      ev 0 5 6 (Specs.Write 9);
      ev 1 7 8 (Specs.Read 9);
    ]
  in
  Alcotest.(check bool) "sequential history" true (reg_verdict h);
  match Reg_lin.check h with
  | Reg_lin.Linearizable order ->
    Alcotest.(check int) "witness covers all events" 4 (List.length order)
  | Reg_lin.Not_linearizable -> Alcotest.fail "expected witness"

let test_lin_concurrent_legal () =
  (* A read overlapping a write may return either value. *)
  let old = [ ev 0 1 10 (Specs.Write 5); ev 1 2 3 (Specs.Read 0) ] in
  let new_ = [ ev 0 1 10 (Specs.Write 5); ev 1 2 3 (Specs.Read 5) ] in
  Alcotest.(check bool) "overlapping read of old value" true (reg_verdict old);
  Alcotest.(check bool) "overlapping read of new value" true (reg_verdict new_)

let test_lin_precedence_violation () =
  (* Reading the initial value strictly after a write completed. *)
  let h = [ ev 0 1 2 (Specs.Write 5); ev 1 3 4 (Specs.Read 0) ] in
  Alcotest.(check bool) "stale read flagged" false (reg_verdict h)

let test_lin_new_old_inversion () =
  (* Both reads overlap the write, first sees new then old: each is
     individually regular-legal, together not linearizable. *)
  let h =
    [
      ev 1 1 10 (Specs.Write 7);
      ev 0 2 3 (Specs.Read 7);
      ev 0 4 5 (Specs.Read 0);
    ]
  in
  Alcotest.(check bool) "new-old inversion flagged" false (reg_verdict h)

let test_lin_event_cap () =
  let h = List.init (Lin.max_events + 1) (fun i -> ev 0 i i (Specs.Read 0)) in
  match Reg_lin.check h with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument beyond max_events"

let snap_verdict ~n evs =
  let module L = Lin.Make ((val Specs.snapshot ~n ())) in
  match L.check evs with
  | L.Linearizable _ -> true
  | L.Not_linearizable -> false

let test_lin_snapshot_spec () =
  let upd pid v = Specs.Update { pid; value = v } in
  let legal =
    [
      ev 0 1 2 (upd 0 1);
      ev 1 3 4 (Specs.Scan [| 1; 0 |]);
      ev 1 5 6 (upd 1 2);
      ev 0 7 8 (Specs.Scan [| 1; 2 |]);
    ]
  in
  Alcotest.(check bool) "legal snapshot history" true (snap_verdict ~n:2 legal);
  let stale =
    [ ev 0 1 2 (upd 0 1); ev 1 3 4 (Specs.Scan [| 0; 0 |]) ]
  in
  Alcotest.(check bool) "stale scan flagged" false (snap_verdict ~n:2 stale);
  (* Two scans ordering two concurrent updates incompatibly. *)
  let incomparable =
    [
      ev 0 1 10 (upd 0 1);
      ev 1 1 10 (upd 1 2);
      ev 0 2 3 (Specs.Scan [| 1; 0 |]);
      ev 1 4 5 (Specs.Scan [| 0; 2 |]);
    ]
  in
  Alcotest.(check bool) "incomparable scans flagged" false
    (snap_verdict ~n:2 incomparable)

let cons_verdict evs =
  match Cons_lin.check evs with
  | Cons_lin.Linearizable _ -> true
  | Cons_lin.Not_linearizable -> false

let test_lin_consensus_spec () =
  let p i o = Specs.Propose { input = i; output = o } in
  Alcotest.(check bool) "agreement on a proposed value" true
    (cons_verdict [ ev 0 1 4 (p 0 1); ev 1 2 5 (p 1 1) ]);
  Alcotest.(check bool) "disagreement flagged" false
    (cons_verdict [ ev 0 1 4 (p 0 0); ev 1 2 5 (p 1 1) ]);
  (* Validity: the decision must be somebody's input.  With these
     intervals p0 decides first and must output its own input. *)
  Alcotest.(check bool) "invalid decision flagged" false
    (cons_verdict [ ev 0 1 2 (p 0 1); ev 1 3 4 (p 1 1) ]);
  Alcotest.(check bool) "deciding the later input needs overlap" true
    (cons_verdict [ ev 0 1 4 (p 0 1); ev 1 2 3 (p 1 1) ])

(* ------------------------------------------------------------------ *)
(* Explorer: atomic configurations pass exhaustively                   *)
(* ------------------------------------------------------------------ *)

let get_config name =
  match Config.find name with
  | Some c -> c
  | None -> Alcotest.failf "config %s missing from registry" name

(* Each entry with its derived reduction setting: on exactly for the
   entries whose plan weakens no register. *)
let test_registry_names () =
  List.iter
    (fun (name, reduction) ->
      match Config.find name with
      | None -> Alcotest.failf "%s not registered" name
      | Some cfg ->
        Alcotest.(check bool) (name ^ " reduction") reduction
          cfg.Config.reduction)
    [
      ("reg-atomic", true);
      ("reg-safe", false);
      ("reg-regular", false);
      ("snapshot-atomic", true);
      ("snapshot-unsafe", false);
      ("consensus-2p", true);
    ]

let test_atomic_register_exhaustive () =
  let cfg = get_config "reg-atomic" in
  let stats = Config.run cfg in
  Alcotest.(check bool) "exhausted" true stats.Explorer.exhausted;
  Alcotest.(check bool) "no violation" true (stats.Explorer.violation = None);
  Alcotest.(check bool) "expectation recorded" false cfg.Config.expect_violation

let test_snapshot_atomic_exhaustive () =
  let cfg = get_config "snapshot-atomic" in
  let stats = Config.run cfg in
  Alcotest.(check bool) "exhausted" true stats.Explorer.exhausted;
  Alcotest.(check bool) "no violation" true (stats.Explorer.violation = None)

let test_reduction_sound_and_effective () =
  (* The same configuration explored with and without sleep sets must
     agree on the verdict; the reduced tree must be strictly smaller. *)
  List.iter
    (fun name ->
      let cfg = get_config name in
      let reduced =
        Explorer.explore ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps
          ~reduction:true ~setup:cfg.Config.setup ()
      in
      let full =
        Explorer.explore ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps
          ~reduction:false ~setup:cfg.Config.setup ()
      in
      Alcotest.(check bool) (name ^ ": reduced exhausted") true
        reduced.Explorer.exhausted;
      Alcotest.(check bool) (name ^ ": full exhausted") true
        full.Explorer.exhausted;
      Alcotest.(check bool) (name ^ ": reduced clean") true
        (reduced.Explorer.violation = None);
      Alcotest.(check bool) (name ^ ": full clean") true
        (full.Explorer.violation = None);
      Alcotest.(check bool)
        (Printf.sprintf "%s: reduction shrinks tree (%d < %d)" name
           reduced.Explorer.runs full.Explorer.runs)
        true
        (reduced.Explorer.runs < full.Explorer.runs))
    [ "reg-atomic"; "snapshot-atomic" ]

(* ------------------------------------------------------------------ *)
(* Explorer: weakened configurations produce witnesses                 *)
(* ------------------------------------------------------------------ *)

let find_violation name =
  let cfg = get_config name in
  Alcotest.(check bool) (name ^ ": expectation recorded") true
    cfg.Config.expect_violation;
  let stats = Config.run cfg in
  match stats.Explorer.violation with
  | None -> Alcotest.failf "%s: no violation found" name
  | Some w -> (cfg, w)

let test_weakened_configs_fail_and_replay () =
  List.iter
    (fun name ->
      let cfg, w = find_violation name in
      (* The ddmin-minimized witness must reproduce the exact failure. *)
      match Config.replay cfg w with
      | Explorer.Fail f, clock ->
        Alcotest.(check string) (name ^ ": failure reproduced") w.Explorer.failure f;
        Alcotest.(check int) (name ^ ": clock reproduced") w.Explorer.clock clock
      | Explorer.Pass, _ -> Alcotest.failf "%s: witness replayed clean" name
      | Explorer.Cutoff, _ -> Alcotest.failf "%s: witness replay cut off" name)
    [ "reg-safe"; "reg-regular"; "snapshot-unsafe" ]

let test_witness_is_minimal () =
  (* Dropping any single schedule choice from the ddmin-ed witness must
     lose the failure (1-minimality), so the witness really is the
     explorer's minimal repro, not just a failing prefix. *)
  let cfg, w = find_violation "reg-regular" in
  let choices = Array.of_list w.Explorer.choices in
  Array.iteri
    (fun i _ ->
      let shorter =
        List.filteri (fun j _ -> j <> i) w.Explorer.choices
      in
      match
        Explorer.replay ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps
          ~choices:shorter ~flips:w.Explorer.flips ~setup:cfg.Config.setup ()
      with
      | Explorer.Fail f, _ when f = w.Explorer.failure ->
        Alcotest.failf "dropping choice %d still fails identically" i
      | _ -> ())
    choices

let test_exploration_deterministic () =
  (* Two independent explorations are bit-identical: same tree size,
     same witness, same failure, regardless of environment. *)
  let cfg = get_config "reg-regular" in
  let s1 = Config.run cfg in
  let s2 = Config.run cfg in
  Alcotest.(check int) "runs equal" s1.Explorer.runs s2.Explorer.runs;
  Alcotest.(check int) "pruned equal" s1.Explorer.pruned s2.Explorer.pruned;
  match (s1.Explorer.violation, s2.Explorer.violation) with
  | Some w1, Some w2 ->
    Alcotest.(check (list int)) "choices equal" w1.Explorer.choices
      w2.Explorer.choices;
    Alcotest.(check (list bool)) "flips equal" w1.Explorer.flips
      w2.Explorer.flips;
    Alcotest.(check string) "failure equal" w1.Explorer.failure
      w2.Explorer.failure;
    Alcotest.(check int) "clock equal" w1.Explorer.clock w2.Explorer.clock
  | _ -> Alcotest.fail "violation missing from one of two identical runs"

let test_shrink_shrinks () =
  let cfg = get_config "snapshot-unsafe" in
  let raw = Config.run ~shrink:false cfg in
  let shrunk = Config.run ~shrink:true cfg in
  match (raw.Explorer.violation, shrunk.Explorer.violation) with
  | Some r, Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "ddmin does not grow the schedule (%d <= %d)"
         (List.length s.Explorer.choices)
         (List.length r.Explorer.choices))
      true
      (List.length s.Explorer.choices <= List.length r.Explorer.choices);
    Alcotest.(check bool) "ddmin does not grow the flips" true
      (List.length s.Explorer.flips <= List.length r.Explorer.flips)
  | _ -> Alcotest.fail "violation missing"

let test_witness_json_roundtrip () =
  let _, w = find_violation "reg-safe" in
  let saved =
    {
      Witness.header = { config = "reg-safe"; n = 2; max_steps = 64 };
      schedule = w;
    }
  in
  match Witness.of_string (Witness.to_string saved) with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok w' ->
    Alcotest.(check bool) "roundtrip preserves witness" true (saved = w');
    Alcotest.(check (list int)) "choices preserved" w.Explorer.choices
      w'.schedule.choices

(* ------------------------------------------------------------------ *)
(* Property: random atomic-register histories are always linearizable  *)
(* ------------------------------------------------------------------ *)

let test_random_histories_linearizable () =
  (* Random schedules over an atomic register with 3 processes; every
     recorded history must pass the checker (soundness smoke for the
     history recorder + Wing–Gong search). *)
  let module Sim = Bprc_runtime.Sim in
  let module Adversary = Bprc_runtime.Adversary in
  for seed = 1 to 50 do
    let sim = Sim.create ~seed ~n:3 ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let r = R.make_reg ~name:"x" 0 in
    let h : Specs.reg_op Hist.t = Hist.create () in
    for i = 0 to 2 do
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to 3 do
               let v = (10 * i) + k in
               let s = Hist.stamp h in
               R.write r v;
               let f = Hist.stamp h in
               Hist.record h ~pid:i ~start_time:s ~finish_time:f
                 (Specs.Write v);
               let s = Hist.stamp h in
               let got = R.read r in
               let f = Hist.stamp h in
               Hist.record h ~pid:i ~start_time:s ~finish_time:f
                 (Specs.Read got)
             done))
    done;
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> Alcotest.failf "seed %d: step limit" seed);
    if not (reg_verdict (Hist.events h)) then
      Alcotest.failf "seed %d: atomic register history rejected" seed
  done

(* ------------------------------------------------------------------ *)
(* Bounded corner search over the full protocol stays clean            *)
(* ------------------------------------------------------------------ *)

let test_consensus_corner_search () =
  let cfg = get_config "consensus-2p" in
  let stats = Config.run ~max_runs:500 cfg in
  Alcotest.(check bool) "no violation in explored corner" true
    (stats.Explorer.violation = None);
  Alcotest.(check int) "bound respected" 500 stats.Explorer.runs;
  Alcotest.(check bool) "tree too large to exhaust" false
    stats.Explorer.exhausted

(* ------------------------------------------------------------------ *)
(* Differential against the frozen reference explorer                  *)
(* ------------------------------------------------------------------ *)

(* A skewed tree: p0 going first kills the branching instantly (it
   reads the flag's initial 0 and exits), while p1 going first opens
   ~C(12,5) interleavings of the two write loops, so well over 90% of
   all runs sit under a single one-decision prefix. *)
let skewed_setup sim =
  let module Sim = Bprc_runtime.Sim in
  let (module R) = Sim.runtime sim in
  let flag = R.make_reg ~name:"flag" 0 in
  let a = R.make_reg ~name:"a" 0 in
  let b = R.make_reg ~name:"b" 0 in
  ignore
    (Sim.spawn sim (fun () ->
         if R.read flag = 1 then
           for k = 1 to 12 do
             R.write a k
           done));
  ignore
    (Sim.spawn sim (fun () ->
         R.write flag 1;
         for k = 1 to 4 do
           R.write b k
         done));
  fun () -> Ok ()

type reference_case = {
  label : string;
  n : int;
  max_steps : int;
  max_runs : int;
  reduction : bool;
  setup : Explorer.setup;
}

(* Every registry configuration under both reduction settings rather
   than only its own: reduction is unsound as a check on the weakened
   configs, but the reduced walk is still deterministic, and their
   weakened registers give it explicit yields and coin flips to capture.
   A step access captured late, early or not at all changes some sleep
   set, and so the run counts.  [max_runs] 1500 keeps the unbounded
   consensus trees finite. *)
let registry_cases () =
  List.concat_map
      (fun (cfg : Config.t) ->
        List.map
          (fun reduction ->
            {
              label = Printf.sprintf "%s reduction:%b" cfg.name reduction;
              n = cfg.n;
              max_steps = cfg.max_steps;
              max_runs = 1500;
              reduction;
              setup = cfg.setup;
            })
          [ true; false ])
    Config.all

(* The skewed tree, explored to exhaustion under both reduction
   settings. *)
let skewed_cases () =
  List.map
    (fun reduction ->
      {
        label = Printf.sprintf "skewed reduction:%b" reduction;
        n = 2;
        max_steps = 256;
        max_runs = 200_000;
        reduction;
        setup = skewed_setup;
      })
    [ true; false ]

(* The one exploration at n = 3: a snapshot program whose updater
   also scans, beside a lone updater and a lone scanner.  Reduced, the
   walk exhausts at 12,089 runs; unreduced, the tree is far larger, so
   [max_runs] stops it. *)
let three_process_cases () =
  let setup =
    Config.snapshot_prog ~lin:true ~plan:[]
      ~prog:[| [ `Update 1; `Scan ]; [ `Update 2 ]; [ `Scan ] |]
  in
  List.map
    (fun reduction ->
      {
        label = Printf.sprintf "snapshot n=3 reduction:%b" reduction;
        n = 3;
        max_steps = 256;
        max_runs = 20_000;
        reduction;
        setup;
      })
    [ true; false ]

(* [max_runs] bounds that stop snapshot-unsafe's walk at its first run
   and mid-tree, or leave room for its witness (found at run 18). *)
let bounded_cases () =
  let unsafe = get_config "snapshot-unsafe" in
  List.map
    (fun max_runs ->
      {
        label = Printf.sprintf "snapshot-unsafe max_runs:%d" max_runs;
        n = unsafe.n;
        max_steps = unsafe.max_steps;
        max_runs;
        reduction = unsafe.reduction;
        setup = unsafe.setup;
      })
    [ 1; 7; 123; 1000 ]

(* Explorer reproduces the frozen reference Explorer_ref's full report
   — stats totals, the exhausted flag, and the (shrunk) witness — on
   every case. *)
let check_against_reference cases =
  List.iter
    (fun c ->
      let reference =
        Explorer_ref.explore ~n:c.n ~max_steps:c.max_steps
          ~max_runs:c.max_runs ~reduction:c.reduction ~setup:c.setup ()
      in
      let stats =
        Explorer.explore ~n:c.n ~max_steps:c.max_steps ~max_runs:c.max_runs
          ~reduction:c.reduction ~setup:c.setup ()
      in
      let label = c.label in
      Alcotest.(check int) (label ^ ": runs") reference.Explorer_ref.runs
        stats.Explorer.runs;
      Alcotest.(check int)
        (label ^ ": pruned")
        reference.Explorer_ref.pruned stats.Explorer.pruned;
      Alcotest.(check int)
        (label ^ ": step_limited")
        reference.Explorer_ref.step_limited stats.Explorer.step_limited;
      Alcotest.(check bool)
        (label ^ ": exhausted")
        reference.Explorer_ref.exhausted stats.Explorer.exhausted;
      match (reference.Explorer_ref.violation, stats.Explorer.violation) with
      | None, None -> ()
      | Some r, Some w ->
        Alcotest.(check (list int))
          (label ^ ": witness choices")
          r.Explorer_ref.choices w.Explorer.choices;
        Alcotest.(check (list bool))
          (label ^ ": witness flips")
          r.Explorer_ref.flips w.Explorer.flips;
        Alcotest.(check string)
          (label ^ ": witness failure")
          r.Explorer_ref.failure w.Explorer.failure;
        Alcotest.(check int)
          (label ^ ": witness clock")
          r.Explorer_ref.clock w.Explorer.clock
      | Some _, None -> Alcotest.failf "%s: witness lost" label
      | None, Some _ -> Alcotest.failf "%s: spurious witness" label)
    cases

let test_matches_reference () =
  check_against_reference (registry_cases () @ three_process_cases ())
let test_skewed_tree () = check_against_reference (skewed_cases ())
let test_max_runs_bounds () = check_against_reference (bounded_cases ())

(* Every explore makes fresh arenas, and the registry memoizes functor
   applications and checker scratch per arena.  Those caches must let
   an arena die with its explore: live words stay flat across repeated
   explores instead of growing by every dead arena. *)
let test_explore_caches_do_not_leak () =
  let cfg = Option.get (Config.find "snapshot-atomic") in
  let explore () = ignore (Config.run ~max_runs:64 cfg) in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  for _ = 1 to 5 do
    explore ()
  done;
  let before = live () in
  for _ = 1 to 40 do
    explore ()
  done;
  let after = live () in
  if after - before > 10_000 then
    Alcotest.failf "live words grew from %d to %d over 40 explores" before
      after

(* Building a program takes no process-wide index: one program run on
   a fresh arena allocates the same words, minor and major, before and
   after 10,000 more programs are built.  An arena slot per program
   ({!Bprc_runtime.Sim.new_local}) would grow the arena's slot array to
   the newest slot's index, and a domain-local key per linearizability
   checker would grow the domain's store the same way; arrays that
   large are allocated on the major heap. *)
let test_programs_take_no_slots () =
  let module Sim = Bprc_runtime.Sim in
  let build () =
    Config.snapshot_prog ~lin:true ~plan:[]
      ~prog:[| [ `Update 1; `Scan ]; [ `Update 11; `Scan ] |]
  in
  let words () =
    (* The counters take in the words allocated since the last
       collection only when one runs. *)
    Gc.full_major ();
    let s = Gc.quick_stat () in
    (s.Gc.minor_words, s.Gc.major_words -. s.Gc.promoted_words)
  in
  let run_one () =
    let setup = build () in
    let sim =
      Sim.create ~seed:1 ~n:2 ~adversary:(Bprc_runtime.Adversary.random ()) ()
    in
    let minor0, major0 = words () in
    let check = setup sim in
    ignore (Sim.run sim);
    Alcotest.(check bool) "passes" true (check () = Ok ());
    let minor1, major1 = words () in
    (minor1 -. minor0, major1 -. major0)
  in
  ignore (run_one ());
  let before = run_one () in
  for _ = 1 to 10_000 do
    let (_ : Explorer.setup) = build () in
    ()
  done;
  let after = run_one () in
  Alcotest.(check (pair (float 0.) (float 0.)))
    "minor and major words" before after

(* Each registry program memoizes its check's verdict per arena, keyed
   on the exact recorded history.  Seeded schedules (uniformly random,
   or bursts of 1 to 8 steps) run through one reused arena, whose table
   is warm from every earlier schedule, must give the outcome and clock
   a fresh arena (cold table) gives.  The weakened configs must fail on
   some schedules, so [Error] verdicts are served from the table too.
   A key without the stamps fails this on reg-safe, one without the
   scan views on snapshot-unsafe. *)
let test_verdict_memo_warm_matches_cold () =
  let module Sim = Bprc_runtime.Sim in
  let module Adversary = Bprc_runtime.Adversary in
  let schedules = 300 in
  let outcome (cfg : Config.t) sim =
    let raised e = Explorer.Fail ("raised: " ^ Printexc.to_string e) in
    let o =
      match cfg.setup sim with
      | exception e -> raised e
      | check -> (
        match Sim.run sim with
        | Sim.Hit_step_limit -> Explorer.Cutoff
        | Sim.Completed -> (
          match check () with
          | Ok () -> Explorer.Pass
          | Error f -> Explorer.Fail f
          | exception e -> raised e)
        | exception e -> raised e)
    in
    (o, Sim.clock sim)
  in
  let pp ppf = function
    | Explorer.Pass, c -> Fmt.pf ppf "pass@%d" c
    | Explorer.Cutoff, c -> Fmt.pf ppf "cutoff@%d" c
    | Explorer.Fail f, c -> Fmt.pf ppf "fail@%d: %s" c f
  in
  let outcome_t = Alcotest.testable pp ( = ) in
  List.iter
    (fun (cfg : Config.t) ->
      let fresh seed adversary =
        Sim.create ~seed ~max_steps:cfg.max_steps ~n:cfg.n ~adversary ()
      in
      let warm = fresh 0 (Adversary.random ()) in
      let fails = ref 0 in
      for seed = 1 to schedules do
        let adversary () =
          if seed mod 2 = 0 then Adversary.random ()
          else Adversary.bursty ~burst:(1 + (seed / 2 mod 8)) ()
        in
        Sim.reset ~seed ~adversary:(adversary ()) warm;
        let w = outcome cfg warm in
        let c = outcome cfg (fresh seed (adversary ())) in
        Alcotest.check outcome_t
          (Printf.sprintf "%s seed %d: warm = cold" cfg.name seed)
          c w;
        match c with Explorer.Fail _, _ -> incr fails | _ -> ()
      done;
      if cfg.expect_violation && !fails = 0 then
        Alcotest.failf "%s: no failing schedule in %d" cfg.name schedules)
    Config.all

let suite =
  [
    Alcotest.test_case "lin: empty" `Quick test_lin_empty;
    Alcotest.test_case "lin: sequential" `Quick test_lin_sequential;
    Alcotest.test_case "lin: concurrent legal" `Quick test_lin_concurrent_legal;
    Alcotest.test_case "lin: precedence violation" `Quick
      test_lin_precedence_violation;
    Alcotest.test_case "lin: new-old inversion" `Quick
      test_lin_new_old_inversion;
    Alcotest.test_case "lin: event cap" `Quick test_lin_event_cap;
    Alcotest.test_case "lin: snapshot spec" `Quick test_lin_snapshot_spec;
    Alcotest.test_case "lin: consensus spec" `Quick test_lin_consensus_spec;
    Alcotest.test_case "registry: expected configs" `Quick test_registry_names;
    Alcotest.test_case "explore: reg-atomic exhaustive" `Quick
      test_atomic_register_exhaustive;
    Alcotest.test_case "explore: snapshot-atomic exhaustive" `Quick
      test_snapshot_atomic_exhaustive;
    Alcotest.test_case "explore: reduction sound + effective" `Quick
      test_reduction_sound_and_effective;
    Alcotest.test_case "explore: weakened configs fail + replay" `Quick
      test_weakened_configs_fail_and_replay;
    Alcotest.test_case "explore: witness 1-minimal" `Quick
      test_witness_is_minimal;
    Alcotest.test_case "explore: deterministic" `Quick
      test_exploration_deterministic;
    Alcotest.test_case "explore: ddmin shrinks" `Quick test_shrink_shrinks;
    Alcotest.test_case "witness: json roundtrip" `Quick
      test_witness_json_roundtrip;
    Alcotest.test_case "lin: random atomic histories" `Quick
      test_random_histories_linearizable;
    Alcotest.test_case "explore: consensus corner search" `Quick
      test_consensus_corner_search;
    Alcotest.test_case "explore: matches frozen reference" `Quick
      test_matches_reference;
    (* The next two names date from the sharded explorer, whose work
       stealing and mid-shard bound these inputs once exercised; they
       now pin the sequential walk against the reference. *)
    Alcotest.test_case "explore: skewed-subtree stealing" `Quick
      test_skewed_tree;
    Alcotest.test_case "explore: max_runs mid-shard" `Quick
      test_max_runs_bounds;
    Alcotest.test_case "explore: caches die with their arenas" `Quick
      test_explore_caches_do_not_leak;
    Alcotest.test_case "check: memoized verdicts warm = cold" `Quick
      test_verdict_memo_warm_matches_cold;
    Alcotest.test_case "alloc: programs take no arena slot" `Quick
      test_programs_take_no_slots;
  ]

(* Allocation ceiling for the explorer over the snapshot-atomic
   registry config, unreduced (a 30,448-run tree).  The DFS bookkeeping
   allocates nothing, and each distinct history is checked once, so
   words per run are workload setup and history recording: 267.65
   measured (282.65 while the handshake allocated its n unused
   diagonal arrows), pinned at 321 (about 20% over). *)
let test_explorer_words_per_run () =
  let cfg = get_config "snapshot-atomic" in
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let stats =
    Explorer.explore ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps
      ~reduction:false ~setup:cfg.Config.setup ()
  in
  let words = (Gc.minor_words () -. m0) /. float_of_int stats.Explorer.runs in
  Alcotest.(check bool) "exhausted" true stats.Explorer.exhausted;
  Alcotest.(check int) "runs" 30_448 stats.Explorer.runs;
  if words > 321.0 then Alcotest.failf "explorer words/run %.2f > 321" words

let suite =
  suite
  @ [
      Alcotest.test_case "alloc: explorer words/run ceiling" `Quick
        test_explorer_words_per_run;
    ]
