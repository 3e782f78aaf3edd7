open Bprc_runtime
open Bprc_coin

(* Run one shared-coin instance among [n] simulated processes; [make]
   instantiates the coin on the runtime and returns the per-process
   flip closure.  Returns the values obtained, or [None] on timeout. *)
let run_coin ~n ~seed ~adversary (make : (module Runtime_intf.S) -> unit -> bool)
    =
  let sim = Sim.create ~seed ~n ~adversary () in
  let rt = Sim.runtime sim in
  let flip = make rt in
  let handles = Array.init n (fun _ -> Sim.spawn sim (fun () -> flip ())) in
  match Sim.run sim with
  | Sim.Hit_step_limit -> None
  | Sim.Completed ->
    Some (Array.to_list handles |> List.filter_map Sim.result)

let bounded rt =
  let module C = Bounded_walk.Make ((val rt : Runtime_intf.S)) in
  let coin = C.create () in
  fun () -> C.flip coin

let test_bounded_singleton_decides () =
  match run_coin ~n:1 ~seed:3 ~adversary:(Adversary.round_robin ()) bounded with
  | Some [ _ ] -> ()
  | _ -> Alcotest.fail "singleton coin failed to decide"

let test_bounded_all_decide () =
  for seed = 1 to 25 do
    match run_coin ~n:4 ~seed ~adversary:(Adversary.random ()) bounded with
    | Some vs -> Alcotest.(check int) "all decided" 4 (List.length vs)
    | None -> Alcotest.failf "step limit at seed %d" seed
  done

let agreement_rate ~n ~seeds make =
  let agreed = ref 0 in
  let total = ref 0 in
  for seed = 1 to seeds do
    match run_coin ~n ~seed ~adversary:(Adversary.random ()) make with
    | Some (v :: vs) ->
      incr total;
      if List.for_all (Bool.equal v) vs then incr agreed
    | Some [] | None -> ()
  done;
  float_of_int !agreed /. float_of_int (max 1 !total)

let test_bounded_agreement_dominates () =
  (* δ = 2 ⇒ disagreement ≲ 1/4; over 60 seeds agreement should be
     comfortably above half. *)
  let rate = agreement_rate ~n:3 ~seeds:60 bounded in
  Alcotest.(check bool)
    (Printf.sprintf "agreement rate %.2f > 0.6" rate)
    true (rate > 0.6)

let test_bounded_determinism () =
  let once seed =
    run_coin ~n:3 ~seed ~adversary:(Adversary.random ()) bounded
  in
  Alcotest.(check bool) "same seed same outcome" true (once 9 = once 9)

let test_bounded_rejects_bad_params () =
  let sim = Sim.create ~seed:1 ~n:2 ~adversary:(Adversary.random ()) () in
  let module C = Bounded_walk.Make ((val Sim.runtime sim)) in
  Alcotest.check_raises "delta" (Invalid_argument "Bounded_walk: delta must be positive")
    (fun () -> ignore (C.create ~delta:0 ()));
  Alcotest.check_raises "m" (Invalid_argument "Bounded_walk: m must exceed the barrier")
    (fun () -> ignore (C.create ~delta:2 ~m:3 ()))

(* Every counter as last written, and with its drawn step, inside the
   clamped band ±(m+1). *)
let in_band ~m (p : Coin_probe.t) =
  let ok = ref true in
  Array.iteri
    (fun i c ->
      if abs c > m + 1 || abs (c + p.pending.(i)) > m + 1 then ok := false)
    p.published;
  !ok

let test_bounded_overflow_escape () =
  (* A minimal counter bound forces overflows; every process still
     decides (wait-freedom is deterministic here, not probabilistic). *)
  let overflows = ref 0 in
  for seed = 1 to 20 do
    let sim = Sim.create ~seed ~n:2 ~adversary:(Adversary.random ()) () in
    let module C = Bounded_walk.Make ((val Sim.runtime sim)) in
    let coin = C.create ~delta:2 ~m:5 () in
    let hs = Array.init 2 (fun _ -> Sim.spawn sim (fun () -> C.flip coin)) in
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> Alcotest.failf "no decision at seed %d" seed);
    Array.iter
      (fun h ->
        if Sim.result h = None then Alcotest.fail "process undecided")
      hs;
    overflows := !overflows + C.overflows coin
  done;
  Alcotest.(check bool) "tiny m produced overflows" true (!overflows > 0)

let test_bounded_overflow_deterministic_heads () =
  (* Force the Lemma 3.3-3.4 escape hatch deterministically: pid 0
     always draws +1 and pid 1 always -1 (via the flip-source
     override), so under strict alternation the published walk value
     stays within ±1 and never reaches the ±δ·n barrier, while each
     process's own counter drifts monotonically to the ±m bound.  Both
     must exit through the overflow path and decide heads — the escape
     is deterministic, not probabilistic — and no counter may leave the
     clamped ±(m+1) band at any point of the run. *)
  let n = 2 in
  let delta = 2 and m = 5 in
  let sim = Sim.create ~seed:11 ~n ~adversary:(Adversary.round_robin ()) () in
  let module C = Bounded_walk.Make ((val Sim.runtime sim)) in
  let coin = C.create ~delta ~m () in
  Sim.set_flip_source sim (fun ~pid -> pid = 0);
  let band_ok = ref true in
  Sim.set_flip_observer sim (fun ~pid:_ _ ->
      if not (in_band ~m (C.probe coin)) then band_ok := false);
  let hs = Array.init n (fun _ -> Sim.spawn sim (fun () -> C.flip coin)) in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "overflow path failed to terminate");
  Array.iter
    (fun h ->
      Alcotest.(check (option bool)) "overflow decides heads" (Some true)
        (Sim.result h))
    hs;
  Alcotest.(check int) "both processes escaped by overflow" 2
    (C.overflows coin);
  Alcotest.(check bool) "counters stayed in the clamped band" true !band_ok;
  Alcotest.(check bool) "final counters in band" true
    (in_band ~m (C.probe coin))

let test_bounded_counters_stay_in_band () =
  (* Counters never leave ±(m+1) even under adversarial bursts. *)
  let sim = Sim.create ~seed:5 ~n:3 ~adversary:(Adversary.bursty ~burst:9 ()) () in
  let module C = Bounded_walk.Make ((val Sim.runtime sim)) in
  let m = 6 in
  let coin = C.create ~delta:1 ~m () in
  let _ = Array.init 3 (fun _ -> Sim.spawn sim (fun () -> C.flip coin)) in
  ignore (Sim.run sim);
  Alcotest.(check bool) "counters bounded" true (in_band ~m (C.probe coin))

let test_bounded_steps_accounted () =
  let sim = Sim.create ~seed:6 ~n:2 ~adversary:(Adversary.random ()) () in
  let module C = Bounded_walk.Make ((val Sim.runtime sim)) in
  let coin = C.create () in
  let _ = Array.init 2 (fun _ -> Sim.spawn sim (fun () -> C.flip coin)) in
  ignore (Sim.run sim);
  Alcotest.(check bool) "walk steps recorded" true (C.total_walk_steps coin > 0)

let test_bounded_walk_step_alloc_bounded () =
  (* Steady-state allocation ceiling for the walk loop: opposed
     deterministic flips (pid 0 always +1, pid 1 always -1) keep the
     published walk value inside the barrier, and a huge [m] keeps the
     overflow escape out of reach, so a bounded run is pure steady
     state — scan into the per-pid view buffer, sum, flip, write —
     until it hits the step limit.  Per simulator step that is the
     scheduler's effect cost plus the handshake write cell, nothing
     proportional to the round count: the old allocating scan showed
     up here as an extra view array per scan. *)
  let n = 2 in
  let max_steps = 60_000 in
  let sim =
    Sim.create ~seed:21 ~max_steps ~n ~adversary:(Adversary.round_robin ()) ()
  in
  let module C = Bounded_walk.Make ((val Sim.runtime sim)) in
  let coin = C.create ~delta:2 ~m:1_000_000 () in
  Sim.set_flip_source sim (fun ~pid -> pid = 0);
  let _ = Array.init n (fun _ -> Sim.spawn sim (fun () -> C.flip coin)) in
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  (match Sim.run sim with
  | Sim.Hit_step_limit -> ()
  | Sim.Completed -> Alcotest.fail "opposed flips must not decide");
  let dw = Gc.minor_words () -. m0 in
  let per = dw /. float_of_int (Sim.clock sim) in
  Alcotest.(check bool)
    (Printf.sprintf "walk minor words/sim step %.2f <= 6" per)
    true (per <= 6.0)

let suite =
  [
    Alcotest.test_case "bounded: singleton decides" `Quick
      test_bounded_singleton_decides;
    Alcotest.test_case "bounded: all decide" `Quick test_bounded_all_decide;
    Alcotest.test_case "bounded: agreement dominates" `Quick
      test_bounded_agreement_dominates;
    Alcotest.test_case "bounded: deterministic" `Quick test_bounded_determinism;
    Alcotest.test_case "bounded: param validation" `Quick
      test_bounded_rejects_bad_params;
    Alcotest.test_case "bounded: walk-step allocation ceiling" `Quick
      test_bounded_walk_step_alloc_bounded;
    Alcotest.test_case "bounded: overflow escape" `Quick
      test_bounded_overflow_escape;
    Alcotest.test_case "bounded: overflow deterministic heads" `Quick
      test_bounded_overflow_deterministic_heads;
    Alcotest.test_case "bounded: counters clamped" `Quick
      test_bounded_counters_stay_in_band;
    Alcotest.test_case "bounded: steps accounted" `Quick
      test_bounded_steps_accounted;
  ]
