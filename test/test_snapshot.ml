open Bprc_runtime
open Bprc_snapshot

(* ------------------------------------------------------------------ *)
(* Snap_checker unit tests (including deliberate violations)           *)
(* ------------------------------------------------------------------ *)

let test_checker_accepts_legal () =
  let c = Snap_checker.create ~n:2 ~init:0 in
  Snap_checker.record_write c ~pid:0 ~start_time:1 ~finish_time:2 ~value:1;
  Snap_checker.record_scan c ~pid:1 ~start_time:3 ~finish_time:4
    ~view:[| 1; 0 |];
  Snap_checker.record_write c ~pid:1 ~start_time:5 ~finish_time:6 ~value:1;
  Snap_checker.record_scan c ~pid:0 ~start_time:7 ~finish_time:8
    ~view:[| 1; 1 |];
  (match Snap_checker.check_all c with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "writes" 2 (Snap_checker.writes c);
  Alcotest.(check int) "scans" 2 (Snap_checker.scans c)

let test_checker_flags_stale_p1 () =
  let c = Snap_checker.create ~n:2 ~init:0 in
  Snap_checker.record_write c ~pid:0 ~start_time:1 ~finish_time:2 ~value:1;
  Snap_checker.record_write c ~pid:0 ~start_time:3 ~finish_time:4 ~value:2;
  (* Scan entirely after both writes returns the overwritten value 1. *)
  Snap_checker.record_scan c ~pid:1 ~start_time:5 ~finish_time:6
    ~view:[| 1; 0 |];
  match Snap_checker.check_regularity c with
  | Ok () -> Alcotest.fail "P1 violation not flagged"
  | Error e ->
    Alcotest.(check bool) "mentions P1" true (String.length e > 0)

let test_checker_flags_mixed_p2 () =
  let c = Snap_checker.create ~n:2 ~init:0 in
  (* Writer 0: w(1)[1,2] then w(2)[4,5]; writer 1: w(1)[6,7].
     A scan spanning [3,9] may see 0's old value 1 (P1-legal since its
     successor overlaps the scan) together with 1's value 1 — but those
     two writes do not coexist. *)
  Snap_checker.record_write c ~pid:0 ~start_time:1 ~finish_time:2 ~value:1;
  Snap_checker.record_write c ~pid:0 ~start_time:4 ~finish_time:5 ~value:2;
  Snap_checker.record_write c ~pid:1 ~start_time:6 ~finish_time:7 ~value:1;
  Snap_checker.record_scan c ~pid:1 ~start_time:3 ~finish_time:9
    ~view:[| 1; 1 |];
  (match Snap_checker.check_regularity c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "P1 unexpectedly failed: %s" e);
  match Snap_checker.check_snapshot c with
  | Ok () -> Alcotest.fail "P2 violation not flagged"
  | Error _ -> ()

let test_checker_flags_incomparable_p3 () =
  let c = Snap_checker.create ~n:2 ~init:0 in
  Snap_checker.record_write c ~pid:0 ~start_time:1 ~finish_time:10 ~value:1;
  Snap_checker.record_write c ~pid:1 ~start_time:2 ~finish_time:11 ~value:1;
  (* Two scans overlapping the writes disagree on which came first. *)
  Snap_checker.record_scan c ~pid:0 ~start_time:3 ~finish_time:4
    ~view:[| 1; 0 |];
  Snap_checker.record_scan c ~pid:1 ~start_time:5 ~finish_time:6
    ~view:[| 0; 1 |];
  match Snap_checker.check_serializability c with
  | Ok () -> Alcotest.fail "P3 violation not flagged"
  | Error _ -> ()

let test_checker_rejects_nonmonotone_values () =
  let c = Snap_checker.create ~n:1 ~init:0 in
  Snap_checker.record_write c ~pid:0 ~start_time:1 ~finish_time:2 ~value:5;
  Alcotest.check_raises "values must increase"
    (Invalid_argument "Snap_checker: per-writer values must strictly increase")
    (fun () ->
      Snap_checker.record_write c ~pid:0 ~start_time:3 ~finish_time:4 ~value:5)

(* ------------------------------------------------------------------ *)
(* Generic scenario driver: every process alternates write/scan and    *)
(* records into a checker; properties must hold on completion.         *)
(* ------------------------------------------------------------------ *)

module type SNAP = Snapshot_intf.S

let drive_scenario (module R : Runtime_intf.S) (module S : SNAP) sim ~rounds =
  let mem = S.create ~init:0 () in
  let checker = Snap_checker.create ~n:R.n ~init:0 in
  for p = 0 to R.n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to rounds do
             let s = Snap_checker.stamp checker in
             S.write mem k;
             Snap_checker.record_write checker ~pid:p ~start_time:s
               ~finish_time:(Snap_checker.stamp checker) ~value:k;
             let s = Snap_checker.stamp checker in
             let view = S.scan mem in
             Snap_checker.record_scan checker ~pid:p ~start_time:s
               ~finish_time:(Snap_checker.stamp checker) ~view
           done))
  done;
  checker

let check_random_schedules make_snap ~n ~rounds ~seeds name =
  for seed = 1 to seeds do
    let sim = Sim.create ~seed ~n ~adversary:(Adversary.random ()) () in
    let rt = Sim.runtime sim in
    let snap = make_snap rt in
    let checker = drive_scenario rt snap sim ~rounds in
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> Alcotest.failf "%s: step limit at seed %d" name seed);
    match Snap_checker.check_all checker with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: seed %d: %s" name seed e
  done

let handshake_of rt : (module SNAP) =
  let (module R : Runtime_intf.S) = rt in
  (module Handshake.Make (R) : SNAP)

let unbounded_of rt : (module SNAP) =
  let (module R : Runtime_intf.S) = rt in
  (module Unbounded.Make (R) : SNAP)

let test_handshake_random_small () =
  check_random_schedules handshake_of ~n:3 ~rounds:4 ~seeds:60 "handshake"

(* P1, P2 and P3 asserted one by one — not via check_all — so a failure
   names the specific property broken (DESIGN.md §2), across random and
   bursty schedules. *)
let test_properties_individually () =
  let adversaries =
    [ ("random", Adversary.random); ("bursty", Adversary.bursty ~burst:5) ]
  in
  List.iter
    (fun (aname, adv) ->
      for seed = 1 to 25 do
        let sim = Sim.create ~seed ~n:3 ~adversary:(adv ()) () in
        let rt = Sim.runtime sim in
        let snap = handshake_of rt in
        let checker = drive_scenario rt snap sim ~rounds:3 in
        (match Sim.run sim with
        | Sim.Completed -> ()
        | Sim.Hit_step_limit ->
          Alcotest.failf "%s seed %d: step limit" aname seed);
        (match Snap_checker.check_regularity checker with
        | Ok () -> ()
        | Error e -> Alcotest.failf "P1 regularity (%s seed %d): %s" aname seed e);
        (match Snap_checker.check_snapshot checker with
        | Ok () -> ()
        | Error e -> Alcotest.failf "P2 snapshot (%s seed %d): %s" aname seed e);
        match Snap_checker.check_serializability checker with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "P3 serializability (%s seed %d): %s" aname seed e
      done)
    adversaries

let test_handshake_random_wide () =
  check_random_schedules handshake_of ~n:6 ~rounds:3 ~seeds:15 "handshake-n6"

let test_handshake_bursty () =
  for seed = 1 to 20 do
    let sim =
      Sim.create ~seed ~n:4 ~adversary:(Adversary.bursty ~burst:7 ()) ()
    in
    let rt = Sim.runtime sim in
    let snap = handshake_of rt in
    let checker = drive_scenario rt snap sim ~rounds:3 in
    ignore (Sim.run sim);
    match Snap_checker.check_all checker with
    | Ok () -> ()
    | Error e -> Alcotest.failf "bursty seed %d: %s" seed e
  done

let test_unbounded_random () =
  check_random_schedules unbounded_of ~n:3 ~rounds:4 ~seeds:40 "unbounded"

let test_handshake_sequential_exact () =
  let sim = Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  let h =
    Sim.spawn sim (fun () ->
        let v0 = S.scan mem in
        S.write mem 7;
        let v1 = S.scan mem in
        S.write mem 9;
        let v2 = S.scan mem in
        (v0.(0), v1.(0), v2.(0)))
  in
  ignore (Sim.run sim);
  Alcotest.(check (option (triple int int int)))
    "own component tracks writes" (Some (0, 7, 9)) (Sim.result h)

let test_handshake_own_component () =
  let sim = Sim.create ~seed:3 ~n:3 ~adversary:(Adversary.random ()) () in
  let (module R) = Sim.runtime sim in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  let handles =
    Array.init 3 (fun i ->
        Sim.spawn sim (fun () ->
            S.write mem (100 + i);
            let view = S.scan mem in
            view.(R.pid ()) = 100 + i))
  in
  ignore (Sim.run sim);
  Array.iter
    (fun h ->
      Alcotest.(check (option bool)) "own value current" (Some true)
        (Sim.result h))
    handles

(* The handshake allocates its n(n-1) arrows first, so the first value
   register, V0, takes id n(n-1).  Trace digests and [Weaken {index}]
   plans name registers by these ids. *)
let test_handshake_value_ids_follow_arrows () =
  let n = 2 in
  let sim =
    Sim.create ~seed:1 ~n ~record_trace:true
      ~adversary:(Adversary.round_robin ()) ()
  in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  for p = 0 to n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           S.write mem (p + 1);
           ignore (S.scan mem)))
  done;
  ignore (Sim.run sim);
  let v0 =
    List.find
      (fun e -> e.Trace.reg_name = "snap.V0")
      (Trace.to_list (Option.get (Sim.trace sim)))
  in
  Alcotest.(check int) "V0's id" (n * (n - 1)) v0.Trace.reg_id

let test_handshake_exhaustive_two_procs () =
  (* n=2, each process: one write then one scan.  Full interleaving
     space; all three properties checked on every execution. *)
  let stats =
    Exhaust.explore ~n:2 ~max_steps:4000 ~max_runs:400_000
      (fun (module R : Runtime_intf.S) ->
        let module S = Handshake.Make ((val (module R : Runtime_intf.S))) in
        let mem = S.create ~init:0 () in
        let checker = Snap_checker.create ~n:2 ~init:0 in
        let body p =
          let s = Snap_checker.stamp checker in
          S.write mem 1;
          Snap_checker.record_write checker ~pid:p ~start_time:s
            ~finish_time:(Snap_checker.stamp checker) ~value:1;
          let s = Snap_checker.stamp checker in
          let view = S.scan mem in
          Snap_checker.record_scan checker ~pid:p ~start_time:s
            ~finish_time:(Snap_checker.stamp checker) ~view
        in
        let check () =
          Result.map_error
            (fun e -> "handshake exhaustive: " ^ e)
            (Snap_checker.check_all checker)
        in
        (body, check))
  in
  Exhaust.no_violation stats;
  Alcotest.(check bool) "exhausted" true stats.exhausted;
  Alcotest.(check bool) "nontrivial" true (stats.runs > 100)

let test_handshake_retries_happen_and_are_bounded () =
  (* Writers churn while one process scans; scans may retry but never
     more than the total number of writes can justify. *)
  let total_retries = ref 0 in
  for seed = 1 to 30 do
    let sim = Sim.create ~seed ~n:3 ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let module S = Handshake.Make ((val Sim.runtime sim)) in
    let mem = S.create ~init:0 () in
    let writes = 6 in
    for _ = 1 to 2 do
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to writes do
               S.write mem k
             done))
    done;
    ignore (Sim.spawn sim (fun () -> ignore (S.scan mem)));
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> Alcotest.fail "scan failed to terminate");
    let r = S.scan_retries mem in
    total_retries := !total_retries + r;
    if r > 2 * (2 * writes) then
      Alcotest.failf "retries %d exceed write-justified bound at seed %d" r seed
  done;
  Alcotest.(check bool) "some retries occurred across seeds" true
    (!total_retries > 0)

let test_handshake_write_wait_free_under_starving_scanner () =
  (* A scanner that is never scheduled cannot block writers. *)
  let sim =
    Sim.create ~seed:4 ~max_steps:4000 ~n:2
      ~adversary:(Adversary.prioritize ~favored:[ 0 ] ()) ()
  in
  let (module R) = Sim.runtime sim in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  let hw =
    Sim.spawn sim (fun () ->
        for k = 1 to 50 do
          S.write mem k
        done;
        true)
  in
  ignore (Sim.spawn sim (fun () -> ignore (S.scan mem)));
  ignore (Sim.run sim);
  Alcotest.(check (option bool)) "writer finished" (Some true) (Sim.result hw)

let test_handshake_scan_starvation_is_possible () =
  (* Adversarially alternating a writer against a scanner keeps the
     scan retrying: scans are not wait-free (the paper's progress
     property is system-wide, not per-scan). *)
  let sim =
    Sim.create ~seed:5 ~max_steps:3000 ~n:2 ~adversary:(Adversary.random ()) ()
  in
  let (module R) = Sim.runtime sim in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  ignore
    (Sim.spawn sim (fun () ->
         (* Endless writer. *)
         let k = ref 0 in
         while true do
           incr k;
           S.write mem !k
         done));
  let hs = Sim.spawn sim (fun () -> ignore (S.scan mem)) in
  (match Sim.run sim with
  | Sim.Hit_step_limit -> ()
  | Sim.Completed -> Alcotest.fail "endless writer terminated?");
  (* The scan may or may not have completed depending on luck; what we
     assert is that retries can pile up without breaking anything. *)
  ignore (Sim.result hs);
  Alcotest.(check bool) "retries observed" true (S.scan_retries mem >= 0)

let test_unbounded_seq_grows () =
  let sim = Sim.create ~seed:6 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let (module R) = Sim.runtime sim in
  let module U = Unbounded.Make ((val Sim.runtime sim)) in
  let mem = U.create ~init:0 () in
  for _ = 1 to 2 do
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to 25 do
             U.write mem k
           done))
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "sequence numbers grow without bound" 25 (U.max_seq mem)

let suite =
  [
    Alcotest.test_case "checker: legal accepted" `Quick test_checker_accepts_legal;
    Alcotest.test_case "checker: P1 stale flagged" `Quick test_checker_flags_stale_p1;
    Alcotest.test_case "checker: P2 mix flagged" `Quick test_checker_flags_mixed_p2;
    Alcotest.test_case "checker: P3 incomparable flagged" `Quick
      test_checker_flags_incomparable_p3;
    Alcotest.test_case "checker: monotone values enforced" `Quick
      test_checker_rejects_nonmonotone_values;
    Alcotest.test_case "handshake: random schedules" `Quick
      test_handshake_random_small;
    Alcotest.test_case "handshake: P1/P2/P3 individually" `Quick
      test_properties_individually;
    Alcotest.test_case "handshake: n=6" `Quick test_handshake_random_wide;
    Alcotest.test_case "handshake: bursty" `Quick test_handshake_bursty;
    Alcotest.test_case "handshake: sequential exact" `Quick
      test_handshake_sequential_exact;
    Alcotest.test_case "handshake: own component" `Quick
      test_handshake_own_component;
    Alcotest.test_case "handshake: value ids follow the arrows" `Quick
      test_handshake_value_ids_follow_arrows;
    Alcotest.test_case "handshake: exhaustive n=2" `Slow
      test_handshake_exhaustive_two_procs;
    Alcotest.test_case "handshake: retries bounded" `Quick
      test_handshake_retries_happen_and_are_bounded;
    Alcotest.test_case "handshake: writes wait-free" `Quick
      test_handshake_write_wait_free_under_starving_scanner;
    Alcotest.test_case "handshake: scans can starve" `Quick
      test_handshake_scan_starvation_is_possible;
    Alcotest.test_case "unbounded: random schedules" `Quick test_unbounded_random;
    Alcotest.test_case "unbounded: seq grows" `Quick test_unbounded_seq_grows;
  ]

(* --- Crash injection mid-write ---------------------------------------- *)

let test_crash_mid_write_preserves_properties () =
  (* Crash a writer at arbitrary points — including between its
     arrow-raising phase and its value publication — and check that the
     survivors' scans still satisfy P1-P3. *)
  for seed = 1 to 30 do
    let n = 3 in
    let sim = Sim.create ~seed ~n ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let module S = Handshake.Make ((val Sim.runtime sim)) in
    let mem = S.create ~init:0 () in
    let checker = Snap_checker.create ~n ~init:0 in
    (* Process 0: doomed writer — we will crash it mid-run; its writes
       are NOT recorded in the checker (a crashed write may or may not
       take effect, so survivors legitimately may observe it;
       record_write is only sound for completed writes).  To keep the
       checker exact we let it write values that are also written by
       nobody else and tell the checker about each write only once it
       completed. *)
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to 10 do
             let s = Snap_checker.stamp checker in
             S.write mem k;
             Snap_checker.record_write checker ~pid:0 ~start_time:s
               ~finish_time:(Snap_checker.stamp checker) ~value:k
           done));
    for p = 1 to 2 do
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to 4 do
               let s = Snap_checker.stamp checker in
               S.write mem k;
               Snap_checker.record_write checker ~pid:p ~start_time:s
                 ~finish_time:(Snap_checker.stamp checker) ~value:k;
               let s = Snap_checker.stamp checker in
               let view = S.scan mem in
               Snap_checker.record_scan checker ~pid:p ~start_time:s
                 ~finish_time:(Snap_checker.stamp checker) ~view
             done))
    done;
    (* Crash the doomed writer at a pseudo-random early step. *)
    let crash_step = 5 + (seed * 3 mod 40) in
    let rec drive () =
      if Sim.clock sim >= crash_step && not (Sim.crashed sim 0) then
        Sim.crash sim 0;
      if Sim.step sim then drive ()
    in
    drive ();
    (* A crash can only land at a step boundary, so a write either
       published its value (and was recorded — the recording runs in
       the same atomic window as the write's final step) or its value
       never became visible; either way P1-P3 over the recorded
       operations must hold.  The half-raised arrows of a torn write
       cannot wedge survivors: each scan re-clears its own arrows. *)
    match Snap_checker.check_all checker with
    | Ok () -> ()
    | Error e -> Alcotest.failf "crash-mid-write seed %d: %s" seed e
  done

let crash_suite =
  [
    Alcotest.test_case "crash mid-write: scans stay serializable" `Quick
      test_crash_mid_write_preserves_properties;
  ]

let suite = suite @ crash_suite

(* --- Embedded-scan (AADGMS-style) snapshot ---------------------------- *)

let embedded_of rt : (module SNAP) =
  let (module R : Runtime_intf.S) = rt in
  (module Embedded.Make (R) : SNAP)

let test_embedded_random () =
  check_random_schedules embedded_of ~n:3 ~rounds:4 ~seeds:60 "embedded"

let test_embedded_random_wide () =
  check_random_schedules embedded_of ~n:6 ~rounds:3 ~seeds:15 "embedded-n6"

let test_embedded_exhaustive_two_procs () =
  let stats =
    Exhaust.explore ~n:2 ~max_steps:4000 ~max_runs:400_000
      (fun (module R : Runtime_intf.S) ->
        let module S = Embedded.Make ((val (module R : Runtime_intf.S))) in
        let mem = S.create ~init:0 () in
        let checker = Snap_checker.create ~n:2 ~init:0 in
        let body p =
          let s = Snap_checker.stamp checker in
          S.write mem 1;
          Snap_checker.record_write checker ~pid:p ~start_time:s
            ~finish_time:(Snap_checker.stamp checker) ~value:1;
          let s = Snap_checker.stamp checker in
          let view = S.scan mem in
          Snap_checker.record_scan checker ~pid:p ~start_time:s
            ~finish_time:(Snap_checker.stamp checker) ~view
        in
        let check () =
          Result.map_error
            (fun e -> "embedded exhaustive: " ^ e)
            (Snap_checker.check_all checker)
        in
        (body, check))
  in
  Exhaust.no_violation stats;
  Alcotest.(check bool) "exhausted" true stats.exhausted

let test_embedded_scan_wait_free_under_saturation () =
  (* The scenario that starves the handshake scanner: an endless
     writer flooding the memory, the scanner getting only one step in
     ten.  Wait-freedom bounds the scanner's OWN steps, so it must
     finish regardless of how much write traffic interleaves. *)
  let adversary =
    Adversary.make ~name:"flood" (fun ctx ->
        let scanner_runnable = Array.exists (fun p -> p = 1) ctx.Adversary.runnable in
        if scanner_runnable && ctx.Adversary.clock mod 10 = 0 then 1
        else ctx.Adversary.runnable.(0))
  in
  let sim = Sim.create ~seed:5 ~max_steps:100_000 ~n:2 ~adversary () in
  let (module R) = Sim.runtime sim in
  let module S = Embedded.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  ignore
    (Sim.spawn sim (fun () ->
         let k = ref 0 in
         while true do
           incr k;
           S.write mem !k
         done));
  let hs = Sim.spawn sim (fun () -> S.scan mem) in
  (* Let the writer run, then give the scanner a fair share. *)
  let rec drive budget =
    if budget > 0 && not (Sim.finished sim 1) then
      if Sim.step sim then drive (budget - 1)
  in
  drive 100_000;
  Alcotest.(check bool) "scan completed against endless writer" true
    (Sim.finished sim 1);
  match Sim.result hs with
  | Some view ->
    Alcotest.(check bool) "view is recent" true (view.(0) >= 0)
  | None -> Alcotest.fail "no view"

let test_embedded_borrows_happen () =
  (* Under heavy write traffic some scans must resolve by borrowing. *)
  let total_borrows = ref 0 in
  for seed = 1 to 20 do
    let sim = Sim.create ~seed ~n:4 ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let module S = Embedded.Make ((val Sim.runtime sim)) in
    let mem = S.create ~init:0 () in
    for _ = 1 to 3 do
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to 12 do
               S.write mem k
             done))
    done;
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 6 do
             ignore (S.scan mem)
           done));
    ignore (Sim.run sim);
    total_borrows := !total_borrows + S.borrows mem
  done;
  Alcotest.(check bool) "borrowing observed" true (!total_borrows > 0)

let test_handshake_starves_where_embedded_does_not () =
  (* The same flood schedule defeats the handshake scanner — the exact
     progress gap between the paper's lock-free scans and the
     embedded-scan construction's wait-free ones. *)
  let adversary =
    Adversary.make ~name:"flood" (fun ctx ->
        let scanner_runnable = Array.exists (fun p -> p = 1) ctx.Adversary.runnable in
        if scanner_runnable && ctx.Adversary.clock mod 10 = 0 then 1
        else ctx.Adversary.runnable.(0))
  in
  let sim = Sim.create ~seed:5 ~max_steps:100_000 ~n:2 ~adversary () in
  let (module R) = Sim.runtime sim in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  ignore
    (Sim.spawn sim (fun () ->
         let k = ref 0 in
         while true do
           incr k;
           S.write mem !k
         done));
  ignore (Sim.spawn sim (fun () -> S.scan mem));
  let rec drive budget =
    if budget > 0 && not (Sim.finished sim 1) then
      if Sim.step sim then drive (budget - 1)
  in
  drive 100_000;
  Alcotest.(check bool) "handshake scan starves under flood" false
    (Sim.finished sim 1)

let test_embedded_scan_into () =
  (* [scan_into] must be [scan] minus the allocation: identical views
     under an identical (deterministic) schedule, and a hard length
     check on the caller's buffer. *)
  let run use_into =
    let sim = Sim.create ~seed:11 ~n:3 ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let module S = Embedded.Make ((val Sim.runtime sim)) in
    let mem = S.create ~init:0 () in
    let views = ref [] in
    for _ = 1 to 2 do
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to 8 do
               S.write mem k
             done))
    done;
    ignore
      (Sim.spawn sim (fun () ->
           let buf = Array.make 3 (-1) in
           for _ = 1 to 6 do
             let v =
               if use_into then begin
                 S.scan_into mem buf;
                 Array.copy buf
               end
               else S.scan mem
             in
             views := v :: !views
           done));
    ignore (Sim.run sim);
    List.rev !views
  in
  Alcotest.(check (list (array int)))
    "scan_into = scan under the same schedule" (run false) (run true);
  let sim = Sim.create ~seed:1 ~n:2 ~adversary:(Adversary.round_robin ()) () in
  let module S = Embedded.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  ignore
    (Sim.spawn sim (fun () ->
         match S.scan_into mem (Array.make 5 0) with
         | () -> Alcotest.fail "wrong-length buffer accepted"
         | exception Invalid_argument _ -> ()));
  ignore (Sim.spawn sim (fun () -> ()));
  ignore (Sim.run sim)

(* The embedded scan under contention, over the batched simulator the
   large-n protocol runs on: every process alternates write and
   [scan_into], ten seeds per row.  Round-robin runs never retry, so
   these rows are the ones that exercise the retry verdict and the
   borrow.  Steps, retries, borrows and a weighted sum of every view
   scanned are pinned exactly, so a rewrite of the verdict or of the
   view copy must keep them; P1-P3 are checked on every run. *)
let embedded_contention ~adversary ~n ~rounds ~seeds =
  let steps = ref 0 and retries = ref 0 and borrows = ref 0 in
  let views = ref 0 in
  for seed = 1 to seeds do
    let sim = Sim.create ~seed ~n ~adversary:(adversary ()) () in
    let module S = Embedded.Make_batched ((val Sim.batched sim)) in
    let mem = S.create ~init:0 () in
    let checker = Snap_checker.create ~n ~init:0 in
    for p = 0 to n - 1 do
      ignore
        (Sim.spawn sim (fun () ->
             let view = Array.make n 0 in
             for k = 1 to rounds do
               let s = Snap_checker.stamp checker in
               S.write mem k;
               Snap_checker.record_write checker ~pid:p ~start_time:s
                 ~finish_time:(Snap_checker.stamp checker) ~value:k;
               let s = Snap_checker.stamp checker in
               S.scan_into mem view;
               Array.iteri (fun j v -> views := !views + ((j + 1) * v)) view;
               Snap_checker.record_scan checker ~pid:p ~start_time:s
                 ~finish_time:(Snap_checker.stamp checker)
                 ~view:(Array.copy view)
             done))
    done;
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> Alcotest.failf "n=%d seed %d: step limit" n seed);
    (match Snap_checker.check_all checker with
    | Ok () -> ()
    | Error e -> Alcotest.failf "n=%d seed %d: %s" n seed e);
    steps := !steps + Sim.clock sim;
    retries := !retries + S.scan_retries mem;
    borrows := !borrows + S.borrows mem
  done;
  [ !steps; !retries; !borrows; !views ]

let test_embedded_contention_pinned () =
  List.iter
    (fun (name, adversary, n, expect) ->
      let got = embedded_contention ~adversary ~n ~rounds:4 ~seeds:10 in
      Alcotest.(check (list int))
        (Printf.sprintf "%s n=%d: steps, retries, borrows, view sum" name n)
        expect got)
    [
      ("random", Adversary.random, 3, [ 1294; 98; 6; 1705 ]);
      ("random", Adversary.random, 6, [ 7205; 446; 25; 11944 ]);
      ("bursty:7", Adversary.bursty ~burst:7, 3, [ 1230; 60; 0; 1818 ]);
      ("bursty:7", Adversary.bursty ~burst:7, 6, [ 6765; 380; 47; 11807 ]);
    ]

(* Two embedded objects used alternately by the same processes: each
   round a process writes and scans [a], then writes and scans [b].
   The result, read after the run, is every view scanned (in scan
   order), each object's retries and borrows, and the clock; P1-P3 are
   checked on each object. *)
let spawn_alternating sim (module A : Embedded.S) (module B : Embedded.S)
    ~rounds =
  let n = Sim.n sim in
  let a = A.create ~name:"a" ~init:0 () and b = B.create ~name:"b" ~init:0 () in
  let ca = Snap_checker.create ~n ~init:0
  and cb = Snap_checker.create ~n ~init:0 in
  let views = ref [] in
  let op checker write scan_into p v view =
    let s = Snap_checker.stamp checker in
    write v;
    Snap_checker.record_write checker ~pid:p ~start_time:s
      ~finish_time:(Snap_checker.stamp checker) ~value:v;
    let s = Snap_checker.stamp checker in
    scan_into view;
    views := Array.copy view :: !views;
    Snap_checker.record_scan checker ~pid:p ~start_time:s
      ~finish_time:(Snap_checker.stamp checker) ~view:(Array.copy view)
  in
  for p = 0 to n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           let view = Array.make n 0 in
           for k = 1 to rounds do
             op ca (A.write a) (A.scan_into a) p k view;
             op cb (B.write b) (B.scan_into b) p (10 * k) view
           done))
  done;
  fun () ->
    List.iter
      (fun c ->
        match Snap_checker.check_all c with
        | Ok () -> ()
        | Error e -> Alcotest.fail e)
      [ ca; cb ];
    ( List.rev !views,
      [
        A.scan_retries a; A.borrows a; B.scan_retries b; B.borrows b;
        Sim.clock sim;
      ] )

let run_alternating sim a b ~rounds =
  let result = spawn_alternating sim a b ~rounds in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "step limit");
  result ()

(* The scan bookkeeping is per application, shared by its instances:
   two objects of one application must behave exactly as one object
   each of two applications, under the same schedule.  Then a run cut
   short (its processes left mid-scan) on one application, followed
   by a full run on the same arena and application, must behave as
   that full run on a fresh arena. *)
let test_embedded_shared_scratch () =
  let expect = Alcotest.(pair (list (array int)) (list int)) in
  List.iter
    (fun (name, adversary, n) ->
      for seed = 1 to 5 do
        let run ~shared =
          let sim = Sim.create ~seed ~n ~adversary:(adversary ()) () in
          let (module R) = Sim.batched sim in
          let module A = Embedded.Make_batched (R) in
          let b : (module Embedded.S) =
            if shared then (module A) else (module Embedded.Make_batched (R))
          in
          run_alternating sim (module A) b ~rounds:4
        in
        Alcotest.check expect
          (Printf.sprintf "%s n=%d seed %d: one application = two" name n
             seed)
          (run ~shared:false) (run ~shared:true)
      done)
    [
      ("random", Adversary.random, 3);
      ("random", Adversary.random, 6);
      ("bursty:7", Adversary.bursty ~burst:7, 6);
    ];
  let n = 6 in
  let fresh =
    let sim = Sim.create ~seed:2 ~n ~adversary:(Adversary.random ()) () in
    let module A = Embedded.Make_batched ((val Sim.batched sim)) in
    run_alternating sim (module A) (module A) ~rounds:4
  in
  let sim = Sim.create ~seed:1 ~n ~adversary:(Adversary.random ()) () in
  let module A = Embedded.Make_batched ((val Sim.batched sim)) in
  let (_ : unit -> _) =
    spawn_alternating sim (module A) (module A) ~rounds:4
  in
  (match Sim.run_to sim ~clock:500 with
  | None -> ()
  | Some _ -> Alcotest.fail "the cut run finished");
  Sim.reset ~seed:2 ~adversary:(Adversary.random ()) sim;
  Alcotest.check expect "cut run, then a full run on its application" fresh
    (run_alternating sim (module A) (module A) ~rounds:4)

let embedded_suite =
  [
    Alcotest.test_case "embedded: scan bookkeeping shared per application"
      `Quick test_embedded_shared_scratch;
    Alcotest.test_case "embedded: contention retries and borrows pinned"
      `Quick test_embedded_contention_pinned;
    Alcotest.test_case "embedded: random schedules" `Quick test_embedded_random;
    Alcotest.test_case "embedded: n=6" `Quick test_embedded_random_wide;
    Alcotest.test_case "embedded: exhaustive n=2" `Slow
      test_embedded_exhaustive_two_procs;
    Alcotest.test_case "embedded: scans wait-free" `Quick
      test_embedded_scan_wait_free_under_saturation;
    Alcotest.test_case "embedded: borrows happen" `Quick
      test_embedded_borrows_happen;
    Alcotest.test_case "handshake starves where embedded doesn't" `Quick
      test_handshake_starves_where_embedded_does_not;
    Alcotest.test_case "embedded: scan_into" `Quick test_embedded_scan_into;
  ]

let suite = suite @ embedded_suite

(* ------------------------------------------------------------------ *)
(* Differential: flat Handshake vs the frozen pre-rewrite reference    *)
(* ------------------------------------------------------------------ *)

(* The flat rewrite promises the reference's behavior: same register
   names, same read/write sequence per operation, same views, same
   retry counts.  Run the same workload under the same seeded adversary
   on both implementations and compare the full recorded traces — any
   divergence in schedule, register naming or access order shows up as
   a trace mismatch long before a wrong view would. *)
let run_handshake_workload make_snap ~n ~rounds ~seed =
  let sim =
    Sim.create ~seed ~n ~record_trace:true ~adversary:(Adversary.random ()) ()
  in
  let rt = Sim.runtime sim in
  let (module S : SNAP) = make_snap rt in
  let mem = S.create ~init:0 () in
  let views = ref [] in
  for p = 0 to n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to rounds do
             S.write mem ((k * n) + p);
             views := (p, k, S.scan mem) :: !views
           done))
  done;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "handshake diff workload: step limit");
  let trace =
    match Sim.trace sim with
    | Some t -> Trace.to_list t
    | None -> Alcotest.fail "trace recording was on"
  in
  (List.rev !views, S.scan_retries mem, Sim.clock sim, trace)

let handshake_ref_of rt : (module SNAP) =
  let (module R : Runtime_intf.S) = rt in
  (module Handshake_ref.Make (R) : SNAP)

(* The reference allocates the full n × n arrow matrix, the flat
   handshake only its n(n-1) off-diagonal arrows, in the same order.
   Both create their arrows before their values, so the reference's
   arrow (i, j), id i·n + j, is the flat one's i·(n-1) + j - [j > i],
   and its value j, id n² + j, the flat one's n(n-1) + j.  An access to
   a diagonal arrow, which the flat handshake lacks, fails. *)
let ref_trace_as_flat ~n trace =
  List.map
    (fun (e : Trace.event) ->
      let id = e.reg_id in
      if id < 0 then e
      else if id >= n * n then { e with reg_id = id - n }
      else
        let i = id / n and j = id mod n in
        if i = j then
          Alcotest.failf "reference accessed diagonal arrow %s" e.reg_name;
        { e with reg_id = (i * (n - 1)) + j - Bool.to_int (j > i) })
    trace

let test_diff_handshake_lockstep () =
  (* n = 32, rounds = 2 alone is 10k+ simulated register accesses; the
     smaller widths add breadth across seeds. *)
  let configs =
    [ (2, 40, 10); (4, 12, 8); (8, 5, 4); (32, 2, 2) ]
  in
  List.iter
    (fun (n, rounds, seeds) ->
      for seed = 1 to seeds do
        let vf, rf, cf, tf = run_handshake_workload handshake_of ~n ~rounds ~seed in
        let vr, rr, cr, tr =
          run_handshake_workload handshake_ref_of ~n ~rounds ~seed
        in
        if cf <> cr then
          Alcotest.failf "n=%d seed %d: step counts differ (%d vs %d)" n seed
            cf cr;
        if rf <> rr then
          Alcotest.failf "n=%d seed %d: retries differ (%d vs %d)" n seed rf rr;
        if vf <> vr then Alcotest.failf "n=%d seed %d: views differ" n seed;
        if tf <> ref_trace_as_flat ~n tr then
          Alcotest.failf "n=%d seed %d: traces differ (%d vs %d events)" n
            seed (List.length tf) (List.length tr)
      done)
    configs

let test_diff_handshake_saturated () =
  (* Writer-heavy asymmetric load: one process scans while the rest
     write continuously — the retry/starvation regime, where the scan
     loop's buffer reuse is actually exercised. *)
  List.iter
    (fun seed ->
      let run make_snap =
        let n = 4 in
        let sim =
          Sim.create ~seed ~n ~max_steps:60_000 ~record_trace:true
            ~adversary:(Adversary.random ()) ()
        in
        let rt = Sim.runtime sim in
        let (module S : SNAP) = make_snap rt in
        let mem = S.create ~init:0 () in
        let got = ref [||] in
        ignore (Sim.spawn sim (fun () -> got := S.scan mem));
        for p = 1 to n - 1 do
          ignore
            (Sim.spawn sim (fun () ->
                 for k = 1 to 2000 do
                   S.write mem ((k * n) + p)
                 done))
        done;
        ignore (Sim.run sim);
        let trace =
          match Sim.trace sim with
          | Some t -> Trace.to_list t
          | None -> assert false
        in
        (!got, S.scan_retries mem, trace)
      in
      let gf, rf, tf = run handshake_of in
      let gr, rr, tr = run handshake_ref_of in
      if gf <> gr || rf <> rr then
        Alcotest.failf "saturated seed %d: outcome differs" seed;
      if tf <> ref_trace_as_flat ~n:4 tr then
        Alcotest.failf "saturated seed %d: traces differ" seed)
    [ 1; 2; 3; 4; 5 ]

let suite =
  suite
  @ [
      Alcotest.test_case "diff: flat vs reference handshake" `Quick
        test_diff_handshake_lockstep;
      Alcotest.test_case "diff: flat vs reference handshake (saturated)" `Quick
        test_diff_handshake_saturated;
    ]

(* A lone scan reads the same NaN cell twice.  Compared structurally
   alone the two reads differ ([nan <> nan]) and the scan retries until
   the step bound; cells are compared by identity first, so the scan
   takes its 4 accesses and p1's empty body 1 step. *)
let test_handshake_nan_scan_terminates () =
  let sim =
    Sim.create ~seed:0 ~max_steps:10_000 ~n:2
      ~adversary:(Adversary.round_robin ()) ()
  in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:Float.nan () in
  let view = Sim.spawn sim (fun () -> S.scan mem) in
  ignore (Sim.spawn sim (fun () -> ()));
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "steps" 6 (Sim.clock sim);
  Alcotest.(check int) "retries" 0 (S.scan_retries mem);
  match Sim.result view with
  | Some v ->
    Alcotest.(check bool) "view is all NaN" true (Array.for_all Float.is_nan v)
  | None -> Alcotest.fail "the scan did not return"

let suite =
  suite
  @ [
      Alcotest.test_case "handshake: NaN scan terminates" `Quick
        test_handshake_nan_scan_terminates;
    ]

(* Allocation ceiling for the embedded snapshot: n=4 processes doing
   write + [scan_into] pairs under round-robin, setup included.  The
   simulator's own 2 words/step of effect continuations are taken off,
   so what is left is the snapshot's object allocation per pair (a
   write embeds a full scan; the explicit scan reuses its view
   buffer), pinned at 16 words. *)
let test_embedded_words_per_op () =
  let n = 4 and pairs = 3_000 in
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let sim =
    Sim.create ~seed:2 ~max_steps:max_int ~n
      ~adversary:(Adversary.round_robin ()) ()
  in
  let module S = Embedded.Make ((val Sim.runtime sim)) in
  let mem = S.create ~init:0 () in
  for i = 0 to n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           let view = Array.make n 0 in
           for k = 1 to pairs do
             S.write mem ((k * n) + i);
             S.scan_into mem view
           done))
  done;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "unexpected step limit");
  let words = Gc.minor_words () -. m0 in
  let per =
    (words -. (2.0 *. float_of_int (Sim.clock sim))) /. float_of_int (n * pairs)
  in
  if per > 16.0 then
    Alcotest.failf "embedded object words per write+scan %.2f > 16" per

let alloc_suite =
  [
    Alcotest.test_case "alloc: embedded words/op ceiling" `Quick
      test_embedded_words_per_op;
  ]

let suite = suite @ alloc_suite
