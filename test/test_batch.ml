(* Batched register accesses ([Sim.batched]) against the per-access
   lifting ([Runtime_intf.Loop] over [Sim.runtime]): the same arena must
   produce the same steps, traces and results either way, a batch must
   allocate a constant, and a pending batch must not keep a finished
   instance alive. *)

open Bprc_runtime
open Bprc_snapshot

module type SNAP = Snapshot_intf.S

type fault =
  | No_fault
  | Crash of { at : int; pid : int }
  | Stall of { at : int; pid : int; steps : int }

let adversary = function
  | 0 -> Adversary.round_robin ()
  | 1 -> Adversary.random ()
  | _ -> Adversary.bursty ~burst:7 ()

(* A fresh adversary of kind [sched] that also notes each pid it picks. *)
let noting chosen sched =
  let a = adversary sched in
  Adversary.make ~name:a.Adversary.name (fun ctx ->
      let pid = a.Adversary.choose ctx in
      chosen := pid;
      pid)

(* Step the arena to completion or [max_steps], firing [fault] when the
   clock reaches its trigger; the per-step [(clock, pid, access code)]
   stream, newest first. *)
let drive sim ~chosen ~fault ~max_steps =
  let rec go acc =
    let now = Sim.clock sim in
    (match fault with
    | Crash { at; pid } when now = at -> Sim.crash sim pid
    | Stall { at; pid; steps } when now = at -> Sim.stall sim pid ~steps
    | _ -> ());
    if now >= max_steps || not (Sim.step sim) then acc
    else go ((Sim.clock sim, !chosen, Sim.last_access_code sim) :: acc)
  in
  go []

(* Run the same workload on one arena twice — over the batched module,
   then (after a reset) over its per-access lifting — and return both
   observations. *)
let twice ~n ~sched ~seed ~record_trace ~max_steps run =
  let chosen = ref (-1) in
  let sim =
    Sim.create ~seed ~max_steps ~record_trace ~n
      ~adversary:(noting chosen sched) ()
  in
  let batched = run sim (Sim.batched sim) ~chosen in
  Sim.reset ~seed ~adversary:(noting chosen sched) sim;
  let (module R) = Sim.runtime sim in
  let looped =
    run sim (module Runtime_intf.Loop (R) : Runtime_intf.BATCHED) ~chosen
  in
  (batched, looped)

let gen_fault n =
  QCheck.Gen.(
    oneof
      [
        return No_fault;
        map2
          (fun at pid -> Crash { at; pid })
          (int_range 0 400) (int_range 0 (n - 1));
        map3
          (fun at pid steps -> Stall { at; pid; steps })
          (int_range 0 400) (int_range 0 (n - 1)) (int_range 1 300);
      ])

let pp_fault = function
  | No_fault -> "no fault"
  | Crash { at; pid } -> Printf.sprintf "crash p%d at %d" pid at
  | Stall { at; pid; steps } ->
    Printf.sprintf "stall p%d at %d for %d" pid at steps

(* n, scheduler (round-robin, random, bursty-7), seed, fault.  At n = 1
   the handshake's programs have empty segments and run as single
   accesses; at n = 2 every segment is one access. *)
let arb_case =
  QCheck.make
    ~print:(fun (n, sched, seed, fault) ->
      Printf.sprintf "n=%d sched=%d seed=%d %s" n sched seed (pp_fault fault))
    QCheck.Gen.(
      oneofl [ 1; 2; 3; 4; 5; 8 ] >>= fun n ->
      map3
        (fun sched seed fault -> (n, sched, seed, fault))
        (int_range 0 2) (int_bound 10_000) (gen_fault n))

(* Three writes and scans per process, batched and per-access: the
   same steps, trace and views, and no step exactly when every process
   crashed before its first one. *)
let snapshot_law (make : (module Runtime_intf.BATCHED) -> (module SNAP))
    (n, sched, seed, fault) =
  let run sim rt ~chosen =
    let (module S) = make rt in
    let snap = S.create ~init:0 () in
    let handles =
      Array.init n (fun i ->
          Sim.spawn sim (fun () ->
              let views = ref [] in
              for r = 1 to 3 do
                S.write snap ((100 * i) + r);
                views := S.scan snap :: !views
              done;
              !views))
    in
    let stream = drive sim ~chosen ~fault ~max_steps:200_000 in
    let trace = Option.get (Sim.trace sim) in
    let unstarted =
      List.for_all
        (fun p -> Sim.crashed sim p && Sim.steps_of sim p = 0)
        (List.init n Fun.id)
    in
    (stream, Trace.to_list trace, Array.map Sim.result handles, unstarted)
  in
  let (s1, t1, v1, unstarted), (s2, t2, v2, _) =
    twice ~n ~sched ~seed ~record_trace:true ~max_steps:200_000 run
  in
  if s1 <> s2 then QCheck.Test.fail_report "step streams differ";
  if t1 <> t2 then QCheck.Test.fail_report "traces differ";
  if v1 <> v2 then QCheck.Test.fail_report "views differ";
  s1 = [] = unstarted

let snapshot_differential name make =
  QCheck.Test.make ~count:40
    ~name:(name ^ ": batched = per-access (steps, trace, views)")
    arb_case (snapshot_law make)

let handshake (module B : Runtime_intf.BATCHED) =
  (module Handshake.Make_batched (B) : SNAP)

let embedded (module B : Runtime_intf.BATCHED) =
  (module Embedded.Make_batched (B) : SNAP)

let prop_handshake = snapshot_differential "handshake" handshake
let prop_embedded = snapshot_differential "embedded" embedded

(* A lone process crashed at clock 0 takes no step, batched or not. *)
let test_lone_crash_at_start () =
  let case = (1, 1, 199, Crash { at = 0; pid = 0 }) in
  List.iter
    (fun (name, make) ->
      Alcotest.(check bool) (name ^ ": no step") true (snapshot_law make case))
    [ ("handshake", handshake); ("embedded", embedded) ]

(* ADS89 over both snapshots: decisions, per-process steps and a digest
   of the step stream. *)
let prop_ads89 =
  QCheck.Test.make ~count:30
    ~name:"ads89: batched = per-access (decisions, steps)"
    QCheck.(pair arb_case bool)
    (fun ((n, sched, seed, fault), embedded) ->
      let inputs = Array.init n (fun i -> (seed lsr i) land 1 = 1) in
      let coin_mode =
        if n <= 4 then Bprc_core.Ads89.Shared_walk
        else Bprc_core.Ads89.Oracle_shared
      in
      let run sim (module B : Runtime_intf.BATCHED) ~chosen =
        let (module C : Bprc_core.Consensus_intf.S) =
          if embedded then
            (module Bprc_core.Ads89.Make_over_snapshot
                      (B)
                      (Embedded.Make_batched (B)))
          else (module Bprc_core.Ads89.Make_batched (B))
        in
        let t = C.create ~coin_mode ~oracle_seed:seed () in
        let handles =
          Array.init n (fun i ->
              Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
        in
        let stream = drive sim ~chosen ~fault ~max_steps:300_000 in
        ( Hashtbl.hash (List.length stream, stream),
          Array.map Sim.result handles,
          Array.init n (Sim.steps_of sim),
          Sim.clock sim )
      in
      let a, b =
        twice ~n ~sched ~seed ~record_trace:false ~max_steps:300_000 run
      in
      a = b)

(* ---- allocation, retention, resumption counts ------------------------- *)

(* The three batch operations. *)
type program = Collect | Update | Scan_attempt

let program_name = function
  | Collect -> "collect"
  | Update -> "update"
  | Scan_attempt -> "scan attempt"

(* Spawn process 0 running [program] [ops] times over registers,
   arrows, buffers and a value made here, and the others with nothing
   to do; return what was made. *)
let[@inline never] spawn_program sim (module B : Runtime_intf.BATCHED)
    program ~ops =
  let n = Sim.n sim in
  let regs = Array.init n (fun j -> B.make_reg [ j ]) in
  let arrows = Array.init n (fun _ -> B.make_reg false) in
  let idx = Array.init (n - 1) (fun k -> k + 1) in
  let out = Array.make n [] and out2 = Array.make n [] in
  let v = [ n; 5 ] in
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to ops do
           match program with
           | Collect -> B.collect regs ~skip:0 out
           | Update -> B.update arrows idx regs.(0) v
           | Scan_attempt ->
             ignore (B.scan_attempt arrows idx regs ~skip:0 out out2)
         done));
  for _ = 2 to n do
    ignore (Sim.spawn sim (fun () -> ()))
  done;
  [
    Obj.repr regs; Obj.repr regs.(0); Obj.repr arrows; Obj.repr idx;
    Obj.repr out; Obj.repr out2; Obj.repr v;
  ]

(* Minor words of one [program] (a collect by default) by process 0
   over [n - 1] registers: the marginal cost of 1000 more, so
   per-process start-up cancels out.  Round-robin by default, whose
   dense stretch runs all but a collect's last read in bulk. *)
let words_per_op ?(adversary = Adversary.round_robin)
    ?(program = Collect) ~n rt_of =
  let words ops =
    let sim = Sim.create ~n ~adversary:(adversary ()) () in
    ignore (spawn_program sim (rt_of sim) program ~ops);
    let m0 = Gc.minor_words () in
    ignore (Sim.run sim);
    Gc.minor_words () -. m0
  in
  (words 2000 -. words 1000) /. 1000.

let test_collect_words_constant () =
  let batched sim = Sim.batched sim in
  let looped sim =
    let (module R) = Sim.runtime sim in
    (module Runtime_intf.Loop (R) : Runtime_intf.BATCHED)
  in
  (* The same round-robin behind a closure, stepped one read at a time. *)
  let wrapped () =
    let rr = Adversary.round_robin () in
    Adversary.make ~name:"wrapped" rr.Adversary.choose
  in
  let w8 = words_per_op ~n:8 batched
  and w64 = words_per_op ~n:64 batched
  and s64 = words_per_op ~adversary:wrapped ~n:64 batched
  and l64 = words_per_op ~n:64 looped in
  if w64 > 3. then Alcotest.failf "batched n=64 collect: %.1f words > 3" w64;
  if w64 > w8 +. 0.5 then
    Alcotest.failf "batched collect words grow with n: %.1f (n=8), %.1f (n=64)"
      w8 w64;
  if w64 > s64 then
    Alcotest.failf "bulk n=64 collect: %.2f words > %.2f per-step" w64 s64;
  (* The per-access lifting pays a continuation per read, so the gate
     above measures the batch and not a quiet counter. *)
  if l64 < 63. then
    Alcotest.failf "per-access n=64 collect: only %.1f words" l64

(* A scan attempt or an update is one batch too: its words stay within
   a collect's ceiling whatever its 2(n - 1) or 4(n - 1) accesses. *)
let test_program_words_constant () =
  let batched sim = Sim.batched sim in
  List.iter
    (fun program ->
      let w8 = words_per_op ~program ~n:8 batched
      and w64 = words_per_op ~program ~n:64 batched in
      let name = program_name program in
      if w64 > 3. then Alcotest.failf "batched n=64 %s: %.1f words > 3" name w64;
      if w64 > w8 +. 0.5 then
        Alcotest.failf "batched %s words grow with n: %.1f (n=8), %.1f (n=64)"
          name w8 w64)
    [ Update; Scan_attempt ]

(* Process 0 runs [program] three times over things that nothing but
   the arena can keep alive. *)
let[@inline never] start_instance sim (w : Obj.t Weak.t) program =
  List.iteri
    (fun i x -> Weak.set w i (Some x))
    (spawn_program sim (Sim.batched sim) program ~ops:3)

let collected (w : Obj.t Weak.t) =
  Gc.full_major ();
  let all = ref true in
  for i = 0 to Weak.length w - 1 do
    if Option.is_some (Weak.get w i) then all := false
  done;
  !all

(* At n = 4 under round-robin, the first 4 steps start the processes
   and process 0 then runs alone: at clock 7 its first program has
   carried out 3 accesses, so a scan attempt or an update is between
   its arrow writes and what follows them. *)
let test_no_retention () =
  let sim = Sim.create ~n:4 ~adversary:(Adversary.round_robin ()) () in
  List.iter
    (fun program ->
      let what s = program_name program ^ ": " ^ s in
      let w = Weak.create 7 in
      (* Stopped mid-program: the pending program holds the registers
         until the arena is reset. *)
      start_instance sim w program;
      ignore (Sim.run_to sim ~clock:7);
      Alcotest.(check bool)
        (what "held while the program is pending")
        false (collected w);
      Sim.reset sim;
      Alcotest.(check bool) (what "released by reset") true (collected w);
      (* Crashed mid-program and finished: released with no reset. *)
      start_instance sim w program;
      ignore (Sim.run_to sim ~clock:7);
      Sim.crash sim 0;
      ignore (Sim.run sim);
      Alcotest.(check bool) (what "released by crash") true (collected w);
      Sim.reset sim;
      start_instance sim w program;
      ignore (Sim.run sim);
      Alcotest.(check bool) (what "released on completion") true (collected w);
      Sim.reset sim)
    [ Collect; Update; Scan_attempt ]

let test_resumes () =
  (* Per-access: every step resumes its fiber. *)
  let sim = Sim.create ~seed:3 ~n:4 ~adversary:(Adversary.random ()) () in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let snap = S.create ~init:0 () in
  for i = 0 to 3 do
    ignore
      (Sim.spawn sim (fun () ->
           S.write snap (i + 1);
           ignore (S.scan snap)))
  done;
  ignore (Sim.run sim);
  Alcotest.(check int) "per-access: a resume per step but the starts"
    (Sim.clock sim - 4) (Sim.resumes sim);
  Alcotest.(check int) "per-access: steps/resumes" 1
    (Sim.clock sim / Sim.resumes sim);
  Sim.reset sim;
  Alcotest.(check int) "reset zeroes" 0 (Sim.resumes sim);
  (* Batched and uncontended, at n = 2 and 4: one resume per handshake
     operation, whatever its n - 1 arrows and 2(n - 1) collect reads. *)
  List.iter
    (fun n ->
      let sim = Sim.create ~n ~adversary:(Adversary.round_robin ()) () in
      let module B = (val Sim.batched sim) in
      let module S = Handshake.Make_batched (B) in
      let snap = S.create ~init:0 () in
      ignore
        (Sim.spawn sim (fun () ->
             S.write snap 1;
             ignore (S.scan snap);
             S.write snap 2;
             ignore (S.scan snap)));
      for _ = 2 to n do
        ignore (Sim.spawn sim (fun () -> ()))
      done;
      ignore (Sim.run sim);
      let what s = Printf.sprintf "n=%d handshake: %s" n s in
      Alcotest.(check int) (what "no retry") 0 (S.scan_retries snap);
      Alcotest.(check int) (what "steps: starts, 2 updates, 2 attempts")
        (n + (2 * n) + (8 * (n - 1)))
        (Sim.clock sim);
      Alcotest.(check int) (what "one resume per operation") 4
        (Sim.resumes sim))
    [ 2; 4 ];
  (* n=4 round-robin ADS89 decisions over the handshake snapshot. *)
  let arena = Sim.create ~n:4 ~adversary:(Adversary.round_robin ()) () in
  let steps = ref 0 and resumes = ref 0 in
  for seed = 1 to 4 do
    let r =
      Bprc_harness.Run.consensus_once ~sim:arena ~max_steps:1_000_000
        ~sched:Bprc_harness.Run.Round_robin_sched
        ~algo:(Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
        ~pattern:Bprc_harness.Run.Random_inputs ~n:4 ~seed ()
    in
    Alcotest.(check bool) "n=4 decided" true r.Bprc_harness.Run.completed;
    steps := !steps + Sim.clock arena;
    resumes := !resumes + Sim.resumes arena
  done;
  if !steps < 5 * !resumes then
    Alcotest.failf "n=4 handshake decisions: %d steps, %d resumes: < 5 per resume"
      !steps !resumes;
  (* An n=128 decision over the embedded snapshot: collects dominate. *)
  let n = 128 in
  let arena = Sim.create ~n ~adversary:(Adversary.round_robin ()) () in
  let r =
    Bprc_harness.Run.consensus_once ~sim:arena ~max_steps:1_000_000
      ~sched:Bprc_harness.Run.Round_robin_sched
      ~algo:(Bprc_harness.Run.Ads_esnap Bprc_core.Ads89.Oracle_shared)
      ~pattern:Bprc_harness.Run.Random_inputs ~n ~seed:1 ()
  in
  Alcotest.(check bool) "decided" true r.Bprc_harness.Run.completed;
  let ratio = Sim.clock arena / Sim.resumes arena in
  if ratio < 100 then
    Alcotest.failf "n=128 embedded decision: %d steps per resume < 100" ratio

(* A flat float array cannot take stores through the scheduler's
   [Obj.t] view, so such a collect runs as single reads. *)
let test_float_collect () =
  let sim = Sim.create ~n:4 ~adversary:(Adversary.round_robin ()) () in
  let (module B) = Sim.batched sim in
  let regs = Array.init 4 (fun j -> B.make_reg (float_of_int j +. 0.5)) in
  let out = Array.make 4 0. in
  let h =
    Sim.spawn sim (fun () ->
        B.collect regs ~skip:1 out;
        Array.copy out)
  in
  for _ = 2 to 4 do
    ignore (Sim.spawn sim (fun () -> ()))
  done;
  ignore (Sim.run sim);
  Alcotest.(check (option (array (float 0.))))
    "values" (Some [| 0.5; 0.; 2.5; 3.5 |]) (Sim.result h);
  Alcotest.(check int) "one resume per read" 3 (Sim.resumes sim)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_handshake;
    QCheck_alcotest.to_alcotest prop_embedded;
    QCheck_alcotest.to_alcotest prop_ads89;
    Alcotest.test_case "lone process crashed at clock 0" `Quick
      test_lone_crash_at_start;
    Alcotest.test_case "alloc: batched collect words constant in n" `Quick
      test_collect_words_constant;
    Alcotest.test_case "alloc: scan attempt, update words constant in n" `Quick
      test_program_words_constant;
    Alcotest.test_case "retention: pending batch released" `Quick
      test_no_retention;
    Alcotest.test_case "resumes: per-access 1, n=128 embedded >= 100" `Quick
      test_resumes;
    Alcotest.test_case "collect into a float array" `Quick test_float_collect;
  ]
