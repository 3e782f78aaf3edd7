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

(* n, scheduler (round-robin, random, bursty-7), seed, fault. *)
let arb_case =
  QCheck.make
    ~print:(fun (n, sched, seed, fault) ->
      Printf.sprintf "n=%d sched=%d seed=%d %s" n sched seed (pp_fault fault))
    QCheck.Gen.(
      oneofl [ 3; 4; 5; 8 ] >>= fun n ->
      map3
        (fun sched seed fault -> (n, sched, seed, fault))
        (int_range 0 2) (int_bound 10_000) (gen_fault n))

let snapshot_differential name
    (make : (module Runtime_intf.BATCHED) -> (module SNAP)) =
  QCheck.Test.make ~count:40
    ~name:(name ^ ": batched = per-access (steps, trace, views)")
    arb_case
    (fun (n, sched, seed, fault) ->
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
        (stream, Trace.to_list trace, Array.map Sim.result handles)
      in
      let (s1, t1, v1), (s2, t2, v2) =
        twice ~n ~sched ~seed ~record_trace:true ~max_steps:200_000 run
      in
      if s1 <> s2 then QCheck.Test.fail_report "step streams differ";
      if t1 <> t2 then QCheck.Test.fail_report "traces differ";
      if v1 <> v2 then QCheck.Test.fail_report "views differ";
      List.length s1 > 0)

let prop_handshake =
  snapshot_differential "handshake" (fun (module B) ->
      (module Handshake.Make_batched (B) : SNAP))

let prop_embedded =
  snapshot_differential "embedded" (fun (module B) ->
      (module Embedded.Make_batched (B) : SNAP))

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

(* Minor words of one collect of [n - 1] registers by process 0 (the
   other processes finish at once): the marginal cost of 1000 more
   collects, so per-process start-up cancels out.  Round-robin by
   default, whose dense stretch runs all but a collect's last read in
   bulk. *)
let words_per_collect ?(adversary = Adversary.round_robin) ~n rt_of =
  let words collects =
    let sim = Sim.create ~n ~adversary:(adversary ()) () in
    let (module B : Runtime_intf.BATCHED) = rt_of sim in
    let regs = Array.init n (fun j -> B.make_reg j) in
    let out = Array.make n 0 in
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to collects do
             B.collect regs ~skip:0 out
           done));
    for _ = 2 to n do
      ignore (Sim.spawn sim (fun () -> ()))
    done;
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
  let w8 = words_per_collect ~n:8 batched
  and w64 = words_per_collect ~n:64 batched
  and s64 = words_per_collect ~adversary:wrapped ~n:64 batched
  and l64 = words_per_collect ~n:64 looped in
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

(* Process 0 collects from a register array made here, so that nothing
   but the arena can keep it alive; the others have nothing to do. *)
let[@inline never] start_instance sim (w : Obj.t Weak.t) =
  let (module B) = Sim.batched sim in
  let regs = Array.init (Sim.n sim) (fun j -> B.make_reg j) in
  let out = Array.make (Sim.n sim) 0 in
  Weak.set w 0 (Some (Obj.repr regs));
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 3 do
           B.collect regs ~skip:0 out
         done));
  for _ = 2 to Sim.n sim do
    ignore (Sim.spawn sim (fun () -> ()))
  done

let collected (w : Obj.t Weak.t) =
  Gc.full_major ();
  Option.is_none (Weak.get w 0)

let test_no_retention () =
  let sim = Sim.create ~n:4 ~adversary:(Adversary.round_robin ()) () in
  let w = Weak.create 1 in
  (* Stopped mid-batch: the pending batch holds the registers until the
     arena is reset. *)
  start_instance sim w;
  ignore (Sim.run_to sim ~clock:6);
  Alcotest.(check bool) "held while the batch is pending" false (collected w);
  Sim.reset sim;
  Alcotest.(check bool) "released by reset" true (collected w);
  (* Crashed mid-batch and finished: released with no reset. *)
  start_instance sim w;
  ignore (Sim.run_to sim ~clock:6);
  Sim.crash sim 0;
  ignore (Sim.run sim);
  Alcotest.(check bool) "released by crash" true (collected w);
  Sim.reset sim;
  start_instance sim w;
  ignore (Sim.run sim);
  Alcotest.(check bool) "released on completion" true (collected w)

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
    Alcotest.test_case "alloc: batched collect words constant in n" `Quick
      test_collect_words_constant;
    Alcotest.test_case "retention: pending batch released" `Quick
      test_no_retention;
    Alcotest.test_case "resumes: per-access 1, n=128 embedded >= 100" `Quick
      test_resumes;
    Alcotest.test_case "collect into a float array" `Quick test_float_collect;
  ]
