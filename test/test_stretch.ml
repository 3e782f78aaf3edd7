(* The simulator's dense round-robin stretch against the per-step path:
   one round-robin adversary run natively, where [Sim.run_to] picks the
   pids itself, and behind [Adversary.make ~name a.choose], which hides
   the policy and so forces a [choose] call per step.  Both runs of one
   arena must give the same trace, per-pid steps, resumes, results and
   final cursor.  Without a trace the stretch also carries out whole
   read-only rounds in bulk, so an untraced arm at larger [n] compares
   the state at every pause as well. *)

open Bprc_runtime
module Fault_plan = Bprc_faults.Fault_plan
module Inject = Bprc_faults.Inject

(* Things a driver does between [run_to] pauses. *)
type action =
  | Nothing
  | Steps of int  (** that many [Sim.step] calls *)
  | Crash of int
  | Stall of int * int  (** pid, steps *)

type case = {
  n : int;
  seed : int;
  lengths : int array;  (** rounds per process; 0 finishes at once *)
  pauses : (int * action) list;  (** run_to clock, then the action *)
  plan : Fault_plan.t;  (** crash and stall faults for [Inject.drive] *)
  max_steps : int;
  observer_stalls : bool;  (** a flip observer stalls a process *)
}

let cursor (a : Adversary.t) =
  match a.Adversary.policy with
  | Adversary.Round_robin next -> !next
  | Adversary.Closure -> Alcotest.fail "not a round-robin adversary"

(* Updates, batched collects and scan attempts, writes, flips, reads
   and yields: every status a stretch steps through, and every kind of
   program segment.  Under round-robin the processes keep in step, so
   at larger [n] whole rounds fall inside the collects and the scan
   attempts' collects and arrow read-backs, and rounds that meet an
   update's or a scan attempt's arrow writes end a bulk.  Process [i]
   first yields [i mod 5] times, so the processes run a few steps out
   of phase: a round boundary can find pid 0 in a read segment while
   another process is still in a write segment.  At n = 1 the scan
   attempt and the update have an empty segment and run as single
   accesses. *)
let spawn_workload sim lengths =
  let (module B : Runtime_intf.BATCHED) = Sim.batched sim in
  let n = Sim.n sim in
  let regs = Array.init n (fun j -> B.make_reg j) in
  let flags = Array.init n (fun _ -> B.make_reg false) in
  Array.init n (fun i ->
      let idx = Array.init ((n + 1) / 2) (fun k -> (i + 1 + (2 * k)) mod n) in
      let raised = Array.init (n / 2) (fun k -> (i + 2 + (2 * k)) mod n) in
      Sim.spawn sim (fun () ->
          let out = Array.make n 0 and out2 = Array.make n 0 in
          let acc = ref 0 in
          for _ = 1 to i mod 5 do
            B.yield ()
          done;
          for r = 1 to lengths.(i) do
            B.update flags raised regs.(i) (r * (i + 1));
            B.collect regs ~skip:i out;
            if B.scan_attempt flags idx regs ~skip:i out out2 then
              acc := !acc + 1000;
            if r = 2 then B.write flags.(i) true;
            if B.flip () then acc := !acc + B.read regs.((i + 1) mod n)
            else B.yield ();
            Array.iter (fun v -> acc := !acc + v) out;
            Array.iter (fun v -> acc := !acc + (7 * v)) out2
          done;
          !acc))

let act sim = function
  | Nothing -> ()
  | Steps k ->
    for _ = 1 to k do
      ignore (Sim.step sim)
    done
  | Crash pid -> Sim.crash sim pid
  | Stall (pid, steps) -> Sim.stall sim pid ~steps

(* What a pause or the end of a run can see of the arena. *)
let state sim =
  ( Sim.clock sim,
    Array.init (Sim.n sim) (Sim.steps_of sim),
    Sim.resumes sim,
    Sim.last_access_code sim )

(* One run of [c] on [sim] (fresh or just reset) under [adversary]. *)
let observe sim c adversary =
  Sim.reset ~seed:c.seed ~adversary sim;
  let handles = spawn_workload sim c.lengths in
  if c.observer_stalls then
    Sim.set_flip_observer sim (fun ~pid b ->
        if b then Sim.stall sim ((pid + 1) mod c.n) ~steps:(pid + 2));
  let paused =
    List.map
      (fun (clock, a) ->
        let o = Sim.run_to sim ~clock in
        let at = state sim in
        act sim a;
        (o, at))
      c.pauses
  in
  let driver = Inject.driver ~n:c.n c.plan in
  let completed = Inject.drive sim ~driver ~max_steps:c.max_steps in
  ( paused,
    completed,
    state sim,
    Option.map Trace.to_list (Sim.trace sim),
    Array.map Sim.result handles )

let gen_action n =
  QCheck.Gen.(
    frequency
      [
        (2, return Nothing);
        (2, map (fun k -> Steps k) (int_range 1 12));
        (1, map (fun p -> Crash p) (int_range 0 (n - 1)));
        (1, map2 (fun p s -> Stall (p, s)) (int_range 0 (n - 1)) (int_range 0 20));
      ])

(* Faults fire on a process's own step count, up to [at]. *)
let gen_fault n ~at =
  QCheck.Gen.(
    oneof
      [
        map2
          (fun pid at_step -> Fault_plan.Crash { pid; at_step })
          (int_range 0 (n - 1)) (int_range 0 at);
        map3
          (fun pid at_step steps -> Fault_plan.Stall { pid; at_step; steps })
          (int_range 0 (n - 1)) (int_range 0 at) (int_range 0 30);
      ])

(* Cases over [ns] processes of up to [rounds] rounds each; pauses
   and step bounds fall in [0, span n], plan faults in
   [0, at n] steps of their process. *)
let gen_case ~ns ~rounds ~span ~at =
  QCheck.Gen.(
    oneofl ns >>= fun n ->
    let span = span n in
    int_bound 10_000 >>= fun seed ->
    array_size (return n) (int_range 0 rounds) >>= fun lengths ->
    (* A stretch needs the runnable pids to be 0..m-1, which holds
       throughout when higher pids finish first. *)
    bool >>= fun dense ->
    if dense then Array.sort (fun x y -> compare y x) lengths;
    list_size (int_range 0 5) (pair (int_range 0 span) (gen_action n))
    >>= fun pauses ->
    list_size (int_range 0 3) (gen_fault n ~at:(at n)) >>= fun plan ->
    frequency [ (3, return 100_000); (1, int_range 5 span) ]
    >>= fun max_steps ->
    map
      (fun observer_stalls ->
        {
          n;
          seed;
          lengths;
          pauses = List.sort compare pauses;
          plan;
          max_steps;
          observer_stalls;
        })
      bool)

let print_case c =
  let action = function
    | Nothing -> "-"
    | Steps k -> Printf.sprintf "step x%d" k
    | Crash p -> Printf.sprintf "crash p%d" p
    | Stall (p, s) -> Printf.sprintf "stall p%d %d" p s
  in
  Printf.sprintf
    "n=%d seed=%d lengths=[%s] pauses=[%s] plan=%d faults max_steps=%d \
     observer=%b"
    c.n c.seed
    (String.concat ";" (Array.to_list (Array.map string_of_int c.lengths)))
    (String.concat "; "
       (List.map (fun (k, a) -> Printf.sprintf "%d:%s" k (action a)) c.pauses))
    (List.length c.plan) c.max_steps c.observer_stalls

(* Run [c] natively and wrapped on one arena, with or without a trace. *)
let prop_stretch ~name ~count ~record_trace gen =
  QCheck.Test.make ~count ~name (QCheck.make ~print:print_case gen) (fun c ->
      let sim =
        Sim.create ~seed:c.seed ~max_steps:c.max_steps ~record_trace ~n:c.n
          ~adversary:(Adversary.round_robin ()) ()
      in
      let native = Adversary.round_robin () in
      let a = observe sim c native in
      let base = Adversary.round_robin () in
      let wrapped = Adversary.make ~name:"wrapped" base.Adversary.choose in
      let b = observe sim c wrapped in
      if a <> b then QCheck.Test.fail_report "runs differ";
      if cursor native <> cursor base then
        QCheck.Test.fail_reportf "cursors differ: %d vs %d" (cursor native)
          (cursor base);
      true)

let prop_traced =
  prop_stretch ~count:300
    ~name:"round-robin: stretch = per-step choose (trace, steps, cursor)"
    ~record_trace:true
    (gen_case ~ns:[ 1; 2; 3; 4; 8 ] ~rounds:6 ~span:(fun _ -> 200)
       ~at:(fun _ -> 40))

(* A round of the workload is about [9n / 2 + 2] steps per process. *)
let prop_untraced =
  prop_stretch ~count:100
    ~name:"round-robin untraced: bulk rounds = per-step choose (state at pauses)"
    ~record_trace:false
    (gen_case ~ns:[ 16; 32; 64 ] ~rounds:3
       ~span:(fun n -> 14 * n * n)
       ~at:(fun n -> 5 * n))

(* An n=64 decision over the embedded snapshot, native and wrapped:
   all its steps but the starts and the resuming ones are bulk reads. *)
let test_esnap_decision () =
  let n = 64 in
  let decide adversary =
    let sim = Sim.create ~seed:11 ~n ~adversary () in
    let (module B : Runtime_intf.BATCHED) = Sim.batched sim in
    let module C =
      Bprc_core.Ads89.Make_over_snapshot (B) (Bprc_snapshot.Embedded.Make_batched (B))
    in
    let t = C.create ~coin_mode:Bprc_core.Ads89.Oracle_shared ~oracle_seed:11 () in
    let handles =
      Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:(i mod 3 = 0)))
    in
    let o = Sim.run sim in
    (o, state sim, Array.map Sim.result handles)
  in
  let native = Adversary.round_robin () and base = Adversary.round_robin () in
  let ((o, _, decisions) as a) = decide native in
  let b = decide (Adversary.make ~name:"wrapped" base.Adversary.choose) in
  Alcotest.(check bool) "every process decided" true
    (o = Sim.Completed && Array.for_all Option.is_some decisions);
  Alcotest.(check bool) "clock, per-pid steps, resumes, decisions" true (a = b);
  Alcotest.(check int) "cursor" (cursor base) (cursor native)

(* A closure adversary: always the highest runnable pid. *)
let last_runnable () =
  Adversary.make ~name:"last" (fun ctx ->
      let r = ctx.Adversary.runnable in
      r.(Array.length r - 1))

(* Replacing the adversary mid-run takes effect at the next step and
   leaves the clock and the processes as they were. *)
let test_set_adversary () =
  let n = 3 in
  let sim =
    Sim.create ~seed:1 ~record_trace:true ~n
      ~adversary:(Adversary.round_robin ()) ()
  in
  let (module R) = Sim.runtime sim in
  for _ = 1 to n do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 10 do
             R.yield ()
           done))
  done;
  let pids () =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.kind = Trace.Step then Some e.Trace.pid else None)
      (Trace.to_list (Option.get (Sim.trace sim)))
  in
  Alcotest.(check bool) "paused" true (Sim.run_to sim ~clock:7 = None);
  Alcotest.(check (list int)) "round-robin so far" [ 0; 1; 2; 0 ] (pids ());
  (* A closure adversary in place of round-robin. *)
  Sim.set_adversary sim (last_runnable ());
  Alcotest.(check bool) "paused again" true (Sim.run_to sim ~clock:10 = None);
  Alcotest.(check int) "clock kept" 10 (Sim.clock sim);
  Alcotest.(check (list int)) "the new adversary's picks"
    [ 0; 1; 2; 0; 2; 2; 2 ] (pids ());
  (* And back to a fresh round-robin, which starts over at pid 0. *)
  let rr = Adversary.round_robin () in
  Sim.set_adversary sim rr;
  Alcotest.(check bool) "completes" true (Sim.run sim = Sim.Completed);
  Alcotest.(check (list int)) "per-pid steps" [ 11; 11; 11 ]
    (List.init n (Sim.steps_of sim));
  (match pids () with
  | 0 :: 1 :: 2 :: 0 :: 2 :: 2 :: 2 :: 0 :: 1 :: 2 :: _ -> ()
  | l ->
    Alcotest.failf "round-robin after the swap: %s"
      (String.concat " " (List.map string_of_int l)));
  Alcotest.(check int) "cursor past the last pick" 2 (cursor rr)

(* A flip observer that swaps the adversary in the middle of a dense
   round-robin stretch ends the stretch at that step. *)
let test_set_adversary_from_observer () =
  let n = 3 in
  let sim =
    Sim.create ~seed:1 ~record_trace:true ~n
      ~adversary:(Adversary.round_robin ()) ()
  in
  let (module R) = Sim.runtime sim in
  for _ = 1 to n do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 5 do
             R.yield ()
           done;
           ignore (R.flip ());
           for _ = 1 to 5 do
             R.yield ()
           done))
  done;
  let swapped = ref (-1) in
  Sim.set_flip_observer sim (fun ~pid:_ _ ->
      if !swapped < 0 then begin
        swapped := Sim.clock sim;
        Sim.set_adversary sim (last_runnable ())
      end);
  Alcotest.(check bool) "completes" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "p0's flip swapped at its 7th step" 19 !swapped;
  let after =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.time > !swapped then Some e.Trace.pid else None)
      (Trace.to_list (Option.get (Sim.trace sim)))
  in
  Alcotest.(check (list int)) "the new adversary's picks from the next step"
    [ 2; 2; 2; 2; 2; 2; 1; 1; 1; 1; 1; 1; 0; 0; 0; 0; 0 ] after

let suite =
  [
    QCheck_alcotest.to_alcotest prop_traced;
    QCheck_alcotest.to_alcotest prop_untraced;
    Alcotest.test_case "n=64 embedded decision: native = wrapped" `Quick
      test_esnap_decision;
    Alcotest.test_case "set_adversary mid-run" `Quick test_set_adversary;
    Alcotest.test_case "set_adversary from a flip observer" `Quick
      test_set_adversary_from_observer;
  ]
