open Bprc_runtime
module Vec = Bprc_util.Vec
module Fault_plan = Bprc_faults.Fault_plan
module Inject = Bprc_faults.Inject
module Reg_lin = Lin.Make (Specs.Register)

type mode = Record | Replay of { choices : int list; flips : bool list }

type exec_result = {
  failure : string option;
  clock : int;
  choices : int list;
  flips : bool list;
}

type t = {
  name : string;
  summary : string;
  gen_plan : n:int -> rng:Bprc_rng.Splitmix.t -> Fault_plan.t;
  exec : n:int -> seed:int -> plan:Fault_plan.t -> mode:mode -> exec_result;
}

(* ------------------------------------------------------------------ *)
(* Shared-memory plumbing: record or replay the schedule               *)
(* ------------------------------------------------------------------ *)

(* A simulator for one run, and the function that turns its failure
   into the run's result.  [Record] wraps a random adversary and logs
   each choice as a position in the runnable array, the form
   [Adversary.scripted] replays (pid sets then match positionally, not
   by value), and logs every coin flip in draw order.  [Replay] feeds
   both back, with deterministic fallbacks once a shrunk script runs
   out: the random adversary for choices and a stream derived from the
   seed for flips. *)
let sim_of ~mode ~seed ~max_steps ~n =
  let choices = Vec.create () and flips = Vec.create () in
  let adversary =
    match mode with
    | Record ->
      let base = Adversary.random () in
      Adversary.make ~name:("recorded:" ^ base.Adversary.name)
        (fun (ctx : Adversary.ctx) ->
          let pid = base.Adversary.choose ctx in
          let idx = ref 0 in
          Array.iteri
            (fun i p -> if p = pid then idx := i)
            ctx.Adversary.runnable;
          Vec.push choices !idx;
          pid)
    | Replay { choices; _ } ->
      Adversary.scripted ~choices ~fallback:(Adversary.random ()) ()
  in
  let sim = Sim.create ~seed ~max_steps ~n ~adversary () in
  (match mode with
  | Record -> Sim.set_flip_observer sim (fun ~pid:_ b -> Vec.push flips b)
  | Replay { flips; _ } ->
    (* Replays validate every scripted choice against the runnable set:
       a witness recorded against a different schedule must fail fast,
       not silently replay with wrong semantics. *)
    Sim.set_validate sim true;
    let cursor = ref flips in
    let fallback = Bprc_rng.Splitmix.create ~seed:(seed lxor 0x5eed) in
    Sim.set_flip_source sim (fun ~pid:_ ->
        match !cursor with
        | b :: rest ->
          cursor := rest;
          b
        | [] -> Bprc_rng.Splitmix.bool fallback));
  let result failure =
    {
      failure;
      clock = Sim.clock sim;
      choices = Vec.to_list choices;
      flips = Vec.to_list flips;
    }
  in
  (sim, result)

(* ------------------------------------------------------------------ *)
(* Process-fault generation (crash/stall), shared by sim scenarios     *)
(* ------------------------------------------------------------------ *)

let gen_process_faults ~n ~rng ~count =
  let faults = ref [] in
  let crashes = ref 0 in
  for _ = 1 to count do
    let pid = Bprc_rng.Splitmix.int rng n in
    let at_step = Bprc_rng.Splitmix.int rng 2_000 in
    (* Keep at least one process alive: a fully crashed run completes
       vacuously and wastes the trial. *)
    if Bprc_rng.Splitmix.bool rng && !crashes < n - 1 then begin
      incr crashes;
      faults := Fault_plan.Crash { pid; at_step } :: !faults
    end
    else
      faults :=
        Fault_plan.Stall
          { pid; at_step; steps = 1 + Bprc_rng.Splitmix.int rng 500 }
        :: !faults
  done;
  List.rev !faults

(* ------------------------------------------------------------------ *)
(* Scenario: consensus under crash/stall faults                        *)
(* ------------------------------------------------------------------ *)

let consensus_max_steps = 400_000

let consensus_exec ~n ~seed ~plan ~mode =
  let sim, result = sim_of ~mode ~seed ~max_steps:consensus_max_steps ~n in
  let module Run = Bprc_harness.Run in
  let r =
    Run.consensus_on sim
      ~protocol:(Run.protocol (Run.Ads Bprc_core.Ads89.Shared_walk))
      ~faults:plan ~max_steps:consensus_max_steps
      ~inputs:(Run.inputs_of_pattern Run.Split ~n ~seed)
      ()
  in
  let failure =
    match r.Run.spec with
    | Error e -> Some ("consensus: " ^ e)
    | Ok () ->
      if r.Run.completed then None
      else Some "consensus: step budget exhausted before survivors decided"
  in
  result failure

let consensus =
  {
    name = "consensus";
    summary =
      "ADS89 consensus under crash/stall faults: agreement, validity and \
       survivor termination must hold (expected clean)";
    gen_plan =
      (fun ~n ~rng ->
        gen_process_faults ~n ~rng ~count:(1 + Bprc_rng.Splitmix.int rng 2));
    exec = consensus_exec;
  }

(* ------------------------------------------------------------------ *)
(* Scenarios: handshake snapshot (faulted; optionally weakened)        *)
(* ------------------------------------------------------------------ *)

let snapshot_max_steps = 200_000
let snapshot_rounds = 3

let snapshot_exec ~n ~seed ~plan ~mode =
  let sim, result = sim_of ~mode ~seed ~max_steps:snapshot_max_steps ~n in
  let module R = (val Inject.weaken_runtime (Sim.runtime sim) ~plan) in
  let module S = Bprc_snapshot.Handshake.Make (R) in
  let mem = S.create ~init:0 () in
  let checker = Bprc_snapshot.Snap_checker.create ~n ~init:0 in
  for p = 0 to n - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for k = 1 to snapshot_rounds do
             let s = Bprc_snapshot.Snap_checker.stamp checker in
             S.write mem k;
             Bprc_snapshot.Snap_checker.record_write checker ~pid:p
               ~start_time:s
               ~finish_time:(Bprc_snapshot.Snap_checker.stamp checker)
               ~value:k;
             let s = Bprc_snapshot.Snap_checker.stamp checker in
             let view = S.scan mem in
             Bprc_snapshot.Snap_checker.record_scan checker ~pid:p
               ~start_time:s
               ~finish_time:(Bprc_snapshot.Snap_checker.stamp checker)
               ~view
           done))
  done;
  let driver = Inject.driver ~n plan in
  let completed = Inject.drive sim ~driver ~max_steps:snapshot_max_steps in
  let failure =
    match Bprc_snapshot.Snap_checker.check_all checker with
    | Error e -> Some ("snapshot: " ^ e)
    | Ok () ->
      if completed then None
      else
        Some
          "snapshot: step budget exhausted (scan retries not caused by new \
           writes?)"
  in
  result failure

let snapshot =
  {
    name = "snapshot";
    summary =
      "handshake snapshot P1-P3 under crash/stall faults (expected clean)";
    gen_plan =
      (fun ~n ~rng ->
        gen_process_faults ~n ~rng ~count:(1 + Bprc_rng.Splitmix.int rng 2));
    exec = snapshot_exec;
  }

let snapshot_unsafe =
  {
    name = "snapshot-unsafe";
    summary =
      "handshake snapshot with every register weakened to safe semantics — a \
       deliberately injected bug the hunt must find (P1-P3 need atomicity)";
    gen_plan =
      (fun ~n ~rng ->
        Fault_plan.Weaken { index = -1; semantics = Fault_plan.Safe }
        :: gen_process_faults ~n ~rng ~count:(Bprc_rng.Splitmix.int rng 2));
    exec = snapshot_exec;
  }

(* ------------------------------------------------------------------ *)
(* Scenario: ABD registers under link faults                           *)
(* ------------------------------------------------------------------ *)

let abd_max_events = 400_000

let abd_exec ~n ~seed ~plan ~mode:_ =
  (* Message-passing runs are deterministic in the seed alone; nothing
     is recorded and replay is plain re-execution. *)
  let abd = Bprc_netsim.Abd.create ~seed ~max_events:abd_max_events ~n () in
  Bprc_netsim.Abd.set_fault_hook abd (Inject.net_hook plan);
  let module R = (val Bprc_netsim.Abd.runtime abd) in
  let hist : Specs.reg_op Hist.t = Hist.create () in
  let pending :
      (int * int * int * int ref (* pid, value, start, finish (max_int = open) *))
      list
      ref =
    ref []
  in
  let reg = R.make_reg ~name:"x" 0 in
  ignore
    (Array.init n (fun i ->
         Bprc_netsim.Abd.spawn_client abd (fun () ->
             let write v =
               let s = Hist.stamp hist in
               let fin = ref max_int in
               pending := (i, v, s, fin) :: !pending;
               R.write reg v;
               fin := Hist.stamp hist
             in
             let read () =
               let s = Hist.stamp hist in
               let v = R.read reg in
               Hist.record hist ~pid:i ~start_time:s
                 ~finish_time:(Hist.stamp hist) (Specs.Read v)
             in
             write (i + 1);
             read ();
             write (n + i + 1);
             read ())));
  let outcome = Bprc_netsim.Abd.run abd in
  let horizon = Hist.stamp hist in
  (* A write interrupted by a crash/lost ack may still have reached
     replicas; treating it as completing at the horizon keeps its value
     legal for reads without forcing it before any particular one. *)
  List.iter
    (fun (pid, v, s, fin) ->
      Hist.record hist ~pid ~start_time:s
        ~finish_time:(if !fin = max_int then horizon else !fin)
        (Specs.Write v))
    !pending;
  let failure =
    if
      Hist.length hist <= Lin.max_events
      && Reg_lin.check (Hist.events hist) = Reg_lin.Not_linearizable
    then Some "abd: register history is not linearizable"
    else begin
      match outcome with
      | `Completed -> None
      | (`Deadlock | `Event_limit) when Fault_plan.liveness_threatening plan ->
        (* Lost or spuriously duplicated messages may legitimately kill
           quorum liveness; only safety is required. *)
        None
      | `Deadlock -> Some "abd: deadlock without message loss"
      | `Event_limit -> Some "abd: event budget exhausted without message loss"
    end
  in
  {
    failure;
    clock = Bprc_netsim.Abd.events abd;
    choices = [];
    flips = [];
  }

let abd =
  {
    name = "abd";
    summary =
      "ABD quorum registers under drop/duplicate/delay link faults: \
       linearizability always; termination when no message is lost";
    gen_plan =
      (fun ~n:_ ~rng ->
        let count = 1 + Bprc_rng.Splitmix.int rng 3 in
        List.init count (fun _ ->
            let nth = Bprc_rng.Splitmix.int rng 200 in
            match Bprc_rng.Splitmix.int rng 3 with
            | 0 -> Fault_plan.Drop { nth }
            | 1 -> Fault_plan.Duplicate { nth }
            | _ -> Fault_plan.Delay { nth; by = 1 + Bprc_rng.Splitmix.int rng 50 }));
    exec = abd_exec;
  }

(* ------------------------------------------------------------------ *)

let registry = [ consensus; snapshot; snapshot_unsafe; abd ]
let names = List.map (fun s -> s.name) registry
let find name = List.find_opt (fun s -> s.name = name) registry
