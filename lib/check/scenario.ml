module Fault_plan = Bprc_faults.Fault_plan

type system = Snapshot | Consensus

type t = {
  name : string;
  summary : string;
  expect_violation : bool;
  gen_plan : n:int -> rng:Bprc_rng.Splitmix.t -> Fault_plan.t;
  system : system;
}

(* ------------------------------------------------------------------ *)
(* Process-fault generation (crash/stall), shared by the scenarios    *)
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
(* Scenarios: consensus and the handshake snapshot                     *)
(* ------------------------------------------------------------------ *)

let crashes_and_stalls ~n ~rng =
  gen_process_faults ~n ~rng ~count:(1 + Bprc_rng.Splitmix.int rng 2)

let consensus =
  {
    name = "consensus";
    summary =
      "ADS89 consensus under crash/stall faults: agreement, validity and \
       survivor termination must hold (expected clean)";
    expect_violation = false;
    gen_plan = crashes_and_stalls;
    system = Consensus;
  }

let snapshot =
  {
    name = "snapshot";
    summary =
      "handshake snapshot P1-P3 under crash/stall faults (expected clean)";
    expect_violation = false;
    gen_plan = crashes_and_stalls;
    system = Snapshot;
  }

let snapshot_unsafe =
  {
    name = "snapshot-unsafe";
    summary =
      "handshake snapshot with every register weakened to safe semantics — a \
       deliberately injected bug the hunt must find (P1-P3 need atomicity)";
    expect_violation = true;
    gen_plan =
      (fun ~n ~rng ->
        Fault_plan.Weaken { index = -1; semantics = Fault_plan.Safe }
        :: gen_process_faults ~n ~rng ~count:(Bprc_rng.Splitmix.int rng 2));
    system = Snapshot;
  }

(* ------------------------------------------------------------------ *)

let registry = [ consensus; snapshot; snapshot_unsafe ]
let names = List.map (fun s -> s.name) registry
let find name = List.find_opt (fun s -> s.name = name) registry
