module Fault_plan = Bprc_faults.Fault_plan
module Inject = Bprc_faults.Inject
module Reg_lin = Lin.Make (Specs.Register)

type system =
  | Snapshot
  | Consensus
  | Net of {
      exec : n:int -> seed:int -> plan:Fault_plan.t -> string option * int;
      ops_per_process : int;
    }

type t = {
  name : string;
  summary : string;
  expect_violation : bool;
  gen_plan : n:int -> rng:Bprc_rng.Splitmix.t -> Fault_plan.t;
  system : system;
}

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
(* Simulator scenarios: consensus and the handshake snapshot           *)
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
(* Scenario: ABD registers under link faults                           *)
(* ------------------------------------------------------------------ *)

let abd_max_events = 400_000

let abd_exec ~n ~seed ~plan =
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
    if not (Reg_lin.linearizable (Hist.events_array hist)) then
      Some "abd: register history is not linearizable"
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
  (failure, Bprc_netsim.Abd.events abd)

let abd =
  {
    name = "abd";
    summary =
      "ABD quorum registers under drop/duplicate/delay link faults: \
       linearizability always; termination when no message is lost";
    expect_violation = false;
    gen_plan =
      (fun ~n:_ ~rng ->
        let count = 1 + Bprc_rng.Splitmix.int rng 3 in
        List.init count (fun _ ->
            let nth = Bprc_rng.Splitmix.int rng 200 in
            match Bprc_rng.Splitmix.int rng 3 with
            | 0 -> Fault_plan.Drop { nth }
            | 1 -> Fault_plan.Duplicate { nth }
            | _ -> Fault_plan.Delay { nth; by = 1 + Bprc_rng.Splitmix.int rng 50 }));
    (* Every client writes, reads, writes and reads. *)
    system = Net { exec = abd_exec; ops_per_process = 4 };
  }

(* ------------------------------------------------------------------ *)

let check_n s ~n =
  match s.system with
  | Net { ops_per_process; _ } when n * ops_per_process > Lin.max_events ->
    Error
      (Printf.sprintf
         "scenario %s checks at most %d operations (%d per process), so n \
          must be at most %d"
         s.name Lin.max_events ops_per_process
         (Lin.max_events / ops_per_process))
  | Snapshot | Consensus | Net _ -> Ok ()

let registry = [ consensus; snapshot; snapshot_unsafe; abd ]
let names = List.map (fun s -> s.name) registry
let find name = List.find_opt (fun s -> s.name = name) registry
