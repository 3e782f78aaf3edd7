module Sim = Bprc_runtime.Sim
module Run = Bprc_harness.Run
module Inject = Bprc_faults.Inject
module Fault_plan = Bprc_faults.Fault_plan
module Snap_checker = Bprc_snapshot.Snap_checker
module Splitmix = Bprc_rng.Splitmix

type scenario = {
  name : string;
  summary : string;
  expect_violation : bool;
  gen_plan : n:int -> rng:Splitmix.t -> Fault_plan.t;
  program : n:int -> plan:Fault_plan.t -> Explorer.setup;
  max_steps : int;
  label : string;
  exhausted : string;
}

type t = {
  name : string;
  summary : string;
  n : int;
  max_steps : int;
  reduction : bool;
  expect_violation : bool;
  setup : Explorer.setup;
}

module Reg_lin = Lin.Make (Specs.Register)
module Cons_lin = Lin.Make (Specs.Consensus)

(* ---- the runtime a program runs over ----------------------------------- *)

(* Every program runs over its arena's {!Sim.batched} runtime, weakened
   by its plan.  [Handshake.Make_batched] is pure (all state lives under
   its [create]) but not free: each application allocates a module block
   and a closure per operation.  The explorer calls [setup] once per
   run, hundreds of thousands of times, so the application goes through
   {!Run.cached}, as {!Run.applied} does for the §5 protocol: it is kept
   in an arena-local slot and dies with its arena (every explore makes
   fresh arenas, so a table keyed on arenas from outside would keep all
   of them alive).  A weakened runtime carries per-run state and gets a
   fresh application each run. *)
let weakened sim ~plan = Inject.weaken_batched (Sim.batched sim) ~plan

let handshake (module R : Bprc_runtime.Runtime_intf.BATCHED) :
    (module Bprc_snapshot.Snapshot_intf.S) =
  (module Bprc_snapshot.Handshake.Make_batched (R))

let handshake_slot = Sim.new_local (fun sim -> handshake (Sim.batched sim))

(* ---- per-arena verdict memo -------------------------------------------- *)

(* Every registry check reads only its run's recorded history, and a
   search's runs repeat few histories: the 30,448 unreduced
   snapshot-atomic runs record 32 distinct ones.  So each program
   records into its arena's [recorder] and runs its check through
   [memoized], which checks each distinct history once per arena.  The
   key is the exact event array — pid, stamps and op of every event,
   scan views included — paired with a hash over all of it
   ([Hashtbl.hash]'s default limits stop after the first few events).
   The table compares keys structurally, so the hash only picks the
   bucket.  Only returned verdicts are stored: a check that raises
   stores nothing and raises again on every run that reaches its
   history.

   There is one recorder slot per op type, made here once: a slot made
   per program would take a fresh process-wide index ({!Sim.new_local})
   and grow every later arena that records for it.  Programs of one op
   type share the slot, so the table belongs to the check that filled
   it ([owner], compared physically) and is emptied when another check
   records on the arena.  The explorer's, the shrinker's and a replay's
   arenas each have their own table, and it dies with its arena. *)
type 'op recorder = {
  hist : 'op Hist.t;
  verdicts : (int * 'op Hist.event array, (unit, string) result) Hashtbl.t;
  mutable owner : ('op Hist.event array -> (unit, string) result) option;
}

let recorder () =
  Sim.new_local (fun _ ->
      { hist = Hist.create (); verdicts = Hashtbl.create 64; owner = None })

let reg_slot = recorder ()
let snap_slot = recorder ()
let cons_slot = recorder ()

(* The arena's recorder, its history rewound for a new run of a program
   checked by [check]. *)
let recording sim slot check =
  let r = Sim.local sim slot in
  (match r.owner with
  | Some c when c == check -> ()
  | _ ->
    Hashtbl.reset r.verdicts;
    r.owner <- Some check);
  Hist.clear r.hist;
  r

let memoized r check () =
  let evs = Hist.events_array r.hist in
  let key = (Hashtbl.hash_param 64 256 evs, evs) in
  match Hashtbl.find_opt r.verdicts key with
  | Some verdict -> verdict
  | None ->
    let verdict = check evs in
    Hashtbl.add r.verdicts key verdict;
    verdict

(* [linearizable] takes the events as an array ({!Lin.Make.linearizable}):
   one verdict costs no intermediate list, and the message — built on
   violation only — renders from the same array. *)
let lin_verdict ~name pp_op linearizable events =
  if linearizable events then Ok ()
  else
    Error
      (Fmt.str "@[<h>non-linearizable %s history: %a@]" name
         Fmt.(list ~sep:sp (Hist.pp_event pp_op))
         (Array.to_list events))

let both first second evs = Result.bind (first evs) (fun () -> second evs)

(* Spawn process [i] to run [prog.(i)]: each step [op] becomes the event
   [apply i op], stamped before and after it runs. *)
let spawn_recorded sim h prog apply =
  for i = 0 to Array.length prog - 1 do
    ignore
      (Sim.spawn sim (fun () ->
           List.iter
             (fun op ->
               let s = Hist.stamp h in
               let op = apply i op in
               let f = Hist.stamp h in
               Hist.record h ~pid:i ~start_time:s ~finish_time:f op)
             prog.(i)))
  done

let reg_check =
  lin_verdict ~name:"register" Specs.Register.pp_op Reg_lin.linearizable

(* Process [i] runs [prog.(i)] over one register, which [plan] may
   weaken. *)
let register_prog ~prog ~plan sim =
  let (module R) = weakened sim ~plan in
  let r = R.make_reg ~name:"x" 0 in
  let rc = recording sim reg_slot reg_check in
  spawn_recorded sim rc.hist prog (fun _ -> function
    | `Write v ->
      R.write r v;
      Specs.Write v
    | `Read -> Specs.Read (R.read r));
  memoized rc reg_check

(* P1–P3 are checked by a Snap_checker built from the recorded events. *)
let snapshot_prog ~lin ~prog =
  let n = Array.length prog in
  let p1_p3 evs =
    let ck = Snap_checker.create ~n ~init:0 in
    Array.iter
      (fun (e : Specs.snap_op Hist.event) ->
        match e.op with
        | Specs.Update { pid; value } ->
          Snap_checker.record_write ck ~pid ~start_time:e.start_time
            ~finish_time:e.finish_time ~value
        | Specs.Scan view ->
          Snap_checker.record_scan ck ~pid:e.pid ~start_time:e.start_time
            ~finish_time:e.finish_time ~view)
      evs;
    Snap_checker.check_all ck
  in
  let check =
    if not lin then p1_p3
    else
      (* The snapshot spec and its checker depend only on [n], so the
         functor is applied once per program, not once per run. *)
      let module Snap_lin = Lin.Make ((val Specs.snapshot ~n ())) in
      both p1_p3
        (lin_verdict ~name:"snapshot" Specs.pp_snap_op Snap_lin.linearizable)
  in
  fun ~plan sim ->
    let (module S) =
      Run.cached sim handshake_slot handshake (weakened sim ~plan)
    in
    let snap = S.create ~init:0 () in
    let rc = recording sim snap_slot check in
    spawn_recorded sim rc.hist prog (fun i -> function
      | `Update v ->
        S.write snap v;
        Specs.Update { pid = i; value = v }
      | `Scan -> Specs.Scan (S.scan snap));
    memoized rc check

(* Both checks read the decisions off the [Propose] events, so a
   process that never finished (crashed, or cut off) has no decision. *)
let consensus_prog ~lin ~params ~inputs =
  let n = Array.length inputs in
  let agreement_validity evs =
    let decisions = Array.make n None in
    Array.iter
      (fun (e : Specs.cons_op Hist.event) ->
        let (Specs.Propose { output; _ }) = e.op in
        decisions.(e.pid) <- Some (output = 1))
      evs;
    Bprc_core.Spec.check ~inputs ~decisions
  in
  let check =
    if not lin then agreement_validity
    else
      both agreement_validity
        (lin_verdict ~name:"consensus" Specs.Consensus.pp_op
           Cons_lin.linearizable)
  in
  let algo = Run.Ads Bprc_core.Ads89.Shared_walk in
  let proposals = Array.map (fun input -> [ input ]) inputs in
  fun ~plan sim ->
    let (module C) = Run.applied sim algo (weakened sim ~plan) in
    let st = C.create ~params () in
    let rc = recording sim cons_slot check in
    spawn_recorded sim rc.hist proposals (fun _ input ->
        let output = Bool.to_int (C.run st ~input) in
        Specs.Propose { input = Bool.to_int input; output });
    memoized rc check

(* ---- the explorer's configurations ------------------------------------ *)

(* Reduction is sound exactly when no register is weakened: the
   weakening wrapper shares a hidden write table across processes. *)
let entry ~name ~summary ~n ~max_steps ~expect_violation ~plan program =
  {
    name;
    summary;
    n;
    max_steps;
    reduction = not (Fault_plan.weakens plan);
    expect_violation;
    setup = program ~plan;
  }

(* Every process writes a distinct value then reads the register back. *)
let write_read = [| [ `Write 10; `Read ]; [ `Write 20; `Read ] |]

let all =
  [
    entry ~name:"reg-atomic"
      ~summary:"2 procs, write-then-read one atomic register" ~n:2
      ~max_steps:64 ~expect_violation:false ~plan:[]
      (register_prog ~prog:write_read);
    entry ~name:"reg-safe"
      ~summary:"write-then-read over a safe-weakened register" ~n:2
      ~max_steps:64 ~expect_violation:true ~plan:(Fault_plan.weaken_all Safe)
      (register_prog ~prog:write_read);
    (* New-old inversion probe: p0 reads twice while p1 writes once.  A
       regular register may serve the overlapping new value then the old
       one; an atomic register may not. *)
    entry ~name:"reg-regular"
      ~summary:"new-old inversion probe over a regular-weakened register"
      ~n:2 ~max_steps:64 ~expect_violation:true
      ~plan:(Fault_plan.weaken_all Regular)
      (register_prog ~prog:[| [ `Read; `Read ]; [ `Write 7 ] |]);
    entry ~name:"snapshot-atomic"
      ~summary:"update-then-scan over the handshake snapshot (P1-P3 + lin)"
      ~n:2 ~max_steps:256 ~expect_violation:false ~plan:[]
      (snapshot_prog ~lin:true
         ~prog:[| [ `Update 1; `Scan ]; [ `Update 11; `Scan ] |]);
    (* Two updates by p0 so a safe read can serve a stale value (init, or
       the first write) after the first write committed — with a single
       write per writer, every value a safe register can return still
       potentially coexists with the scan and P1 is unviolable. *)
    entry ~name:"snapshot-unsafe"
      ~summary:"handshake snapshot over safe-weakened registers" ~n:2
      ~max_steps:256 ~expect_violation:true ~plan:(Fault_plan.weaken_all Safe)
      (snapshot_prog ~lin:true ~prog:[| [ `Update 1; `Update 2 ]; [ `Scan ] |]);
    (* Tiny coin parameters keep runs short; the schedule tree is far too
       large to exhaust, so this is a bounded corner search, not a
       proof. *)
    entry ~name:"consensus-2p"
      ~summary:"2-proc split-input consensus, bounded corner search" ~n:2
      ~max_steps:2000 ~expect_violation:false ~plan:[]
      (consensus_prog ~lin:true
         ~params:{ Bprc_core.Params.k = 2; delta = 1; m = Some 3 }
         ~inputs:[| true; false |]);
  ]

let names () = List.map (fun c -> c.name) all
let find name = List.find_opt (fun c -> c.name = name) all

let run ?max_steps ?max_runs ?budget_s ?shrink cfg =
  Explorer.explore ~n:cfg.n
    ~max_steps:(Option.value max_steps ~default:cfg.max_steps)
    ?max_runs ?budget_s ~reduction:cfg.reduction ?shrink ~setup:cfg.setup ()

let replay ?max_steps cfg (w : Explorer.witness) =
  Explorer.replay ~n:cfg.n
    ~max_steps:(Option.value max_steps ~default:cfg.max_steps)
    ~choices:w.choices ~flips:w.flips ~setup:cfg.setup ()

(* ---- the hunt's scenarios ---------------------------------------------- *)

(* [count] crash or stall faults at random processes and steps. *)
let process_faults ~n ~rng ~count =
  let faults = ref [] in
  let crashes = ref 0 in
  for _ = 1 to count do
    let pid = Splitmix.int rng n in
    let at_step = Splitmix.int rng 2_000 in
    (* Keep at least one process alive: a fully crashed run completes
       vacuously and wastes the trial. *)
    if Splitmix.bool rng && !crashes < n - 1 then begin
      incr crashes;
      faults := Fault_plan.Crash { pid; at_step } :: !faults
    end
    else
      faults :=
        Fault_plan.Stall { pid; at_step; steps = 1 + Splitmix.int rng 500 }
        :: !faults
  done;
  List.rev !faults

let crashes_and_stalls ~n ~rng =
  process_faults ~n ~rng ~count:(1 + Splitmix.int rng 2)

(* The hunt's size of each system: three update-then-scan rounds per
   process, or split inputs under default parameters.  Linearizability
   is off, since a crashed process's operation is missing from the
   history. *)
let snapshot =
  {
    name = "snapshot";
    summary =
      "handshake snapshot P1-P3 under crash/stall faults (expected clean)";
    expect_violation = false;
    gen_plan = crashes_and_stalls;
    program =
      (fun ~n ->
        let rounds = List.init 3 (fun k -> [ `Update (k + 1); `Scan ]) in
        snapshot_prog ~lin:false ~prog:(Array.make n (List.concat rounds)));
    max_steps = 200_000;
    label = "snapshot";
    exhausted =
      "step budget exhausted (scan retries not caused by new writes?)";
  }

let scenarios =
  [
    {
      name = "consensus";
      summary =
        "ADS89 consensus under crash/stall faults: agreement, validity and \
         survivor termination must hold (expected clean)";
      expect_violation = false;
      gen_plan = crashes_and_stalls;
      program =
        (fun ~n ->
          consensus_prog ~lin:false ~params:Bprc_core.Params.default
            ~inputs:(Run.inputs_of_pattern Split ~n ~seed:0));
      max_steps = 400_000;
      label = "consensus";
      exhausted = "step budget exhausted before survivors decided";
    };
    snapshot;
    {
      snapshot with
      name = "snapshot-unsafe";
      summary =
        "handshake snapshot with every register weakened to safe semantics \
         — a deliberately injected bug the hunt must find (P1-P3 need \
         atomicity)";
      expect_violation = true;
      gen_plan =
        (fun ~n ~rng ->
          Fault_plan.weaken_all Safe
          @ process_faults ~n ~rng ~count:(Splitmix.int rng 2));
    };
  ]

let find_scenario name =
  let named (s : scenario) = s.name in
  match List.find_opt (fun s -> named s = name) scenarios with
  | Some s -> Ok s
  | None ->
    Error
      (Printf.sprintf "unknown scenario %s (valid: %s)" name
         (String.concat ", " (List.map named scenarios)))
