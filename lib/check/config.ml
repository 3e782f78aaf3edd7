module Sim = Bprc_runtime.Sim
module Inject = Bprc_faults.Inject
module Fault_plan = Bprc_faults.Fault_plan
module Snap_checker = Bprc_snapshot.Snap_checker

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

(* ---- per-arena functor-application caches ------------------------------ *)

(* [Handshake.Make_batched] is pure (all state lives under its
   [create]) but not free: each application allocates a module block
   and a closure per operation.  The explorer calls [setup] once per
   run — hundreds of thousands of times — so the application is
   memoized in an arena-local slot ({!Sim.local}) over the arena's
   {!Sim.batched}, which is stable for the arena's life, as
   {!Bprc_harness.Run.applied} memoizes the §5 protocol.  An entry dies
   with its arena; every explore makes fresh arenas, so a table keyed
   on arenas from outside would keep all of them alive.  Weakened
   runtimes ({!Inject.weaken_runtime} with a non-empty plan) are never
   cached — the wrapper carries per-run mutable state and is a fresh
   module each run. *)

let handshake_slot =
  Sim.new_local (fun sim ->
      (module Bprc_snapshot.Handshake.Make_batched ((val Sim.batched sim))
      : Bprc_snapshot.Snapshot_intf.S))

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
let register_prog ~plan ~prog sim =
  let (module R) = Inject.weaken_runtime (Sim.runtime sim) ~plan in
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
      let rt = Inject.weaken_runtime (Sim.runtime sim) ~plan in
      if rt == Sim.runtime sim then Sim.local sim handshake_slot
      else
        let (module R) = rt in
        (module Bprc_snapshot.Handshake.Make (R)
        : Bprc_snapshot.Snapshot_intf.S)
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
  let algo = Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk in
  let proposals = Array.map (fun input -> [ input ]) inputs in
  fun ~plan sim ->
    let (module C) =
      let rt = Inject.weaken_batched (Sim.batched sim) ~plan in
      if rt == Sim.batched sim then Bprc_harness.Run.applied sim algo
      else Bprc_harness.Run.protocol algo rt
    in
    let st = C.create ~params () in
    let rc = recording sim cons_slot check in
    spawn_recorded sim rc.hist proposals (fun _ input ->
        let output = Bool.to_int (C.run st ~input) in
        Specs.Propose { input = Bool.to_int input; output });
    memoized rc check

let weaken semantics = [ Fault_plan.Weaken { index = -1; semantics } ]

(* Every process writes a distinct value then reads the register back. *)
let write_read = [| [ `Write 10; `Read ]; [ `Write 20; `Read ] |]

let all =
  [
    {
      name = "reg-atomic";
      summary = "2 procs, write-then-read one atomic register";
      n = 2;
      max_steps = 64;
      reduction = true;
      expect_violation = false;
      setup = register_prog ~plan:[] ~prog:write_read;
    };
    {
      name = "reg-safe";
      summary = "write-then-read over a safe-weakened register";
      n = 2;
      max_steps = 64;
      reduction = false;
      expect_violation = true;
      setup = register_prog ~plan:(weaken Fault_plan.Safe) ~prog:write_read;
    };
    {
      (* New-old inversion probe: p0 reads twice while p1 writes once.  A
         regular register may serve the overlapping new value then the
         old one; an atomic register may not. *)
      name = "reg-regular";
      summary = "new-old inversion probe over a regular-weakened register";
      n = 2;
      max_steps = 64;
      reduction = false;
      expect_violation = true;
      setup =
        register_prog
          ~plan:(weaken Fault_plan.Regular)
          ~prog:[| [ `Read; `Read ]; [ `Write 7 ] |];
    };
    {
      name = "snapshot-atomic";
      summary = "update-then-scan over the handshake snapshot (P1-P3 + lin)";
      n = 2;
      max_steps = 256;
      reduction = true;
      expect_violation = false;
      setup =
        snapshot_prog ~lin:true ~plan:[]
          ~prog:[| [ `Update 1; `Scan ]; [ `Update 11; `Scan ] |];
    };
    {
      (* Two updates by p0 so a safe read can serve a stale value
         (init, or the first write) after the first write committed —
         with a single write per writer, every value a safe register
         can return still potentially coexists with the scan and P1 is
         unviolable. *)
      name = "snapshot-unsafe";
      summary = "handshake snapshot over safe-weakened registers";
      n = 2;
      max_steps = 256;
      reduction = false;
      expect_violation = true;
      setup =
        snapshot_prog ~lin:true
          ~plan:(weaken Fault_plan.Safe)
          ~prog:[| [ `Update 1; `Update 2 ]; [ `Scan ] |];
    };
    {
      name = "consensus-2p";
      summary = "2-proc split-input consensus, bounded corner search";
      n = 2;
      max_steps = 2000;
      reduction = true;
      expect_violation = false;
      (* Tiny coin parameters keep runs short; the schedule tree is far
         too large to exhaust, so this is a bounded corner search, not a
         proof. *)
      setup =
        consensus_prog ~lin:true
          ~params:{ Bprc_core.Params.k = 2; delta = 1; m = Some 3 }
          ~inputs:[| true; false |] ~plan:[];
    };
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
