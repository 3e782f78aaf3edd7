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
   records into a per-arena [recorder] and runs its check through
   [memoized], which checks each distinct history once per arena.  The
   key is the exact event array — pid, stamps and op of every event,
   scan views included — paired with a hash over all of it
   ([Hashtbl.hash]'s default limits stop after the first few events).
   The table compares keys structurally, so the hash only picks the
   bucket.  Only returned verdicts are stored: a check that raises
   stores nothing and raises again on every run that reaches its
   history.  The table lives in a {!Sim.local} slot, so the explorer's,
   the shrinker's and a replay's arenas each have their own, and it
   dies with its arena. *)
type 'op recorder = {
  hist : 'op Hist.t;
  verdicts : (int * 'op Hist.event array, (unit, string) result) Hashtbl.t;
}

let recorder () =
  Sim.new_local (fun _ -> { hist = Hist.create (); verdicts = Hashtbl.create 64 })

(* The arena's recorder, its history rewound for a new run. *)
let recording sim slot =
  let r = Sim.local sim slot in
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

(* [linearizable] takes the events as an array ({!Lin.check_events}):
   one verdict costs no intermediate list, and the message — built on
   violation only — renders from the same array. *)
let lin_verdict ~name pp_op linearizable events =
  if linearizable events then Ok ()
  else
    Error
      (Fmt.str "@[<h>non-linearizable %s history: %a@]" name
         Fmt.(list ~sep:sp (Hist.pp_event pp_op))
         (Array.to_list events))

let reg_check =
  lin_verdict ~name:"register" Specs.Register.pp_op (fun evs ->
      match Reg_lin.check_events evs with
      | Reg_lin.Linearizable _ -> true
      | Reg_lin.Not_linearizable -> false)

(* Every process writes a distinct value then reads the register back. *)
let reg_write_read ~plan =
  let slot = recorder () in
  fun sim ->
    let (module Base) = Sim.runtime sim in
    let (module R) = Inject.weaken_runtime (module Base) ~plan in
    let r = R.make_reg ~name:"x" 0 in
    let rc = recording sim slot in
    let h = rc.hist in
    for i = 0 to 1 do
      ignore
        (Sim.spawn sim (fun () ->
             let v = 10 * (i + 1) in
             let s = Hist.stamp h in
             R.write r v;
             let f = Hist.stamp h in
             Hist.record h ~pid:i ~start_time:s ~finish_time:f (Specs.Write v);
             let s = Hist.stamp h in
             let got = R.read r in
             let f = Hist.stamp h in
             Hist.record h ~pid:i ~start_time:s ~finish_time:f (Specs.Read got)))
    done;
    memoized rc reg_check

(* New-old inversion probe: p0 reads twice while p1 writes once.  A
   regular register may serve the overlapping new value then the old
   one; an atomic register may not. *)
let reg_read_read ~plan =
  let slot = recorder () in
  fun sim ->
    let (module Base) = Sim.runtime sim in
    let (module R) = Inject.weaken_runtime (module Base) ~plan in
    let r = R.make_reg ~name:"x" 0 in
    let rc = recording sim slot in
    let h = rc.hist in
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 2 do
             let s = Hist.stamp h in
             let got = R.read r in
             let f = Hist.stamp h in
             Hist.record h ~pid:0 ~start_time:s ~finish_time:f (Specs.Read got)
           done));
    ignore
      (Sim.spawn sim (fun () ->
           let s = Hist.stamp h in
           R.write r 7;
           let f = Hist.stamp h in
           Hist.record h ~pid:1 ~start_time:s ~finish_time:f (Specs.Write 7)));
    memoized rc reg_check

(* A fixed per-process program of updates and scans over the §2
   handshake snapshot.  Checked against P1–P3 (Snap_checker, built
   from the recorded events) and against full snapshot
   linearizability.  Update values must strictly increase per process
   (Snap_checker requirement). *)
let snapshot_prog ~plan ~prog =
  let n = Array.length prog in
  (* Hoisted out of the per-run closure: the snapshot spec and its
     linearizability checker depend only on [n], fixed per registry
     entry, so the functor is applied once at registry-build time
     instead of once per explored run. *)
  let module Snap_lin = Lin.Make ((val Specs.snapshot ~n ())) in
  let snap_linearizable evs =
    match Snap_lin.check_events evs with
    | Snap_lin.Linearizable _ -> true
    | Snap_lin.Not_linearizable -> false
  in
  let check evs =
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
    let ( let* ) = Result.bind in
    let* () = Snap_checker.check_regularity ck in
    let* () = Snap_checker.check_snapshot ck in
    let* () = Snap_checker.check_serializability ck in
    lin_verdict ~name:"snapshot" Specs.pp_snap_op snap_linearizable evs
  in
  let weakened = plan <> [] in
  let slot = recorder () in
  fun sim ->
    let (module S) =
      if weakened then begin
        let (module R) = Inject.weaken_runtime (Sim.runtime sim) ~plan in
        (module Bprc_snapshot.Handshake.Make (R)
        : Bprc_snapshot.Snapshot_intf.S)
      end
      else Sim.local sim handshake_slot
    in
    let snap = S.create ~init:0 () in
    let rc = recording sim slot in
    let h = rc.hist in
    for i = 0 to n - 1 do
      ignore
        (Sim.spawn sim (fun () ->
             List.iter
               (function
                 | `Update v ->
                   let s = Hist.stamp h in
                   S.write snap v;
                   let f = Hist.stamp h in
                   Hist.record h ~pid:i ~start_time:s ~finish_time:f
                     (Specs.Update { pid = i; value = v })
                 | `Scan ->
                   let s = Hist.stamp h in
                   let view = S.scan snap in
                   let f = Hist.stamp h in
                   Hist.record h ~pid:i ~start_time:s ~finish_time:f
                     (Specs.Scan view))
               prog.(i)))
    done;
    memoized rc check

(* Two-process §5 consensus with split inputs; checked against the
   consensus spec (agreement + validity) both directly and as a
   linearizable object.  Both read the decisions off the [Propose]
   events.  Tiny coin parameters keep runs short; the schedule tree is
   far too large to exhaust — this configuration is a bounded corner
   search, not a proof. *)
let consensus_split =
  let n = 2 in
  let params = { Bprc_core.Params.k = 2; delta = 1; m = Some 3 } in
  let inputs = [| true; false |] in
  let lin_check =
    lin_verdict ~name:"consensus" Specs.Consensus.pp_op (fun evs ->
        match Cons_lin.check_events evs with
        | Cons_lin.Linearizable _ -> true
        | Cons_lin.Not_linearizable -> false)
  in
  let check evs =
    let decisions = Array.make n None in
    Array.iter
      (fun (e : Specs.cons_op Hist.event) ->
        let (Specs.Propose { output; _ }) = e.op in
        decisions.(e.pid) <- Some (output = 1))
      evs;
    let ( let* ) = Result.bind in
    let* () = Bprc_core.Spec.check ~inputs ~decisions in
    lin_check evs
  in
  let slot = recorder () in
  fun sim ->
    let (module C) =
      Bprc_harness.Run.(applied sim (Ads Bprc_core.Ads89.Shared_walk))
    in
    let st = C.create ~params () in
    let rc = recording sim slot in
    let h = rc.hist in
    for i = 0 to n - 1 do
      ignore
        (Sim.spawn sim (fun () ->
             let s = Hist.stamp h in
             let d = C.run st ~input:inputs.(i) in
             let f = Hist.stamp h in
             Hist.record h ~pid:i ~start_time:s ~finish_time:f
               (Specs.Propose
                  { input = Bool.to_int inputs.(i); output = Bool.to_int d })))
    done;
    memoized rc check

let weaken semantics = [ Fault_plan.Weaken { index = -1; semantics } ]

let all =
  [
    {
      name = "reg-atomic";
      summary = "2 procs, write-then-read one atomic register";
      n = 2;
      max_steps = 64;
      reduction = true;
      expect_violation = false;
      setup = reg_write_read ~plan:[];
    };
    {
      name = "reg-safe";
      summary = "write-then-read over a safe-weakened register";
      n = 2;
      max_steps = 64;
      reduction = false;
      expect_violation = true;
      setup = reg_write_read ~plan:(weaken Fault_plan.Safe);
    };
    {
      name = "reg-regular";
      summary = "new-old inversion probe over a regular-weakened register";
      n = 2;
      max_steps = 64;
      reduction = false;
      expect_violation = true;
      setup = reg_read_read ~plan:(weaken Fault_plan.Regular);
    };
    {
      name = "snapshot-atomic";
      summary = "update-then-scan over the handshake snapshot (P1-P3 + lin)";
      n = 2;
      max_steps = 256;
      reduction = true;
      expect_violation = false;
      setup =
        snapshot_prog ~plan:[]
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
        snapshot_prog
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
      setup = consensus_split;
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
