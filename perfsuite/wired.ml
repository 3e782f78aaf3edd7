(* Runtime-boundary wrappers for the traced run, applied from outside
   the library.

   [Timed] wraps a runtime: it counts the accesses a fiber makes and
   times the code the fiber runs between two of them — protocol and
   snapshot compute — and, on each domain, the gap from one fiber's
   access to the next fiber resumption, which is the simulator's step.
   [Counted] wraps a snapshot object and marks the calling process as
   inside a write or scan while one runs, so that compute is charged to
   the snapshot layer rather than to the protocol core.

   Both are applied exactly where [Run.consensus_once] and the explorer
   registry apply the plain modules, so a wired instance makes the same
   accesses in the same order as the untraced one; the traced run checks
   its step counts and decisions against the untraced sample. *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Runtime_intf = Bprc_runtime.Runtime_intf
module Snapshot_intf = Bprc_snapshot.Snapshot_intf
module Consensus_intf = Bprc_core.Consensus_intf
module Ads89 = Bprc_core.Ads89
module Run = Bprc_harness.Run
module Hist = Bprc_check.Hist
module Lin = Bprc_check.Lin
module Specs = Bprc_check.Specs
module Snap_checker = Bprc_snapshot.Snap_checker

(* ---- per-domain tallies ------------------------------------------------ *)

(* Plain mutable ints, so bumping one allocates nothing.  Each domain
   owns one; the driving domain sums them between pool jobs. *)
type tally = {
  mutable reads : int;
  mutable writes : int;
  mutable flips : int;
  mutable yields : int;
  mutable scan_accesses : int;  (** accesses made inside a scan *)
  mutable scans : int;
  mutable retries : int;
  mutable snap_ns : int;
  mutable core_ns : int;
  mutable sim_ns : int;
  mutable build_ns : int;  (** constructing wired instances *)
  mutable setups : int;
  mutable checks : int;
  mutable closure_ns : int;  (** explorer setup and check closures *)
  mutable explorer_ns : int;  (** explorer work between runs *)
  mutable opened : int;  (** resumption time of the running fiber; -1: none *)
  mutable suspended : int;  (** time of the last access; -1: not in a run *)
  mutable released : int;  (** end of the last explorer closure; -1: none *)
}

let fresh () =
  {
    reads = 0;
    writes = 0;
    flips = 0;
    yields = 0;
    scan_accesses = 0;
    scans = 0;
    retries = 0;
    snap_ns = 0;
    core_ns = 0;
    sim_ns = 0;
    build_ns = 0;
    setups = 0;
    checks = 0;
    closure_ns = 0;
    explorer_ns = 0;
    opened = -1;
    suspended = -1;
    released = -1;
  }

let all_lock = Mutex.create ()
let all : tally list ref = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let t = fresh () in
      Mutex.protect all_lock (fun () -> all := t :: !all);
      t)

let[@inline] mine () = Domain.DLS.get key

let reset () =
  Mutex.protect all_lock (fun () ->
      List.iter
        (fun t ->
          t.reads <- 0;
          t.writes <- 0;
          t.flips <- 0;
          t.yields <- 0;
          t.scan_accesses <- 0;
          t.scans <- 0;
          t.retries <- 0;
          t.snap_ns <- 0;
          t.core_ns <- 0;
          t.sim_ns <- 0;
          t.build_ns <- 0;
          t.setups <- 0;
          t.checks <- 0;
          t.closure_ns <- 0;
          t.explorer_ns <- 0;
          t.opened <- -1;
          t.suspended <- -1;
          t.released <- -1)
        !all)

let total () =
  let s = fresh () in
  Mutex.protect all_lock (fun () ->
      List.iter
        (fun t ->
          s.reads <- s.reads + t.reads;
          s.writes <- s.writes + t.writes;
          s.flips <- s.flips + t.flips;
          s.yields <- s.yields + t.yields;
          s.scan_accesses <- s.scan_accesses + t.scan_accesses;
          s.scans <- s.scans + t.scans;
          s.retries <- s.retries + t.retries;
          s.snap_ns <- s.snap_ns + t.snap_ns;
          s.core_ns <- s.core_ns + t.core_ns;
          s.sim_ns <- s.sim_ns + t.sim_ns;
          s.build_ns <- s.build_ns + t.build_ns;
          s.setups <- s.setups + t.setups;
          s.checks <- s.checks + t.checks;
          s.closure_ns <- s.closure_ns + t.closure_ns;
          s.explorer_ns <- s.explorer_ns + t.explorer_ns)
        !all);
  s

let steps t = t.reads + t.writes + t.flips + t.yields

(* ---- the timed runtime ------------------------------------------------- *)

module type TIMED = sig
  include Runtime_intf.S

  val start : unit -> unit
  (** A process body begins: open its first compute segment. *)

  val finish : unit -> unit
  (** A process body returns: close its last compute segment. *)

  val enter : [ `Write | `Scan ] -> unit
  (** The calling process starts a snapshot operation. *)

  val leave : unit -> unit

  val rewind : unit -> unit
  (** A fresh run on the same arena: no process is inside a snapshot
      operation. *)
end

(* Where each process is: 0 outside the snapshot, 1 in a write, 2 in a
   scan.  Per process and per runtime, not per domain: the explorer may
   park an arena mid-run and resume it on another domain. *)
let outside = 0
let in_write = 1
let in_scan = 2

module Timed (R : Runtime_intf.S) : TIMED with type 'a reg = 'a R.reg = struct
  type 'a reg = 'a R.reg

  let n = R.n
  let make_reg = R.make_reg
  let peek = R.peek
  let poke = R.poke
  let pid = R.pid
  let now = R.now
  let where = Array.make R.n outside

  (* End the running compute segment at [now], charging it to the
     snapshot or the core by where the process is. *)
  let[@inline] charge t now =
    let o = t.opened in
    if o >= 0 then begin
      let d = now - o in
      if Array.unsafe_get where (R.pid ()) = outside then
        t.core_ns <- t.core_ns + d
      else t.snap_ns <- t.snap_ns + d;
      t.opened <- -1
    end

  (* A fiber resumes: the domain's time since the last access (or fiber
     end) was the simulator's; since an explorer closure returned, the
     explorer's.  The fiber may resume on another domain than it
     suspended on, so the tally is looked up again. *)
  let[@inline] resume () =
    let t = mine () in
    let now = Meter.now_ns () in
    let s = t.suspended in
    if s >= 0 then begin
      t.sim_ns <- t.sim_ns + (now - s);
      t.suspended <- -1
    end
    else begin
      let r = t.released in
      if r >= 0 then begin
        t.explorer_ns <- t.explorer_ns + (now - r);
        t.released <- -1
      end
    end;
    t.opened <- now

  let[@inline] suspend t =
    let now = Meter.now_ns () in
    charge t now;
    t.suspended <- now

  let[@inline] access () =
    let t = mine () in
    suspend t;
    if Array.unsafe_get where (R.pid ()) = in_scan then
      t.scan_accesses <- t.scan_accesses + 1;
    t

  let read r =
    let t = access () in
    t.reads <- t.reads + 1;
    let v = R.read r in
    resume ();
    v

  let write r v =
    let t = access () in
    t.writes <- t.writes + 1;
    R.write r v;
    resume ()

  let flip () =
    let t = access () in
    t.flips <- t.flips + 1;
    let b = R.flip () in
    resume ();
    b

  let yield () =
    let t = access () in
    t.yields <- t.yields + 1;
    R.yield ();
    resume ()

  let start () = resume ()
  let finish () = suspend (mine ())

  let enter op =
    let t = mine () in
    let now = Meter.now_ns () in
    charge t now;
    where.(R.pid ()) <- (match op with `Write -> in_write | `Scan -> in_scan);
    if op = `Scan then t.scans <- t.scans + 1;
    t.opened <- now

  let leave () =
    let t = mine () in
    let now = Meter.now_ns () in
    charge t now;
    where.(R.pid ()) <- outside;
    t.opened <- now

  let rewind () = Array.fill where 0 R.n outside
end

(* ---- the counted snapshot ---------------------------------------------- *)

module Counted (T : TIMED) (S : Snapshot_intf.S) : sig
  include Snapshot_intf.S with type 'a t = 'a S.t

  val flush_retries : unit -> unit
  (** Add the scan restarts of every object created since the last
      flush to this domain's tally, and forget the objects. *)
end = struct
  include S

  let created : (unit -> int) list ref = ref []

  let create ?name ~init () =
    let s = S.create ?name ~init () in
    created := (fun () -> S.scan_retries s) :: !created;
    s

  let write s v =
    T.enter `Write;
    S.write s v;
    T.leave ()

  let scan s =
    T.enter `Scan;
    let view = S.scan s in
    T.leave ();
    view

  let scan_into s out =
    T.enter `Scan;
    S.scan_into s out;
    T.leave ()

  let flush_retries () =
    let t = mine () in
    List.iter (fun f -> t.retries <- t.retries + f ()) !created;
    created := []
end

(* ---- one consensus instance, wired like Run.consensus_once ------------- *)

type snapshot = Handshake | Embedded

type instance = {
  steps : int;
  completed : bool;
  decisions : bool option array;
  stats : Ads89.stats;
}

let adversary = function
  | Run.Round_robin_sched -> Adversary.round_robin ()
  | Run.Random_sched -> Adversary.random ()
  | s -> invalid_arg ("Wired.adversary: " ^ Run.sched_name s)

(* [Run.consensus_once ~sim] for the [Ads]/[Ads_esnap] algorithms with
   random inputs and no faults, over [Timed] and [Counted]. *)
let consensus ~sim ~snapshot ~coin_mode ~sched ~params ~max_steps ~n ~seed =
  let t0 = Meter.now_ns () in
  let inputs = Run.inputs_of_pattern Run.Random_inputs ~n ~seed in
  Sim.reset ~seed ~adversary:(adversary sched) sim;
  let module T = Timed ((val Sim.runtime sim)) in
  let (module C : Consensus_intf.S), flush =
    match snapshot with
    | Handshake ->
      let module S = Counted (T) (Bprc_snapshot.Handshake.Make (T)) in
      ((module Ads89.Make_over_snapshot (T) (S)), S.flush_retries)
    | Embedded ->
      let module S = Counted (T) (Bprc_snapshot.Embedded.Make (T)) in
      ((module Ads89.Make_over_snapshot (T) (S)), S.flush_retries)
  in
  let t = C.create ~params ~coin_mode ~oracle_seed:seed () in
  let handles =
    Array.init n (fun i ->
        Sim.spawn sim (fun () ->
            T.start ();
            let v = C.run t ~input:inputs.(i) in
            T.finish ();
            v))
  in
  let rec drive () =
    if Sim.clock sim >= max_steps then false
    else if Sim.step sim then drive ()
    else true
  in
  let tl = mine () in
  tl.build_ns <- tl.build_ns + (Meter.now_ns () - t0);
  tl.suspended <- -1;
  let completed = drive () in
  (mine ()).suspended <- -1;
  flush ();
  {
    steps = Sim.clock sim;
    completed;
    decisions = Array.map Sim.result handles;
    stats = C.stats t;
  }

(* ---- explorer registry configurations over the timed runtime ---------- *)

(* The explorer calls [setup] once per run.  Like the registry, the
   functor applications are memoized per arena (keyed on the physical
   runtime module, stable for the arena's life) in a domain-local
   table. *)
type 'm applied = {
  m : 'm;
  start : unit -> unit;
  finish : unit -> unit;
  rewind : unit -> unit;
  flush : unit -> unit;
}

(* Every memoized application, so retries of the last run on each arena
   can be flushed when a search ends. *)
let flushers_lock = Mutex.create ()
let flushers : (unit -> unit) list ref = ref []

let flush_all () =
  Mutex.protect flushers_lock (fun () -> List.iter (fun f -> f ()) !flushers)

let forget_all () = Mutex.protect flushers_lock (fun () -> flushers := [])

let memo make =
  let cache = Domain.DLS.new_key (fun () -> ref []) in
  fun rt ->
    let c = Domain.DLS.get cache in
    let k = Obj.repr rt in
    match List.find_opt (fun (k', _) -> k' == k) !c with
    | Some (_, a) -> a
    | None ->
      let a = make rt in
      c := (k, a) :: !c;
      Mutex.protect flushers_lock (fun () -> flushers := a.flush :: !flushers);
      a

let snapshot_for =
  memo (fun rt ->
      let module T = Timed ((val rt : Runtime_intf.S)) in
      let module S = Counted (T) (Bprc_snapshot.Handshake.Make (T)) in
      {
        m = (module S : Snapshot_intf.S);
        start = T.start;
        finish = T.finish;
        rewind = T.rewind;
        flush = S.flush_retries;
      })

let fresh_run a =
  a.flush ();
  a.rewind ()

(* The registry's snapshot-atomic program: update then scan on both
   processes, checked against P1-P3 and snapshot linearizability, with
   the checker scratch kept per arena as the registry keeps it. *)
let snapshot_atomic =
  let n = 2 in
  let prog = [| [ `Update 1; `Scan ]; [ `Update 11; `Scan ] |] in
  let module Snap_lin = Lin.Make ((val Specs.snapshot ~n ())) in
  let scratch = Domain.DLS.new_key (fun () -> ref []) in
  fun sim ->
    let rt = Sim.runtime sim in
    let a = snapshot_for rt in
    fresh_run a;
    let (module S) = a.m in
    let snap = S.create ~init:0 () in
    let ck, h =
      let cache = Domain.DLS.get scratch in
      let k = Obj.repr rt in
      match List.find_opt (fun (k', _) -> k' == k) !cache with
      | Some (_, ((ck, h) as entry)) ->
        Snap_checker.reset ck;
        Hist.clear h;
        entry
      | None ->
        let entry = (Snap_checker.create ~n ~init:0, Hist.create ()) in
        cache := (k, entry) :: !cache;
        entry
    in
    for i = 0 to n - 1 do
      ignore
        (Sim.spawn sim (fun () ->
             a.start ();
             List.iter
               (function
                 | `Update v ->
                   let s = Snap_checker.stamp ck in
                   S.write snap v;
                   let f = Snap_checker.stamp ck in
                   Snap_checker.record_write ck ~pid:i ~start_time:s
                     ~finish_time:f ~value:v;
                   Hist.record h ~pid:i ~start_time:s ~finish_time:f
                     (Specs.Update { pid = i; value = v })
                 | `Scan ->
                   let s = Snap_checker.stamp ck in
                   let view = S.scan snap in
                   let f = Snap_checker.stamp ck in
                   Snap_checker.record_scan ck ~pid:i ~start_time:s
                     ~finish_time:f ~view;
                   Hist.record h ~pid:i ~start_time:s ~finish_time:f
                     (Specs.Scan view))
               prog.(i);
             a.finish ()))
    done;
    fun () ->
      let ( let* ) = Result.bind in
      let* () = Snap_checker.check_regularity ck in
      let* () = Snap_checker.check_snapshot ck in
      let* () = Snap_checker.check_serializability ck in
      match Snap_lin.check_events (Hist.events_array h) with
      | Snap_lin.Linearizable _ -> Ok ()
      | Snap_lin.Not_linearizable -> Error "non-linearizable snapshot history"

let registry_twin = function
  | "snapshot-atomic" -> snapshot_atomic
  | name -> invalid_arg ("no wired twin for explorer config " ^ name)

(* Count and time calls of a setup and of the checks it returns.  On
   each domain, the time from a run's last access or from a closure's
   return to the next closure call or fiber resumption is the
   explorer's own: backtracking, arena resets, shard bookkeeping. *)
let closure_entry () =
  let t = mine () in
  let now = Meter.now_ns () in
  let since = if t.suspended >= 0 then t.suspended else t.released in
  if since >= 0 then t.explorer_ns <- t.explorer_ns + (now - since);
  t.suspended <- -1;
  t.released <- -1;
  now

let closure_exit t0 =
  let t = mine () in
  let now = Meter.now_ns () in
  t.closure_ns <- t.closure_ns + (now - t0);
  t.released <- now;
  t

let counted_setup (setup : Bprc_check.Explorer.setup) : Bprc_check.Explorer.setup =
 fun sim ->
  let t0 = closure_entry () in
  let check = setup sim in
  let t = closure_exit t0 in
  t.setups <- t.setups + 1;
  fun () ->
    let t0 = closure_entry () in
    let r = check () in
    let t = closure_exit t0 in
    t.checks <- t.checks + 1;
    r
