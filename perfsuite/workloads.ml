(* The untraced workloads: set-up, and one timed sample of fixed work.
   Every sample of a run replays the same seeded inputs on a fresh
   engine or search, so samples differ only by machine noise, and each
   sample's outputs are checked. *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Pool = Bprc_harness.Pool
module Run = Bprc_harness.Run
module E = Bprc_service.Engine
module Explorer = Bprc_check.Explorer
module Config = Bprc_check.Config
module Splitmix = Bprc_rng.Splitmix
open Catalog

(* One ADS89 instance as the workload saw it. *)
type instance = {
  steps : int;
  rounds : int;
  completed : bool;
  decisions : bool option array;
}

type sample = {
  wall_s : float;
  ops : int;
  latencies_s : float array;  (** one per completed request *)
  attempted : int;  (** requests *)
  failed : int;
      (** requests that hit their step bound, were refused, or (for an
          exhaustive search) did not exhaust *)
  violations : string list;  (** wrong outputs *)
  exact : (string * int) list;  (** counts every sample must repeat *)
  instances : instance array;  (** serve and large workloads, by ticket *)
  searches : Explorer.stats list;  (** check workloads *)
  busy_s : float;  (** engine dispatch time (serve) *)
  dispatches : int;  (** engine pool rounds (serve) *)
  engine_words_per_instance : float;
  minor_words : float;  (** all domains *)
  major_collections : int;
}

(* The seed of instance or decision [i] of a run seeded [seed]: the
   engine's own per-ticket derivation, so a direct replay of ticket [i]
   reproduces the engine's instance exactly. *)
let instance_seed ~seed i =
  Splitmix.bits30 (Splitmix.fork (Splitmix.create ~seed) i)

let instance_spec ~n ~max_steps =
  Bprc_service.Workload.spec ~sched:Run.Round_robin_sched ~max_steps ~n ()

let scaled scale k = max 1 (int_of_float (Float.round (float_of_int k *. scale)))

(* A pool whose helper domain is already running. *)
let spawn_pool ~workers =
  let pool = Pool.create ~workers () in
  ignore (Pool.map pool workers Fun.id : int array);
  pool

let base_sample =
  {
    wall_s = 0.0;
    ops = 0;
    latencies_s = [||];
    attempted = 0;
    failed = 0;
    violations = [];
    exact = [];
    instances = [||];
    searches = [];
    busy_s = 0.0;
    dispatches = 0;
    engine_words_per_instance = nan;
    minor_words = 0.0;
    major_collections = 0;
  }

let no_instance = { steps = 0; rounds = 0; completed = false; decisions = [||] }

(* Order-sensitive digest of per-instance outcomes: equal digests mean
   every instance took the same steps to the same decisions. *)
let digest (xs : instance array) =
  Array.fold_left
    (fun h i ->
      let d =
        Array.fold_left
          (fun a v ->
            (a * 3) + match v with None -> 0 | Some false -> 1 | Some true -> 2)
          0 i.decisions
      in
      ((h * 1_000_003) + (i.steps * 31) + d) land max_int)
    17 xs

let instance_exact xs =
  [
    ("instances", Array.length xs);
    ("steps", Array.fold_left (fun a i -> a + i.steps) 0 xs);
    ("digest", digest xs);
  ]

(* ---- serve ------------------------------------------------------------- *)

(* The client's side of one engine: submissions and deliveries, with
   spans around each call when a traced run asks for them.  It mirrors
   the engine's queue lengths (pending, ready) from outside so it can
   tell which [next_decided] calls dispatched a batch: the engine pops
   up to [max 32 (16 * workers)] pending instances into one pool round
   whenever nothing decided is ready. *)
type client = {
  engine : E.t;
  spec : Bprc_service.Workload.spec;
  spans : Spans.t option;
  root : int;
  batch : int;
  mutable pending : int;
  mutable ready : int;
  mutable dispatches : int;
}

let client ?spans ~pool ~seed ~spec ~cap ~requests () =
  let engine =
    E.create ~mode:E.Throughput ~seed ~in_flight_cap:cap
      ~lat_capacity:(max 1 requests) ~pool ()
  in
  let root =
    match spans with
    | Some s -> Spans.open_ s ~name:Spans.sample ~parent:(-1) ~id:(-1)
    | None -> -1
  in
  {
    engine;
    spec;
    spans;
    root;
    batch = max 32 (16 * Pool.workers pool);
    pending = 0;
    ready = 0;
    dispatches = 0;
  }

let submit c =
  let sp =
    match c.spans with
    | Some s -> Spans.open_ s ~name:Spans.submit ~parent:c.root ~id:(-1)
    | None -> -1
  in
  let r = E.submit c.engine c.spec in
  (match (c.spans, r) with
  | Some s, `Accepted t ->
    Spans.close s sp;
    Spans.set_id s sp t
  | Some s, `Overloaded -> Spans.close s sp
  | None, _ -> ());
  (match r with `Accepted _ -> c.pending <- c.pending + 1 | `Overloaded -> ());
  r

let next_decided c =
  let dispatching = c.ready = 0 && c.pending > 0 in
  if dispatching then begin
    let k = min c.batch c.pending in
    c.pending <- c.pending - k;
    c.ready <- c.ready + k;
    c.dispatches <- c.dispatches + 1
  end;
  let sp =
    match c.spans with
    | Some s ->
      Spans.open_ s
        ~name:(if dispatching then Spans.dispatch else Spans.next_decided)
        ~parent:c.root ~id:(-1)
    | None -> -1
  in
  let d = E.next_decided c.engine in
  (match d with Some _ -> c.ready <- c.ready - 1 | None -> ());
  (match (c.spans, d) with
  | Some s, Some d ->
    Spans.close s sp;
    Spans.set_id s sp d.E.ticket
  | Some s, None -> Spans.close s sp
  | None, _ -> ());
  d

let finish c =
  Option.iter (fun s -> Spans.close s c.root) c.spans;
  let st = E.stats c.engine in
  E.shutdown c.engine;
  st

let record (d : E.decided) =
  {
    steps = d.E.steps;
    rounds = d.E.rounds;
    completed = d.E.completed;
    decisions = d.E.decisions;
  }

let verdict violations (d : E.decided) =
  match d.E.spec_check with
  | Ok () -> ()
  | Error e ->
    violations := Printf.sprintf "ticket %d: %s" d.E.ticket e :: !violations

(* Closed loop: [clients] requests in flight — submit until the engine's
   window of [clients] refuses, then consume one decision.  Latency runs
   from each submission to its delivery. *)
let serve_closed ?spans ~pool ~seed ~spec ~clients ~count () =
  let c = client ?spans ~pool ~seed ~spec ~cap:clients ~requests:count () in
  let submitted_at = Array.make count 0 in
  let lat = Array.make count nan in
  let out = Array.make count no_instance in
  let failed = ref 0 and violations = ref [] in
  let deliver (d : E.decided) =
    let t = d.E.ticket in
    lat.(t) <- Meter.ns_to_s (Meter.now_ns () - submitted_at.(t));
    out.(t) <- record d;
    if not d.E.completed then incr failed;
    verdict violations d
  in
  let m0 = Meter.gc_mark (Some pool) in
  let t0 = Meter.now_ns () in
  let submitted = ref 0 in
  while !submitted < count do
    let at = Meter.now_ns () in
    match submit c with
    | `Accepted t ->
      submitted_at.(t) <- at;
      incr submitted
    | `Overloaded -> (
      match next_decided c with
      | Some d -> deliver d
      | None -> failwith "engine refused a submission with nothing in flight")
  done;
  let rec drain () =
    match next_decided c with
    | Some d ->
      deliver d;
      drain ()
    | None -> ()
  in
  drain ();
  let wall_s = Meter.since_s t0 in
  let minor_words, major_collections = Meter.gc_delta (Some pool) m0 in
  let st = finish c in
  {
    base_sample with
    wall_s;
    ops = count;
    latencies_s = lat;
    attempted = count;
    failed = !failed;
    violations = !violations;
    exact = instance_exact out;
    instances = out;
    busy_s = st.E.busy_s;
    dispatches = c.dispatches;
    engine_words_per_instance = st.E.minor_words_per_instance;
    minor_words;
    major_collections;
  }

(* ---- check ------------------------------------------------------------- *)

let config name =
  match Config.find name with
  | Some c -> c
  | None -> failwith ("unknown explorer config " ^ name)

let explore ?pool ?(setup : Explorer.setup option) ~(cfg : Config.t) ~reduction
    ~max_runs () =
  let setup = Option.value setup ~default:cfg.Config.setup in
  Explorer.explore ~n:cfg.Config.n ~max_steps:cfg.Config.max_steps ?max_runs
    ~reduction ?pool ~setup ()

let search_exact (s : Explorer.stats) =
  [
    ("runs", s.Explorer.runs);
    ("pruned", s.Explorer.pruned);
    ("step_limited", s.Explorer.step_limited);
    ("exhausted", Bool.to_int s.Explorer.exhausted);
  ]

(* A search fails when it must exhaust and does not; a violation on a
   clean registry config is a wrong output. *)
let search_verdict ~(cfg : Config.t) ~max_runs (s : Explorer.stats) =
  let failed = max_runs = None && not s.Explorer.exhausted in
  let violation =
    match s.Explorer.violation with
    | Some w when not cfg.Config.expect_violation ->
      Some (Printf.sprintf "%s: violation: %s" cfg.Config.name w.Explorer.failure)
    | _ -> None
  in
  (failed, violation)

let check_sample ~pool ~cfg ~reduction ~max_runs ~searches =
  let lat = Array.make searches nan in
  let stats = ref [] and failed = ref 0 and violations = ref [] in
  let m0 = Meter.gc_mark (Some pool) in
  let t0 = Meter.now_ns () in
  for i = 0 to searches - 1 do
    let t = Meter.now_ns () in
    let s = explore ~pool ~cfg ~reduction ~max_runs () in
    lat.(i) <- Meter.since_s t;
    let f, v = search_verdict ~cfg ~max_runs s in
    if f then incr failed;
    Option.iter (fun v -> violations := v :: !violations) v;
    stats := s :: !stats
  done;
  let wall_s = Meter.since_s t0 in
  let minor_words, major_collections = Meter.gc_delta (Some pool) m0 in
  let stats = List.rev !stats in
  {
    base_sample with
    wall_s;
    ops = List.fold_left (fun a s -> a + s.Explorer.runs) 0 stats;
    latencies_s = lat;
    attempted = searches;
    failed = !failed;
    violations = !violations;
    exact = ("searches", searches) :: search_exact (List.hd stats);
    searches = stats;
    minor_words;
    major_collections;
  }

(* ---- large n ----------------------------------------------------------- *)

let large_algo = Run.Ads_esnap Bprc_core.Ads89.Oracle_shared
let large_sched = Run.Round_robin_sched

let large_sample ~arena ~n ~max_steps ~seeds =
  let k = Array.length seeds in
  let lat = Array.make k nan in
  let failed = ref 0 and violations = ref [] in
  let m0 = Meter.gc_mark None in
  let t0 = Meter.now_ns () in
  let out =
    Array.mapi
      (fun i seed ->
        let t = Meter.now_ns () in
        let r =
          Run.consensus_once ~sim:arena ~max_steps ~sched:large_sched
            ~algo:large_algo ~pattern:Run.Random_inputs ~n ~seed ()
        in
        lat.(i) <- Meter.since_s t;
        if not r.Run.completed then incr failed;
        (match r.Run.spec with
        | Ok () -> ()
        | Error e ->
          violations := Printf.sprintf "decision %d: %s" i e :: !violations);
        {
          steps = r.Run.steps;
          rounds = r.Run.max_round;
          completed = r.Run.completed;
          decisions = r.Run.decisions;
        })
      seeds
  in
  let wall_s = Meter.since_s t0 in
  let minor_words, major_collections = Meter.gc_delta None m0 in
  {
    base_sample with
    wall_s;
    ops = k;
    latencies_s = lat;
    attempted = k;
    failed = !failed;
    violations = !violations;
    exact = instance_exact out;
    instances = out;
    minor_words;
    major_collections;
  }

(* Never asked to choose: [Run.consensus_once ~sim] resets the arena
   with its own adversary first. *)
let idle_adversary = Adversary.make ~name:"arena" (fun ctx -> ctx.runnable.(0))

let arena ~n ~max_steps = Sim.create ~seed:0 ~max_steps ~n ~adversary:idle_adversary ()

(* ---- set-up ------------------------------------------------------------ *)

(* Set-up ends with a cold-start probe of fixed work, so the set-up time
   covers what a fresh serving stack pays before its first answers
   (helper domain, arenas, first-use paths) and any work a change moves
   out of the ops into set-up.  The probe's inputs do not depend on the
   run's seed. *)
let probe_seed = 0x5E7

let probe_engine ~pool ~spec =
  let engine = E.create ~mode:E.Throughput ~seed:probe_seed ~pool () in
  for _ = 1 to max 32 (16 * Pool.workers pool) do
    ignore (E.submit engine spec : [ `Accepted of int | `Overloaded ])
  done;
  ignore (E.drain engine : E.decided list);
  E.shutdown engine

let probe_runs = 256

(* Everything a run builds before its first op: the pool with its helper
   domain running, the seeded inputs, and the arena the large workload
   reuses.  [scale] shrinks the per-sample work (smoke runs). *)
type inputs =
  | Closed of {
      pool : Pool.t;
      seed : int;
      spec : Bprc_service.Workload.spec;
      clients : int;
      count : int;
    }
  | Search of {
      pool : Pool.t;
      cfg : Config.t;
      reduction : bool;
      max_runs : int option;
      searches : int;
    }
  | Decisions of { arena : Sim.t; n : int; max_steps : int; seeds : int array }

let prepare ~scale ~seed w =
  match w.kind with
  | Serve_closed { n; clients; instances; max_steps } ->
    let pool = spawn_pool ~workers and spec = instance_spec ~n ~max_steps in
    probe_engine ~pool ~spec;
    Closed { pool; seed; spec; clients; count = scaled scale instances }
  | Check { config = name; reduction; max_runs; searches } ->
    let pool = spawn_pool ~workers and cfg = config name in
    let reduction = Option.value reduction ~default:cfg.Config.reduction in
    ignore
      (explore ~pool ~cfg ~reduction ~max_runs:(Some probe_runs) ()
        : Explorer.stats);
    Search
      {
        pool;
        cfg;
        reduction;
        max_runs = Option.map (scaled scale) max_runs;
        searches = scaled scale searches;
      }
  | Large { n; decisions; max_steps } ->
    (* A decision cannot be cut short, so a scaled-down run shrinks n
       instead (steps grow about as n squared). *)
    let n =
      if scale >= 1.0 then n
      else max 4 (int_of_float (Float.round (float_of_int n *. sqrt scale)))
    in
    let arena = arena ~n ~max_steps in
    let seeds = Array.init (scaled scale decisions) (instance_seed ~seed) in
    (* One decision's construction — protocol, snapshot, n fibers — cut
       after its first step. *)
    ignore
      (Run.consensus_once ~sim:arena ~max_steps:1 ~sched:large_sched
         ~algo:large_algo ~pattern:Run.Random_inputs ~n ~seed:probe_seed ()
        : Run.consensus_run);
    Decisions { arena; n; max_steps; seeds }

(* One fixed-work sample. *)
let sample ?spans = function
  | Closed { pool; seed; spec; clients; count } ->
    serve_closed ?spans ~pool ~seed ~spec ~clients ~count ()
  | Search { pool; cfg; reduction; max_runs; searches } ->
    check_sample ~pool ~cfg ~reduction ~max_runs ~searches
  | Decisions { arena; n; max_steps; seeds } ->
    large_sample ~arena ~n ~max_steps ~seeds

let pool = function
  | Closed { pool; _ } | Search { pool; _ } -> Some pool
  | Decisions _ -> None

let close inputs = Option.iter Pool.shutdown (pool inputs)
