module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Pool = Bprc_harness.Pool
module Run = Bprc_harness.Run
module Stats = Bprc_harness.Stats
module Splitmix = Bprc_rng.Splitmix

type mode = Deterministic | Throughput

let modes =
  { Bprc_util.Axis.noun = "mode";
    tokens =
      [ ("deterministic", Deterministic); ("det", Deterministic);
        ("throughput", Throughput); ("thr", Throughput) ] }

type decided = {
  ticket : int;
  shard : int;
  decisions : bool option array;
  completed : bool;
  steps : int;
  resumes : int;
  rounds : int;
  inconsistent_reconstructions : int;
  spec_check : (unit, string) result;
  latency_s : float;
}

type stats = {
  submitted : int;
  overloaded : int;
  decided : int;
  delivered : int;
  violations : int;
  incomplete : int;
  corrupt : int;
  in_flight : int;
  max_in_flight : int;
  busy_s : float;
  decisions_per_sec : float;
  minor_words_per_instance : float;
  resumes_per_instance : float;
  lat_p50_s : float;
  lat_p99_s : float;
  rounds_hist : (int * int) list;
}

(* One admitted, not-yet-run instance. *)
type pending = {
  p_ticket : int;
  p_spec : Workload.spec;
  p_submitted_at : float;  (* wall clock; 0. in Deterministic mode *)
}

(* Rounds-to-decide are constant in expectation (E4), so a small fixed
   bucket array with an open-ended last bucket captures the whole
   histogram without allocation in the decide path. *)
let rounds_buckets = 32

type t = {
  pool : Pool.t;
  mode : mode;
  base : Splitmix.t;  (* ticket-forked; never advanced after create *)
  cap : int;
  batch : int;
  pending : pending Queue.t;
  ready : decided Queue.t;  (* decided, not yet delivered; ticket order *)
  (* (domain id, n, max_steps) -> reusable arena.  Workers only ever
     touch their own domain's arenas, but creation must be registered
     somewhere every shard can reach, hence one locked table. *)
  arenas : (int * int * int, Sim.t) Hashtbl.t;
  arenas_m : Mutex.t;
  lat : Stats.Ring.t;
  rounds_hist : int array;
  mutable next_ticket : int;
  mutable submitted : int;
  mutable overloaded : int;
  mutable decided_n : int;
  mutable delivered : int;
  mutable violations : int;
  mutable incomplete : int;
  mutable corrupt : int;
  mutable max_in_flight : int;
  mutable busy_s : float;
  mutable minor_words : float;  (* banked around dispatch, all domains *)
  mutable resumes : int;  (* summed over decided instances *)
  mutable closed : bool;
}

let create ?(mode = Deterministic) ?(seed = 1) ?(in_flight_cap = 1024)
    ?(lat_capacity = 4096) ~pool () =
  if in_flight_cap < 1 then
    invalid_arg "Engine.create: in_flight_cap must be >= 1";
  {
    pool;
    mode;
    base = Splitmix.create ~seed;
    cap = in_flight_cap;
    batch = max 32 (16 * Pool.workers pool);
    pending = Queue.create ();
    ready = Queue.create ();
    arenas = Hashtbl.create 16;
    arenas_m = Mutex.create ();
    lat = Stats.Ring.create ~capacity:lat_capacity;
    rounds_hist = Array.make rounds_buckets 0;
    next_ticket = 0;
    submitted = 0;
    overloaded = 0;
    decided_n = 0;
    delivered = 0;
    violations = 0;
    incomplete = 0;
    corrupt = 0;
    max_in_flight = 0;
    busy_s = 0.0;
    minor_words = 0.0;
    resumes = 0;
    closed = false;
  }

let in_flight t = Queue.length t.pending + Queue.length t.ready

let arenas_live t =
  Mutex.lock t.arenas_m;
  let k = Hashtbl.length t.arenas in
  Mutex.unlock t.arenas_m;
  k

(* Never asked to choose: [Run.consensus_once ~sim] resets the arena
   with the instance's own adversary before the first step. *)
let arena_init_adversary =
  Adversary.make ~name:"service-arena-init" (fun ctx -> ctx.runnable.(0))

let arena t ~n ~max_steps =
  let key = ((Domain.self () :> int), n, max_steps) in
  Mutex.lock t.arenas_m;
  let sim =
    match Hashtbl.find_opt t.arenas key with
    | Some sim -> sim
    | None ->
      let sim =
        Sim.create ~seed:0 ~max_steps ~n ~adversary:arena_init_adversary ()
      in
      Hashtbl.add t.arenas key sim;
      sim
  in
  Mutex.unlock t.arenas_m;
  sim

(* ---- submission -------------------------------------------------------- *)

let submit t spec =
  if t.closed then invalid_arg "Engine.submit: engine is shut down";
  if spec.Workload.n < 1 || spec.Workload.max_steps < 1 then
    invalid_arg "Engine.submit: malformed spec";
  if in_flight t >= t.cap then begin
    t.overloaded <- t.overloaded + 1;
    `Overloaded
  end
  else begin
    let ticket = t.next_ticket in
    t.next_ticket <- ticket + 1;
    t.submitted <- t.submitted + 1;
    let at =
      match t.mode with
      | Throughput -> Unix.gettimeofday ()
      | Deterministic -> 0.0
    in
    Queue.push { p_ticket = ticket; p_spec = spec; p_submitted_at = at }
      t.pending;
    let fl = in_flight t in
    if fl > t.max_in_flight then t.max_in_flight <- fl;
    `Accepted ticket
  end

let submit_batch t specs = List.map (fun s -> submit t s) specs

(* ---- dispatch ---------------------------------------------------------- *)

(* Runs on a pool worker.  Everything it reads from [t] is either
   immutable after [create] ([mode], [base] — forking never advances
   it) or guarded ([arenas]); everything mutable is written by the
   driving domain after the pool barrier. *)
let run_instance t (p : pending) =
  let spec = p.p_spec in
  let sim = arena t ~n:spec.Workload.n ~max_steps:spec.Workload.max_steps in
  let seed = Splitmix.bits30 (Splitmix.fork t.base p.p_ticket) in
  let r =
    Run.consensus_once ~sim ~params:spec.Workload.params
      ~max_steps:spec.Workload.max_steps ~sched:spec.Workload.sched
      ~faults:spec.Workload.faults ~algo:spec.Workload.algo
      ~pattern:spec.Workload.pattern ~n:spec.Workload.n ~seed ()
  in
  let latency_s, shard =
    match t.mode with
    | Deterministic -> (0.0, -1)
    | Throughput ->
      (Unix.gettimeofday () -. p.p_submitted_at, (Domain.self () :> int))
  in
  {
    ticket = p.p_ticket;
    shard;
    decisions = r.Run.decisions;
    completed = r.Run.completed;
    steps = r.Run.steps;
    resumes = Sim.resumes sim;
    rounds = r.Run.max_round;
    inconsistent_reconstructions = r.Run.inconsistent_reconstructions;
    spec_check = r.Run.spec;
    latency_s;
  }

let account t (d : decided) =
  t.decided_n <- t.decided_n + 1;
  t.resumes <- t.resumes + d.resumes;
  (match d.spec_check with
  | Error _ -> t.violations <- t.violations + 1
  | Ok () -> ());
  if not d.completed then t.incomplete <- t.incomplete + 1;
  if d.inconsistent_reconstructions > 0 then t.corrupt <- t.corrupt + 1;
  let b = min d.rounds (rounds_buckets - 1) in
  t.rounds_hist.(b) <- t.rounds_hist.(b) + 1;
  if t.mode = Throughput then Stats.Ring.add t.lat d.latency_s

(* One pool round over up to [batch] pending instances.  [Pool.map]
   lands results at their index, and the pending queue is FIFO, so the
   ready queue stays in ticket order at any worker count. *)
let dispatch t =
  let k = min t.batch (Queue.length t.pending) in
  if k > 0 then begin
    let items = Array.init k (fun _ -> Queue.pop t.pending) in
    let t0 = Unix.gettimeofday () in
    (* Bank the allocation of the round across all domains: the
       driving domain's own minor words plus the helpers' banked
       counters ({!Pool.helper_minor_words} is read between jobs, from
       this domain, so the deltas are exact). *)
    let h0 = Pool.helper_minor_words t.pool in
    let m0 = Gc.minor_words () in
    let out = Pool.map t.pool k (fun i -> run_instance t items.(i)) in
    t.busy_s <- t.busy_s +. (Unix.gettimeofday () -. t0);
    t.minor_words <-
      t.minor_words
      +. (Gc.minor_words () -. m0)
      +. (Pool.helper_minor_words t.pool -. h0);
    Array.iter
      (fun d ->
        account t d;
        Queue.push d t.ready)
      out
  end

(* ---- consumption ------------------------------------------------------- *)

let rec next_decided t =
  match Queue.take_opt t.ready with
  | Some d ->
    t.delivered <- t.delivered + 1;
    Some d
  | None ->
    if Queue.is_empty t.pending then None
    else begin
      dispatch t;
      next_decided t
    end

let drain t =
  while not (Queue.is_empty t.pending) do
    dispatch t
  done;
  let out = List.of_seq (Queue.to_seq t.ready) in
  t.delivered <- t.delivered + Queue.length t.ready;
  Queue.clear t.ready;
  out

(* ---- stats / lifecycle ------------------------------------------------- *)

let stats t =
  let rounds_hist =
    let acc = ref [] in
    for b = rounds_buckets - 1 downto 0 do
      if t.rounds_hist.(b) > 0 then acc := (b, t.rounds_hist.(b)) :: !acc
    done;
    !acc
  in
  {
    submitted = t.submitted;
    overloaded = t.overloaded;
    decided = t.decided_n;
    delivered = t.delivered;
    violations = t.violations;
    incomplete = t.incomplete;
    corrupt = t.corrupt;
    in_flight = in_flight t;
    max_in_flight = t.max_in_flight;
    busy_s = t.busy_s;
    decisions_per_sec =
      (if t.busy_s > 0.0 then float_of_int t.decided_n /. t.busy_s else nan);
    minor_words_per_instance =
      (if t.decided_n > 0 then t.minor_words /. float_of_int t.decided_n
       else nan);
    resumes_per_instance =
      (if t.decided_n > 0 then
         float_of_int t.resumes /. float_of_int t.decided_n
       else nan);
    lat_p50_s = Stats.Ring.p50 t.lat;
    lat_p99_s = Stats.Ring.p99 t.lat;
    rounds_hist;
  }

let shutdown t =
  if not t.closed then begin
    (* Run everything already admitted so the counters account for
       every accepted ticket; the results stay consumable. *)
    while not (Queue.is_empty t.pending) do
      dispatch t
    done;
    Mutex.lock t.arenas_m;
    Hashtbl.reset t.arenas;
    Mutex.unlock t.arenas_m;
    t.closed <- true
  end
