(* The traced run of one workload: an untraced reference sample, the
   same work again through the wired runtime boundary with spans, the
   bare and two-worker replays the pool and service metrics compare
   against, and the micro rows — folded into the per-layer metrics and
   a ledger of where the worker time went. *)

module W = Workloads
module Pool = Bprc_harness.Pool
module Run = Bprc_harness.Run
module Explorer = Bprc_check.Explorer
module Config = Bprc_check.Config
module J = Bprc_util.Json
open Catalog

let span_capacity = 1 lsl 16

(* ---- the ledger -------------------------------------------------------- *)

type row = { layer : string; ns : float; basis : string }

type ledger = {
  label : string;
  workers : int;
  wall_ns : int;
  ops : int;
  steps : int;
  rows : row list;  (** runtime .. idle; the residual is derived *)
}

let worker_ns l = float_of_int (l.workers * l.wall_ns)

let residual l =
  worker_ns l -. List.fold_left (fun a r -> a +. r.ns) 0.0 l.rows

let share l ns = if l.wall_ns = 0 then 0.0 else ns /. worker_ns l
let accounted l = 1.0 -. (Float.abs (residual l) /. worker_ns l)
let row_ns l name = match List.find_opt (fun r -> r.layer = name) l.rows with Some r -> r.ns | None -> 0.0

(* [models] are predictions from the micro rows — the runtime at its
   raw-simulator cost — shown next to the measured rows but not
   summed. *)
let print_ledger l ~models ~spans ~overhead =
  let per_op ns = ns /. 1e3 /. float_of_int (max 1 l.ops) in
  Printf.printf "ledger: %s; %d ops, %d steps, wall %.3f s x %d workers\n"
    l.label l.ops l.steps (Meter.ns_to_s l.wall_ns) l.workers;
  Printf.printf "  %-10s %7s %11s %9s %9s  %s\n" "layer" "share" "us/op"
    "steps/op" "ns/step" "basis";
  let line name ns basis ~per_step =
    Printf.printf "  %-10s %6.1f%% %11.3f %9s %9s  %s\n" name
      (100.0 *. share l ns) (per_op ns)
      (if per_step then
         Printf.sprintf "%.1f" (float_of_int l.steps /. float_of_int (max 1 l.ops))
       else "")
      (if per_step && l.steps > 0 then
         Printf.sprintf "%.1f" (ns /. float_of_int l.steps)
       else "")
      basis
  in
  let stepwise r = List.mem r.layer [ "runtime"; "snapshot"; "core" ] in
  List.iter (fun r -> line r.layer r.ns r.basis ~per_step:(stepwise r)) l.rows;
  line "residual" (residual l) "not explained by the rows above" ~per_step:false;
  Printf.printf "  accounted %.1f%%, trace overhead %+.1f%%; models:\n"
    (100.0 *. accounted l) (100.0 *. overhead);
  List.iter (fun r -> line r.layer r.ns r.basis ~per_step:(stepwise r)) models;
  Printf.printf "  spans (mean and self time per span):\n";
  List.iter
    (fun s ->
      let per ns = Meter.ns_to_s ns *. 1e6 /. float_of_int s.Spans.count in
      Printf.printf "    %-14s %7d x %12.1f us, self %12.1f us\n" s.Spans.s_name
        s.Spans.count (per s.Spans.total_ns) (per s.Spans.self_ns))
    spans

let ledger_json l ~models ~overhead =
  let shares rows = J.Obj (List.map (fun r -> (r.layer, J.Float (share l r.ns))) rows) in
  J.Obj
    [
      ("label", J.Str l.label);
      ("workers", J.Int l.workers);
      ("wall_s", J.Float (Meter.ns_to_s l.wall_ns));
      ("ops", J.Int l.ops);
      ("steps", J.Int l.steps);
      ( "shares",
        shares (l.rows @ [ { layer = "residual"; ns = residual l; basis = "" } ])
      );
      ("models", shares models);
      ("accounted", J.Float (accounted l));
      ("trace_overhead", J.Float overhead);
    ]

(* Rows measured through the wired runtime boundary. *)
let layer_rows (t : Wired.tally) =
  [
    {
      layer = "runtime";
      ns = float_of_int t.Wired.sim_ns;
      basis = "measured: from an access to the next fiber resumption";
    };
    {
      layer = "snapshot";
      ns = float_of_int t.Wired.snap_ns;
      basis = "measured: compute inside snapshot writes and scans";
    };
    {
      layer = "core";
      ns = float_of_int t.Wired.core_ns;
      basis = "measured: compute between accesses outside the snapshot";
    };
  ]

let build_row (t : Wired.tally) =
  {
    layer = "build";
    ns = float_of_int t.Wired.build_ns;
    basis = "measured: Sim.reset, functors, protocol create, spawns";
  }

(* ---- micro rows -------------------------------------------------------- *)

type micro = {
  ns_per_step : float;
  words_per_step : float;
  decode_us : float;
  scan_us : float;
  walk_step_ns : float;
}

let micro ~quick ~n ~sched ~snapshot =
  let adversary () = Wired.adversary sched in
  let ns_per_step, words_per_step = Micro.raw_sim ~quick ~n ~adversary in
  {
    ns_per_step;
    words_per_step;
    decode_us =
      Micro.decode_us ~quick ~k:Bprc_core.Params.default.Bprc_core.Params.k ~n;
    scan_us = Micro.scan_us ~quick ~n ~adversary ~snapshot;
    walk_step_ns = Micro.walk_step_ns ~quick ~n:(min n 16);
  }

(* ---- serve ------------------------------------------------------------- *)

let arenas = Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let arena_for ~n ~max_steps =
  let h = Domain.DLS.get arenas in
  match Hashtbl.find_opt h (n, max_steps) with
  | Some s -> s
  | None ->
    let s = W.arena ~n ~max_steps in
    Hashtbl.add h (n, max_steps) s;
    s

let wiring (algo : Run.algo) =
  match algo with
  | Run.Ads m -> (Wired.Handshake, m)
  | Run.Ads_esnap m -> (Wired.Embedded, m)
  | Run.Ah -> invalid_arg "no wired form of the AH88 baseline"

(* Outcomes of a replay that disagree with the reference sample. *)
let mismatches ~what (reference : W.instance array) got =
  let bad = ref [] in
  Array.iteri
    (fun i (steps, decisions) ->
      let r = reference.(i) in
      if steps <> r.W.steps || decisions <> r.W.decisions then
        bad :=
          Printf.sprintf "%s: op %d took %d steps (reference %d) or decided differently"
            what i steps r.W.steps
          :: !bad)
    got;
  List.rev !bad

(* One instance of a serve spec on this domain's arena, through the
   wired boundary or straight through [Run.consensus_once]: (steps,
   decisions, walk steps, protocol writes). *)
let wired_instance ~(spec : Bprc_service.Workload.spec) seed =
  let n = spec.Bprc_service.Workload.n
  and max_steps = spec.Bprc_service.Workload.max_steps in
  let snapshot, coin_mode = wiring spec.Bprc_service.Workload.algo in
  let r =
    Wired.consensus ~sim:(arena_for ~n ~max_steps) ~snapshot ~coin_mode
      ~sched:spec.Bprc_service.Workload.sched
      ~params:spec.Bprc_service.Workload.params ~max_steps ~n ~seed
  in
  ( r.Wired.steps,
    r.Wired.decisions,
    r.Wired.stats.Bprc_core.Ads89.walk_steps,
    r.Wired.stats.Bprc_core.Ads89.writes )

let bare_instance ~(spec : Bprc_service.Workload.spec) seed =
  let n = spec.Bprc_service.Workload.n
  and max_steps = spec.Bprc_service.Workload.max_steps in
  let r =
    Run.consensus_once ~sim:(arena_for ~n ~max_steps)
      ~params:spec.Bprc_service.Workload.params ~max_steps
      ~sched:spec.Bprc_service.Workload.sched ~algo:spec.Bprc_service.Workload.algo
      ~pattern:spec.Bprc_service.Workload.pattern ~n ~seed ()
  in
  (r.Run.steps, r.Run.decisions, 0, 0)

type replay = {
  outcomes : (int * bool option array) array;
  wall_ns : int;
  busy_ns : int;  (** summed over instances *)
  walk : int;
  writes : int;
}

(* Instances by seed in engine-sized batches over [pool], without the
   engine, with a span per batch and per instance when [spans] is
   given. *)
let replay ?spans ~pool ~seeds instance =
  let k = Array.length seeds in
  let outcomes = Array.make k (0, [||]) and busy = Array.make k 0 in
  let walk = Array.make k 0 and writes = Array.make k 0 in
  let batch = max 32 (16 * Pool.workers pool) in
  let open_ name ~parent ~id =
    match spans with Some s -> Spans.open_ s ~name ~parent ~id | None -> -1
  in
  let close i = Option.iter (fun s -> Spans.close s i) spans in
  let root = open_ Spans.replay ~parent:(-1) ~id:(-1) in
  let t0 = Meter.now_ns () in
  let lo = ref 0 in
  while !lo < k do
    let base = !lo and m = min batch (k - !lo) in
    let b = open_ Spans.batch ~parent:root ~id:base in
    ignore
      (Pool.map pool m (fun j ->
           let t = base + j in
           let s0 = Meter.now_ns () in
           let sp = open_ Spans.instance ~parent:b ~id:t in
           let steps, decisions, w, wr = instance seeds.(t) in
           close sp;
           busy.(t) <- Meter.now_ns () - s0;
           walk.(t) <- w;
           writes.(t) <- wr;
           outcomes.(t) <- (steps, decisions))
        : unit array);
    close b;
    lo := base + m
  done;
  let wall_ns = Meter.now_ns () - t0 in
  close root;
  let sum a = Array.fold_left ( + ) 0 a in
  { outcomes; wall_ns; busy_ns = sum busy; walk = sum walk; writes = sum writes }

(* ---- one traced run ---------------------------------------------------- *)

type result = {
  metrics : (string * float) list;
  problems : string list;
  reference : W.sample;
  detail : (string * J.t) list;
}

let mean_of f (xs : W.instance array) =
  if Array.length xs = 0 then 0.0
  else
    float_of_int (Array.fold_left (fun a i -> a + f i) 0 xs)
    /. float_of_int (Array.length xs)

let finish ~(w : workload) ~micro ~ledger ~(tally : Wired.tally) ~ops
    ~overhead ~spans ~reference ~problems ~extra =
  let opsf = float_of_int (max 1 ops) in
  let steps = float_of_int (max 1 (Wired.steps tally)) in
  let scans = float_of_int (max 1 tally.Wired.scans) in
  let models =
    [
      {
        layer = "runtime";
        ns = float_of_int (Wired.steps tally) *. micro.ns_per_step;
        basis = "model: steps x runtime.ns_per_step (raw simulator)";
      };
    ]
  in
  let summary = Spans.summarize spans in
  Printf.printf "trace %s\n" w.name;
  print_ledger ledger ~models ~spans:summary ~overhead;
  let base =
    [
      ("runtime.ns_per_step", micro.ns_per_step);
      ("runtime.words_per_step", micro.words_per_step);
      ("runtime.self_ns_per_step", float_of_int tally.Wired.sim_ns /. steps);
      ("runtime.steps_per_op", float_of_int (Wired.steps tally) /. opsf);
      ("runtime.frac", share ledger (row_ns ledger "runtime"));
      ("snapshot.scans_per_op", float_of_int tally.Wired.scans /. opsf);
      ("snapshot.accesses_per_scan", float_of_int tally.Wired.scan_accesses /. scans);
      ("snapshot.retries_per_scan", float_of_int tally.Wired.retries /. scans);
      ("snapshot.self_ns_per_step", float_of_int tally.Wired.snap_ns /. steps);
      ("snapshot.frac", share ledger (row_ns ledger "snapshot"));
      ("snapshot.scan_us", micro.scan_us);
      ("strip.decode_us", micro.decode_us);
      ("core.self_ns_per_step", float_of_int tally.Wired.core_ns /. steps);
      ("core.frac", share ledger (row_ns ledger "core"));
      ("coin.flips_per_op", float_of_int tally.Wired.flips /. opsf);
      ("coin.walk_step_ns", micro.walk_step_ns);
      ( "gc.minor_words_per_op",
        reference.W.minor_words /. float_of_int (max 1 reference.W.ops) );
      ( "gc.major_collections_per_op",
        float_of_int reference.W.major_collections
        /. float_of_int (max 1 reference.W.ops) );
      ( "request.latency_p99_ms",
        1000.0 *. Meter.percentile 99.0 reference.W.latencies_s );
      ("ledger.build_frac", share ledger (row_ns ledger "build"));
      ("ledger.idle_frac", share ledger (row_ns ledger "idle"));
      ("ledger.accounted_frac", accounted ledger);
      ("trace.overhead_frac", overhead);
    ]
    @ extra
  in
  let metrics =
    List.map
      (fun m ->
        (m.m_name, Option.value (List.assoc_opt m.m_name base) ~default:0.0))
      per_layer
  in
  {
    metrics;
    problems;
    reference;
    detail =
      [
        ("ledger", ledger_json ledger ~models ~overhead);
        ( "span_summary",
          J.Arr
            (List.map
               (fun s ->
                 J.Obj
                   [
                     ("name", J.Str s.Spans.s_name);
                     ("count", J.Int s.Spans.count);
                     ("total_s", J.Float (Meter.ns_to_s s.Spans.total_ns));
                     ("self_s", J.Float (Meter.ns_to_s s.Spans.self_ns));
                   ])
               summary) );
        ("spans", Spans.to_json spans);
      ];
  }

let serve ~quick ~w ~inputs ~pool ~seed ~(spec : Bprc_service.Workload.spec) ~clients =
  let reference = W.sample inputs in
  let spans = Spans.create ~capacity:span_capacity in
  let traced = W.sample ~spans inputs in
  let ops = Array.length reference.W.instances in
  let seeds = Array.init ops (W.instance_seed ~seed) in
  (* The reference instances without the engine: bare, then wired; the
     ratio of the two walls is the tracing overhead. *)
  let bare = replay ~pool ~seeds (bare_instance ~spec) in
  Wired.reset ();
  let wired = replay ~spans ~pool ~seeds (wired_instance ~spec) in
  let tally = Wired.total () in
  (* The same sample on a two-worker pool, for the pool's efficiency. *)
  let pool2 = Pool.create ~workers:2 () in
  let two = W.serve_closed ~pool:pool2 ~seed ~spec ~clients ~count:ops () in
  Pool.shutdown pool2;
  let n = spec.Bprc_service.Workload.n in
  let snapshot, _ = wiring spec.Bprc_service.Workload.algo in
  let micro = micro ~quick ~n ~sched:spec.Bprc_service.Workload.sched ~snapshot in
  let ledger =
    {
      label = "wired replay of the reference sample";
      workers;
      wall_ns = wired.wall_ns;
      ops;
      steps = Wired.steps tally;
      rows =
        layer_rows tally
        @ [
            build_row tally;
            {
              layer = "idle";
              ns = float_of_int ((workers * wired.wall_ns) - wired.busy_ns);
              basis = "measured: workers outside an instance (batch barrier)";
            };
          ];
    }
  in
  let problems =
    Measure.problems [ reference; traced; two ]
    @ List.concat_map
        (fun (what, r) -> mismatches ~what reference.W.instances r.outcomes)
        [ ("wired replay", wired); ("bare replay", bare) ]
  in
  let opsf = float_of_int (max 1 ops) in
  finish ~w ~micro ~ledger ~tally ~ops
    ~overhead:((float_of_int wired.wall_ns /. float_of_int bare.wall_ns) -. 1.0)
    ~spans ~reference ~problems
    ~extra:
      [
        ("core.rounds_per_op", mean_of (fun i -> i.W.rounds) reference.W.instances);
        ("core.writes_per_op", float_of_int wired.writes /. opsf);
        ("coin.walk_steps_per_op", float_of_int wired.walk /. opsf);
        ( "service.overhead_frac",
          (reference.W.busy_s -. Meter.ns_to_s bare.wall_ns) /. reference.W.busy_s );
        ( "service.pool_efficiency",
          reference.W.busy_s /. (2.0 *. two.W.busy_s) );
        ( "service.instances_per_dispatch",
          float_of_int traced.W.ops /. float_of_int (max 1 traced.W.dispatches) );
        ("service.busy_frac", traced.W.busy_s /. traced.W.wall_s);
        ("service.minor_words_per_instance", traced.W.engine_words_per_instance);
      ]

let check ~quick ~w ~pool ~(cfg : Config.t) ~reduction ~max_runs ~inputs =
  let reference = W.sample inputs in
  let per_search = Meter.median (Array.to_list reference.W.latencies_s) in
  let expect = W.search_exact (List.hd reference.W.searches) in
  (* The registry program with its setups counted: on the workload's
     pool, then on a two-worker pool, for the parallel search's
     speculation and speed-up. *)
  let counted pool =
    Wired.reset ();
    let t0 = Meter.now_ns () in
    let s =
      W.explore ~pool ~cfg ~reduction ~max_runs
        ~setup:(Wired.counted_setup cfg.Config.setup) ()
    in
    (s, Meter.since_s t0, (Wired.total ()).Wired.setups)
  in
  let s1, _, setups1 = counted pool in
  let pool2 = Pool.create ~workers:2 () in
  let s_two, wall_two, setups_two = counted pool2 in
  Pool.shutdown pool2;
  (* The workload's pool, the registry program's wired twin. *)
  Wired.reset ();
  Wired.forget_all ();
  let spans = Spans.create ~capacity:16 in
  let r0, g0 = Explorer.ladder_counters () in
  let root = Spans.open_ spans ~name:Spans.search ~parent:(-1) ~id:0 in
  let t0 = Meter.now_ns () in
  let s2 =
    W.explore ~pool ~cfg ~reduction ~max_runs
      ~setup:(Wired.counted_setup (Wired.registry_twin cfg.Config.name)) ()
  in
  let wall_ns = Meter.now_ns () - t0 in
  Spans.close spans root;
  Wired.flush_all ();
  let r1, g1 = Explorer.ladder_counters () in
  let tally = Wired.total () in
  let runs = s2.Explorer.runs in
  let runsf = float_of_int (max 1 runs) in
  let micro =
    micro ~quick ~n:cfg.Config.n ~sched:Run.Round_robin_sched
      ~snapshot:Wired.Handshake
  in
  let ledger =
    {
      label = "search over the wired twin of the registry program";
      workers;
      wall_ns;
      ops = runs;
      steps = Wired.steps tally;
      rows =
        layer_rows tally
        @ [
            {
              layer = "closures";
              ns = float_of_int tally.Wired.closure_ns;
              basis = "measured: explorer setup and check closures";
            };
            {
              layer = "explorer";
              ns = float_of_int tally.Wired.explorer_ns;
              basis = "measured: between a run's end or a closure and the next";
            };
          ];
    }
  in
  let differs what s =
    if W.search_exact s = expect then []
    else [ Printf.sprintf "%s search differs from the reference search" what ]
  in
  let problems =
    Measure.problems [ reference ]
    @ differs "counted" s1 @ differs "two-worker" s_two @ differs "wired" s2
  in
  finish ~w ~micro ~ledger ~tally ~ops:runs
    ~overhead:((Meter.ns_to_s wall_ns /. per_search) -. 1.0)
    ~spans ~reference ~problems
    ~extra:
      [
        ("check.setups_per_run", float_of_int tally.Wired.setups /. runsf);
        ("check.checks_per_run", float_of_int tally.Wired.checks /. runsf);
        ( "check.speculation_ratio",
          float_of_int setups_two /. float_of_int (max 1 setups1) );
        ("check.parallel_speedup", per_search /. wall_two);
        ("check.ladder_resumes_per_run", float_of_int (r1 - r0) /. runsf);
        ("check.ladder_regens_per_run", float_of_int (g1 - g0) /. runsf);
        ("check.pruned_frac", float_of_int s2.Explorer.pruned /. runsf);
        ("check.closure_frac", share ledger (row_ns ledger "closures"));
        ("check.explorer_frac", share ledger (row_ns ledger "explorer"));
      ]

let large ~quick ~w ~inputs ~arena ~n ~max_steps ~seeds =
  let reference = W.sample inputs in
  let spans = Spans.create ~capacity:64 in
  Wired.reset ();
  let t0 = Meter.now_ns () in
  let wired =
    Array.mapi
      (fun i seed ->
        let sp = Spans.open_ spans ~name:Spans.decision ~parent:(-1) ~id:i in
        let r =
          Wired.consensus ~sim:arena ~snapshot:Wired.Embedded
            ~coin_mode:Bprc_core.Ads89.Oracle_shared ~sched:W.large_sched
            ~params:Bprc_core.Params.default ~max_steps ~n ~seed
        in
        Spans.close spans sp;
        r)
      seeds
  in
  let wall_ns = Meter.now_ns () - t0 in
  let tally = Wired.total () in
  let ops = Array.length seeds in
  let micro = micro ~quick ~n ~sched:W.large_sched ~snapshot:Wired.Embedded in
  let ledger =
    {
      label = "wired replay of the reference decisions";
      workers = 1;
      wall_ns;
      ops;
      steps = Wired.steps tally;
      rows = layer_rows tally @ [ build_row tally ];
    }
  in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 wired in
  let opsf = float_of_int (max 1 ops) in
  let problems =
    Measure.problems [ reference ]
    @ mismatches ~what:"wired replay" reference.W.instances
        (Array.map (fun r -> (r.Wired.steps, r.Wired.decisions)) wired)
  in
  finish ~w ~micro ~ledger ~tally ~ops
    ~overhead:((Meter.ns_to_s wall_ns /. reference.W.wall_s) -. 1.0)
    ~spans ~reference ~problems
    ~extra:
      [
        ("core.rounds_per_op", mean_of (fun i -> i.W.rounds) reference.W.instances);
        ( "core.writes_per_op",
          float_of_int (sum (fun r -> r.Wired.stats.Bprc_core.Ads89.writes))
          /. opsf );
        ( "coin.walk_steps_per_op",
          float_of_int (sum (fun r -> r.Wired.stats.Bprc_core.Ads89.walk_steps))
          /. opsf );
      ]

let run ~scale ~seed (w : workload) =
  let inputs, _ = Measure.set_up ~scale ~seed w in
  ignore (W.sample inputs : W.sample);
  let quick = scale < 1.0 in
  let r =
    match inputs with
    | W.Closed { pool; seed; spec; clients; _ } ->
      serve ~quick ~w ~inputs ~pool ~seed ~spec ~clients
    | W.Search { pool; cfg; reduction; max_runs; _ } ->
      check ~quick ~w ~pool ~cfg ~reduction ~max_runs ~inputs
    | W.Decisions { arena; n; max_steps; seeds } ->
      large ~quick ~w ~inputs ~arena ~n ~max_steps ~seeds
  in
  W.close inputs;
  {
    Outcome.workload = w.name;
    seed;
    correct = r.problems = [];
    problems = r.problems;
    attempted = r.reference.W.attempted;
    failed = r.reference.W.failed;
    metrics = r.metrics;
    samples = [];
    exact = r.reference.W.exact;
    detail = r.detail;
  }
