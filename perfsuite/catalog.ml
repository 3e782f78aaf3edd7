(* The benchmark's definition: its workloads and its metrics.
   BENCHMARK.json at the repository root restates this table for the
   tools that read the benchmark from outside; [suite.exe smoke] checks
   that the two agree. *)

(* Load for every pooled workload: one process and a one-worker pool, so
   everything runs on the calling domain.  A second domain on a shared
   two-core host measures the host's scheduler: with two workers the
   same serve-n4 samples spread about twice as wide, since every minor
   collection stops both domains whenever either one is descheduled.
   The traced run still measures a two-worker pool for the per-layer
   pool metrics. *)
let workers = 1

type kind =
  | Serve_closed of { n : int; clients : int; instances : int; max_steps : int }
      (** closed loop: [clients] requests in flight, each replaced as
          soon as it is decided; one sample decides [instances]
          instances *)
  | Check of {
      config : string;  (** {!Bprc_check.Config} registry name *)
      reduction : bool option;  (** [None]: as the config sets it *)
      max_runs : int option;  (** [None]: the search must exhaust *)
      searches : int;  (** searches per sample *)
    }
  | Large of { n : int; decisions : int; max_steps : int }
      (** one ADS89-over-embedded-snapshot oracle-coin decision after
          another, on one domain *)

(* [sample_s] is how many seconds of a run's [--seconds] one sample
   stands for, about what one sample takes on a 2-vCPU Xeon VM: a run
   takes [--seconds / sample_s] samples (at least three), so every
   commit does the same work for the same [--seconds], and a run's peak
   memory does not depend on how fast the commit is. *)
type workload = { name : string; why : string; kind : kind; sample_s : float }

(* Instances use the round-robin scheduler.  Under the random and
   bursty schedulers roughly one n=4 instance in 8,000 livelocks and a
   rarer one decides inconsistently, and some n=128 decisions slow to
   over a millisecond per step, so a seeded run would fail or stall at
   random.  Those belong to correctness and scaling fixes, not to a
   speed benchmark. *)
let workloads =
  [
    {
      name = "serve-n4";
      why =
        "closed loop, 64 clients, short n=4 instances (~1.8k steps): engine \
         queueing, Sim.reset, protocol create and batching are a visible \
         share of capacity";
      kind =
        Serve_closed { n = 4; clients = 64; instances = 6_000; max_steps = 100_000 };
      sample_s = 1.45;
    };
    {
      name = "check-snapshot-sweep";
      why =
        "exhaustive unreduced sweep of the snapshot-atomic explorer config \
         (30,448 schedule runs): replay, checkpoint ladder and \
         linearizability checks";
      kind =
        Check
          {
            config = "snapshot-atomic";
            reduction = Some false;
            max_runs = None;
            searches = 1;
          };
      sample_s = 0.15;
    };
    {
      name = "large-n128";
      why =
        "n=128 decisions over the embedded snapshot with the oracle coin \
         (228k steps each): strip decode and snapshot code set the time, not \
         the simulator";
      kind = Large { n = 128; decisions = 1; max_steps = 20_000_000 };
      sample_s = 0.27;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type better = Higher | Lower

type metric = {
  m_name : string;
  m_unit : string;
  better : better;
  bound : float;  (** share of the baseline median; end-to-end only *)
}

let better_name = function Higher -> "higher" | Lower -> "lower"

let e2e name unit_ better bound =
  { m_name = name; m_unit = unit_; better; bound }

(* An op is what a workload serves: a decided instance (the serve
   workloads), an explored schedule run (check) or a decision (large).
   A request, whose latency is timed, is an instance, one whole search,
   or one decision. *)
let end_to_end =
  [
    e2e "ops_per_s" "1/s" Higher 0.20;
    e2e "latency_p50_ms" "ms" Lower 0.20;
    e2e "latency_p90_ms" "ms" Lower 0.20;
    e2e "peak_rss_mb" "MiB" Lower 0.10;
    e2e "setup_s" "s" Lower 0.25;
  ]

let layer name unit_ better = { m_name = name; m_unit = unit_; better; bound = 0.0 }

(* Every traced run reports all of these.  A layer that is not on a
   workload's path reports 0 for its counts and shares; the micro rows
   (ns_per_step, decode_us, scan_us, walk_step_ns) are measured on every
   workload at its own n, scheduler and snapshot. *)
let per_layer =
  [
    layer "runtime.ns_per_step" "ns" Lower;
    layer "runtime.words_per_step" "words" Lower;
    layer "runtime.self_ns_per_step" "ns" Lower;
    layer "runtime.steps_per_op" "steps" Lower;
    layer "runtime.frac" "frac" Lower;
    layer "snapshot.scans_per_op" "count" Lower;
    layer "snapshot.accesses_per_scan" "count" Lower;
    layer "snapshot.retries_per_scan" "count" Lower;
    layer "snapshot.self_ns_per_step" "ns" Lower;
    layer "snapshot.frac" "frac" Lower;
    layer "snapshot.scan_us" "us" Lower;
    layer "strip.decode_us" "us" Lower;
    layer "core.self_ns_per_step" "ns" Lower;
    layer "core.frac" "frac" Lower;
    layer "core.rounds_per_op" "count" Lower;
    layer "core.writes_per_op" "count" Lower;
    layer "coin.walk_steps_per_op" "count" Lower;
    layer "coin.flips_per_op" "count" Lower;
    layer "coin.walk_step_ns" "ns" Lower;
    layer "service.overhead_frac" "frac" Lower;
    layer "service.pool_efficiency" "ratio" Higher;
    layer "service.instances_per_dispatch" "count" Higher;
    layer "service.busy_frac" "frac" Lower;
    layer "request.latency_p99_ms" "ms" Lower;
    layer "service.minor_words_per_instance" "words" Lower;
    layer "check.setups_per_run" "count" Lower;
    layer "check.checks_per_run" "count" Lower;
    layer "check.speculation_ratio" "ratio" Lower;
    layer "check.parallel_speedup" "ratio" Higher;
    layer "check.ladder_resumes_per_run" "count" Higher;
    layer "check.ladder_regens_per_run" "count" Lower;
    layer "check.pruned_frac" "frac" Lower;
    layer "check.closure_frac" "frac" Lower;
    layer "check.explorer_frac" "frac" Lower;
    layer "gc.minor_words_per_op" "words" Lower;
    layer "gc.major_collections_per_op" "count" Lower;
    layer "ledger.build_frac" "frac" Lower;
    layer "ledger.idle_frac" "frac" Lower;
    layer "ledger.accounted_frac" "frac" Higher;
    layer "trace.overhead_frac" "frac" Lower;
  ]
