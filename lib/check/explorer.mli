(** Bounded exhaustive schedule explorer (stateless model checking).

    Enumerates every schedule (and every coin-flip outcome) of a small
    simulated configuration by repeatedly re-running it: each run
    replays a prefix of scheduling/flip decisions recorded in a
    persistent DFS tree, extends it greedily, and backtracks the deepest
    decision with an unexplored alternative.  The simulator is
    deterministic, so identical prefixes reach identical states and the
    tree enumerates exactly the reachable interleavings up to the step
    bound.

    {b Every run replays from the root.}  Each shard of the tree owns
    one simulator arena; a run is {!Bprc_runtime.Sim.reset} (which
    guarantees bit-identical behaviour to a fresh simulator and adopts
    the arena for the calling domain), [setup], and one drive down the
    run's decisions, so exploring thousands of schedules does not
    allocate thousands of process tables.  Effect continuations are
    one-shot, so a mid-run state cannot be copied; parking extra arenas
    at branch points would only move replay work, not remove it.

    {b Allocation discipline.}  DFS bookkeeping (candidate orders,
    branch indices, sleep sets, captured access codes) lives in
    depth-indexed int-array pools reused across runs, in the style of
    [Sim]'s scratch buffers, so steady-state exploration allocates O(1)
    words per run; the pending sleep set entering a fresh node is
    recomputed from the node below it rather than threaded through
    every step.

    Redundant interleavings are pruned with sleep sets (Godefroid-style
    partial-order reduction) keyed on each step's shared-memory access,
    as exposed by {!Bprc_runtime.Sim.last_access_code}: two steps commute
    unless they touch the same register and at least one writes.  The
    reduction is sound only when all cross-process communication goes
    through register reads/writes; configurations whose processes share
    hidden mutable state (e.g. registers weakened by
    {!Bprc_faults.Inject.weaken_runtime}, whose wrapper records
    overlapping writes in a shared table) must run with
    [reduction:false].  Explicit [yield] steps are conservatively
    treated as dependent with everything for the same reason.

    A violation is returned as a {!witness}: the schedule (runnable
    indices, in {!Bprc_runtime.Adversary.scripted} form) and flip
    sequence of the failing run, by default minimized with
    {!Bprc_faults.Shrink.ddmin} under replay validation.  An exception
    raised by a process body or by the check is a violation too, with
    failure ["raised: "] followed by the exception's
    [Printexc.to_string]; {!replay} classifies the same raise as
    {!Fail}, so such witnesses shrink and replay like any other.

    {b Parallel exploration.}  With a [?pool] wider than one worker,
    the tree is sharded by a {e work-stealing carve frontier}: a cheap
    probe pass walks the root truncated at a small depth, turning each
    never-visited frontier prefix into an independent child shard (its
    own DFS state, its own arena, its sleep set seeded from the
    prefix); rounds of geometrically growing run quotas fan the
    unfinished shards out over the pool, and any shard still fat when
    the live set thins is re-carved the same way — donating only its
    never-visited subtrees — so skewed trees keep every worker busy
    without per-round idling.  Shards that can only produce work past
    the first violation or the run bound are shed between {e and
    during} rounds (a {!Bprc_harness.Pool.Gate} cancels them at claim
    time), so post-witness draining stops early.

    Determinism does not come from scheduling — carve timing, steal
    decisions and cancellation are all allowed to race — but from {e
    reconstruction}: every shard records, at each carve, a snapshot of
    its own run counters, which totally orders its own runs against its
    children's subtrees in sequential DFS order.  The report is read
    off that order as the longest contiguous determinate prefix
    (stopping at the first violation, the run bound, or an unfinished
    shard), and speculative work past the stop point is simply never
    counted.  The result (stats, witness, exhausted flag) therefore
    equals the sequential explorer's bit for bit at any worker count —
    a 1-worker pool (or [?pool:None]) dispatches straight to the plain
    sequential DFS and pays for none of the machinery.  Only
    wall-clock-bounded runs ([budget_s]) can differ, exactly as they
    already do sequentially. *)

type setup = Bprc_runtime.Sim.t -> unit -> (unit, string) result
(** A configuration: given a fresh simulator, allocate the shared
    objects, spawn exactly [n] processes, and return the property check
    to run after the simulation completes ([Error] = violation).
    Called once per run; it must behave identically on every call. *)

type witness = {
  choices : int list;  (** runnable-array indices, one per step *)
  flips : bool list;  (** one per coin flip, in draw order *)
  failure : string;
  clock : int;  (** steps executed by the failing run *)
}

type stats = {
  runs : int;  (** runs started, pruned and cut-off ones included *)
  pruned : int;  (** runs abandoned by sleep-set pruning *)
  step_limited : int;  (** runs that hit [max_steps] before completing *)
  exhausted : bool;
      (** the DFS tree was fully enumerated within [max_runs]/[budget_s] *)
  violation : witness option;
}

val explore :
  n:int ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?budget_s:float ->
  ?reduction:bool ->
  ?shrink:bool ->
  ?pool:Bprc_harness.Pool.t ->
  ?par_quota:int ->
  setup:setup ->
  unit ->
  stats
(** Explore all schedules of [setup] with [n] processes, stopping at the
    first violation (in schedule order).  [max_steps] (default 2000)
    bounds each run; [max_runs] (default 200_000) bounds the whole
    exploration exactly — the reported counters are those of a
    sequential DFS stopped after precisely [max_runs] runs, whatever
    the worker count.  [budget_s] (wall-clock, default none) is the one
    non-deterministic bound: a parallel exploration it cuts short
    reports the contiguous determinate prefix, which may lag the work
    actually done.  [reduction] (default [true]) enables sleep sets;
    [shrink] (default [true]) ddmin-minimizes the witness.  [pool]
    (default none: everything on the calling domain) fans shard
    exploration out over a {!Bprc_harness.Pool}; results are
    bit-identical at any worker count.  [setup] must then be safe to
    call from helper domains — true of every {!Config} registry entry.
    [par_quota] (default 1024) is the first parallel round's per-shard
    run quota, an expert/test knob: smaller values force more rounds
    and earlier re-carving, which the stress tests use to exercise the
    steal schedule on small trees; it never affects results. *)

val ladder_counters : unit -> int * int
(** Always [(0, 0)]: the retired checkpoint ladder's resume and
    regeneration counts, kept only so existing readers still build. *)

type replay_outcome =
  | Pass
  | Fail of string
  | Cutoff  (** hit the step bound before every process finished *)

val replay :
  n:int ->
  ?max_steps:int ->
  choices:int list ->
  flips:bool list ->
  setup:setup ->
  unit ->
  replay_outcome * int
(** Re-run one schedule ([choices] then first-runnable, [flips] then
    [false]) and return the check outcome and the run's step count. *)
