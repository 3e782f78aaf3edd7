(** Bounded exhaustive schedule explorer (stateless model checking).

    Enumerates every schedule (and every coin-flip outcome) of a small
    simulated configuration by repeatedly re-running it: each run
    replays a prefix of scheduling/flip decisions recorded in a
    persistent DFS tree, extends it greedily, and backtracks the deepest
    decision with an unexplored alternative.  The simulator is
    deterministic, so identical prefixes reach identical states and the
    tree enumerates exactly the reachable interleavings up to the step
    bound.

    {b Every run replays from the root.}  The exploration owns one
    simulator arena; a run is {!Bprc_runtime.Sim.reset} (which
    guarantees bit-identical behaviour to a fresh simulator), [setup],
    and one drive down the run's decisions, so exploring thousands of
    schedules does not allocate thousands of process tables.  Effect
    continuations are one-shot, so a mid-run state cannot be copied;
    parking extra arenas at branch points would only move replay work,
    not remove it.

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
    {!Shrink.ddmin} under replay validation.  An exception
    raised by the setup, a process body or the check is a violation
    too, with failure ["raised: "] followed by the exception's
    [Printexc.to_string]; {!replay} classifies the same raise as
    {!Fail}, so such witnesses shrink and replay like any other. *)

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
  setup:setup ->
  unit ->
  stats
(** Explore all schedules of [setup] with [n] processes, stopping at the
    first violation (in schedule order).  [max_steps] (default 2000)
    bounds each run; [max_runs] (default 200_000) bounds the whole
    exploration exactly.  [budget_s] (wall-clock, default none) is the
    one non-deterministic bound.  [reduction] (default [true]) enables
    sleep sets; [shrink] (default [true]) ddmin-minimizes the witness.
    [pool] is ignored: exploration always runs on the calling domain,
    and the argument is kept only so existing callers still build. *)

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

val scripted :
  Bprc_runtime.Sim.t ->
  choices:int list ->
  flips:bool list ->
  fallback:Bprc_runtime.Adversary.t ->
  flip_fallback:(unit -> bool) ->
  unit
(** Reset the arena to replay a recorded run: [choices] (validated
    runnable-array indices) then [fallback]'s, and [flips] then
    [flip_fallback ()].  Both drivers replay through it: {!replay}
    falls back to first-runnable and [false], the hunt to the random
    adversary and a seed-derived stream. *)
