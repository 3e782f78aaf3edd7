(** Deterministic cooperative simulator of asynchronous shared memory.

    Processes run as effect-handler fibers.  Every register access (and
    every local coin flip) suspends the fiber — a straight-line batch of
    accesses suspends it once, see {!batched} — and an {!Adversary.t}
    chooses which process takes the next atomic step.  One step = one
    register access = one unit of measured cost, matching the cost model
    of the paper's lemmas.

    Typical use:
    {[
      let sim = Sim.create ~seed:42 ~n:4 ~adversary:(Adversary.random ()) () in
      let (module R) = Sim.runtime sim in
      let module C = Some_algorithm.Make (R) in
      let state = C.create () in
      let handles = Array.init 4 (fun i -> Sim.spawn sim (fun () -> C.run state i)) in
      match Sim.run sim with
      | Completed -> Array.map Sim.result handles
      | Hit_step_limit -> ...
    ]} *)

type t

type 'a handle
(** A spawned process and its eventual result. *)

type outcome =
  | Completed  (** every non-crashed process finished *)
  | Hit_step_limit  (** [max_steps] reached first *)

val create :
  ?seed:int ->
  ?max_steps:int ->
  ?record_trace:bool ->
  n:int ->
  adversary:Adversary.t ->
  unit ->
  t
(** [max_steps] defaults to 10_000_000; [record_trace] defaults to
    [false] (recording costs memory proportional to the run length). *)

val reset : ?seed:int -> ?adversary:Adversary.t -> t -> unit
(** Rewind the simulator to the state a fresh {!create} with the same
    [n], [max_steps] and trace configuration would produce, reusing the
    arena (process slots, scheduling scratch buffers, trace storage)
    instead of reallocating it.  All process slots empty ([spawn] must
    be called [n] times again), the register-id counter restarts at 0,
    flip source/observer are cleared, per-process RNG streams are
    rewound, and the recorded trace (if any) is cleared.  [seed]
    replaces the seed for this and subsequent resets (default: keep);
    [adversary] replaces the adversary (default: keep).  A reset run is
    bit-identical to one on a freshly created simulator — the schedule
    explorer relies on this to avoid a [create] per replayed run.
    Handles and registers from before the reset are orphaned: reading a
    stale handle yields the old run's result, and using a stale
    register raises no error but is meaningless.

    [reset] also {e adopts ownership}: the calling domain becomes the
    arena's owner (see {!step}), so an arena moves between domains
    only through a reset, never mid-run. *)

val runtime : t -> (module Runtime_intf.S)
(** The shared-memory interface bound to this simulator instance.
    Registers made from it belong to this instance only.  The module
    stays valid across {!reset}; registers must be re-made.  The same
    physical module is returned on every call (it is memoized on the
    arena); per-run callers keep functor applications over it in a
    {!local} slot. *)

val batched : t -> (module Runtime_intf.BATCHED)
(** The same module as {!runtime}, with its batch operations: a batch
    — a collect, or a whole handshake scan attempt or update, each a
    short program of straight-line segments — suspends the calling
    fiber once.  The scheduler carries out one of its accesses per step,
    every step still chosen by the adversary, with the clock,
    {!last_access_code} and trace event of the single access it stands
    for.  The step that carries out a segment's last access loads the
    next segment, and the one that carries out the program's last
    access resumes the fiber.  Schedules, traces and results are those
    of {!Runtime_intf.Loop} over {!runtime}; only the number of fiber
    resumptions ({!resumes}) falls.  A batch with an empty segment or
    fewer than two accesses, or one issued outside a fiber, runs as
    single accesses.  Memoized like {!runtime}, of which it is the same
    physical module. *)

type 'a local
(** A slot of arena-local storage: each arena holds at most one value
    per slot, made on first use and kept across {!reset} for the
    arena's whole life.  Per-arena caches (functor applications over
    {!runtime}, checker scratch) live here so they die with their
    arena; a cache keyed on arenas from outside would keep every arena
    alive. *)

val new_local : (t -> 'a) -> 'a local
(** A fresh slot whose value for an arena is made by applying the
    initializer to that arena.  Slots are never freed: make them once,
    not per run. *)

val local : t -> 'a local -> 'a
(** The arena's value for the slot, made on first use.  Like the
    arena itself this is single-domain state: only the arena's owner
    may use it. *)

val spawn : t -> (unit -> 'a) -> 'a handle
(** Register process number [spawned-so-far] (pids are assigned 0,1,...).
    Must be called exactly [n] times before {!run}.
    @raise Invalid_argument when more than [n] processes are spawned. *)

val run : t -> outcome
(** Drive steps until every process finished/crashed or the step limit
    is hit.  @raise Invalid_argument if fewer than [n] processes were
    spawned, or when called from a domain other than the arena's owner
    (see {!step}). *)

val run_to : t -> clock:int -> outcome option
(** Like {!run}, but pause and return [None] once the global clock
    reaches [clock] (checked before every step, after the step-limit
    check).  Ownership and spawning are checked once per call, not per
    step, so this is the cheapest way to drive a bounded stretch of a
    run; the arena is left mid-run and can be driven further by any of
    the driving functions.  [Some outcome] means the run finished or hit
    the arena's bound first.  Raises like {!run}.

    A pause leaves exactly the state that stepping one access at a
    time would: the clock, per-process steps, pending batches, a
    round-robin adversary's cursor and {!last_access_code}.  This holds
    although a round-robin run may carry out whole rounds of reads at
    once when every runnable process's pending batch is in a run of
    reads: such a bulk stops short of [clock] and of the step bound,
    and of each run's last read, and is skipped while a trace is
    recorded. *)

val step : t -> bool
(** Execute a single adversary-chosen step.  Returns [false] when no
    process is runnable (all finished or crashed).  Only for drivers
    that act between steps: to drive a run, or a stretch of one, use
    {!run_to} or {!run}, which check ownership once and step inline
    instead of paying a call and an ownership check per step.

    An arena is owned by the domain that {!create}d or last {!reset}
    it: its scratch buffers, adversary context and suspended effect
    continuations are single-domain state, so driving it from another
    domain would race silently.  [step] and {!run} raise a clear
    [Invalid_argument] instead; call {!reset} from the new domain
    first to adopt ownership. *)

val result : 'a handle -> 'a option
(** The value returned by the process, if it finished. *)

val crash : t -> int -> unit
(** Permanently stop a process (models a faulty process; it is simply
    never scheduled again).  Idempotent; legal at any time. *)

val stall : t -> int -> steps:int -> unit
(** [stall t pid ~steps] removes [pid] from the runnable set reported
    to the adversary until the global clock has advanced by [steps] —
    a bounded delay fault, weaker than {!crash}.  Exception: when every
    runnable process is stalled, stalls are ignored for that step (the
    adversary must schedule someone; stalls alone cannot deadlock an
    asynchronous system).  Overlapping stalls keep the later deadline.
    @raise Invalid_argument on negative [steps]. *)

val crashed : t -> int -> bool
val finished : t -> int -> bool

val clock : t -> int
(** Global steps executed so far. *)

val n : t -> int
(** The process count this arena was created for ({!reset} keeps it).
    Arena-pooling layers key reusable simulators on it. *)

val max_steps : t -> int
(** The step bound this arena was created with ({!reset} keeps it). *)

val registers_created : t -> int
(** Shared registers allocated through {!module-type-Runtime_intf.S.make_reg} since
    creation (or the last {!reset}) — the measured side of the space
    accounting: a protocol whose space report is honest creates exactly
    this many registers and never more mid-run. *)

val steps_of : t -> int -> int
(** Steps taken by one process. *)

val flips_of : t -> int -> int
(** Local coin flips performed by one process. *)

val trace : t -> Trace.t option
(** The recorded trace, when [record_trace] was set. *)

val last_access_code : t -> int
(** The shared-memory access performed by the most recent step,
    packed into one immediate int so reading it never allocates: [-1]
    when the step performed no access at all (a process's initial
    segment before its first suspension), otherwise
    [((reg_id + 1) lsl 2) lor k] with [k] = 0 read, 1 write, 2 coin
    flip, 3 explicit yield (flips and yields carry [reg_id = -1]).  The
    schedule explorer in [lib/check] consumes this to compute step
    independence for partial-order reduction without allocating on
    every step.  After {!run_to} pauses it is the code of the last step
    taken, even when that step followed reads carried out in bulk. *)

val resumes : t -> int
(** Suspended fibers resumed since creation or the last {!reset}.  A
    step resumes its process's fiber unless it starts the process or
    carries out a non-final access of a batch (see {!batched}), so
    under a per-access runtime [clock] is [resumes] plus one start step
    per process, and with batches [clock / resumes] approaches the mean
    batch length.  A plain counter: reading it and bumping it allocate
    nothing. *)

val set_flip_source : t -> (pid:int -> bool) -> unit
(** Override the source of local coin flips (used by the exhaustive
    explorer and by bias-injection tests).  Default draws from the
    per-process seeded stream. *)

val set_flip_observer : t -> (pid:int -> bool -> unit) -> unit
(** Install a callback invoked after every coin flip with the flipping
    pid and the drawn value, whatever the source.  Used by the fault
    subsystem's recorder to capture the flip sequence of a run. *)

val set_adversary : t -> Adversary.t -> unit
(** Replace the adversary from the next step on; the run, the clock and
    the adversary stream go on as they were.  For an adversary that can
    only be built once the run exists, such as one that probes the
    protocol instance it schedules: create or {!reset} the arena with a
    placeholder, build the instance over {!runtime}, then install the
    adversary here before the first step.  Legal at any time, also from
    a fiber or a flip observer mid-run. *)

val set_validate : t -> bool -> unit
(** Enable (or disable) the O(n)-per-step check that every adversary
    choice is a member of the runnable set it was shown, raising
    [Invalid_argument] on violation.  Off by default for throughput
    (BPRC_SIM_DEBUG=1 flips the default on); witness-replay paths — the
    explorer's [Explorer.replay] and the fault subsystem's scripted
    replays — turn it on so a corrupted or divergent witness fails fast
    instead of silently stepping a wrong process.  Sticky across
    {!reset}. *)
