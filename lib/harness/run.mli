(** Scenario runners shared by the experiments, the benchmarks and the
    CLI.  Everything is deterministic in the given seed. *)

type sched =
  | Random_sched
  | Round_robin_sched
  | Bursty_sched of int
  | Anti_coin_sched
      (** Full-information adaptive adversary that stretches the shared
          coin's walk: it publishes pending (drawn but unpublished)
          local flips only when they pull the published sum back toward
          the origin, delaying the barrier crossing. *)
  | Osc_coin_sched
      (** Full-information adaptive adversary that manufactures
          disagreement: it drives the published sum across one barrier,
          lets some processes observe and decide, then reverses it
          across the other barrier for the rest. *)

val sched_name : sched -> string

val plain_adversary : sched -> Bprc_runtime.Adversary.t
(** The adversary a run under [sched] starts with.  The two adaptive
    schedulers start as the random one: they need probes into the coin
    or protocol instance, which exists only after the simulator, and
    {!coin_once} and {!consensus_on} install them once it is built. *)

(* ------------------------------------------------------------------ *)

type coin_run = {
  values : bool list;  (** one per process *)
  agreed : bool;
  walk_steps : int;
  overflows : int;
  coin_completed : bool;
}

val coin_once :
  ?delta:int ->
  ?m:int ->
  ?sched:sched ->
  ?max_steps:int ->
  n:int ->
  seed:int ->
  unit ->
  coin_run
(** One standalone bounded-walk shared coin (§3) among [n] simulated
    processes.  [delta] and [m] as {!Bprc_coin.Bounded_walk.bounds}. *)

(* ------------------------------------------------------------------ *)

type algo =
  | Ads of Bprc_core.Ads89.coin_mode  (** the paper's protocol (§5) *)
  | Ads_esnap of Bprc_core.Ads89.coin_mode
      (** the protocol over the wait-free {!Bprc_snapshot.Embedded}
          snapshot — the large-n configuration: handshake scans starve
          once ~n writes land in any double-collect window, embedded
          scans borrow instead (at the cost of unbounded sequence
          numbers, visible in the space report) *)
  | Ah  (** unbounded-strip baseline *)

val algo_name : algo -> string

val protocol :
  algo ->
  (module Bprc_runtime.Runtime_intf.BATCHED) ->
  (module Bprc_core.Consensus_intf.S)
(** The one mapping from algorithm to protocol module: the §5 loop over
    the bounded strip ([Ads], over the handshake snapshot; [Ads_esnap],
    over the embedded one) or over the unbounded strip ([Ah], over the
    handshake snapshot). *)

type pattern = Unanimous of bool | Split | Random_inputs

val inputs_of_pattern : pattern -> n:int -> seed:int -> bool array

type consensus_run = {
  completed : bool;
  steps : int;  (** global shared-memory steps until everyone decided *)
  decisions : bool option array;
      (** shared [Some true]/[Some false] boxes: a result keeps one word
          per process *)
  max_round : int;  (** true round count reached *)
  register_bits : int;
      (** {!Bprc_core.Consensus_intf.S.register_bits}: [Ads] and
          [Ads_esnap] report the static bound, state plus toggle; [Ah]
          reports the grown maximum, without the toggle *)
  walk_steps : int;
  spec : (unit, string) result;
  space : Bprc_space.Space.t;
      (** shared-memory space report of the protocol instance *)
  registers_used : int;
      (** registers actually allocated in the simulator arena
          ({!Bprc_runtime.Sim.registers_created}) — equals
          [Space.registers space] when the report is honest *)
  inconsistent_reconstructions : int;
      (** {!Bprc_core.Consensus_intf.stats}[.inconsistent_reconstructions]:
          queried corrupt graph fills of the bounded strip, 0 over the
          unbounded strip *)
}

val consensus_on :
  Bprc_runtime.Sim.t ->
  protocol:
    ((module Bprc_runtime.Runtime_intf.BATCHED) ->
    (module Bprc_core.Consensus_intf.S)) ->
  ?params:Bprc_core.Params.t ->
  ?coin_mode:Bprc_core.Ads89.coin_mode ->
  ?oracle_seed:int ->
  ?sched:sched ->
  ?faults:Bprc_faults.Fault_plan.t ->
  max_steps:int ->
  inputs:bool array ->
  unit ->
  consensus_run
(** Every simulated consensus run: on a simulator its caller created or
    reset, weaken the registers [faults] names, build a [protocol]
    instance ([params], [coin_mode], [oracle_seed]), install [sched]'s
    adaptive adversary if any (see {!plain_adversary}), spawn one process per input, drive the
    run for at most [max_steps] while firing [faults]' crashes and
    stalls, and check the decisions.  Otherwise the simulator's
    adversary and its trace and flip hooks stay the caller's. *)

val consensus_once :
  ?sim:Bprc_runtime.Sim.t ->
  ?params:Bprc_core.Params.t ->
  ?max_steps:int ->
  ?sched:sched ->
  ?faults:Bprc_faults.Fault_plan.t ->
  algo:algo ->
  pattern:pattern ->
  n:int ->
  seed:int ->
  unit ->
  consensus_run
(** {!consensus_on} with the inputs of [pattern] on a fresh simulator
    seeded with [seed], whose adversary is [plain_adversary sched];
    [seed] also seeds the oracle coin.

    [faults] is a declarative fault plan (crash/stall faults fire on the
    targeted process's own step count, [Weaken] faults downgrade
    registers — see {!Bprc_faults.Inject}).  Link faults in [faults]
    are ignored here (shared-memory run).

    [sim] reuses an existing simulator arena via [Sim.reset] instead of
    allocating a fresh one; the run is bit-identical to the fresh path
    (the explorer pins the analogous property for schedule replay).
    The arena must have been created with the same [n] and a step bound
    [>= max_steps]; the calling domain adopts ownership.
    @raise Invalid_argument when the reused arena's shape mismatches. *)
