(** The registry of checked systems: the explorer's configurations
    ({!all}) and the hunt's scenarios ({!scenarios}).  Each is a small
    program over the scannable-memory stack, paired with a property
    check of the history a completed schedule records, and built by
    {!snapshot_prog} or {!consensus_prog} (the register configurations
    by a private builder).  Every program runs over its arena's batched
    runtime weakened by its plan, with functor applications cached per
    arena by {!Bprc_harness.Run.cached}.  The check reads nothing but
    the history, so each program runs it once per distinct history on
    an arena: the verdict is memoized in an arena-local table keyed on
    the exact events (pids, stamps, ops and scan views, compared
    structurally) and emptied when a program with another check
    records on the arena.  A check that raises is not memoized.

    Configurations deliberately mirror the acceptance gate of the
    checker subsystem: the atomic register and handshake-snapshot
    configurations must pass exhaustively at their bounds, while the
    [Weaken]-injected ones ([reg-safe], [reg-regular],
    [snapshot-unsafe]) must yield a non-linearizable history.  Each
    entry's [reduction] is derived from its plan: on exactly when the
    plan weakens no register ({!Bprc_faults.Fault_plan.weakens}).  The
    weakening wrapper shares a hidden write table across processes,
    which register-level independence cannot see (see {!Explorer}). *)

type scenario = {
  name : string;
  summary : string;
  expect_violation : bool;  (** documentation + test oracle *)
  gen_plan : n:int -> rng:Bprc_rng.Splitmix.t -> Bprc_faults.Fault_plan.t;
      (** the fault plan of one hunt trial *)
  program : n:int -> plan:Bprc_faults.Fault_plan.t -> Explorer.setup;
      (** the system at the hunt's size [n]; apply [~n] once per hunt.
          Linearizability is off, since a crashed process's operation
          is missing from the history. *)
  max_steps : int;  (** per-run step budget *)
  label : string;  (** prefix of every failure *)
  exhausted : string;
      (** the failure of a run that spends its budget with every check
          passing *)
}
(** A hunt scenario: a system, an object plus a register model, with
    the fault plans the fuzz loop ({!Hunt}) draws for it.  The register
    model comes from the plan's [Weaken] faults, so [snapshot] and
    [snapshot-unsafe] differ only in their plans. *)

type t = {
  name : string;
  summary : string;
  n : int;
  max_steps : int;  (** per-run step bound the configuration was sized for *)
  reduction : bool;
      (** sleep-set reduction: on exactly when the plan weakens no
          register *)
  expect_violation : bool;  (** documentation + test oracle *)
  setup : Explorer.setup;
}

val snapshot_prog :
  lin:bool ->
  prog:[ `Update of int | `Scan ] list array ->
  plan:Bprc_faults.Fault_plan.t ->
  Explorer.setup
(** Process [i] runs [prog.(i)] (per-process update values strictly
    increasing) over the §2 handshake snapshot, with registers weakened
    by the plan's [Weaken] faults; checked against P1–P3 and, with
    [lin], linearizability.  Apply [~lin ~prog] once per program: the
    application builds the program's check, and an arena keeps its
    memoized verdicts only while one check records on it. *)

val consensus_prog :
  lin:bool ->
  params:Bprc_core.Params.t ->
  inputs:bool array ->
  plan:Bprc_faults.Fault_plan.t ->
  Explorer.setup
(** ADS89 consensus, process [i] proposing [inputs.(i)], built like
    {!snapshot_prog}; checked by {!Bprc_core.Spec.check} on the
    finished processes' decisions and, with [lin], linearizability. *)

val all : t list
(** In registry order. *)

val names : unit -> string list
val find : string -> t option

val scenarios : scenario list
(** [consensus] (ADS89 under crash/stall faults: split inputs under
    default parameters), [snapshot] (the handshake snapshot's P1–P3
    under crash/stall faults: three update-then-scan rounds per
    process), both expected clean, and [snapshot-unsafe] ([snapshot]
    with every register weakened to safe semantics: the deliberately
    injected bug the end-to-end capture/replay/shrink test finds). *)

val find_scenario : string -> (scenario, string) result
(** The scenario of that name, or a refusal that lists the valid ones. *)

val run :
  ?max_steps:int ->
  ?max_runs:int ->
  ?budget_s:float ->
  ?shrink:bool ->
  t ->
  Explorer.stats
(** {!Explorer.explore} with the configuration's program, bound and
    reduction setting ([max_steps] overrides the default). *)

val replay : ?max_steps:int -> t -> Explorer.witness -> Explorer.replay_outcome * int
