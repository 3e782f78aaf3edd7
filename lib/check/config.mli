(** Registry of explorable configurations: small fixed programs over
    the scannable-memory stack, each paired with a property check of
    the history a completed schedule records.  The snapshot and
    consensus programs are also the hunt's ({!Hunt.program}).  The
    check reads nothing but that history, so each program runs it once
    per distinct history on an arena: the verdict is memoized in an
    arena-local table keyed on the exact events (pids, stamps, ops and
    scan views, compared structurally) and emptied when a program with
    another check records on the arena.  A check that raises is not
    memoized.

    Configurations deliberately mirror the acceptance gate of the
    checker subsystem: the atomic register and handshake-snapshot
    configurations must pass exhaustively at their bounds, while the
    [Weaken]-injected ones ([reg-safe], [reg-regular],
    [snapshot-unsafe]) must yield a non-linearizable history.  Weakened
    configurations run without partial-order reduction — the weakening
    wrapper shares a hidden write table across processes, which register
    level independence cannot see (see {!Explorer}). *)

type t = {
  name : string;
  summary : string;
  n : int;
  max_steps : int;  (** per-run step bound the configuration was sized for *)
  reduction : bool;  (** sleep-set reduction soundness for this program *)
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
