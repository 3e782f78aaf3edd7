(** Hunt scenarios: named, self-checking system configurations the
    fuzz loop draws fault plans for and executes.

    A scenario bundles a plan generator with an executor.  The executor
    is a {e pure} function of [(n, seed, plan, mode)]: running it twice
    with equal arguments gives bit-identical results, which is what
    makes hunting parallelizable and counterexamples replayable.

    In [Record] mode the run's adversary choices and coin flips are
    captured (shared-memory scenarios only — message-passing runs are
    deterministic in the seed alone and record nothing); in [Replay]
    mode the given script is fed back instead. *)

type mode = Record | Replay of { choices : int list; flips : bool list }

type exec_result = {
  failure : string option;  (** [None] = run satisfied all properties *)
  clock : int;  (** final simulator clock / event count *)
  choices : int list;  (** recorded choices ([Record] mode, sim scenarios) *)
  flips : bool list;  (** recorded flips (likewise) *)
}

type t = {
  name : string;
  summary : string;
  gen_plan : n:int -> rng:Bprc_rng.Splitmix.t -> Bprc_faults.Fault_plan.t;
  exec :
    n:int ->
    seed:int ->
    plan:Bprc_faults.Fault_plan.t ->
    mode:mode ->
    exec_result;
}

val consensus : t
(** ADS89 consensus under crash/stall faults.  Checks the consensus
    spec (consistency + validity) and that all surviving processes
    decide within the step budget.  Expected clean — the CI smoke
    hunts this scenario. *)

val snapshot : t
(** Handshake snapshot P1–P3 under crash/stall faults.  Expected
    clean. *)

val snapshot_unsafe : t
(** {!snapshot} with every register weakened to safe semantics — the
    deliberately injected bug used by the end-to-end capture/replay/
    shrink acceptance test.  Expected to fail quickly. *)

val abd : t
(** ABD quorum registers under drop/duplicate/delay link faults:
    linearizability of the completed-operation history ({!Lin} with
    {!Specs.Register}) always; termination additionally when the plan
    loses no message ([Delay]-only plans). *)

val registry : t list
val names : string list
val find : string -> t option
