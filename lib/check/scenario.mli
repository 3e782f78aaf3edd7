(** Hunt scenarios: the named systems the fuzz loop ({!Hunt}) draws
    fault plans for.

    A name names one system, an object plus a register model; the model
    comes from the plan's [Weaken] faults, so [snapshot] and
    [snapshot-unsafe] differ only in their plans.  Each driver sizes its
    own program of a system: {!Config}'s entries for the explorer, and
    {!Hunt.program} for the hunt.  Only ABD, on the message-passing
    simulator, keeps its program here. *)

type system =
  | Snapshot  (** the §2 handshake snapshot: P1–P3 *)
  | Consensus  (** ADS89: agreement, validity, survivor termination *)
  | Net of {
      exec :
        n:int -> seed:int -> plan:Bprc_faults.Fault_plan.t ->
        string option * int;  (** failure, if any, and event count *)
      ops_per_process : int;  (** operations each adds to the history *)
    }
      (** a message-passing run, deterministic in the seed alone: it
          records nothing, and a replay re-executes it *)

type t = {
  name : string;
  summary : string;
  expect_violation : bool;  (** documentation + test oracle *)
  gen_plan : n:int -> rng:Bprc_rng.Splitmix.t -> Bprc_faults.Fault_plan.t;
  system : system;
}

val consensus : t
(** ADS89 consensus under crash/stall faults.  Expected clean. *)

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

val check_n : t -> n:int -> (unit, string) result
(** [Error], naming {!Lin.max_events}, when the scenario's history at
    [n] processes is too long to check. *)

val registry : t list
val names : string list
val find : string -> t option
