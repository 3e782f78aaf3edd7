(** Hunt scenarios: the named systems the fuzz loop ({!Hunt}) draws
    fault plans for.

    A name names one system, an object plus a register model; the model
    comes from the plan's [Weaken] faults, so [snapshot] and
    [snapshot-unsafe] differ only in their plans.  Each driver sizes its
    own program of a system: {!Config}'s entries for the explorer, and
    {!Hunt.program} for the hunt. *)

type system =
  | Snapshot  (** the §2 handshake snapshot: P1–P3 *)
  | Consensus  (** ADS89: agreement, validity, survivor termination *)

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

val registry : t list
val names : string list
val find : string -> t option
