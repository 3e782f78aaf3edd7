(** Counterexample scripts: everything needed to re-execute one failing
    hunt run bit-identically.

    The header names the scenario and its size, the simulator seed, the
    hunt trial and the fault plan; the schedule is the full sequence of
    adversary choices and coin flips recorded during the failing run,
    with the [failure] and [clock] a replay must reproduce.  The codec
    is {!Witness}'s; the JSON schema is documented in EXPERIMENTS.md
    ("Hunt scripts"). *)

type header = {
  scenario : string;
  n : int;
  seed : int;  (** simulator seed of the failing trial *)
  trial : int;  (** hunt trial index that produced it *)
  plan : Bprc_faults.Fault_plan.t;
}

include Witness.S with type header := header
