(** Applying a {!Fault_plan} to the simulator.

    Two independent mechanisms:

    - {!weaken_runtime} wraps a {!Bprc_runtime.Runtime_intf.S} so that
      plan-targeted registers behave as regular or safe registers
      instead of atomic ones (registers are identified by allocation
      order, which is deterministic for a given algorithm and [n]);
    - {!driver}/{!fire}/{!drive} fire [Crash] and [Stall] faults when
      the targeted process reaches its trigger step count. *)

open Bprc_runtime

val weaken_runtime :
  (module Runtime_intf.S) -> plan:Fault_plan.t -> (module Runtime_intf.S)
(** Returns the runtime unchanged when the plan has no [Weaken] fault.
    Otherwise every register allocation consults the plan: weakened
    registers get two-step reads and writes (so operations genuinely
    overlap) whose overlapped outcomes follow the chosen semantics,
    resolved through the base runtime's [flip] (so replay and the
    explorer stay deterministic).  [Safe] approximates "arbitrary
    domain value" by "any value ever written, or the initial value" —
    the domain of a polymorphic register cannot be enumerated.
    [peek]/[poke] bypass weakening (checker-only). *)

val weaken_batched :
  (module Runtime_intf.BATCHED) ->
  plan:Fault_plan.t ->
  (module Runtime_intf.BATCHED)
(** {!weaken_runtime} for a batching runtime: the runtime unchanged when
    the plan has no [Weaken] fault, and otherwise the weakened runtime
    lifted by {!Runtime_intf.Loop}, whose batches are loops of the
    weakened single accesses. *)

type driver
(** Mutable firing state: each process fault fires at most once. *)

val driver : n:int -> Fault_plan.t -> driver
(** Faults naming pids outside [0, n) are ignored. *)

val fire : driver -> Sim.t -> unit
(** Fire every due fault: a [Crash {pid; at_step}]/[Stall {pid; ...}]
    is due once [Sim.steps_of sim pid >= at_step].  Call between
    steps. *)

val drive : Sim.t -> driver:driver -> max_steps:int -> bool
(** Run the simulator to completion, firing every fault at exactly the
    step a fire-before-every-step loop would.  Between firings the run
    proceeds in {!Sim.run_to} stretches up to the earliest clock at
    which a pending fault can next fall due.  Returns [false] if
    [max_steps] (capped at the arena's own bound) was reached first. *)
