(** Declarative, serializable fault plans.

    A plan is a list of faults to inject into one run of the
    shared-memory simulator {!Bprc_runtime.Sim}: process faults
    ([Crash]/[Stall]) and register weakening.  Plans round-trip through
    JSON (see {!to_json}) so counterexample scripts can be saved,
    replayed and shrunk. *)

type semantics =
  | Safe
      (** overlapped reads return an arbitrary previously-written value
          (or the initial value) — see {!Inject.weaken_runtime} for why
          the domain is approximated by the write history *)
  | Regular
      (** overlapped reads return the last committed or some
          overlapping write's value *)

type fault =
  | Crash of { pid : int; at_step : int }
      (** crash [pid] once it has taken [at_step] of {e its own} steps *)
  | Stall of { pid : int; at_step : int; steps : int }
      (** at its [at_step]-th own step, delay [pid] for [steps] global
          steps (see {!Bprc_runtime.Sim.stall}) *)
  | Weaken of { index : int; semantics : semantics }
      (** downgrade the [index]-th register (in allocation order;
          [-1] = every register) from atomic to the given semantics *)

type t = fault list

val weaken_all : semantics -> t
(** The plan that weakens every register to [semantics]. *)

val strengths : t Bprc_util.Axis.t
(** Register strength: atomic ([[]]) or a {!weaken_all} plan.  A
    [Weaken] fault's semantics is saved under its token here. *)

val weakens : t -> bool
(** Does the plan weaken any register?  A plan that does not leaves
    every register atomic: the explorer's sleep-set reduction is sound
    for it. *)

val weaken_target : t -> index:int -> semantics option
(** The semantics the plan assigns to register [index], if weakened
    (last matching fault wins; a [-1] fault matches every index). *)

val to_json : t -> Bprc_util.Json.t
val of_json : Bprc_util.Json.t -> (t, string) result
val pp : Format.formatter -> t -> unit
