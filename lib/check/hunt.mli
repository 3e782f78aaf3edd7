(** The fuzz loop: draw fault plans, execute trials, and on the first
    failure capture, verify and shrink a counterexample script.

    Trial [i] is a pure function of the hunt seed and [i] (plan and
    simulator seed are derived from [Splitmix.fork root i]), and
    batches are scanned in order with the lowest failing index winning,
    so the outcome — including which counterexample is found — is
    deterministic in [seed] and independent of how [map] schedules the
    probes ([--workers] cannot change the result).

    Parallelism is dependency-injected: [map] receives the probe
    function and a batch of trial indices and must return results in
    input order.  The CLI passes a {!Bprc_harness.Pool}-backed map; the
    default runs sequentially. *)

type found = {
  script : Script.t;  (** the failing run, as recorded *)
  shrunk : Script.t;
      (** minimized plan, then choices, then flips, each pass holding the
          others fixed ({!Shrink}); never longer, still failing, with the
          failure and clock of its own replay *)
  trial : int;
  replay_verified : bool;
      (** the captured script replayed to the identical failure string
          and final clock (bit-identity check) *)
}

type outcome =
  | No_failure of { trials_run : int }
  | Found of found
  | Budget_exhausted of { trials_run : int }
      (** the wall-clock budget ran out between batches *)

type mode = Record | Replay of { choices : int list; flips : bool list }

type result = {
  failure : string option;  (** [None] = run satisfied all properties *)
  clock : int;  (** final simulator clock *)
  choices : int list;  (** recorded choices (recording runs) *)
  flips : bool list;  (** recorded flips (likewise) *)
}

val exec :
  Config.scenario ->
  n:int ->
  seed:int ->
  plan:Bprc_faults.Fault_plan.t ->
  mode:mode ->
  result
(** One run, a pure function of its arguments.  It runs the scenario's
    program, recording its choices and flips or replaying them
    ({!Explorer.scripted}), fires the plan's crashes and stalls, and
    reports the program's verdict, or the scenario's [exhausted]
    failure when the run spends its step budget.  Apply [scenario] and
    [~n] once: each application builds the program. *)

val replay_script : scenario:Config.scenario -> Script.t -> result
(** Re-execute a script under its scenario (deterministic). *)

val run :
  ?budget_s:float ->
  ?batch:int ->
  ?map:((int -> string option) -> int list -> string option list) ->
  scenario:Config.scenario ->
  trials:int ->
  seed:int ->
  n:int ->
  unit ->
  outcome
(** [batch] (default 64) is the fan-out unit; the budget is checked
    between batches, so a budget overshoot is at most one batch. *)
