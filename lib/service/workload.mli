(** Instance specifications for the decision engine.

    A [spec] describes one consensus instance the service is asked to
    decide: how many processes, which protocol and coin, which input
    pattern and scheduler, and — following HHT20's observation that
    protocol correctness is a function of register strength — an
    optional per-instance fault plan (register weakening, crashes,
    stalls) so robustness-ablation workloads can mix strengths in one
    sustained run.  Specs are plain data: the engine derives each
    instance's randomness from its ticket, never from the spec. *)

type spec = {
  n : int;  (** processes; must be [>= 1] *)
  algo : Bprc_harness.Run.algo;
  pattern : Bprc_harness.Run.pattern;
  sched : Bprc_harness.Run.sched;
  params : Bprc_core.Params.t;
  faults : Bprc_faults.Fault_plan.t;
      (** per-instance faults; [Weaken] entries set register strength *)
  max_steps : int;  (** per-instance step bound *)
}

val spec :
  ?algo:Bprc_harness.Run.algo ->
  ?pattern:Bprc_harness.Run.pattern ->
  ?sched:Bprc_harness.Run.sched ->
  ?params:Bprc_core.Params.t ->
  ?faults:Bprc_faults.Fault_plan.t ->
  ?max_steps:int ->
  n:int ->
  unit ->
  spec
(** Smart constructor.  Defaults: ADS89 over the shared bounded walk,
    random inputs, random scheduler, default parameters, no faults,
    [max_steps =] {!Bprc_harness.Run.default_max_steps}.
    @raise Invalid_argument on [n < 1] or [max_steps < 1]. *)

val uniform : count:int -> spec -> spec list
(** [count] copies of one spec — the homogeneous-traffic workload the
    sustained-throughput benches drive. *)
