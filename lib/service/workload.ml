type spec = {
  n : int;
  algo : Bprc_harness.Run.algo;
  pattern : Bprc_harness.Run.pattern;
  sched : Bprc_harness.Run.sched;
  params : Bprc_core.Params.t;
  faults : Bprc_faults.Fault_plan.t;
  max_steps : int;
}

let spec ?(algo = Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
    ?(pattern = Bprc_harness.Run.Random_inputs)
    ?(sched = Bprc_harness.Run.Random_sched)
    ?(params = Bprc_core.Params.default) ?(faults = [])
    ?(max_steps = Bprc_harness.Run.default_max_steps) ~n () =
  if n < 1 then invalid_arg "Workload.spec: n must be >= 1";
  if max_steps < 1 then invalid_arg "Workload.spec: max_steps must be >= 1";
  { n; algo; pattern; sched; params; faults; max_steps }

let uniform ~count s = List.init (max 0 count) (fun _ -> s)
