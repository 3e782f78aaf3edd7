let () =
  Alcotest.run "bprc"
    [
      ("util", Test_util.suite);
      ("rng", Test_rng.suite);
      ("runtime", Test_runtime.suite);
      ("batch", Test_batch.suite);
      ("stretch", Test_stretch.suite);
      ("registers", Test_registers.suite);
      ("snapshot", Test_snapshot.suite);
      ("space", Test_space.suite);
      ("strip", Test_strip.suite);
      ("coin", Test_coin.suite);
      ("consensus", Test_consensus.suite);
      ("virtual-rounds", Test_virtual_rounds.suite);
      ("harness", Test_harness.suite);
      ("faults", Test_faults.suite);
      ("check", Test_check.suite);
      ("service", Test_service.suite);
    ]
