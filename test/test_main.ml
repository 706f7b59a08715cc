let () =
  Alcotest.run "wfa"
    [
      ("value", Test_value.suite);
      ("simkit", Test_simkit.suite);
      ("fdlib", Test_fdlib.suite);
      ("tasklib", Test_tasklib.suite);
      ("bglib", Test_bglib.suite);
      ("sm-engine", Test_sm_engine.suite);
      ("efd-basic", Test_efd_basic.suite);
      ("efd-renaming", Test_efd_renaming.suite);
      ("efd-thm9", Test_efd_thm9.suite);
      ("efd-puzzle", Test_efd_puzzle.suite);
      ("efd-extraction", Test_efd_extraction.suite);
      ("efd-extras", Test_efd_extras.suite);
      ("efd-substrates", Test_efd_substrates.suite);
      ("closing", Test_closing.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("reduction", Test_reduction.suite);
      ("obs", Test_obs.suite);
      ("fuzz", Test_fuzz.suite);
      ("properties", Test_properties.suite);
      ("cancel", Test_cancel.suite);
      ("codec", Test_codec.suite);
      ("svc", Test_svc.suite);
      ("scenario", Test_scenario.suite);
      ("dist", Test_dist.suite);
      ("ckpt", Test_ckpt.suite);
      ("ledger", Test_ledger.suite);
      ("solve-path", Test_solve_path.suite);
    ]
