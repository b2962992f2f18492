let () =
  Alcotest.run "llvm_repro"
    [ ("ir", Suite_ir.tests);
      ("asm", Suite_asm.tests);
      ("analysis", Suite_analysis.tests);
      ("lint", Suite_lint.tests);
      ("exec", Suite_exec.tests);
      ("bytecode", Suite_bytecode.tests);
      ("engine", Suite_engine.tests);
      ("profile", Suite_profile.tests);
      ("transforms", Suite_transforms.tests);
      ("minic", Suite_minic.tests);
      ("bitcode", Suite_bitcode.tests);
      ("codegen", Suite_codegen.tests);
      ("linker", Suite_linker.tests);
      ("workloads", Suite_workloads.tests);
      ("fuzz", Suite_fuzz.tests);
      ("random", Suite_random.tests);
      ("serve", Suite_serve.tests);
      ("tools", Suite_tools.tests);
      ("bench", Suite_bench.tests) ]
