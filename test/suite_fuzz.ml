(* Tests for the differential fuzzing subsystem itself: the clone is
   faithful and independent, mutators preserve behaviour, every oracle
   passes on generated modules, the delta reducer shrinks an injected
   miscompile while keeping it failing, and failures persist as
   re-parseable corpus repros.

   Also home to the regression test for the inline-pass bug the fuzzer
   found: inlining an invoke whose callee cannot unwind left the
   handler's phi with a stale entry for the invoke block, and to a
   seeded byte-mutation sweep over every decoder of untrusted bytes. *)

open Llvm_ir
open Llvm_fuzz

let behaviour (m : Ir.modul) : string =
  let r = Llvm_exec.Interp.run_main ~fuel:Oracle.fuel m in
  match r.Llvm_exec.Interp.status with
  | `Returned v ->
    Fmt.str "%a|%s" Llvm_exec.Interp.pp_rtval v r.Llvm_exec.Interp.output
  | `Trapped msg -> "trap:" ^ msg
  | `Unwound -> "unwound"
  | `Exited c -> Printf.sprintf "exit:%d" c

let check_valid what (m : Ir.modul) =
  match Verify.verify_module m with
  | [] -> Llvm_analysis.Ssa_check.assert_ssa m
  | errs ->
    Alcotest.failf "%s: invalid module: %s" what
      (Fmt.str "%a" Fmt.(list Verify.pp_error) errs)

let test_oracles_pass_on_generated () =
  for seed = 1 to 8 do
    let m = Irgen.gen_module seed in
    List.iter
      (fun (o : Oracle.t) ->
        match o.Oracle.check m with
        | Oracle.Pass -> ()
        | Oracle.Fail msg ->
          Alcotest.failf "oracle %s failed on seed %d: %s" o.Oracle.o_name seed
            msg
        | Oracle.Skip why ->
          Alcotest.failf "oracle %s skipped seed %d: %s" o.Oracle.o_name seed
            why)
      Oracle.all
  done

let test_clone_faithful_and_independent () =
  for seed = 1 to 6 do
    let m = Irgen.gen_module seed in
    let before = Printer.module_to_string m in
    let c = Oracle.clone m in
    Alcotest.(check string)
      (Printf.sprintf "clone prints identically (seed %d)" seed)
      before
      (Printer.module_to_string c);
    check_valid "clone" c;
    (* mutating the clone must not disturb the original *)
    ignore (Mutate.apply_chain ~seed ~path:1 ~count:5 c);
    Alcotest.(check string)
      (Printf.sprintf "original untouched by clone mutation (seed %d)" seed)
      before (Printer.module_to_string m)
  done

let test_mutators_preserve_behaviour () =
  for seed = 1 to 6 do
    let m = Irgen.gen_module seed in
    let baseline = behaviour m in
    List.iter
      (fun (mu : Mutate.t) ->
        let c = Oracle.clone m in
        let rng = Llvm_workloads.Rng.create ((seed * 1933) + 7) in
        (* several rounds so block splits compose with merges etc. *)
        let changed = ref false in
        for _ = 1 to 4 do
          if mu.Mutate.apply rng c then changed := true
        done;
        if !changed then begin
          check_valid mu.Mutate.mu_name c;
          Alcotest.(check string)
            (Printf.sprintf "%s preserves behaviour (seed %d)"
               mu.Mutate.mu_name seed)
            baseline (behaviour c)
        end)
      Mutate.all
  done

let test_injected_miscompile_is_caught_and_reduced () =
  let oracle = Oracle.pass_oracle Oracle.injected_bug_pass in
  (* find a seed the buggy pass actually miscompiles *)
  let rec hunt seed =
    if seed > 60 then Alcotest.fail "no seed exposes the injected bug"
    else
      let m = Irgen.gen_module seed in
      match oracle.Oracle.check m with
      | Oracle.Fail _ -> (seed, m)
      | _ -> hunt (seed + 1)
  in
  let seed, m = hunt 1 in
  let reduced, stats = Reduce.reduce ~oracle m in
  (match oracle.Oracle.check reduced with
  | Oracle.Fail _ -> ()
  | _ -> Alcotest.failf "reduction lost the failure (seed %d)" seed);
  check_valid "reduced module" reduced;
  let ratio =
    float_of_int (stats.Reduce.rd_initial_instrs - stats.Reduce.rd_final_instrs)
    /. float_of_int stats.Reduce.rd_initial_instrs
  in
  if ratio < 0.8 then
    Alcotest.failf "only reduced %d -> %d instructions (%.0f%%, want >= 80%%)"
      stats.Reduce.rd_initial_instrs stats.Reduce.rd_final_instrs
      (100.0 *. ratio)

let test_spec_oracle_catches_unguarded_promotion () =
  (* the speculation-identity oracle holds on pristine modules ... *)
  let cfg =
    { Fuzz.c_oracles = [ Oracle.spec_oracle ];
      c_paths = 0;
      c_mut_count = 0;
      c_reduce = false;
      c_corpus = None }
  in
  let report = Fuzz.run cfg ~first:1 ~count:40 in
  Alcotest.(check int) "no speculation divergences" 0 report.Fuzz.r_failed;
  (* ... and its guard-elided twin is a real miscompile the harness
     catches and the reducer shrinks, mirroring inject-sub-swap *)
  let oracle = Oracle.pass_oracle Oracle.injected_spec_pass in
  let rec hunt seed =
    if seed > 60 then Alcotest.fail "no seed exposes the unguarded promotion"
    else
      let m = Irgen.gen_module seed in
      match oracle.Oracle.check m with
      | Oracle.Fail _ -> (seed, m)
      | _ -> hunt (seed + 1)
  in
  let seed, m = hunt 1 in
  let reduced, stats = Reduce.reduce ~oracle m in
  (match oracle.Oracle.check reduced with
  | Oracle.Fail _ -> ()
  | _ -> Alcotest.failf "reduction lost the failure (seed %d)" seed);
  check_valid "reduced module" reduced;
  let ratio =
    float_of_int (stats.Reduce.rd_initial_instrs - stats.Reduce.rd_final_instrs)
    /. float_of_int stats.Reduce.rd_initial_instrs
  in
  (* the repro needs the whole pointer-selecting dataflow plus both
     callees, so the floor is lower than inject-sub-swap's 80% *)
  if ratio < 0.6 then
    Alcotest.failf "only reduced %d -> %d instructions (%.0f%%, want >= 60%%)"
      stats.Reduce.rd_initial_instrs stats.Reduce.rd_final_instrs
      (100.0 *. ratio)

let test_reducer_noop_on_passing_module () =
  let m = Irgen.gen_module 1 in
  let n = Ir.module_instr_count m in
  let _, stats = Reduce.reduce ~oracle:Oracle.exec_oracle m in
  Alcotest.(check int) "no edits on a passing module" 0 stats.Reduce.rd_edits;
  Alcotest.(check int) "size unchanged" n stats.Reduce.rd_final_instrs

let test_corpus_repro_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "llvm_fuzz_corpus_%d" (Unix.getpid ()))
  in
  let oracle = Oracle.pass_oracle Oracle.injected_bug_pass in
  let cfg =
    { Fuzz.c_oracles = [ oracle ];
      c_paths = 0;
      c_mut_count = 0;
      c_reduce = true;
      c_corpus = Some dir }
  in
  let report = Fuzz.run cfg ~first:1 ~count:20 in
  if report.Fuzz.r_failed = 0 then
    Alcotest.fail "injected bug produced no failure in 20 seeds";
  List.iter
    (fun (fa : Fuzz.failure) ->
      match fa.Fuzz.fa_repro with
      | None -> Alcotest.fail "failure not persisted to the corpus"
      | Some file ->
        let src =
          let ic = open_in file in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        in
        (* the commented header must not break the parser *)
        let m = Llvm_asm.Parser.parse_module ~name:"repro" src in
        check_valid "persisted repro" m;
        (match oracle.Oracle.check m with
        | Oracle.Fail _ -> ()
        | _ -> Alcotest.failf "persisted repro no longer fails (%s)" file))
    report.Fuzz.r_failures;
  (* clean up *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Regression (found by llvm_fuzz, seeds 60/158/306/478/498/760): when
   the inliner splices an invoke whose callee contains no unwind and no
   calls, the unwind edge disappears but the handler's phi kept its
   entry for the invoke block, leaving one more phi entry than the
   block has predecessors. *)
let inline_invoke_regression_src =
  {|long %tw(long %a) {
entry:
  %r = add long %a, 1
  ret long %r
}

long %main() {
entry:
  %x = invoke long %tw(long 4) to label %ok unwind to label %join
ok:
  br label %join
join:
  %p = phi long [ %x, %ok ], [ -77, %entry ]
  ret long %p
}
|}

let test_inline_invoke_no_stale_phi_entry () =
  let m = Llvm_asm.Parser.parse_module ~name:"regress" inline_invoke_regression_src in
  check_valid "input" m;
  let baseline = behaviour m in
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Inline.pass m);
  check_valid "after inline" m;
  Alcotest.(check string) "behaviour preserved" baseline (behaviour m)

let test_fuzz_run_clean_on_defaults () =
  let cfg = { Fuzz.default_config with c_paths = 1 } in
  let report = Fuzz.run cfg ~first:1 ~count:3 in
  Alcotest.(check int) "three seeds" 3 report.Fuzz.r_seeds;
  Alcotest.(check int) "no failures" 0 report.Fuzz.r_failed;
  Alcotest.(check int) "checks = seeds * oracles * (1 + paths)"
    (3 * List.length Oracle.all * 2)
    report.Fuzz.r_checks

(* -- Hostile bytes ------------------------------------------------------- *)

(* One to three byte flips, bit flips or truncations. *)
let mutate (rng : Random.State.t) (s : string) : string =
  let b = ref (Bytes.of_string s) in
  for _ = 0 to Random.State.int rng 3 do
    let n = Bytes.length !b in
    if n > 0 then
      let k = Random.State.int rng n in
      match Random.State.int rng 3 with
      | 0 -> Bytes.set !b k (Char.chr (Random.State.int rng 256))
      | 1 ->
        let bit = 1 lsl Random.State.int rng 8 in
        Bytes.set !b k (Char.chr (Char.code (Bytes.get !b k) lxor bit))
      | _ -> b := Bytes.sub !b 0 k
  done;
  Bytes.to_string !b

(* Each seed image with the decoder for its format.  A decoder passes on
   a mutant when it returns its declared error or a value; a loaded
   module must also verify to an error list. *)
let hostile_seeds () : (string * string * (string -> unit)) list =
  let module P = Llvm_serve.Protocol in
  let load s =
    match Llvm_serve.Loader.of_bytes ~name:"mutant" s with
    | Ok m -> ignore (Verify.verify_module m)
    | Error _ -> ()
  in
  let profile s =
    try ignore (Llvm_profile.Profile.of_bytes s)
    with Llvm_profile.Profile.Corrupt _ -> ()
  in
  let modules =
    List.concat_map
      (fun seed ->
        let m = Irgen.gen_module seed in
        let name = Printf.sprintf "irgen %d %s" seed in
        [ (name ".ll", Printer.module_to_string m, load);
          (name ".bc", fst (Llvm_bitcode.Encoder.encode m), load) ])
      [ 1; 2; 3 ]
  in
  let prog =
    Llvm_minic.Codegen.compile_string
      {| int leaf(int x) { return x * 3; }
         int twig(int x) { return x + 1; }
         int main() {
           int s = 0;
           for (int i = 0; i < 20; i++) {
             if (i % 3 == 0) s = s + leaf(i); else s = s + twig(i);
           }
           return s & 63;
         } |}
  in
  let _, fleet, _ = Llvm_linker.Fleet.field_run prog in
  let payload = fst (Llvm_bitcode.Encoder.encode prog) in
  let request r = ignore (P.decode_request r) in
  let response r = ignore (P.decode_response r) in
  modules
  @ [ ("fleet profile", Llvm_profile.Profile.to_bytes fleet, profile);
      ( "compile request",
        P.encode_request
          (P.req ~deadline_ms:500
             (P.Compile
                { c_payload = payload; c_pipeline = P.Level 2;
                  c_validate = true })),
        request );
      ( "link request",
        P.encode_request
          (P.req
             (P.Link
                { l_apps = [ "app"; payload ]; l_libs = [ "lib" ];
                  l_validate = false })),
        request );
      ( "run request",
        P.encode_request
          (P.req
             (P.Run
                { r_payload = payload; r_pipeline = P.Passes [ "gvn"; "dce" ];
                  r_fuel = 1000; r_engine = Llvm_exec.Engine.Tiered })),
        request );
      ( "served response",
        P.encode_response
          (P.Served
             { payload;
               metrics =
                 { m_hit = true; m_shard = 3; m_pipeline_ms = 2.5;
                   m_bytes = String.length payload } }),
        response );
      ("failed response", P.encode_response (P.Failed "no such pass"), response);
      ( "run reply",
        P.encode_run_reply
          { status = "returned"; exit_code = 7; output = "out\n";
            instructions = 99 },
        fun r -> ignore (P.decode_run_reply r) ) ]

let test_hostile_bytes_sweep () =
  let rng = Random.State.make [| 16 |] in
  let seeds = hostile_seeds () in
  let per_seed = 2000 / List.length seeds in
  List.iter
    (fun (what, image, decode) ->
      for k = 1 to per_seed do
        let mutant = mutate rng image in
        match decode mutant with
        | () -> ()
        | exception e ->
          Alcotest.failf "%s, mutant %d: %s escaped" what k
            (Printexc.to_string e)
      done)
    seeds

let tests =
  [ Alcotest.test_case "all oracles pass on generated modules" `Quick
      test_oracles_pass_on_generated;
    Alcotest.test_case "clone is faithful and independent" `Quick
      test_clone_faithful_and_independent;
    Alcotest.test_case "mutators preserve behaviour" `Quick
      test_mutators_preserve_behaviour;
    Alcotest.test_case "injected miscompile caught and reduced >= 80%" `Quick
      test_injected_miscompile_is_caught_and_reduced;
    Alcotest.test_case "spec oracle clean and catches unguarded promotion"
      `Quick test_spec_oracle_catches_unguarded_promotion;
    Alcotest.test_case "reducer is a no-op on passing modules" `Quick
      test_reducer_noop_on_passing_module;
    Alcotest.test_case "corpus repros re-parse and still fail" `Quick
      test_corpus_repro_roundtrip;
    Alcotest.test_case "inline invoke handler phi regression" `Quick
      test_inline_invoke_no_stale_phi_entry;
    Alcotest.test_case "fuzz driver reports clean runs" `Quick
      test_fuzz_run_clean_on_defaults;
    Alcotest.test_case "hostile bytes stay in declared errors" `Quick
      test_hostile_bytes_sweep ]
