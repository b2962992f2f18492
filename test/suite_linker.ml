(* Linker and lifelong-pipeline tests (paper sections 3.1, 3.3, 3.5, 3.6). *)

open Llvm_ir
open Llvm_minic
open Llvm_linker

let compile = Codegen.compile_string

let test_link_resolves_declarations () =
  let unit1 =
    compile ~name:"unit1"
      {| extern int helper(int x);
         int main() { return helper(20) + 2; } |}
  in
  let unit2 = compile ~name:"unit2" {| int helper(int x) { return x * 2; } |} in
  let m = Link.link [ unit1; unit2 ] in
  Verify.assert_valid m;
  (* exactly one `helper`, defined *)
  let helpers = List.filter (fun f -> f.Ir.fname = "helper") m.Ir.mfuncs in
  Alcotest.(check int) "one helper" 1 (List.length helpers);
  Alcotest.(check bool) "defined" false (Ir.is_declaration (List.hd helpers));
  match (Llvm_exec.Interp.run_main m).Llvm_exec.Interp.status with
  | `Returned (Llvm_exec.Interp.Rint (_, v)) ->
    Alcotest.(check int64) "whole program runs" 42L v
  | _ -> Alcotest.fail "run failed"

let test_link_definition_then_declaration () =
  (* same as above but the defining unit comes first *)
  let unit1 = compile ~name:"unit1" {| int helper(int x) { return x * 2; } |} in
  let unit2 =
    compile ~name:"unit2"
      {| extern int helper(int x);
         int main() { return helper(21); } |}
  in
  let m = Link.link [ unit1; unit2 ] in
  Verify.assert_valid m;
  match (Llvm_exec.Interp.run_main m).Llvm_exec.Interp.status with
  | `Returned (Llvm_exec.Interp.Rint (_, v)) ->
    Alcotest.(check int64) "resolves" 42L v
  | _ -> Alcotest.fail "run failed"

let test_link_renames_internal_collisions () =
  let unit1 =
    compile ~name:"unit1"
      {| static int secret() { return 1; }
         int one() { return secret(); } |}
  in
  let unit2 =
    compile ~name:"unit2"
      {| extern int one();
         static int secret() { return 2; }
         int two() { return secret(); }
         int main() { return two() * 10 + one(); } |}
  in
  let m = Link.link [ unit1; unit2 ] in
  Verify.assert_valid m;
  match (Llvm_exec.Interp.run_main m).Llvm_exec.Interp.status with
  | `Returned (Llvm_exec.Interp.Rint (_, v)) ->
    Alcotest.(check int64) "each unit keeps its own static" 21L v
  | _ -> Alcotest.fail "run failed"

let test_link_duplicate_definition_fails () =
  let unit1 = compile ~name:"unit1" {| int f() { return 1; } |} in
  let unit2 = compile ~name:"unit2" {| int f() { return 2; } |} in
  match Link.link [ unit1; unit2 ] with
  | exception Link.Link_error _ -> ()
  | _ -> Alcotest.fail "expected a duplicate-symbol error"

let test_link_globals_across_units () =
  let unit1 =
    compile ~name:"unit1"
      {| int shared = 5;
         void bump() { shared += 3; } |}
  in
  let unit2 =
    compile ~name:"unit2"
      {| extern int shared;
         extern void bump();
         int main() { bump(); bump(); return shared; } |}
  in
  (* extern globals in MiniC compile to defined-with-zero; drop unit2's *)
  ignore unit2;
  let unit2b =
    Llvm_asm.Parser.parse_module ~name:"unit2"
      {|
%shared = external global int
declare void %bump()
int %main() {
entry:
  call void %bump()
  call void %bump()
  %v = load int* %shared
  ret int %v
}
|}
  in
  let m = Link.link [ unit1; unit2b ] in
  Verify.assert_valid m;
  match (Llvm_exec.Interp.run_main m).Llvm_exec.Interp.status with
  | `Returned (Llvm_exec.Interp.Rint (_, v)) ->
    Alcotest.(check int64) "shared global" 11L v
  | _ -> Alcotest.fail "run failed"

let test_internalize_enables_dge () =
  let unit1 =
    compile ~name:"unit1"
      {| int used() { return 7; }
         int exported_but_dead() { return 9; } |}
  in
  let unit2 =
    compile ~name:"unit2"
      {| extern int used();
         int main() { return used(); } |}
  in
  let m = Link.link [ unit1; unit2 ] in
  Link.internalize m;
  let stats = Llvm_transforms.Dge.run m in
  Alcotest.(check bool) "dead export deleted after internalize" true
    (stats.Llvm_transforms.Dge.deleted_functions >= 1);
  Alcotest.(check bool) "main survives" true (Ir.find_func m "main" <> None);
  Alcotest.(check bool) "used survives" true (Ir.find_func m "used" <> None)

(* -- lifelong pipeline ------------------------------------------------------------ *)

let hot_program =
  {| static int hot_helper(int x) {
       int acc = 0;
       for (int i = 0; i < 4; i++) acc += x * i;
       return acc;
     }
     int main() {
       int total = 0;
       for (int round = 0; round < 500; round++) total ^= hot_helper(round & 15);
       return total & 63;
     } |}

let test_lifelong_pipeline () =
  let unit1 = compile ~name:"app" hot_program in
  let exe = Lifelong.build ~ipo:false [ unit1 ] in
  Alcotest.(check bool) "bitcode shipped in the executable" true
    (String.length exe.Lifelong.bitcode > 0);
  Alcotest.(check bool) "native code generated" true
    (exe.Lifelong.native_x86_bytes > 0 && exe.Lifelong.native_sparc_bytes > 0);
  (* first end-user run gathers a profile *)
  let result, profile, _ = Fleet.field_run exe.Lifelong.program in
  let baseline_instrs = result.Llvm_exec.Interp.instructions in
  let hot = Llvm_profile.Profile.hot_functions profile exe.Lifelong.program in
  Alcotest.(check bool) "hot_helper detected as hot" true
    (match List.assoc_opt "hot_helper" hot with
    | Some n -> n >= 400
    | None -> false);
  (* idle-time reoptimization with the field profile: a fleet of one *)
  let exe, stats = Lifelong.reoptimize_with_aggregate exe profile in
  Alcotest.(check bool) "hot call inlined" true (stats.Llvm_transforms.Pgo.inlined >= 1);
  (* second run: same behaviour, fewer executed instructions *)
  let result2, _, _ = Fleet.field_run exe.Lifelong.program in
  Alcotest.(check string) "behaviour preserved"
    (Fmt.str "%a" Llvm_exec.Interp.pp_rtval
       (match result.Llvm_exec.Interp.status with
       | `Returned v -> v
       | _ -> Alcotest.fail "first run failed"))
    (Fmt.str "%a" Llvm_exec.Interp.pp_rtval
       (match result2.Llvm_exec.Interp.status with
       | `Returned v -> v
       | _ -> Alcotest.fail "second run failed"));
  let after_instrs = result2.Llvm_exec.Interp.instructions in
  Alcotest.(check bool)
    (Printf.sprintf "faster after reoptimization (%d -> %d)" baseline_instrs
       after_instrs)
    true
    (after_instrs < baseline_instrs)

let tests =
  [ Alcotest.test_case "declarations resolve to definitions" `Quick
      test_link_resolves_declarations;
    Alcotest.test_case "definition-first linking" `Quick
      test_link_definition_then_declaration;
    Alcotest.test_case "internal symbols are renamed apart" `Quick
      test_link_renames_internal_collisions;
    Alcotest.test_case "duplicate definitions rejected" `Quick
      test_link_duplicate_definition_fails;
    Alcotest.test_case "globals link across units" `Quick
      test_link_globals_across_units;
    Alcotest.test_case "internalize enables whole-program DGE" `Quick
      test_internalize_enables_dge;
    Alcotest.test_case "lifelong: build, profile, reoptimize" `Quick
      test_lifelong_pipeline ]
