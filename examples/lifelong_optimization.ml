(* Lifelong optimization: the Figure 4 pipeline end to end.

   Two "translation units" are compiled separately to IR (section 3.2),
   linked with interprocedural optimization (3.3), code-generated with
   the bitcode preserved in the executable (3.4), profiled during an
   end-user run (3.5), and reoptimized in idle time using that field
   profile (3.6) — then run again, with the same output.

   Link-time IPO already inlines every call in this program, so the
   field profile counts only `main`, the reoptimizer finds no call site
   left to inline, and run 2 executes as many instructions as run 1.
   What the example shows is each stage handing the next a module it
   can still analyse, and that reoptimization keeps behaviour.  The
   profile-guided speedups are measured by `bench/main.exe pgo`
   (BENCH_pgo.json), on programs with indirect calls left to promote.

   Run with:  dune exec examples/lifelong_optimization.exe *)

let library_unit =
  {|
// matrix-ish kernel library, compiled separately
static int mix_one(int v, int salt) {
  int acc = v;
  acc = (acc * 1103515245 + salt) & 1073741823;
  acc = acc ^ (acc >> 7);
  acc = acc + (acc << 3);
  acc = acc & 16777215;
  acc = acc - (acc >> 2);
  acc = acc ^ (acc >> 11);
  acc = acc + v;
  acc = acc ^ (acc >> 5);
  acc = acc + (acc << 1);
  acc = acc & 536870911;
  acc = acc - (salt >> 1);
  acc = acc ^ (acc >> 13);
  acc = acc + (salt * 3);
  acc = acc | (acc >> 9);
  acc = acc ^ (v << 2);
  acc = acc & 268435455;
  return acc;
}
int kernel(int row, int salt) {
  int acc = 0;
  for (int c = 0; c < 4; c++) acc ^= mix_one(row + c, salt);
  return acc;
}
int rarely_used(int x) { return kernel(x, 1) + kernel(x, 2); }
|}

let app_unit =
  {|
extern int kernel(int row, int salt);
extern int rarely_used(int x);
extern void print_str(char* s);
extern void print_int(int x);

int main() {
  int total = 0;
  for (int round = 0; round < 800; round++)
    total ^= kernel(round & 63, 12345);
  if ((total & 8191) == 111) total ^= rarely_used(total);
  print_str("total=");
  print_int(total & 65535);
  return 0;
}
|}

let () =
  (* 1. separate compilation *)
  let lib = Llvm_minic.Codegen.compile_string ~name:"libkernel" library_unit in
  let app = Llvm_minic.Codegen.compile_string ~name:"app" app_unit in
  Fmt.pr "compiled 2 translation units: %d + %d instructions@."
    (Llvm_ir.Ir.module_instr_count lib)
    (Llvm_ir.Ir.module_instr_count app);

  (* 2+3. link, internalize, link-time IPO, offline codegen *)
  let exe = Llvm_linker.Lifelong.build [ lib; app ] in
  Fmt.pr
    "linked executable: %d instrs IR, %d bytes bitcode kept alongside %d \
     bytes of X86 code@."
    (Llvm_ir.Ir.module_instr_count exe.Llvm_linker.Lifelong.program)
    (String.length exe.Llvm_linker.Lifelong.bitcode)
    exe.Llvm_linker.Lifelong.native_x86_bytes;

  (* 4. an end-user run, with the lightweight profiling instrumentation *)
  let r1, profile, _ = Llvm_linker.Fleet.field_run exe.Llvm_linker.Lifelong.program in
  Fmt.pr "field run 1: output %S, %d instructions@." r1.Llvm_exec.Interp.output
    r1.Llvm_exec.Interp.instructions;
  Fmt.pr "profile (function entry counts, from the user's run):@.";
  List.iteri
    (fun k (name, count) ->
      if k < 4 then Fmt.pr "  %-16s %8d@." name count)
    (Llvm_profile.Profile.hot_functions profile exe.Llvm_linker.Lifelong.program);

  (* 5. idle-time reoptimization driven by that profile: one run is a
     fleet of one *)
  let before = Llvm_ir.Ir.module_instr_count exe.Llvm_linker.Lifelong.program in
  let exe, stats = Llvm_linker.Lifelong.reoptimize_with_aggregate exe profile in
  Fmt.pr "idle-time reoptimizer: %d hot call sites inlined (%d -> %d instrs)@."
    stats.Llvm_transforms.Pgo.inlined before
    (Llvm_ir.Ir.module_instr_count exe.Llvm_linker.Lifelong.program);

  (* 6. the next run behaves identically *)
  let r2, _, _ = Llvm_linker.Fleet.field_run exe.Llvm_linker.Lifelong.program in
  assert (r1.Llvm_exec.Interp.output = r2.Llvm_exec.Interp.output);
  Fmt.pr "field run 2: output %S, %d instructions (%.1f%% fewer)@."
    r2.Llvm_exec.Interp.output r2.Llvm_exec.Interp.instructions
    (100.
    *. (1.
       -. float_of_int r2.Llvm_exec.Interp.instructions
          /. float_of_int r1.Llvm_exec.Interp.instructions));
  Emit_sample.emit "lifelong_optimization" exe.Llvm_linker.Lifelong.program
