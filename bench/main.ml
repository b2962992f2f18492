(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 4).

   Subcommands (run them all with no arguments):
     table1    — Table 1: provably-typed static loads/stores per benchmark
     table1 --no-fields — ablation: field-insensitive DSA variant
     table2    — Table 2: link-time IPO timings (DGE, DAE, inline) vs a
                 full-recompile baseline, plus transformation counts
     table2 --raw — ablation: the same passes on unpromoted (non-SSA) IR
     figure5   — Figure 5: executable sizes (LLVM bitcode / X86 / Sparc)
                 plus the compressibility observation of section 4.1.3
     lifelong  — the Figure 4 pipeline: build, profile in the field,
                 idle-time reoptimize, rerun
     lint      — per-checker llvm-lint finding counts over the Table-1
                 workloads (analyzer precision tracked like a benchmark)
     ranges    — value-range analysis: bounds checks eliminated, fast
                 bytecode ops, and exec-time delta per Table-1 workload
                 (BENCH_ranges.json; --quick for the CI variant)
     fuzz      — differential fuzzing smoke: multi-oracle consistency
                 over generated modules and semantics-preserving mutants
                 (BENCH_fuzz.json; --quick for the CI variant)
     micro     — bechamel microbenchmarks of representation operations *)

open Llvm_ir
open Llvm_workloads

let say fmt = Fmt.pr (fmt ^^ "@.")

let time_it (f : unit -> 'a) : 'a * float =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Compile a benchmark the way the paper's pipeline does: front-end to
   IR, link (single translation unit here), internalize. *)
let build_benchmark (p : Genprog.profile) : Ir.modul =
  let m = Genprog.compile p in
  Llvm_linker.Link.internalize m;
  m

(* -- Table 1 -------------------------------------------------------------- *)

let table1 ?(field_sensitive = true) () =
  say "Table 1: Loads and Stores which are provably typed";
  say "(percent of static memory accesses with reliable type information,";
  say " computed by DSA over the linked program after stack promotion)";
  if not field_sensitive then
    say "*** ABLATION: field-insensitive points-to variant ***";
  say "";
  say "%-14s %8s %8s %9s %10s" "Benchmark" "Typed" "Untyped" "Typed%" "Paper%";
  let total_pct = ref 0.0 in
  let n = ref 0 in
  List.iter
    (fun p ->
      let m = build_benchmark p in
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Sroa.pass m);
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
      let s = Llvm_analysis.Dsa.compute_stats ~field_sensitive m in
      total_pct := !total_pct +. s.Llvm_analysis.Dsa.typed_percent;
      incr n;
      say "%-14s %8d %8d %8.1f%% %9.1f%%" p.Genprog.p_name
        s.Llvm_analysis.Dsa.typed_accesses s.Llvm_analysis.Dsa.untyped_accesses
        s.Llvm_analysis.Dsa.typed_percent p.Genprog.expected_typed_pct)
    Spec.spec2000;
  say "%-14s %8s %8s %8.1f%% %9.1f%%" "average" "" ""
    (!total_pct /. float_of_int !n)
    68.04;
  say "";
  say "Disciplined programs (Olden/Ptrdist style; the paper: 'close to 100%%'):";
  List.iter
    (fun p ->
      let m = build_benchmark p in
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Sroa.pass m);
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
      let s = Llvm_analysis.Dsa.compute_stats ~field_sensitive m in
      say "%-14s %8d %8d %8.1f%%" p.Genprog.p_name
        s.Llvm_analysis.Dsa.typed_accesses s.Llvm_analysis.Dsa.untyped_accesses
        s.Llvm_analysis.Dsa.typed_percent)
    Spec.disciplined;
  say ""

(* -- Table 2 -------------------------------------------------------------- *)

(* The baseline stands in for "GCC 3.3 -O3 compile time": our own full
   static pipeline — front-end parse, per-module optimization, and
   native code generation for one target. *)
let baseline_compile_seconds (p : Genprog.profile) : float =
  let src = Genprog.generate p in
  let _, t =
    time_it (fun () ->
        let m = Llvm_minic.Codegen.compile_string ~name:p.Genprog.p_name src in
        ignore
          (Llvm_transforms.Pass.run_sequence Llvm_transforms.Pipelines.per_module m);
        ignore (Llvm_codegen.Emit.compile_module Llvm_codegen.Target.x86ish m))
  in
  t

type t2_row = {
  r_name : string;
  dge_s : float;
  dae_s : float;
  inline_s : float;
  baseline_s : float;
  dge_funcs : int;
  dge_globals : int;
  dae_args : int;
  dae_rets : int;
  inlined : int;
}

let table2 ?(promote = true) () =
  say "Table 2: Interprocedural optimization timings (seconds)";
  say "(link-time passes on the whole program; 'Full compile' is our own";
  say " complete front-end + per-module -O + codegen pipeline, standing in";
  say " for the paper's GCC -O3 column)";
  if not promote then
    say "*** ABLATION: passes run on unpromoted (non-SSA) IR ***";
  say "";
  say "%-14s %8s %8s %8s %12s" "Benchmark" "DGE" "DAE" "inline" "Full compile";
  let rows =
    List.map
      (fun p ->
        (* fresh module per pass so each timing sees the original code *)
        let run_pass pass =
          let m = build_benchmark p in
          if promote then
            ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
          time_it (fun () -> pass m)
        in
        let dge_stats, dge_s = run_pass Llvm_transforms.Dge.run in
        let dae_stats, dae_s = run_pass Llvm_transforms.Dae.run in
        let inline_stats, inline_s =
          run_pass (Llvm_transforms.Inline.run ?threshold:None)
        in
        let baseline_s = baseline_compile_seconds p in
        { r_name = p.Genprog.p_name; dge_s; dae_s; inline_s; baseline_s;
          dge_funcs = dge_stats.Llvm_transforms.Dge.deleted_functions;
          dge_globals = dge_stats.Llvm_transforms.Dge.deleted_globals;
          dae_args = dae_stats.Llvm_transforms.Dae.removed_args;
          dae_rets = dae_stats.Llvm_transforms.Dae.removed_returns;
          inlined = inline_stats.Llvm_transforms.Inline.inlined_calls })
      Spec.spec2000
  in
  List.iter
    (fun r ->
      say "%-14s %8.4f %8.4f %8.4f %12.4f" r.r_name r.dge_s r.dae_s r.inline_s
        r.baseline_s)
    rows;
  let avg f =
    List.fold_left (fun a r -> a +. f r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  say "%-14s %8.4f %8.4f %8.4f %12.4f" "average" (avg (fun r -> r.dge_s))
    (avg (fun r -> r.dae_s))
    (avg (fun r -> r.inline_s))
    (avg (fun r -> r.baseline_s));
  let speedup =
    avg (fun r -> r.baseline_s)
    /. Float.max 1e-9 (avg (fun r -> r.dge_s +. r.dae_s +. r.inline_s))
  in
  say "";
  say "IPO passes are %.0fx faster than a full recompile on average" speedup;
  say "(the paper: 'in all cases, the optimization time is substantially";
  say " less than that to compile the program with GCC').";
  say "";
  say "Transformation counts (the paper reports e.g. DGE deleting 331";
  say "functions and 557 globals from 255.vortex, inline inlining 1368";
  say "functions in 176.gcc):";
  say "%-14s %10s %12s %9s %9s %9s" "Benchmark" "DGE funcs" "DGE globals"
    "DAE args" "DAE rets" "inlined";
  List.iter
    (fun r ->
      say "%-14s %10d %12d %9d %9d %9d" r.r_name r.dge_funcs r.dge_globals
        r.dae_args r.dae_rets r.inlined)
    rows;
  say ""

(* -- Figure 5 -------------------------------------------------------------- *)

let figure5 () =
  say "Figure 5: Executable sizes for LLVM, X86, Sparc (in KB)";
  say "(same linked program compiled three ways; code + data)";
  say "";
  say "%-14s %9s %9s %9s %9s %14s" "Benchmark" "LLVM" "X86" "Sparc" "LLVM/X86"
    "1 - LLVM/Sparc";
  let totals = ref (0, 0, 0) in
  let one_word_total = ref 0 and wide_total = ref 0 in
  let compress_ratios = ref [] in
  List.iter
    (fun p ->
      let m = build_benchmark p in
      ignore
        (Llvm_transforms.Pass.run_sequence Llvm_transforms.Pipelines.per_module m);
      let bitcode, stats = Llvm_bitcode.Encoder.encode ~strip:true m in
      let x86 = Llvm_codegen.Emit.compile_module Llvm_codegen.Target.x86ish m in
      let sparc =
        Llvm_codegen.Emit.compile_module Llvm_codegen.Target.sparcish m
      in
      let llvm_bytes = String.length bitcode + x86.Llvm_codegen.Emit.data_bytes in
      let x86_bytes = x86.Llvm_codegen.Emit.total_bytes in
      let sparc_bytes = sparc.Llvm_codegen.Emit.total_bytes in
      let a, b, c = !totals in
      totals := (a + llvm_bytes, b + x86_bytes, c + sparc_bytes);
      one_word_total :=
        !one_word_total + stats.Llvm_bitcode.Encoder.one_word_instrs;
      wide_total := !wide_total + stats.Llvm_bitcode.Encoder.wide_instrs;
      compress_ratios := Compress.ratio bitcode :: !compress_ratios;
      say "%-14s %9.1f %9.1f %9.1f %9.2f %13.0f%%" p.Genprog.p_name
        (float_of_int llvm_bytes /. 1024.)
        (float_of_int x86_bytes /. 1024.)
        (float_of_int sparc_bytes /. 1024.)
        (float_of_int llvm_bytes /. float_of_int x86_bytes)
        (100. *. (1. -. (float_of_int llvm_bytes /. float_of_int sparc_bytes))))
    Spec.spec2000;
  let a, b, c = !totals in
  say "%-14s %9.1f %9.1f %9.1f %9.2f %13.0f%%" "total"
    (float_of_int a /. 1024.)
    (float_of_int b /. 1024.)
    (float_of_int c /. 1024.)
    (float_of_int a /. float_of_int b)
    (100. *. (1. -. (float_of_int a /. float_of_int c)));
  say "";
  say "The paper: LLVM code is 'about the same size as native X86";
  say "executables' and roughly 25%% smaller than Sparc code.";
  say "";
  let ow = !one_word_total and w = !wide_total in
  say "Instruction encodings (section 4.1.3): %d one-word (%.1f%%), %d wide"
    ow
    (100. *. float_of_int ow /. float_of_int (max 1 (ow + w)))
    w;
  let ratios = !compress_ratios in
  let avg_ratio =
    List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
  in
  say "LZ77 compression shrinks bitcode to %.0f%% of its size on average"
    (100. *. avg_ratio);
  say "(the paper: bzip2 reduces bytecode files to about 50%% of their";
  say " uncompressed size).";
  say ""

(* -- Execution-engine tiers (section 3.4) ------------------------------------ *)

(* Interpreter vs bytecode over the Table-1 workloads plus the
   exception-heavy programs.  Each program runs the same number of
   repetitions in both tiers, on one machine per tier (global state
   evolves identically, since the tiers are bit-for-bit comparable), so
   the ratio isolates dispatch cost.  Correctness is checked separately:
   one profiled run per tier (including tiered) must agree on status,
   output, instruction count and block profile. *)

type exec_obs = {
  o_status : string;
  o_output : string;
  o_instrs : int;
  o_profile : (int * int) list;
}

let observe (kind : Llvm_exec.Engine.kind) (m : Ir.modul) : exec_obs =
  let r, counts = Llvm_exec.Engine.run_main ~fuel:1_000_000_000 ~profiling:true kind m in
  let status =
    match r.Llvm_exec.Interp.status with
    | `Returned v -> Fmt.str "returned %a" Llvm_exec.Interp.pp_rtval v
    | `Unwound -> "unwound"
    | `Exited c -> Fmt.str "exited %d" c
    | `Trapped msg -> "trapped: " ^ msg
  in
  { o_status = status;
    o_output = r.Llvm_exec.Interp.output;
    o_instrs = r.Llvm_exec.Interp.instructions;
    o_profile =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []) }

type exec_row = {
  e_name : string;
  interp_s : float;
  bytecode_s : float;
  compile_s : float;
  compiled_instrs : int;
  e_speedup : float;
  e_instrs : int;
  reps : int;
  genprog : bool;
}

let bench_fuel = 1_000_000_000

let time_reps (kind : Llvm_exec.Engine.kind) (m : Ir.modul) (reps : int) :
    float * float * int =
  (* one machine for all reps: state evolves, but identically per tier *)
  let e = Llvm_exec.Engine.create kind m in
  let (_, compiled_instrs), compile_s =
    match kind with
    | Llvm_exec.Engine.Bytecode_tier ->
      time_it (fun () -> Llvm_exec.Engine.compile_all e)
    | _ -> ((0, 0), 0.0)
  in
  let main = Option.get (Ir.find_func m "main") in
  let _, total =
    time_it (fun () ->
        for _ = 1 to reps do
          ignore
            (Llvm_exec.Interp.run_function ~fuel:bench_fuel
               e.Llvm_exec.Engine.mach main [])
        done)
  in
  (total /. float_of_int reps, compile_s, compiled_instrs)

let exec_bench ?(quick = false) () =
  say "Execution engine: interpreter vs bytecode tier (section 3.4)";
  if quick then say "(--quick: reduced workload sizes, correctness-focused)";
  say "";
  let programs =
    List.map
      (fun p ->
        let p = if quick then Spec.quick p else p in
        (p.Genprog.p_name, true, Genprog.compile p))
      (Spec.spec2000 @ Spec.disciplined)
    @ List.map
        (fun (name, src) -> (name, false, Ehprog.compile name src))
        Ehprog.programs
  in
  let mismatches = ref 0 in
  say "%-18s %10s %10s %10s %9s %12s" "Benchmark" "interp(s)" "bytecode(s)"
    "compile(s)" "speedup" "instrs";
  let rows =
    List.map
      (fun (name, genprog, m) ->
        (* correctness first: all three tiers must agree on everything *)
        let reference = observe Llvm_exec.Engine.Interp_tier m in
        List.iter
          (fun kind ->
            let got = observe kind m in
            let complain what =
              Fmt.epr "MISMATCH %s [%s]: %s differs@." name
                (Llvm_exec.Engine.kind_name kind)
                what;
              incr mismatches
            in
            if got.o_status <> reference.o_status then complain "status";
            if got.o_output <> reference.o_output then complain "output";
            if got.o_instrs <> reference.o_instrs then
              complain "instruction count";
            if got.o_profile <> reference.o_profile then complain "profile")
          [ Llvm_exec.Engine.Bytecode_tier; Llvm_exec.Engine.Tiered ];
        (* timing: pick reps from one interpreted run, reuse for both *)
        let t1, _, _ = time_reps Llvm_exec.Engine.Interp_tier m 1 in
        let reps =
          if quick then 1
          else max 1 (min 40 (int_of_float (0.2 /. Float.max 1e-6 t1)))
        in
        let interp_s, _, _ = time_reps Llvm_exec.Engine.Interp_tier m reps in
        let bytecode_s, compile_s, compiled_instrs =
          time_reps Llvm_exec.Engine.Bytecode_tier m reps
        in
        let speedup = interp_s /. Float.max 1e-9 bytecode_s in
        say "%-18s %10.4f %10.4f %10.4f %8.2fx %12d" name interp_s bytecode_s
          compile_s speedup reference.o_instrs;
        { e_name = name; interp_s; bytecode_s; compile_s; compiled_instrs;
          e_speedup = speedup; e_instrs = reference.o_instrs; reps; genprog })
      programs
  in
  let geomean rows =
    match rows with
    | [] -> 1.0
    | _ ->
      exp
        (List.fold_left (fun a r -> a +. log r.e_speedup) 0.0 rows
        /. float_of_int (List.length rows))
  in
  let genprog_rows = List.filter (fun r -> r.genprog) rows in
  let gm_genprog = geomean genprog_rows in
  let gm_all = geomean rows in
  say "";
  say "geomean speedup: %.2fx on the genprog workloads, %.2fx overall"
    gm_genprog gm_all;
  let total_compile = List.fold_left (fun a r -> a +. r.compile_s) 0.0 rows in
  let total_instrs =
    List.fold_left (fun a r -> a + r.compiled_instrs) 0 rows
  in
  say "bytecode compilation: %d IR instructions in %.4fs total" total_instrs
    total_compile;
  if !mismatches > 0 then
    say "*** %d TIER MISMATCHES — the bytecode tier is wrong ***" !mismatches;
  (* machine-readable record of the run *)
  let oc = open_out "BENCH_exec.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun k r ->
      j
        "    {\"name\": %S, \"genprog\": %b, \"interp_s\": %.6f, \
         \"bytecode_s\": %.6f, \"compile_s\": %.6f, \"speedup\": %.3f, \
         \"instructions\": %d, \"reps\": %d}%s\n"
        r.e_name r.genprog r.interp_s r.bytecode_s r.compile_s r.e_speedup
        r.e_instrs r.reps
        (if k = List.length rows - 1 then "" else ","))
    rows;
  j "  ],\n";
  j "  \"geomean_speedup_genprog\": %.3f,\n" gm_genprog;
  j "  \"geomean_speedup_all\": %.3f,\n" gm_all;
  j "  \"compile_total_s\": %.6f,\n" total_compile;
  j "  \"quick\": %b,\n" quick;
  j "  \"tiers_agree\": %b\n" (!mismatches = 0);
  j "}\n";
  close_out oc;
  say "wrote BENCH_exec.json";
  say "";
  if !mismatches > 0 then exit 1

(* -- Lifelong pipeline (Figure 4) ------------------------------------------- *)

(* A program with a hot region the *static* inliner must refuse (the
   callee is large and has several callers) but the profile-guided
   idle-time reoptimizer can specialize once field data shows where the
   time goes. *)
let lifelong_app =
  {|
static int table_mix(int x, int rounds) {
  int acc = x;
  for (int r = 0; r < rounds; r++) {
    acc = (acc * 1103515245 + 12345) & 1073741823;
    acc = acc ^ (acc >> 7);
    acc = acc + (acc << 3);
    acc = acc & 16777215;
    acc = acc - (acc >> 2);
    acc = acc | (x & 255);
    acc = acc ^ (acc >> 11);
    acc = acc + x;
    acc = acc & 1073741823;
    acc = acc ^ (acc >> 5);
    acc = acc + (acc << 1);
    acc = acc & 536870911;
    acc = acc - (x >> 1);
    acc = acc ^ (acc >> 13);
    acc = acc + (x * 3);
    acc = acc & 1073741823;
    acc = acc | (acc >> 9);
    acc = acc ^ (x << 2);
    acc = acc & 268435455;
  }
  return acc;
}
static int cold_path(int x) { return table_mix(x, 1); }
int main() {
  int total = 0;
  for (int i = 0; i < 2000; i++) total ^= table_mix(i & 127, 2);
  if ((total & 4095) == 777) total ^= cold_path(total);  // cold caller
  return total & 63;
}
|}

let lifelong () =
  say "Lifelong compilation pipeline (Figure 4 / sections 3.5-3.6)";
  say "";
  let unit_ = Llvm_minic.Codegen.compile_string ~name:"hotapp" lifelong_app in
  let exe = Llvm_linker.Lifelong.build [ unit_ ] in
  say "built %s: bitcode %d bytes, native X86 %d bytes, Sparc %d bytes"
    "hotapp"
    (String.length exe.Llvm_linker.Lifelong.bitcode)
    exe.Llvm_linker.Lifelong.native_x86_bytes
    exe.Llvm_linker.Lifelong.native_sparc_bytes;
  let report = Llvm_linker.Lifelong.run_in_the_field ~fuel:200_000_000 exe in
  let before = report.Llvm_linker.Lifelong.result.Llvm_exec.Interp.instructions in
  say "field run 1: %d instructions executed" before;
  (match report.Llvm_linker.Lifelong.promoted with
  | [] -> say "tiered engine: nothing crossed the hot threshold"
  | ps ->
    say "tiered engine promoted to bytecode: %s"
      (String.concat ", "
         (List.map (fun (f, n) -> Fmt.str "%s (at %d entries)" f n) ps)));
  let profile = report.Llvm_linker.Lifelong.profile in
  let hot = Llvm_profile.Profile.hot_functions profile exe.Llvm_linker.Lifelong.program in
  say "hottest functions:";
  List.iteri
    (fun k (name, count) -> if k < 5 then say "  %-24s %8d entries" name count)
    hot;
  (* the idle-time reoptimizer, fed this one run: a fleet of one *)
  let before_instrs = Ir.module_instr_count exe.Llvm_linker.Lifelong.program in
  let exe, stats = Llvm_linker.Lifelong.reoptimize_with_aggregate exe profile in
  say "idle-time reoptimizer: inlined %d hot call sites (%d -> %d instrs)"
    stats.Llvm_transforms.Pgo.inlined before_instrs
    (Ir.module_instr_count exe.Llvm_linker.Lifelong.program);
  let report2 = Llvm_linker.Lifelong.run_in_the_field ~fuel:200_000_000 exe in
  let after = report2.Llvm_linker.Lifelong.result.Llvm_exec.Interp.instructions in
  say "field run 2: %d instructions executed (%.1f%% fewer)" after
    (100. *. (1. -. (float_of_int after /. float_of_int before)));
  say ""

(* -- SAFECode-style bounds checking (section 4.1.2) --------------------------- *)

let safecode () =
  say "SAFECode-style bounds checking (section 4.1.2)";
  say "(instrument every variable array index; eliminate the checks that";
  say " masking, constants or guarded induction variables prove safe)";
  say "";
  say "%-14s %9s %11s %9s" "Benchmark" "inserted" "eliminated" "removed%";
  let tot_i = ref 0 and tot_e = ref 0 in
  List.iter
    (fun p ->
      let m = build_benchmark p in
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Gvn.pass m);
      let inserted = Llvm_transforms.Boundscheck.insert m in
      let eliminated = Llvm_transforms.Boundscheck.eliminate m in
      tot_i := !tot_i + inserted;
      tot_e := !tot_e + eliminated;
      say "%-14s %9d %11d %8.0f%%" p.Genprog.p_name inserted eliminated
        (if inserted = 0 then 100.
         else 100. *. float_of_int eliminated /. float_of_int inserted))
    Spec.spec2000;
  say "%-14s %9d %11d %8.0f%%" "total" !tot_i !tot_e
    (if !tot_i = 0 then 100.
     else 100. *. float_of_int !tot_e /. float_of_int !tot_i);
  say "";
  say "(the paper: SAFECode 'uses interprocedural analysis to eliminate";
  say " runtime bounds checks in many cases')";
  say ""

(* -- Value-range analysis: check elimination and fast ops ---------------------- *)

(* End-to-end measurement of the interprocedural value-range analysis:
   instrument every variable array index on the Table-1 workloads, let
   the range-aware eliminator prove checks away, and run the guarded and
   the eliminated program in all three engine tiers.  Every run must be
   bit-for-bit identical across tiers, and elimination must not change
   program status, output or block profile — only the executed
   instruction count.  Also reports how many guarded bytecode ops the
   range analysis let [Bytecode.compile] lower to unguarded fast
   variants. *)

type ranges_row = {
  g_name : string;
  inserted : int;
  eliminated : int;
  guarded_s : float;
  elim_s : float;
  guarded_instrs : int;
  elim_instrs : int;
  g_fast_ops : int;
}

let ranges_bench ?(quick = false) () =
  say "Value-range analysis: bounds-check elimination and fast ops";
  if quick then say "(--quick: reduced workload sizes, correctness-focused)";
  say "";
  say "%-14s %8s %10s %8s %10s %10s %8s %8s" "Benchmark" "inserted"
    "eliminated" "elim%" "guarded(s)" "elim(s)" "delta%" "fastops";
  let mismatches = ref 0 in
  let all_kinds =
    [ Llvm_exec.Engine.Interp_tier; Llvm_exec.Engine.Bytecode_tier;
      Llvm_exec.Engine.Tiered ]
  in
  let rows =
    List.map
      (fun p ->
        let p = if quick then Spec.quick p else p in
        let m = build_benchmark p in
        ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
        ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Gvn.pass m);
        let inserted = Llvm_transforms.Boundscheck.insert m in
        let complain what kind =
          Fmt.epr "MISMATCH %s [%s]: %s differs@." p.Genprog.p_name
            (Llvm_exec.Engine.kind_name kind)
            what;
          incr mismatches
        in
        (* guarded program: all three tiers agree on everything *)
        let reference = observe Llvm_exec.Engine.Interp_tier m in
        List.iter
          (fun kind ->
            let got = observe kind m in
            if got.o_status <> reference.o_status then complain "status" kind;
            if got.o_output <> reference.o_output then complain "output" kind;
            if got.o_instrs <> reference.o_instrs then
              complain "instruction count" kind;
            if got.o_profile <> reference.o_profile then complain "profile" kind)
          (List.tl all_kinds);
        let t1, _, _ = time_reps Llvm_exec.Engine.Interp_tier m 1 in
        let reps =
          if quick then 1
          else max 1 (min 40 (int_of_float (0.2 /. Float.max 1e-6 t1)))
        in
        let guarded_s, _, _ =
          time_reps Llvm_exec.Engine.Bytecode_tier m reps
        in
        (* eliminate, then recheck: tiers still agree, and the program
           behaves exactly as before minus the check calls (same status,
           output and block profile; fewer executed instructions) *)
        let eliminated = Llvm_transforms.Boundscheck.eliminate m in
        let after = observe Llvm_exec.Engine.Interp_tier m in
        if after.o_status <> reference.o_status then
          complain "status after elimination" Llvm_exec.Engine.Interp_tier;
        if after.o_output <> reference.o_output then
          complain "output after elimination" Llvm_exec.Engine.Interp_tier;
        if after.o_profile <> reference.o_profile then
          complain "profile after elimination" Llvm_exec.Engine.Interp_tier;
        List.iter
          (fun kind ->
            let got = observe kind m in
            if got.o_status <> after.o_status then complain "status" kind;
            if got.o_output <> after.o_output then complain "output" kind;
            if got.o_instrs <> after.o_instrs then
              complain "instruction count" kind;
            if got.o_profile <> after.o_profile then complain "profile" kind)
          (List.tl all_kinds);
        let elim_s, _, _ = time_reps Llvm_exec.Engine.Bytecode_tier m reps in
        let e = Llvm_exec.Engine.create Llvm_exec.Engine.Bytecode_tier m in
        ignore (Llvm_exec.Engine.compile_all e);
        let g_fast_ops = Llvm_exec.Engine.fast_ops e in
        let delta = 100. *. (1. -. (elim_s /. Float.max 1e-9 guarded_s)) in
        say "%-14s %8d %10d %7.0f%% %10.4f %10.4f %7.1f%% %8d"
          p.Genprog.p_name inserted eliminated
          (if inserted = 0 then 100.
           else 100. *. float_of_int eliminated /. float_of_int inserted)
          guarded_s elim_s delta g_fast_ops;
        { g_name = p.Genprog.p_name; inserted; eliminated; guarded_s; elim_s;
          guarded_instrs = reference.o_instrs; elim_instrs = after.o_instrs;
          g_fast_ops })
      Spec.spec2000
  in
  let tot_i = List.fold_left (fun a r -> a + r.inserted) 0 rows in
  let tot_e = List.fold_left (fun a r -> a + r.eliminated) 0 rows in
  let tot_fast = List.fold_left (fun a r -> a + r.g_fast_ops) 0 rows in
  let elim_pct =
    if tot_i = 0 then 100. else 100. *. float_of_int tot_e /. float_of_int tot_i
  in
  say "%-14s %8d %10d %7.0f%% %31s %8d" "total" tot_i tot_e elim_pct ""
    tot_fast;
  say "";
  say "%.0f%% of inserted bounds checks eliminated statically (target: 20%%);"
    elim_pct;
  say "%d bytecode ops compiled to unguarded fast variants" tot_fast;
  if !mismatches > 0 then
    say "*** %d MISMATCHES — range-driven elimination is unsound ***"
      !mismatches;
  let oc = open_out "BENCH_ranges.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n  \"benchmarks\": [\n";
  List.iteri
    (fun k r ->
      j
        "    {\"name\": %S, \"inserted\": %d, \"eliminated\": %d, \
         \"guarded_s\": %.6f, \"eliminated_s\": %.6f, \"guarded_instrs\": %d, \
         \"eliminated_instrs\": %d, \"fast_ops\": %d}%s\n"
        r.g_name r.inserted r.eliminated r.guarded_s r.elim_s r.guarded_instrs
        r.elim_instrs r.g_fast_ops
        (if k = List.length rows - 1 then "" else ","))
    rows;
  j "  ],\n";
  j "  \"inserted_total\": %d,\n" tot_i;
  j "  \"eliminated_total\": %d,\n" tot_e;
  j "  \"eliminated_percent\": %.1f,\n" elim_pct;
  j "  \"fast_ops_total\": %d,\n" tot_fast;
  j "  \"quick\": %b,\n" quick;
  j "  \"tiers_agree\": %b\n" (!mismatches = 0);
  j "}\n";
  close_out oc;
  say "wrote BENCH_ranges.json";
  say "";
  if !mismatches > 0 || tot_e = 0 then exit 1

(* -- Automatic pool allocation (sections 3.3 / 4.2.1) ------------------------- *)

let poolalloc () =
  say "Automatic Pool Allocation (sections 3.3 / 4.2.1)";
  say "(heap allocations whose DSA node cannot escape their function are";
  say " segregated into per-data-structure pools, bulk-freed on return)";
  say "";
  say "%-14s %8s %9s %9s %9s" "Benchmark" "mallocs" "pooled" "pools" "pooled%";
  let tot_m = ref 0 and tot_p = ref 0 and tot_pools = ref 0 in
  List.iter
    (fun p ->
      let m = build_benchmark p in
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
      let mallocs =
        List.fold_left
          (fun n f ->
            Ir.fold_instrs
              (fun n i -> if i.Ir.iop = Ir.Malloc then n + 1 else n)
              n f)
          0 m.Ir.mfuncs
      in
      let s = Llvm_transforms.Poolalloc.run m in
      (match Verify.verify_module m with
      | [] -> ()
      | errs ->
        Fmt.epr "%s: %a@." p.Genprog.p_name Fmt.(list Verify.pp_error) errs);
      tot_m := !tot_m + mallocs;
      tot_p := !tot_p + s.Llvm_transforms.Poolalloc.mallocs_pooled;
      tot_pools := !tot_pools + s.Llvm_transforms.Poolalloc.pools_created;
      say "%-14s %8d %9d %9d %8.0f%%" p.Genprog.p_name mallocs
        s.Llvm_transforms.Poolalloc.mallocs_pooled
        s.Llvm_transforms.Poolalloc.pools_created
        (if mallocs = 0 then 0.
         else
           100.
           *. float_of_int s.Llvm_transforms.Poolalloc.mallocs_pooled
           /. float_of_int mallocs))
    Spec.spec2000;
  say "%-14s %8d %9d %9d %8.0f%%" "total" !tot_m !tot_p !tot_pools
    (if !tot_m = 0 then 0.
     else 100. *. float_of_int !tot_p /. float_of_int !tot_m);
  say "";
  say "(the paper: DSA and Automatic Pool Allocation 'analyze and transform";
  say " programs in terms of their logical data structures')";
  say ""

(* -- Lint precision over the Table-1 workloads -------------------------------- *)

(* Tracked like a benchmark: per-checker finding counts over the same 15
   linked programs Table 1 analyzes, after the same stack promotion.
   Movement in a column is an analyzer precision (or program generator)
   change worth explaining. *)
let lint () =
  say "llvm-lint: static safety findings per checker";
  say "(over the linked Table-1 programs after SROA + mem2reg)";
  say "";
  let codes = List.map fst Llvm_analysis.Lint.all_codes in
  say "%-14s %s %6s" "Benchmark"
    (String.concat " " (List.map (Printf.sprintf "%5s") codes))
    "total";
  let totals = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let m = build_benchmark p in
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Sroa.pass m);
      ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
      let diags = Llvm_analysis.Lint.run m in
      let counts = Llvm_analysis.Lint.count_by_code diags in
      List.iter
        (fun (code, n) ->
          Hashtbl.replace totals code
            (n + Option.value ~default:0 (Hashtbl.find_opt totals code)))
        counts;
      say "%-14s %s %6d" p.Genprog.p_name
        (String.concat " "
           (List.map (fun (_, n) -> Printf.sprintf "%5d" n) counts))
        (List.length diags))
    Spec.spec2000;
  say "%-14s %s %6d" "total"
    (String.concat " "
       (List.map
          (fun code ->
            Printf.sprintf "%5d"
              (Option.value ~default:0 (Hashtbl.find_opt totals code)))
          codes))
    (Hashtbl.fold (fun _ n acc -> n + acc) totals 0);
  say "";
  say "(codes: %s)"
    (String.concat ", "
       (List.map
          (fun (c, name) -> c ^ " " ^ name)
          Llvm_analysis.Lint.all_codes));
  say ""

(* -- Microbenchmarks --------------------------------------------------------- *)

let micro () =
  let open Bechamel in
  let p = Option.get (Spec.find "186.crafty") in
  let m = build_benchmark p in
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  let text = Printer.module_to_string m in
  let image, _ = Llvm_bitcode.Encoder.encode m in
  let tests =
    Test.make_grouped ~name:"llvm"
      [ Test.make ~name:"print-module"
          (Staged.stage (fun () -> ignore (Printer.module_to_string m)));
        Test.make ~name:"parse-module"
          (Staged.stage (fun () -> ignore (Llvm_asm.Parser.parse_module text)));
        Test.make ~name:"bitcode-encode"
          (Staged.stage (fun () -> ignore (Llvm_bitcode.Encoder.encode m)));
        Test.make ~name:"bitcode-decode"
          (Staged.stage (fun () -> ignore (Llvm_bitcode.Decoder.decode image)));
        Test.make ~name:"dominators-all-functions"
          (Staged.stage (fun () ->
               List.iter
                 (fun f ->
                   if not (Ir.is_declaration f) then
                     ignore (Llvm_analysis.Dominance.compute f))
                 m.Ir.mfuncs));
        Test.make ~name:"callgraph"
          (Staged.stage (fun () -> ignore (Llvm_analysis.Callgraph.compute m)));
        Test.make ~name:"dsa-points-to"
          (Staged.stage (fun () -> ignore (Llvm_analysis.Dsa.run m)));
        Test.make ~name:"gvn-on-fresh-module"
          (Staged.stage (fun () ->
               let fresh = Llvm_bitcode.Decoder.decode image in
               ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Gvn.pass fresh)));
        Test.make ~name:"mem2reg-on-fresh-module"
          (Staged.stage (fun () ->
               let fresh = Llvm_bitcode.Decoder.decode image in
               ignore
                 (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass fresh)))
      ]
  in
  let benchmark () =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
    in
    Benchmark.all cfg instances tests
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  say "Microbenchmarks (bechamel, ns/run via OLS on the monotonic clock):";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> say "  %-32s %14.1f ns/run" name est
      | Some _ | None -> say "  %-32s %14s" name "n/a")
    results;
  say ""

(* -- Compilation-as-a-service fleet replay ----------------------------------- *)

(* Replays a synthetic fleet against the in-process serving layer
   (lib/serve): thousands of sessions compile, lint, run and link
   modules drawn zipf-distributed from a universe built over the
   genprog/eh workloads — the "millions of users compiling overlapping
   code" traffic shape of the lifelong-compilation story.  Reports
   throughput, p50/p99 latency and cache hit rate (BENCH_serve.json),
   differentially checks that served bytes are identical to direct
   pipeline runs, and self-tests the validation gate with the fuzzer's
   deliberately-wrong inject-sub-swap pass. *)

let percentile (sorted : float array) (q : float) : float =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let k = int_of_float (q *. float_of_int (n - 1)) in
    sorted.(min (n - 1) k)

(* The synthetic fleet shared by serve_bench and chaos_bench: a
   universe of bitcode payloads (quick-profile Table-1 variants plus
   the exception-heavy programs), a fixed random rank permutation, a
   zipf(s=1.1) popularity law over it, and shared-library sets for
   link batches. *)
type fleet = {
  fl_universe : (string * string * bool) array; (* name, payload, is_eh *)
  fl_perm : int array;
  fl_zipf_cum : float array;
  fl_zipf_total : float;
  fl_libsets : string list;
  fl_genprog : int;
  fl_eh : int;
}

let build_fleet ~(variants : int) (rng : Rng.t) : fleet =
  (* universe: quick-profile variants of the Table-1 workloads plus the
     exception-heavy programs, pre-serialized to bitcode payloads *)
  let genprog_universe =
    List.concat_map
      (fun p ->
        List.init variants (fun v ->
            let q = Spec.quick p in
            let q =
              { q with
                Genprog.p_name = Printf.sprintf "%s.v%d" p.Genprog.p_name v;
                Genprog.seed = q.Genprog.seed + (101 * v) }
            in
            let m = Genprog.compile q in
            (q.Genprog.p_name, fst (Llvm_bitcode.Encoder.encode m), false)))
      Spec.spec2000
  in
  let eh_universe =
    List.map
      (fun (name, src) ->
        (name, fst (Llvm_bitcode.Encoder.encode (Ehprog.compile name src)), true))
      Ehprog.programs
  in
  let universe = Array.of_list (genprog_universe @ eh_universe) in
  let nuniv = Array.length universe in
  (* rank -> universe index: a fixed random permutation so popularity is
     not correlated with generation order *)
  let perm = Array.init nuniv (fun i -> i) in
  for i = nuniv - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  (* zipf(s=1.1) over ranks *)
  let zipf_cum =
    let w = Array.init nuniv (fun k -> 1.0 /. (float_of_int (k + 1) ** 1.1)) in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc)
      w
  in
  (* shared libraries for link batches: MiniC modules with no main and
     service-unique symbol names *)
  let libsets =
    List.init 3 (fun i ->
        let src =
          Printf.sprintf
            {|
int svclib_mix_%d(int x) {
  int acc = x + %d;
  for (int k = 0; k < 64; k++) { acc = (acc * 33 + k) & 65535; }
  return acc;
}
int svclib_sum_%d(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s = s + svclib_mix_%d(i);
  return s;
}
|}
            i (17 * i) i i
        in
        let m =
          Llvm_minic.Codegen.compile_string
            ~name:(Printf.sprintf "svclib%d" i)
            src
        in
        fst (Llvm_bitcode.Encoder.encode m))
  in
  { fl_universe = universe; fl_perm = perm; fl_zipf_cum = zipf_cum;
    fl_zipf_total = zipf_cum.(nuniv - 1); fl_libsets = libsets;
    fl_genprog = List.length genprog_universe;
    fl_eh = List.length eh_universe }

let sample_fleet (fl : fleet) (rng : Rng.t) : string * string * bool =
  let nuniv = Array.length fl.fl_universe in
  let u =
    float_of_int (Rng.int rng 1_000_000) /. 1_000_000.0 *. fl.fl_zipf_total
  in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fl.fl_zipf_cum.(mid) < u then search (mid + 1) hi else search lo mid
  in
  fl.fl_universe.(fl.fl_perm.(search 0 (nuniv - 1)))

let serve_bench ?(quick = false) () =
  say "Compilation-as-a-service: synthetic fleet replay (lib/serve)";
  if quick then say "(--quick: reduced fleet)";
  say "";
  let rng = Rng.create 0x5e12e in
  let fleet = build_fleet ~variants:(if quick then 2 else 4) rng in
  let universe = fleet.fl_universe in
  let nuniv = Array.length universe in
  let perm = fleet.fl_perm in
  let libsets = fleet.fl_libsets in
  let sample_module () = sample_fleet fleet rng in
  let server = Llvm_serve.Server.create () in
  let sessions = if quick then 600 else 3000 in
  let latencies = ref [] in
  let failures = ref 0 in
  let record t0 n =
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int (max 1 n) in
    for _ = 1 to n do
      latencies := dt :: !latencies
    done
  in
  let check_resp (r : Llvm_serve.Protocol.response) =
    match r with
    | Llvm_serve.Protocol.Served _ -> ()
    | Llvm_serve.Protocol.Rejected why ->
      Fmt.epr "unexpected validation reject: %s@." why;
      incr failures
    | Llvm_serve.Protocol.Failed e ->
      Fmt.epr "request failed: %s@." e;
      incr failures
    | Llvm_serve.Protocol.Timed_out why ->
      Fmt.epr "request timed out: %s@." why;
      incr failures
    | Llvm_serve.Protocol.Busy _ ->
      Fmt.epr "request shed by in-process server (unexpected)@.";
      incr failures
  in
  (* differential gate: served bytes must match a direct pipeline run *)
  let diff_checked = ref 0 and diff_mismatches = ref 0 in
  let differential payload level (resp : Llvm_serve.Protocol.response) =
    match resp with
    | Llvm_serve.Protocol.Served { payload = got; _ } ->
      incr diff_checked;
      let m =
        match Llvm_serve.Loader.of_bytes ~name:"diff" payload with
        | Ok m -> m
        | Error e -> Fmt.failwith "diff load: %s" e
      in
      Llvm_transforms.Pipelines.optimize_module ~level m;
      let direct = fst (Llvm_bitcode.Encoder.encode m) in
      if not (String.equal direct got) then begin
        incr diff_mismatches;
        Fmt.epr "DIFFERENTIAL MISMATCH: served bytes differ from direct -O%d run@."
          level
      end
    | _ -> ()
  in
  let handle body =
    let t0 = Unix.gettimeofday () in
    let resp = Llvm_serve.Server.handle server (Llvm_serve.Protocol.req body) in
    record t0 1;
    check_resp resp;
    resp
  in
  let compile_count = ref 0 in
  let t_start = Unix.gettimeofday () in
  for session = 1 to sessions do
    let nreq = 2 + Rng.int rng 4 in
    for _ = 1 to nreq do
      let name, payload, is_eh = sample_module () in
      ignore name;
      let dice = Rng.int rng 100 in
      if dice < 70 then begin
        let level = if Rng.chance rng 20 then 3 else 2 in
        incr compile_count;
        let resp =
          handle
            (Llvm_serve.Protocol.Compile
               { c_payload = payload;
                 c_pipeline = Llvm_serve.Protocol.Level level;
                 c_validate = false })
        in
        if !compile_count mod 53 = 0 then differential payload level resp
      end
      else if dice < 85 then
        ignore (handle (Llvm_serve.Protocol.Lint payload))
      else if is_eh then
        ignore
          (handle
             (Llvm_serve.Protocol.Run
                { r_payload = payload;
                  r_pipeline = Llvm_serve.Protocol.Level 2;
                  r_fuel = 10_000_000;
                  r_engine = Llvm_exec.Engine.Tiered }))
      else begin
        incr compile_count;
        ignore
          (handle
             (Llvm_serve.Protocol.Compile
                { c_payload = payload;
                  c_pipeline = Llvm_serve.Protocol.Level 2;
                  c_validate = false }))
      end
    done;
    (* every 8th session: a queued batch of link requests sharing one
       library set — the daemon path that runs IPO once per group *)
    if session mod 8 = 0 then begin
      let libs = [ Rng.pick rng libsets ] in
      let members = 4 in
      let reqs =
        List.init members (fun _ ->
            let _, payload, _ = sample_module () in
            Llvm_serve.Protocol.req
              (Llvm_serve.Protocol.Link
                 { l_apps = [ payload ]; l_libs = libs; l_validate = false }))
      in
      let t0 = Unix.gettimeofday () in
      let resps = Llvm_serve.Server.handle_batch server reqs in
      record t0 members;
      List.iter check_resp resps
    end
  done;
  let elapsed = Unix.gettimeofday () -. t_start in
  (* validation phase: a few witnessed requests must all pass, and the
     fuzzer's deliberately wrong pass must be rejected on its request *)
  let validated = ref 0 and validation_ok = ref true in
  List.iter
    (fun (_, payload, _) ->
      incr validated;
      match
        Llvm_serve.Server.handle server
          (Llvm_serve.Protocol.req
             (Llvm_serve.Protocol.Compile
                { c_payload = payload;
                  c_pipeline = Llvm_serve.Protocol.Level 3;
                  c_validate = true }))
      with
      | Llvm_serve.Protocol.Served _ -> ()
      | _ -> validation_ok := false)
    (List.filteri (fun i _ -> i < 5) (Array.to_list universe));
  let injected_rejected =
    (* make sure the deliberately-wrong pass is registered *)
    let _ = Llvm_fuzz.Oracle.injected_bug_pass in
    let _, payload, _ = universe.(perm.(0)) in
    match
      Llvm_serve.Server.handle server
        (Llvm_serve.Protocol.req
           (Llvm_serve.Protocol.Compile
              { c_payload = payload;
                c_pipeline = Llvm_serve.Protocol.Passes [ "inject-sub-swap" ];
                c_validate = true }))
    with
    | Llvm_serve.Protocol.Rejected _ -> true
    | _ -> false
  in
  let lats = Array.of_list !latencies in
  Array.sort compare lats;
  let requests = Llvm_serve.Server.requests server in
  let throughput = float_of_int requests /. Float.max 1e-9 elapsed in
  let p50 = percentile lats 0.50 *. 1000.0 in
  let p99 = percentile lats 0.99 *. 1000.0 in
  let hit_rate = Llvm_serve.Server.hit_rate server in
  let cache = Llvm_serve.Server.cache server in
  say "universe: %d modules (%d genprog variants + %d eh), %d sessions" nuniv
    fleet.fl_genprog fleet.fl_eh sessions;
  say "%d requests in %.2fs: %.0f req/s, p50 %.3fms, p99 %.3fms" requests
    elapsed throughput p50 p99;
  say "cache: %.1f%% hit rate (%d hits, %d misses), %d entries, %d evictions"
    (100.0 *. hit_rate)
    (Llvm_serve.Cache.hits cache)
    (Llvm_serve.Cache.misses cache)
    (Llvm_serve.Cache.entries cache)
    (Llvm_serve.Cache.evictions cache);
  say "link batching: %d groups shared one IPO pipeline run"
    (Llvm_serve.Server.batched_link_groups server);
  say "differential: %d served results checked against direct runs, %d mismatches"
    !diff_checked !diff_mismatches;
  say "validation: %d witnessed requests ok=%b; inject-sub-swap rejected=%b"
    !validated !validation_ok injected_rejected;
  let clean =
    !failures = 0 && !diff_mismatches = 0 && !diff_checked > 0
    && hit_rate >= 0.5 && !validation_ok && injected_rejected
  in
  let oc = open_out "BENCH_serve.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n";
  j "  \"sessions\": %d,\n" sessions;
  j "  \"universe\": %d,\n" nuniv;
  j "  \"requests\": %d,\n" requests;
  j "  \"elapsed_s\": %.3f,\n" elapsed;
  j "  \"throughput_rps\": %.1f,\n" throughput;
  j "  \"p50_ms\": %.4f,\n" p50;
  j "  \"p99_ms\": %.4f,\n" p99;
  j "  \"hit_rate\": %.4f,\n" hit_rate;
  j "  \"hits\": %d,\n" (Llvm_serve.Cache.hits cache);
  j "  \"misses\": %d,\n" (Llvm_serve.Cache.misses cache);
  j "  \"evictions\": %d,\n" (Llvm_serve.Cache.evictions cache);
  j "  \"entries\": %d,\n" (Llvm_serve.Cache.entries cache);
  j "  \"batched_link_groups\": %d,\n"
    (Llvm_serve.Server.batched_link_groups server);
  j "  \"differential_checked\": %d,\n" !diff_checked;
  j "  \"differential_mismatches\": %d,\n" !diff_mismatches;
  j "  \"validated_requests\": %d,\n" !validated;
  j "  \"injected_miscompile_rejected\": %b,\n" injected_rejected;
  j "  \"failures\": %d,\n" !failures;
  j "  \"quick\": %b,\n" quick;
  j "  \"clean\": %b\n" clean;
  j "}\n";
  close_out oc;
  say "wrote BENCH_serve.json";
  say "";
  if not clean then exit 1

(* -- Chaos: the fleet replay under injected faults ---------------------------- *)

(* Replays the zipf fleet against a REAL forked llvmd (workers, request
   deadlines, admission control, circuit breaker) while injecting
   faults on both sides of the wire: server-side worker crashes, slow
   pipelines and cache corruption (seeded Faults plan installed in the
   daemon), and client-side torn frames, mid-frame stalls and garbage
   headers.  The gate: non-faulted traffic stays >= 99% available,
   served bytes never diverge from direct pipeline runs, every
   observed worker crash is followed by a successful fresh compile
   (automatic recovery), the daemon answers every liveness probe, and
   SIGTERM shuts it down gracefully (exit 0, socket unlinked).
   Results land in BENCH_chaos.json. *)

let chaos_bench ?(quick = false) () =
  let module P = Llvm_serve.Protocol in
  let module D = Llvm_serve.Daemon in
  let module F = Llvm_serve.Faults in
  say "Chaos: fleet replay under injected faults (lib/serve + llvmd)";
  if quick then say "(--quick: reduced fleet)";
  say "";
  (* stall/torn writes may hit a daemon that already gave up on us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rng = Rng.create 0xc4a05 in
  let fleet = build_fleet ~variants:(if quick then 2 else 3) rng in
  let sample_module () = sample_fleet fleet rng in
  (* never-cached probe payloads: recovery is only proven by a compile
     that must reach a (respawned) worker *)
  let spares =
    Array.init 64 (fun k ->
        let src =
          Printf.sprintf
            "int chaosprobe_%d(int x) { int s = %d; for (int i = 0; i < x; \
             i++) s = (s * 31 + i) & 8191; return s; }"
            k (k + 3)
        in
        let m =
          Llvm_minic.Codegen.compile_string
            ~name:(Printf.sprintf "chaosprobe%d" k)
            src
        in
        fst (Llvm_bitcode.Encoder.encode m))
  in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "llvmd-chaos-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let deadline_ms = 250 in
  let config =
    { D.default_config with
      D.workers = 2; deadline_ms; frame_deadline_ms = 150;
      idle_timeout_ms = 10_000; max_batch = 16; max_queue = 8;
      retry_after_ms = 25; breaker_cooldown_ms = 200 }
  in
  let faults =
    F.plan ~seed:0xfa017 ~crash_rate:0.04 ~crash_point:F.Mid_pipeline
      ~slow_rate:0.02 ~slow_ms:400 ~corrupt_rate:0.02 ()
  in
  let daemon_pid =
    match Unix.fork () with
    | 0 ->
      (try D.serve ~config ~faults ~socket Llvm_serve.Server.default_config
       with _ -> Unix._exit 1);
      Unix._exit 0
    | pid -> pid
  in
  (* wait for the daemon to come up *)
  let rec wait_ready tries =
    if tries = 0 then failwith "chaos: daemon did not come up";
    match D.connect ~socket with
    | fd -> D.close fd
    | exception Unix.Unix_error _ ->
      Unix.sleepf 0.05;
      wait_ready (tries - 1)
  in
  wait_ready 200;
  let total = if quick then 300 else 1500 in
  let served = ref 0 and timeouts = ref 0 and crashes = ref 0 in
  let busy_final = ref 0 and failed_other = ref 0 and transport = ref 0 in
  let client_faults = ref 0 in
  let recovered = ref 0 and recovery_ms = ref [] in
  let pings = ref 0 and ping_failures = ref 0 in
  let diff_checked = ref 0 and diff_mismatches = ref 0 in
  let latencies = ref [] in
  let compile_count = ref 0 in
  let retry i req =
    D.request_with_retry ~attempts:5 ~base_delay_ms:60 ~seed:i ~socket req
  in
  let differential payload level got =
    incr diff_checked;
    match Llvm_serve.Loader.of_bytes ~name:"diff" payload with
    | Error e -> Fmt.failwith "chaos diff load: %s" e
    | Ok m ->
      Llvm_transforms.Pipelines.optimize_module ~level m;
      if not (String.equal (fst (Llvm_bitcode.Encoder.encode m)) got) then begin
        incr diff_mismatches;
        Fmt.epr
          "CHAOS MISMATCH: served bytes differ from direct -O%d run@." level
      end
  in
  let probe_count = ref 0 in
  let recovery_probe i =
    incr probe_count;
    let payload = spares.(!probe_count mod Array.length spares) in
    let t0 = Unix.gettimeofday () in
    match
      retry i
        (P.req ~deadline_ms:2000
           (P.Compile
              { c_payload = payload; c_pipeline = P.Level 2;
                c_validate = false }))
    with
    | Ok (P.Served _) ->
      incr recovered;
      recovery_ms := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !recovery_ms
    | _ -> ()
  in
  let t_start = Unix.gettimeofday () in
  for i = 1 to total do
    if i mod 40 = 13 then begin
      (* hostile client: torn frame, mid-frame stall, or garbage header *)
      incr client_faults;
      let body =
        P.encode_request
          (P.req
             (P.Lint (let _, payload, _ = sample_module () in payload)))
      in
      (match D.connect ~socket with
      | exception Unix.Unix_error _ -> ()
      | fd ->
        (match i mod 3 with
        | 0 -> F.send_faulty F.Torn_frame fd body
        | 1 -> F.send_faulty ~stall_ms:250 F.Stalled_frame fd body
        | _ -> F.send_faulty F.Garbage_header fd body);
        (* the daemon may answer (Timed_out / Failed) before dropping us *)
        ignore (D.receive fd);
        D.close fd)
    end
    else begin
      let name, payload, is_eh = sample_module () in
      ignore name;
      let dice = Rng.int rng 100 in
      let body =
        if dice < 70 then begin
          incr compile_count;
          P.Compile
            { c_payload = payload;
              c_pipeline = P.Level (if Rng.chance rng 20 then 3 else 2);
              c_validate = false }
        end
        else if dice < 85 then P.Lint payload
        else if is_eh then
          P.Run
            { r_payload = payload; r_pipeline = P.Level 2;
              r_fuel = 10_000_000; r_engine = Llvm_exec.Engine.Tiered }
        else begin
          incr compile_count;
          P.Compile
            { c_payload = payload; c_pipeline = P.Level 2;
              c_validate = false }
        end
      in
      let t0 = Unix.gettimeofday () in
      let resp = retry i (P.req body) in
      latencies := (Unix.gettimeofday () -. t0) :: !latencies;
      (match resp with
      | Ok (P.Served { payload = got; _ }) -> (
        incr served;
        match body with
        | P.Compile { c_pipeline = P.Level level; _ }
          when !compile_count mod 20 = 0 ->
          differential payload level got
        | _ -> ())
      | Ok (P.Timed_out _) -> incr timeouts
      | Ok (P.Failed e) ->
        if
          String.length e >= 14 && String.sub e 0 14 = "worker crashed"
        then begin
          incr crashes;
          recovery_probe i
        end
        else begin
          incr failed_other;
          Fmt.epr "chaos: unexpected failure: %s@." e
        end
      | Ok (P.Busy _) -> incr busy_final
      | Ok (P.Rejected why) ->
        incr failed_other;
        Fmt.epr "chaos: unexpected reject: %s@." why
      | Error e ->
        incr transport;
        Fmt.epr "chaos: transport error: %s@." (D.error_to_string e))
    end;
    (* liveness probe: the daemon must answer even while faults rain *)
    if i mod 25 = 0 then begin
      incr pings;
      match retry i (P.req P.Ping) with
      | Ok (P.Served { payload = "pong"; _ }) -> ()
      | _ -> incr ping_failures
    end;
    (* pipelined link pair sharing a library set: exercises batch drain
       + worker affinity under faults *)
    if i mod 75 = 0 then begin
      let libs = [ Rng.pick rng fleet.fl_libsets ] in
      match D.connect ~socket with
      | exception Unix.Unix_error _ -> incr transport
      | fd ->
        let send_link () =
          let _, payload, _ = sample_module () in
          D.send fd
            (P.req ~deadline_ms:2000
               (P.Link { l_apps = [ payload ]; l_libs = libs;
                         l_validate = false }))
        in
        send_link ();
        send_link ();
        for _ = 1 to 2 do
          match D.receive fd with
          | Ok (P.Served _) -> incr served
          | Ok (P.Busy _) -> incr busy_final
          | Ok (P.Timed_out _) -> incr timeouts
          | Ok (P.Failed e)
            when String.length e >= 14
                 && String.sub e 0 14 = "worker crashed" ->
            incr crashes
          | Ok _ -> incr failed_other
          | Error _ -> incr transport
        done;
        D.close fd;
        (* recovery probes need their own connection *)
        for _ = 1 to !crashes - !recovered do
          recovery_probe i
        done
    end
  done;
  let elapsed = Unix.gettimeofday () -. t_start in
  (* final stats snapshot from the daemon itself *)
  let daemon_stats =
    match retry 0 (P.req P.Stats) with
    | Ok (P.Served { payload; _ }) -> payload
    | _ ->
      incr ping_failures;
      "{}"
  in
  (* graceful finale: SIGTERM must land a clean exit and no stale socket *)
  Unix.kill daemon_pid Sys.sigterm;
  let graceful =
    match Unix.waitpid [] daemon_pid with
    | _, Unix.WEXITED 0 ->
      (* the daemon unlinks on the way out *)
      let rec gone tries =
        if not (Sys.file_exists socket) then true
        else if tries = 0 then false
        else begin
          Unix.sleepf 0.02;
          gone (tries - 1)
        end
      in
      gone 25
    | _ -> false
  in
  let answered =
    !served + !busy_final + !failed_other + !transport + !timeouts + !crashes
  in
  let non_faulted = !served + !busy_final + !failed_other + !transport in
  let availability =
    if non_faulted = 0 then 0.0
    else float_of_int !served /. float_of_int non_faulted
  in
  let faulted = !timeouts + !crashes + !client_faults in
  let fault_share =
    float_of_int faulted /. float_of_int (max 1 (answered + !client_faults))
  in
  let lats = Array.of_list !latencies in
  Array.sort compare lats;
  let p50 = percentile lats 0.50 *. 1000.0 in
  let p99 = percentile lats 0.99 *. 1000.0 in
  let recov = Array.of_list !recovery_ms in
  Array.sort compare recov;
  let mean_recovery =
    if Array.length recov = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 recov /. float_of_int (Array.length recov)
  in
  say "%d requests in %.2fs (%.0f req/s), %d client-side frame faults" answered
    elapsed
    (float_of_int answered /. Float.max 1e-9 elapsed)
    !client_faults;
  say "served %d, timed out %d, worker crashes %d, busy %d, failed %d, \
       transport %d"
    !served !timeouts !crashes !busy_final !failed_other !transport;
  say "availability (non-faulted traffic): %.2f%%" (100.0 *. availability);
  say "fault share: %.2f%% of traffic (gate: >= 1%%)" (100.0 *. fault_share);
  say "recovery: %d/%d crashes followed by a successful fresh compile \
       (mean %.1fms, max %.1fms)"
    !recovered !crashes mean_recovery
    (if Array.length recov = 0 then 0.0 else recov.(Array.length recov - 1));
  say "liveness: %d/%d pings answered" (!pings - !ping_failures) !pings;
  say "differential: %d served compiles checked, %d mismatches" !diff_checked
    !diff_mismatches;
  say "latency under faults: p50 %.2fms, p99 %.2fms" p50 p99;
  say "graceful shutdown: %b (exit 0, socket unlinked)" graceful;
  let clean =
    !diff_mismatches = 0 && availability >= 0.99 && !recovered = !crashes
    && !ping_failures = 0 && graceful && fault_share >= 0.01
    && !diff_checked > 0
  in
  let oc = open_out "BENCH_chaos.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n";
  j "  \"requests\": %d,\n" answered;
  j "  \"elapsed_s\": %.3f,\n" elapsed;
  j "  \"client_frame_faults\": %d,\n" !client_faults;
  j "  \"served\": %d,\n" !served;
  j "  \"timed_out\": %d,\n" !timeouts;
  j "  \"worker_crashes_observed\": %d,\n" !crashes;
  j "  \"busy_after_retries\": %d,\n" !busy_final;
  j "  \"failed_other\": %d,\n" !failed_other;
  j "  \"transport_errors\": %d,\n" !transport;
  j "  \"availability\": %.4f,\n" availability;
  j "  \"fault_share\": %.4f,\n" fault_share;
  j "  \"recovered\": %d,\n" !recovered;
  j "  \"recovery_mean_ms\": %.2f,\n" mean_recovery;
  j "  \"recovery_max_ms\": %.2f,\n"
    (if Array.length recov = 0 then 0.0 else recov.(Array.length recov - 1));
  j "  \"pings\": %d,\n" !pings;
  j "  \"ping_failures\": %d,\n" !ping_failures;
  j "  \"differential_checked\": %d,\n" !diff_checked;
  j "  \"differential_mismatches\": %d,\n" !diff_mismatches;
  j "  \"p50_ms\": %.3f,\n" p50;
  j "  \"p99_ms\": %.3f,\n" p99;
  j "  \"graceful_shutdown\": %b,\n" graceful;
  j "  \"deadline_ms\": %d,\n" deadline_ms;
  j "  \"quick\": %b,\n" quick;
  j "  \"daemon_stats\": %s,\n" daemon_stats;
  j "  \"clean\": %b\n" clean;
  j "}\n";
  close_out oc;
  say "wrote BENCH_chaos.json";
  say "";
  if not clean then exit 1

(* -- Differential fuzzing smoke --------------------------------------------- *)

(* Not a paper table: a correctness gate.  Runs the multi-oracle fuzzer
   over a fixed seed range and fails the build on any divergence;
   minimized repros land in fuzz-corpus/ for the CI artifact upload. *)
let fuzz_bench ?(quick = false) () =
  let seeds = if quick then 200 else 500 in
  let cfg =
    { Llvm_fuzz.Fuzz.default_config with
      c_paths = 2;
      c_corpus = Some "fuzz-corpus" }
  in
  say "Differential fuzzing: %d seeds, oracles %s" seeds
    (String.concat ", "
       (List.map
          (fun (o : Llvm_fuzz.Oracle.t) -> o.Llvm_fuzz.Oracle.o_name)
          cfg.c_oracles));
  let (report : Llvm_fuzz.Fuzz.report), elapsed =
    time_it (fun () -> Llvm_fuzz.Fuzz.run cfg ~first:1 ~count:seeds)
  in
  say "  %d oracle checks in %.1fs: %d passed, %d failed, %d skipped"
    report.r_checks elapsed report.r_passed report.r_failed report.r_skipped;
  say "  %d semantics-preserving mutations applied" report.r_mutations;
  List.iter
    (fun (fa : Llvm_fuzz.Fuzz.failure) ->
      say "  FAIL seed=%d path=%d oracle=%s: %s%s" fa.fa_seed fa.fa_path
        fa.fa_oracle fa.fa_message
        (match fa.fa_repro with None -> "" | Some f -> " -> " ^ f))
    report.r_failures;
  let oc = open_out "BENCH_fuzz.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n";
  j "  \"seeds\": %d,\n" report.r_seeds;
  j "  \"checks\": %d,\n" report.r_checks;
  j "  \"passed\": %d,\n" report.r_passed;
  j "  \"failed\": %d,\n" report.r_failed;
  j "  \"skipped\": %d,\n" report.r_skipped;
  j "  \"mutations\": %d,\n" report.r_mutations;
  j "  \"elapsed_s\": %.2f,\n" elapsed;
  j "  \"quick\": %b,\n" quick;
  j "  \"clean\": %b\n" (report.r_failed = 0);
  j "}\n";
  close_out oc;
  say "wrote BENCH_fuzz.json";
  say "";
  if report.r_failed > 0 then exit 1

(* -- Fleet PGO: aggregate-profile speculative reoptimization ----------------- *)

(* ROADMAP item 2 end-to-end: a zipf fleet of instrumented runs per
   genprog workload (heterogeneous via the dispatch input global), the
   per-run profiles persisted and merged into one aggregate, and the
   aggregate driving Pgo.optimize (guarded indirect-call promotion +
   profile-guided inlining) plus hot/cold bytecode layout.  The gate:
   optimized behaviour is bit-identical on a held-out input, and — on
   the full run — the geomean speedup over the unoptimized module
   clears 1.15x, with the deopt rate reported. *)

type pgo_row = {
  g_name : string;
  g_base_s : float;
  g_opt_s : float;
  g_speedup : float;
  g_promoted : int;
  g_inlined : int;
  g_sites : int; (* indirect sites in the fleet aggregate *)
  g_icalls : int; (* indirect calls in one baseline run *)
  g_deopts : int; (* failed guards in one optimized run *)
  g_reps : int;
}

let time_reps_pgo ?profile ?(trials = 1) (m : Ir.modul) (reps : int) :
    float * int =
  (* bytecode tier for both sides: the ratio isolates what the
     aggregate profile bought, not interpretation overhead.  Best of
     [trials] (each averaging [reps] runs) with a major collection
     before each trial, so GC pauses and scheduler noise land on the
     discarded trials rather than in the ratio. *)
  let e = Llvm_exec.Engine.create ?profile Llvm_exec.Engine.Bytecode_tier m in
  ignore (Llvm_exec.Engine.compile_all e);
  let main = Option.get (Ir.find_func m "main") in
  let best = ref infinity in
  for _ = 1 to trials do
    Gc.full_major ();
    let _, total =
      time_it (fun () ->
          for _ = 1 to reps do
            ignore
              (Llvm_exec.Interp.run_function ~fuel:bench_fuel
                 e.Llvm_exec.Engine.mach main [])
          done)
    in
    best := Float.min !best (total /. float_of_int reps)
  done;
  (!best, Llvm_exec.Engine.deopts e)

(* The shipped binary: the statically optimized module (level 2), the
   thing a fleet actually runs and instruments.  Compilation is
   deterministic, so two [ship]s of one profile agree block-for-block —
   the aggregate's keys resolve identically in every copy. *)
let ship_pgo (p : Genprog.profile) : Ir.modul =
  let m = Genprog.compile p in
  Llvm_transforms.Pipelines.optimize_module ~level:2 m;
  m

let pgo_bench ?(quick = false) () =
  say "Fleet PGO: aggregate profiles + speculative reoptimization (sections 3.5, 4.1)";
  if quick then say "(--quick: reduced sizes and fleet, correctness-focused)";
  say "";
  let distinct = if quick then 6 else 16 in
  let total = if quick then 200 else 2000 in
  let holdout = 101 in (* never in the schedule: 1..distinct *)
  let fleet_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "llvm_fleet_%d" (Unix.getpid ()))
  in
  let schedule = Llvm_linker.Fleet.zipf_schedule ~distinct ~total in
  let behaviour_ok = ref true in
  say "%-14s %9s %9s %8s %9s %8s %7s %7s %9s" "Benchmark" "base(s)" "pgo(s)"
    "speedup" "promoted" "inlined" "icalls" "deopts" "deopt rate";
  let rows =
    List.map
      (fun p ->
        let p = if quick then Spec.quick p else p in
        let name = p.Genprog.p_name in
        (* 1. simulate the fleet on the shipped (unoptimized) program *)
        let rep =
          Llvm_linker.Fleet.simulate ~dir:(Filename.concat fleet_dir name)
            ~input_global:Genprog.input_global ~schedule (ship_pgo p)
        in
        (* 2. reoptimize a fresh copy under the merged aggregate *)
        let opt = ship_pgo p in
        let stats = Llvm_transforms.Pgo.optimize rep.aggregate opt in
        (* 3. behaviour identity on an input the fleet never ran *)
        let base_run, base_prof, _ =
          Llvm_linker.Fleet.field_run ~kind:Llvm_exec.Engine.Interp_tier
            ~input:(Genprog.input_global, holdout) (ship_pgo p)
        in
        let opt_run, _, _ =
          Llvm_linker.Fleet.field_run ~kind:Llvm_exec.Engine.Tiered
            ~input:(Genprog.input_global, holdout) ~profile:rep.aggregate opt
        in
        let same_status =
          match (base_run.Llvm_exec.Interp.status, opt_run.Llvm_exec.Interp.status) with
          | `Returned a, `Returned b -> a = b
          | `Exited a, `Exited b -> a = b
          | `Unwound, `Unwound -> true
          | `Trapped a, `Trapped b -> a = b
          | _ -> false
        in
        if
          (not same_status)
          || base_run.Llvm_exec.Interp.output <> opt_run.Llvm_exec.Interp.output
        then begin
          Fmt.epr "BEHAVIOUR MISMATCH %s: speculation changed the program@."
            name;
          behaviour_ok := false
        end;
        (* 4. timing, both sides on the bytecode tier *)
        let t1, _ = time_reps_pgo (ship_pgo p) 1 in
        let reps =
          if quick then 1
          else max 3 (min 300 (int_of_float (0.15 /. Float.max 1e-6 t1)))
        in
        let trials = if quick then 1 else 3 in
        let base_s, _ = time_reps_pgo ~trials (ship_pgo p) reps in
        let opt_s, deopts_total =
          time_reps_pgo ~trials ~profile:rep.aggregate opt reps
        in
        let deopts = deopts_total / max 1 (reps * trials) in
        let icalls =
          (* indirect calls in one baseline run = guard executions in
             one optimized run (same input, deterministic program) *)
          Llvm_profile.Profile.total_calls base_prof
        in
        let speedup = base_s /. Float.max 1e-9 opt_s in
        let rate = float_of_int deopts /. float_of_int (max 1 icalls) in
        say "%-14s %9.4f %9.4f %7.2fx %9d %8d %7d %7d %8.1f%%" name base_s
          opt_s speedup stats.Llvm_transforms.Pgo.promoted stats.inlined
          icalls deopts (100.0 *. rate);
        { g_name = name; g_base_s = base_s; g_opt_s = opt_s;
          g_speedup = speedup; g_promoted = stats.promoted;
          g_inlined = stats.inlined;
          g_sites = Llvm_profile.Profile.call_sites rep.aggregate;
          g_icalls = icalls; g_deopts = deopts; g_reps = reps })
      (Spec.spec2000 @ Spec.disciplined)
  in
  let gm =
    exp
      (List.fold_left (fun a r -> a +. log r.g_speedup) 0.0 rows
      /. float_of_int (List.length rows))
  in
  let promoted = List.fold_left (fun a r -> a + r.g_promoted) 0 rows in
  let icalls = List.fold_left (fun a r -> a + r.g_icalls) 0 rows in
  let deopts = List.fold_left (fun a r -> a + r.g_deopts) 0 rows in
  let deopt_rate = float_of_int deopts /. float_of_int (max 1 icalls) in
  say "";
  say "fleet: %d simulated runs over %d distinct inputs per workload"
    (List.fold_left (fun a (_, w) -> a + w) 0 schedule)
    distinct;
  say "geomean speedup: %.2fx; %d sites promoted; deopt rate %.1f%% (%d/%d)"
    gm promoted (100.0 *. deopt_rate) deopts icalls;
  (* quick runs gate on correctness only (CI boxes time noisily); the
     full run also enforces the 1.15x geomean *)
  let clean =
    !behaviour_ok && promoted > 0 && ((not quick) || gm > 0.0)
    && (quick || gm >= 1.15)
  in
  let oc = open_out "BENCH_pgo.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n  \"workloads\": [\n";
  List.iteri
    (fun k r ->
      j
        "    {\"name\": %S, \"base_s\": %.6f, \"pgo_s\": %.6f, \"speedup\": \
         %.3f, \"promoted\": %d, \"inlined\": %d, \"sites\": %d, \
         \"indirect_calls\": %d, \"deopts\": %d, \"reps\": %d}%s\n"
        r.g_name r.g_base_s r.g_opt_s r.g_speedup r.g_promoted r.g_inlined
        r.g_sites r.g_icalls r.g_deopts r.g_reps
        (if k = List.length rows - 1 then "" else ","))
    rows;
  j "  ],\n";
  j "  \"geomean_speedup_genprog\": %.3f,\n" gm;
  j "  \"simulated_runs_per_workload\": %d,\n"
    (List.fold_left (fun a (_, w) -> a + w) 0 schedule);
  j "  \"distinct_inputs\": %d,\n" distinct;
  j "  \"sites_promoted\": %d,\n" promoted;
  j "  \"deopts\": %d,\n" deopts;
  j "  \"indirect_calls\": %d,\n" icalls;
  j "  \"deopt_rate\": %.4f,\n" deopt_rate;
  j "  \"behaviour_identical\": %b,\n" !behaviour_ok;
  j "  \"quick\": %b,\n" quick;
  j "  \"clean\": %b\n" clean;
  j "}\n";
  close_out oc;
  say "wrote BENCH_pgo.json";
  say "";
  if not clean then exit 1

(* -- Witness validation overhead -------------------------------------------- *)

(* Regenerates BENCH_validate.json (previously orphaned): every
   workload compiled at -O3 through the serving layer twice, plain and
   with the translation-validation witness checked, plus the
   inject-sub-swap rejection self-test.  Fresh server per request so
   the cache cannot hide the validation cost. *)
let validate_bench ?(quick = false) () =
  say "Translation validation: plain vs witness-validated -O3 compiles";
  if quick then say "(--quick: reduced workload sizes)";
  say "";
  let level = 3 in
  let programs =
    List.map
      (fun p ->
        let p = if quick then Spec.quick p else p in
        (p.Genprog.p_name, Genprog.compile p))
      (Spec.spec2000 @ Spec.disciplined)
    @ List.map
        (fun (name, src) -> (name, Ehprog.compile name src))
        Ehprog.programs
  in
  let ok = ref true in
  let compile payload ~validate =
    let server = Llvm_serve.Server.create () in
    let resp, dt =
      time_it (fun () ->
          Llvm_serve.Server.handle server
            (Llvm_serve.Protocol.req
               (Llvm_serve.Protocol.Compile
                  { c_payload = payload;
                    c_pipeline = Llvm_serve.Protocol.Level level;
                    c_validate = validate })))
    in
    let rejected =
      match resp with
      | Llvm_serve.Protocol.Served _ -> 0
      | Llvm_serve.Protocol.Rejected why ->
        Fmt.epr "unexpected validation reject: %s@." why;
        ok := false;
        1
      | _ ->
        Fmt.epr "request failed@.";
        ok := false;
        0
    in
    (dt, rejected)
  in
  say "%-16s %10s %12s %9s" "Benchmark" "plain(s)" "validated(s)" "rejected";
  let rows =
    List.map
      (fun (name, m) ->
        let payload = fst (Llvm_bitcode.Encoder.encode m) in
        let plain_s, _ = compile payload ~validate:false in
        let validated_s, rejected = compile payload ~validate:true in
        say "%-16s %10.4f %12.4f %9d" name plain_s validated_s rejected;
        (name, plain_s, validated_s, rejected))
      programs
  in
  let injected_rejected =
    let _ = Llvm_fuzz.Oracle.injected_bug_pass in
    let payload = fst (Llvm_bitcode.Encoder.encode (snd (List.hd programs))) in
    let server = Llvm_serve.Server.create () in
    match
      Llvm_serve.Server.handle server
        (Llvm_serve.Protocol.req
           (Llvm_serve.Protocol.Compile
              { c_payload = payload;
                c_pipeline = Llvm_serve.Protocol.Passes [ "inject-sub-swap" ];
                c_validate = true }))
    with
    | Llvm_serve.Protocol.Rejected _ -> true
    | _ -> false
  in
  let plain = List.fold_left (fun a (_, p, _, _) -> a +. p) 0.0 rows in
  let validated = List.fold_left (fun a (_, _, v, _) -> a +. v) 0.0 rows in
  let rejected = List.fold_left (fun a (_, _, _, r) -> a + r) 0 rows in
  let clean = !ok && rejected = 0 && injected_rejected in
  say "";
  say "total: plain %.4fs, validated %.4fs (%.2fx); %d unexpected rejects"
    plain validated
    (validated /. Float.max 1e-9 plain)
    rejected;
  say "inject-sub-swap rejected by the witness check: %b" injected_rejected;
  let oc = open_out "BENCH_validate.json" in
  let j fmt = Printf.fprintf oc fmt in
  j "{\n";
  j "  \"quick\": %b,\n" quick;
  j "  \"workloads\": [\n";
  List.iteri
    (fun k (name, p, v, r) ->
      j
        "    {\"name\": %S, \"level\": %d, \"plain_s\": %.4f, \
         \"validated_s\": %.4f, \"rejected\": %d}%s\n"
        name level p v r
        (if k = List.length rows - 1 then "" else ","))
    rows;
  j "  ],\n";
  j "  \"plain_s\": %.4f,\n" plain;
  j "  \"validated_s\": %.4f,\n" validated;
  j "  \"overhead\": %.3f,\n" (validated /. Float.max 1e-9 plain);
  j "  \"rejected\": %d,\n" rejected;
  j "  \"injected_miscompile_rejected\": %b,\n" injected_rejected;
  j "  \"clean\": %b\n" clean;
  j "}\n";
  close_out oc;
  say "wrote BENCH_validate.json";
  say "";
  if not clean then exit 1

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "table1" :: rest ->
    table1 ~field_sensitive:(not (List.mem "--no-fields" rest)) ()
  | _ :: "table2" :: rest -> table2 ~promote:(not (List.mem "--raw" rest)) ()
  | _ :: "figure5" :: _ -> figure5 ()
  | _ :: "lifelong" :: _ -> lifelong ()
  | _ :: "safecode" :: _ -> safecode ()
  | _ :: "ranges" :: rest -> ranges_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "poolalloc" :: _ -> poolalloc ()
  | _ :: "lint" :: _ -> lint ()
  | _ :: "exec" :: rest -> exec_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "fuzz" :: rest -> fuzz_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "serve" :: rest -> serve_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "chaos" :: rest -> chaos_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "pgo" :: rest -> pgo_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "validate" :: rest -> validate_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "micro" :: _ -> micro ()
  | _ ->
    table1 ();
    table2 ();
    figure5 ();
    safecode ();
    ranges_bench ();
    poolalloc ();
    lint ();
    exec_bench ();
    pgo_bench ();
    validate_bench ();
    fuzz_bench ~quick:true ();
    serve_bench ~quick:true ();
    chaos_bench ~quick:true ();
    lifelong ()
