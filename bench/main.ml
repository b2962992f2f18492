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
     ranges    — value-range analysis: bounds checks eliminated,
                 exec-time delta, and the analysis's own time and
                 minor-heap allocation per Table-1 workload
                 (BENCH_ranges.json; --quick for the CI variant)
     fuzz      — differential fuzzing smoke: multi-oracle consistency
                 over generated modules and semantics-preserving mutants
                 (BENCH_fuzz.json; --quick for the CI variant)
     records   — checks that each committed BENCH_<name>.json has the
                 key paths of its quick record under _bench/ (run after
                 the --quick gates)

   A --quick run is a smoke gate, not a result: it writes its
   BENCH_<name>.json under _bench/, leaving the committed full-run
   files at the root alone. *)

open Llvm_ir
open Llvm_workloads

let say fmt = Fmt.pr (fmt ^^ "@.")

(* Wall time of [f], in seconds, on the monotonic clock. *)
let time_it (f : unit -> 'a) : 'a * float =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

let jint n = Json.Num (float_of_int n)
let jnum x = Json.Num x
let jbool b = Json.Bool b
let jstr s = Json.Str s

(* Write one run's record as BENCH_<name>.json, with the commit and
   compiler it ran on appended as "env".  Each top-level key gets its
   own line, as does each row of a top-level array, so the committed
   files diff row by row.  A record whose "quick" field is true goes
   under _bench/ instead of the root. *)
let write_bench (name : string) (fields : (string * Json.t) list) : unit =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let path =
    if List.assoc_opt "quick" fields = Some (Json.Bool true) then begin
      if not (Sys.file_exists "_bench") then Sys.mkdir "_bench" 0o755;
      Filename.concat "_bench" file
    end
    else file
  in
  let env =
    Json.Obj
      [ ("commit", jstr (Measure.commit ())); ("ocaml", jstr Sys.ocaml_version) ]
  in
  let line (k, v) =
    let v =
      match v with
      | Json.Arr (_ :: _ as rows) ->
        "[\n    " ^ String.concat ",\n    " (List.map Json.to_string rows) ^ "\n  ]"
      | v -> Json.to_string v
    in
    Printf.sprintf "  %s: %s" (Json.escape k) v
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        ("{\n" ^ String.concat ",\n" (List.map line (fields @ [ ("env", env) ])) ^ "\n}\n"));
  say "wrote %s" path

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
   one profiled run per tier must agree on status, output, instruction
   count and block profile ([Tiered] shares the bytecode tier's
   dispatch, so the bytecode run covers it). *)

let bench_fuel = 1_000_000_000

(* One profiled run of [main]: the tier checks compare block profiles. *)
let profiled (kind : Llvm_exec.Engine.kind) (m : Ir.modul) =
  Llvm_exec.Engine.run_main ~fuel:bench_fuel ~profiling:true kind m

let mismatch name kind what =
  Fmt.epr "MISMATCH %s [%s]: %s differs@." name (Llvm_exec.Engine.kind_name kind) what

(* The tier agreement check: the bytecode tier must match [reference],
   the interpreter's run of [m], on everything.  Reports every
   difference; returns how many. *)
let tier_mismatches (name : string) reference (m : Ir.modul) : int =
  let kind = Llvm_exec.Engine.Bytecode_tier in
  let diffs = Llvm_exec.Interp.differences reference (profiled kind m) in
  List.iter (fun f -> mismatch name kind (Llvm_exec.Interp.field_name f)) diffs;
  List.length diffs

(* The execution workloads: the Table-1 and disciplined programs
   (quick-sized under --quick, flagged genprog), then the
   exception-heavy programs. *)
let exec_programs ~(quick : bool) : (string * bool * Ir.modul) list =
  List.map
    (fun p ->
      let p = if quick then Spec.quick p else p in
      (p.Genprog.p_name, true, Genprog.compile p))
    (Spec.spec2000 @ Spec.disciplined)
  @ List.map (fun (name, src) -> (name, false, Ehprog.compile name src)) Ehprog.programs

(* How many times a timing runs [main]: a fixed count, or as many as
   fit in a budget of [seconds] (at least one, at most [cap]), judged
   from one calibration run on a fresh engine.  A quick run is a smoke
   gate and always does one. *)
type reps = Reps of int | Budget of float * int

let budget ~quick seconds cap = if quick then Reps 1 else Budget (seconds, cap)

type timing = {
  per_rep_s : float;
  minor_words : float;  (* allocated per rep ([Gc.minor_words]), last trial *)
  reps : int;
  compile_s : float;  (* [compile_all], on the bytecode tier only *)
  compiled_instrs : int;
  deopts : int;  (* failed speculation guards, over every rep *)
}

(* Time [main] of [m] on one engine of [kind] (specialized with
   [profile] if given): every rep runs on the same machine, so state
   evolves, but identically per tier.  Best of [trials], each the mean
   of [reps] runs after a major collection, so GC pauses and scheduler
   noise land on the discarded trials. *)
let rec time_main ?profile ?(trials = 1) ~(reps : reps) (kind : Llvm_exec.Engine.kind)
    (m : Ir.modul) : timing =
  match reps with
  | Budget (seconds, cap) ->
    let t1 = (time_main ?profile ~reps:(Reps 1) kind m).per_rep_s in
    let n = max 1 (min cap (int_of_float (seconds /. Float.max 1e-6 t1))) in
    time_main ?profile ~trials ~reps:(Reps n) kind m
  | Reps reps ->
    let e = Llvm_exec.Engine.create ?profile kind m in
    let (_, compiled_instrs), compile_s =
      if kind = Llvm_exec.Engine.Bytecode_tier then
        time_it (fun () -> Llvm_exec.Engine.compile_all e)
      else ((0, 0), 0.0)
    in
    let best = ref infinity and words = ref 0.0 in
    for _ = 1 to trials do
      Gc.full_major ();
      let words0 = Gc.minor_words () in
      let (), total =
        time_it (fun () ->
            for _ = 1 to reps do
              ignore (Llvm_exec.Interp.run_loaded ~fuel:bench_fuel e.Llvm_exec.Engine.mach)
            done)
      in
      words := (Gc.minor_words () -. words0) /. float_of_int reps;
      best := Float.min !best (total /. float_of_int reps)
    done;
    { per_rep_s = !best; minor_words = !words; reps; compile_s; compiled_instrs;
      deopts = Llvm_exec.Engine.deopts e }

let geomean (xs : float list) : float =
  match xs with
  | [] -> 1.0
  | _ -> exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let exec_bench ?(quick = false) () =
  say "Execution engine: interpreter vs bytecode tier (section 3.4)";
  if quick then say "(--quick: reduced workload sizes, correctness-focused)";
  say "";
  let mismatches = ref 0 in
  say "%-18s %10s %10s %10s %9s %12s" "Benchmark" "interp(s)" "bytecode(s)"
    "compile(s)" "speedup" "instrs";
  let rows =
    List.map
      (fun (name, genprog, m) ->
        (* correctness first: both tiers must agree on everything *)
        let ((r, _) as reference) = profiled Llvm_exec.Engine.Interp_tier m in
        mismatches := !mismatches + tier_mismatches name reference m;
        (* timing: reps calibrated on the interpreter, reused for bytecode *)
        let interp =
          time_main ~reps:(budget ~quick 0.2 40) Llvm_exec.Engine.Interp_tier m
        in
        let bytecode =
          time_main ~reps:(Reps interp.reps) Llvm_exec.Engine.Bytecode_tier m
        in
        let speedup = interp.per_rep_s /. Float.max 1e-9 bytecode.per_rep_s in
        say "%-18s %10.4f %10.4f %10.4f %8.2fx %12d" name interp.per_rep_s
          bytecode.per_rep_s bytecode.compile_s speedup r.instructions;
        ( genprog, speedup, (interp, bytecode),
          Json.Obj
            [ ("name", jstr name); ("genprog", jbool genprog);
              ("interp_s", jnum interp.per_rep_s); ("bytecode_s", jnum bytecode.per_rep_s);
              ("interp_minor_words", jnum interp.minor_words);
              ("bytecode_minor_words", jnum bytecode.minor_words);
              ("compile_s", jnum bytecode.compile_s); ("speedup", jnum speedup);
              ("instructions", jint r.instructions); ("reps", jint interp.reps) ] ))
      (exec_programs ~quick)
  in
  let gm_genprog =
    geomean (List.filter_map (fun (g, s, _, _) -> if g then Some s else None) rows)
  in
  let gm_all = geomean (List.map (fun (_, s, _, _) -> s) rows) in
  say "";
  say "geomean speedup: %.2fx on the genprog workloads, %.2fx overall"
    gm_genprog gm_all;
  let total_compile = List.fold_left (fun a (_, _, (_, b), _) -> a +. b.compile_s) 0.0 rows in
  say "bytecode compilation: %d IR instructions in %.4fs total"
    (List.fold_left (fun a (_, _, (_, b), _) -> a + b.compiled_instrs) 0 rows)
    total_compile;
  let words tier = List.fold_left (fun a (_, _, t, _) -> a +. (tier t).minor_words) 0.0 rows in
  say "minor words per rep, summed over the programs: %.2fM interp, %.2fM bytecode"
    (words fst /. 1e6) (words snd /. 1e6);
  if !mismatches > 0 then
    say "*** %d TIER MISMATCHES — the bytecode tier is wrong ***" !mismatches;
  write_bench "exec"
    [ ("benchmarks", Json.Arr (List.map (fun (_, _, _, j) -> j) rows));
      ("geomean_speedup_genprog", jnum gm_genprog); ("geomean_speedup_all", jnum gm_all);
      ("compile_total_s", jnum total_compile); ("quick", jbool quick);
      ("tiers_agree", jbool (!mismatches = 0)) ];
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
  let program = exe.Llvm_linker.Lifelong.program in
  let result, profile, _ = Llvm_linker.Fleet.field_run ~fuel:200_000_000 program in
  let before = result.Llvm_exec.Interp.instructions in
  say "field run 1: %d instructions executed" before;
  let hot = Llvm_profile.Profile.hot_functions profile program in
  say "hottest functions:";
  List.iteri
    (fun k (name, count) -> if k < 5 then say "  %-24s %8d entries" name count)
    hot;
  (* the idle-time reoptimizer, fed this one run: a fleet of one *)
  let before_instrs = Ir.module_instr_count program in
  let exe, stats = Llvm_linker.Lifelong.reoptimize_with_aggregate exe profile in
  let program = exe.Llvm_linker.Lifelong.program in
  say "idle-time reoptimizer: inlined %d hot call sites (%d -> %d instrs)"
    stats.Llvm_transforms.Pgo.inlined before_instrs
    (Ir.module_instr_count program);
  let result2, _, _ = Llvm_linker.Fleet.field_run ~fuel:200_000_000 program in
  let after = result2.Llvm_exec.Interp.instructions in
  say "field run 2: %d instructions executed (%.1f%% fewer)" after
    (100. *. (1. -. (float_of_int after /. float_of_int before)));
  say ""

(* -- Value-range analysis: check elimination ----------------------------------- *)

(* End-to-end measurement of the interprocedural value-range analysis
   and the SAFECode-style bounds checks it discharges (section 4.1.2):
   instrument every variable array index on the Table-1 workloads, let
   the range-aware eliminator prove checks away, and run the guarded and
   the eliminated program in both engine tiers.  Every run must be
   bit-for-bit identical across tiers, and elimination must not change
   program status, output or block profile — only the executed
   instruction count.  Also reports what [Range.analyze] itself costs
   on the module [eliminate] analyses: the best wall time of five runs
   and the minor-heap words of one. *)

let ranges_bench ?(quick = false) () =
  say "Value-range analysis: bounds-check elimination";
  if quick then say "(--quick: reduced workload sizes, correctness-focused)";
  say "";
  say "%-14s %8s %10s %8s %10s %10s %8s %11s %10s" "Benchmark" "inserted"
    "eliminated" "elim%" "guarded(s)" "elim(s)" "delta%" "analyze(ms)" "alloc(kw)";
  let mismatches = ref 0 in
  let pct part whole =
    if whole = 0 then 100. else 100. *. float_of_int part /. float_of_int whole
  in
  let rows =
    List.map
      (fun p ->
        let p = if quick then Spec.quick p else p in
        let name = p.Genprog.p_name in
        let m = build_benchmark p in
        ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
        ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Gvn.pass m);
        let inserted = Llvm_transforms.Boundscheck.insert m in
        (* the cost of the analysis [eliminate] runs: best wall time of a
           few runs, and the minor-heap words one run allocates *)
        let analyze_s =
          List.fold_left min infinity
            (List.init 5 (fun _ -> snd (time_it (fun () -> Llvm_analysis.Range.analyze m))))
        in
        let w0 = Gc.minor_words () in
        ignore (Llvm_analysis.Range.analyze m);
        let analyze_kw = (Gc.minor_words () -. w0) /. 1000. in
        (* guarded program: both tiers agree on everything *)
        let reference = profiled Llvm_exec.Engine.Interp_tier m in
        mismatches := !mismatches + tier_mismatches name reference m;
        let guarded =
          time_main ~reps:(budget ~quick 0.2 40) Llvm_exec.Engine.Bytecode_tier m
        in
        (* eliminate, then recheck: tiers still agree, and the program
           behaves exactly as before minus the check calls (same status,
           output and block profile; fewer executed instructions) *)
        let eliminated = Llvm_transforms.Boundscheck.eliminate m in
        let after = profiled Llvm_exec.Engine.Interp_tier m in
        let changed =
          Llvm_exec.Interp.differences ~fields:[ Status; Output; Profile ] reference after
        in
        List.iter
          (fun f ->
            mismatch name Llvm_exec.Engine.Interp_tier
              (Llvm_exec.Interp.field_name f ^ " after elimination"))
          changed;
        mismatches := !mismatches + List.length changed + tier_mismatches name after m;
        let elim =
          time_main ~reps:(Reps guarded.reps) Llvm_exec.Engine.Bytecode_tier m
        in
        let delta = 100. *. (1. -. (elim.per_rep_s /. Float.max 1e-9 guarded.per_rep_s)) in
        say "%-14s %8d %10d %7.0f%% %10.4f %10.4f %7.1f%% %11.2f %10.0f" name inserted
          eliminated (pct eliminated inserted) guarded.per_rep_s elim.per_rep_s delta
          (analyze_s *. 1e3) analyze_kw;
        ( (inserted, eliminated, analyze_s, analyze_kw),
          Json.Obj
            [ ("name", jstr name); ("inserted", jint inserted); ("eliminated", jint eliminated);
              ("guarded_s", jnum guarded.per_rep_s); ("eliminated_s", jnum elim.per_rep_s);
              ("guarded_instrs", jint (fst reference).instructions);
              ("eliminated_instrs", jint (fst after).instructions);
              ("analyze_s", jnum analyze_s); ("analyze_minor_kw", jnum analyze_kw) ] ))
      Spec.spec2000
  in
  let total f = List.fold_left (fun a (c, _) -> a + f c) 0 rows in
  let total_f f = List.fold_left (fun a (c, _) -> a +. f c) 0. rows in
  let tot_i = total (fun (i, _, _, _) -> i) in
  let tot_e = total (fun (_, e, _, _) -> e) in
  let tot_analyze_s = total_f (fun (_, _, s, _) -> s) in
  let tot_analyze_kw = total_f (fun (_, _, _, kw) -> kw) in
  let elim_pct = pct tot_e tot_i in
  say "%-14s %8d %10d %7.0f%% %31s %11.2f %10.0f" "total" tot_i tot_e elim_pct ""
    (tot_analyze_s *. 1e3) tot_analyze_kw;
  say "";
  say "%.0f%% of inserted bounds checks eliminated statically (target: 20%%);"
    elim_pct;
  if !mismatches > 0 then
    say "*** %d MISMATCHES — range-driven elimination is unsound ***"
      !mismatches;
  write_bench "ranges"
    [ ("benchmarks", Json.Arr (List.map snd rows)); ("inserted_total", jint tot_i);
      ("eliminated_total", jint tot_e); ("eliminated_percent", jnum elim_pct);
      ("analyze_s_total", jnum tot_analyze_s);
      ("analyze_minor_kw_total", jnum tot_analyze_kw); ("quick", jbool quick);
      ("tiers_agree", jbool (!mismatches = 0)) ];
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

(* One request of the fleet's mix on a zipf-drawn module: 70% compiles
   (one in five at -O3, the rest at -O2), 15% lints, and 15% runs of an
   exception-heavy program, which for any other module become -O2
   compiles.  The flag is false for those stand-in compiles. *)
let sample_request (fl : fleet) (rng : Rng.t) : Llvm_serve.Protocol.body * bool =
  let module P = Llvm_serve.Protocol in
  let _, payload, is_eh = sample_fleet fl rng in
  let compile level =
    P.Compile { c_payload = payload; c_pipeline = P.Level level; c_validate = false }
  in
  let dice = Rng.int rng 100 in
  if dice < 70 then (compile (if Rng.chance rng 20 then 3 else 2), true)
  else if dice < 85 then (P.Lint payload, true)
  else if is_eh then
    ( P.Run
        { r_payload = payload; r_pipeline = P.Level 2; r_fuel = 10_000_000;
          r_engine = Llvm_exec.Engine.Tiered },
      true )
  else (compile 2, false)

(* The served-vs-direct differential, run on every [every]th compile
   of the mix (skipping stand-in compiles unless [stand_ins]): the
   served bytes must equal the encoding of a direct run of the same
   pipeline on the same payload. *)
type differential = {
  every : int;
  stand_ins : bool;
  mutable compiles : int;
  mutable checked : int;
  mutable mismatches : int;
}

let differential ~every ~stand_ins =
  { every; stand_ins; compiles = 0; checked = 0; mismatches = 0 }

let check_differential (d : differential) ((body, drawn) : Llvm_serve.Protocol.body * bool)
    (resp : (Llvm_serve.Protocol.response, 'e) result) : unit =
  match body with
  | Compile { c_payload; c_pipeline = Level level; _ } -> (
    d.compiles <- d.compiles + 1;
    match resp with
    | Ok (Served { payload = got; _ })
      when (drawn || d.stand_ins) && d.compiles mod d.every = 0 ->
      d.checked <- d.checked + 1;
      let m =
        match Llvm_serve.Loader.of_bytes ~name:"diff" c_payload with
        | Ok m -> m
        | Error e -> Fmt.failwith "differential load: %s" e
      in
      Llvm_transforms.Pipelines.optimize_module ~level m;
      if not (String.equal (fst (Llvm_bitcode.Encoder.encode m)) got) then begin
        d.mismatches <- d.mismatches + 1;
        Fmt.epr "DIFFERENTIAL MISMATCH: served bytes differ from direct -O%d run@." level
      end
    | _ -> ())
  | _ -> ()

(* The validation gate's self-test: a witnessed compile through the
   fuzzer's deliberately wrong inject-sub-swap pass must be rejected. *)
let injected_miscompile_rejected (server : Llvm_serve.Server.t) (payload : string) : bool =
  (* make sure the deliberately-wrong pass is registered *)
  let _ = Llvm_fuzz.Oracle.injected_bug_pass in
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

(* p50 and p99 of [latencies] (seconds), in ms, by the quantile rule the
   end-to-end benchmark uses. *)
let p50_p99_ms (latencies : float list) : float * float =
  let a = Measure.sorted latencies in
  (1000.0 *. Measure.cut a ~i:50 ~n:100, 1000.0 *. Measure.cut a ~i:99 ~n:100)

let serve_bench ?(quick = false) () =
  say "Compilation-as-a-service: synthetic fleet replay (lib/serve)";
  if quick then say "(--quick: reduced fleet)";
  say "";
  let rng = Rng.create 0x5e12e in
  let fleet = build_fleet ~variants:(if quick then 2 else 4) rng in
  let universe = fleet.fl_universe in
  let nuniv = Array.length universe in
  let server = Llvm_serve.Server.create () in
  let sessions = if quick then 600 else 3000 in
  let latencies = ref [] in
  let failures = ref 0 in
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
  let diff = differential ~every:53 ~stand_ins:false in
  (* minor-heap words allocated inside the server, over the replay *)
  let minor_words = ref 0.0 in
  let allocating f =
    let w0 = (Gc.quick_stat ()).Gc.minor_words in
    let r = f () in
    minor_words := !minor_words +. ((Gc.quick_stat ()).Gc.minor_words -. w0);
    r
  in
  let (), elapsed =
    time_it (fun () ->
        for session = 1 to sessions do
          for _ = 1 to 2 + Rng.int rng 4 do
            let request = sample_request fleet rng in
            let resp, dt =
              time_it (fun () ->
                  allocating (fun () ->
                      Llvm_serve.Server.handle server (Llvm_serve.Protocol.req (fst request))))
            in
            latencies := dt :: !latencies;
            check_resp resp;
            check_differential diff request (Ok resp)
          done;
          (* every 8th session: a queued batch of link requests sharing one
             library set — IPO runs once for the set, through the cache *)
          if session mod 8 = 0 then begin
            let libs = [ Rng.pick rng fleet.fl_libsets ] in
            let members = 4 in
            let reqs =
              List.init members (fun _ ->
                  let _, payload, _ = sample_fleet fleet rng in
                  Llvm_serve.Protocol.req
                    (Llvm_serve.Protocol.Link
                       { l_apps = [ payload ]; l_libs = libs; l_validate = false }))
            in
            let resps, dt =
              time_it (fun () ->
                  allocating (fun () -> List.map (Llvm_serve.Server.handle server) reqs))
            in
            for _ = 1 to members do
              latencies := (dt /. float_of_int members) :: !latencies
            done;
            List.iter check_resp resps
          end
        done)
  in
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
    let _, payload, _ = universe.(fleet.fl_perm.(0)) in
    injected_miscompile_rejected server payload
  in
  let requests = Llvm_serve.Server.requests server in
  let throughput = float_of_int requests /. Float.max 1e-9 elapsed in
  let p50, p99 = p50_p99_ms !latencies in
  let minor_per_request = !minor_words /. float_of_int (max 1 (List.length !latencies)) in
  let hit_rate = Llvm_serve.Server.hit_rate server in
  let cache = Llvm_serve.Server.cache server in
  say "universe: %d modules (%d genprog variants + %d eh), %d sessions" nuniv
    fleet.fl_genprog fleet.fl_eh sessions;
  say "%d requests in %.2fs: %.0f req/s, p50 %.3fms, p99 %.3fms, %.0f minor words/request"
    requests elapsed throughput p50 p99 minor_per_request;
  say "cache: %.1f%% hit rate (%d hits, %d misses), %d entries, %d evictions"
    (100.0 *. hit_rate)
    (Llvm_serve.Cache.hits cache)
    (Llvm_serve.Cache.misses cache)
    (Llvm_serve.Cache.entries cache)
    (Llvm_serve.Cache.evictions cache);
  say "differential: %d served results checked against direct runs, %d mismatches"
    diff.checked diff.mismatches;
  say "validation: %d witnessed requests ok=%b; inject-sub-swap rejected=%b"
    !validated !validation_ok injected_rejected;
  let clean =
    !failures = 0 && diff.mismatches = 0 && diff.checked > 0
    && hit_rate >= 0.5 && !validation_ok && injected_rejected
  in
  write_bench "serve"
    [ ("sessions", jint sessions); ("universe", jint nuniv); ("requests", jint requests);
      ("elapsed_s", jnum elapsed); ("throughput_rps", jnum throughput);
      ("p50_ms", jnum p50); ("minor_words_per_request", jnum minor_per_request);
      ("p99_ms", jnum p99); ("hit_rate", jnum hit_rate);
      ("hits", jint (Llvm_serve.Cache.hits cache));
      ("misses", jint (Llvm_serve.Cache.misses cache));
      ("evictions", jint (Llvm_serve.Cache.evictions cache));
      ("entries", jint (Llvm_serve.Cache.entries cache));
      ("differential_checked", jint diff.checked);
      ("differential_mismatches", jint diff.mismatches);
      ("validated_requests", jint !validated);
      ("injected_miscompile_rejected", jbool injected_rejected);
      ("failures", jint !failures); ("quick", jbool quick); ("clean", jbool clean) ];
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
  let diff = differential ~every:20 ~stand_ins:true in
  let latencies = ref [] in
  let retry i req =
    D.request_with_retry ~attempts:5 ~base_delay_ms:60 ~seed:i ~socket req
  in
  let probe_count = ref 0 in
  let recovery_probe i =
    incr probe_count;
    let payload = spares.(!probe_count mod Array.length spares) in
    match
      time_it (fun () ->
          retry i
            (P.req ~deadline_ms:2000
               (P.Compile
                  { c_payload = payload; c_pipeline = P.Level 2;
                    c_validate = false })))
    with
    | Ok (P.Served _), dt ->
      incr recovered;
      recovery_ms := (dt *. 1000.0) :: !recovery_ms
    | _ -> ()
  in
  let (), elapsed =
    time_it (fun () ->
        for i = 1 to total do
          if i mod 40 = 13 then begin
            (* hostile client: torn frame, mid-frame stall, or garbage header *)
            incr client_faults;
            let body =
              P.encode_request
                (P.req (P.Lint (let _, payload, _ = sample_fleet fleet rng in payload)))
            in
            match D.connect ~socket with
            | exception Unix.Unix_error _ -> ()
            | fd ->
              (match i mod 3 with
              | 0 -> F.send_faulty F.Torn_frame fd body
              | 1 -> F.send_faulty ~stall_ms:250 F.Stalled_frame fd body
              | _ -> F.send_faulty F.Garbage_header fd body);
              (* the daemon may answer (Timed_out / Failed) before dropping us *)
              ignore (D.receive fd);
              D.close fd
          end
          else begin
            let request = sample_request fleet rng in
            let resp, dt = time_it (fun () -> retry i (P.req (fst request))) in
            latencies := dt :: !latencies;
            check_differential diff request resp;
            match resp with
            | Ok (P.Served _) -> incr served
            | Ok (P.Timed_out _) -> incr timeouts
            | Ok (P.Failed e) ->
              if String.length e >= 14 && String.sub e 0 14 = "worker crashed" then begin
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
              Fmt.epr "chaos: transport error: %s@." (D.error_to_string e)
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
                let _, payload, _ = sample_fleet fleet rng in
                D.send fd
                  (P.req ~deadline_ms:2000
                     (P.Link { l_apps = [ payload ]; l_libs = libs; l_validate = false }))
              in
              send_link ();
              send_link ();
              for _ = 1 to 2 do
                match D.receive fd with
                | Ok (P.Served _) -> incr served
                | Ok (P.Busy _) -> incr busy_final
                | Ok (P.Timed_out _) -> incr timeouts
                | Ok (P.Failed e)
                  when String.length e >= 14 && String.sub e 0 14 = "worker crashed" ->
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
        done)
  in
  (* final stats snapshot from the daemon itself *)
  let daemon_stats =
    match retry 0 (P.req P.Stats) with
    | Ok (P.Served { payload; _ }) -> (
      try Json.of_string payload with Json.Parse_error _ -> jstr payload)
    | _ ->
      incr ping_failures;
      Json.Obj []
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
  let p50, p99 = p50_p99_ms !latencies in
  let mean_recovery =
    match !recovery_ms with
    | [] -> 0.0
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  let max_recovery = List.fold_left Float.max 0.0 !recovery_ms in
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
    !recovered !crashes mean_recovery max_recovery;
  say "liveness: %d/%d pings answered" (!pings - !ping_failures) !pings;
  say "differential: %d served compiles checked, %d mismatches" diff.checked
    diff.mismatches;
  say "latency under faults: p50 %.2fms, p99 %.2fms" p50 p99;
  say "graceful shutdown: %b (exit 0, socket unlinked)" graceful;
  let clean =
    diff.mismatches = 0 && availability >= 0.99 && !recovered = !crashes
    && !ping_failures = 0 && graceful && fault_share >= 0.01
    && diff.checked > 0
  in
  write_bench "chaos"
    [ ("requests", jint answered); ("elapsed_s", jnum elapsed);
      ("client_frame_faults", jint !client_faults); ("served", jint !served);
      ("timed_out", jint !timeouts); ("worker_crashes_observed", jint !crashes);
      ("busy_after_retries", jint !busy_final); ("failed_other", jint !failed_other);
      ("transport_errors", jint !transport); ("availability", jnum availability);
      ("fault_share", jnum fault_share); ("recovered", jint !recovered);
      ("recovery_mean_ms", jnum mean_recovery); ("recovery_max_ms", jnum max_recovery);
      ("pings", jint !pings); ("ping_failures", jint !ping_failures);
      ("differential_checked", jint diff.checked);
      ("differential_mismatches", jint diff.mismatches); ("p50_ms", jnum p50);
      ("p99_ms", jnum p99); ("graceful_shutdown", jbool graceful);
      ("deadline_ms", jint deadline_ms); ("quick", jbool quick);
      ("daemon_stats", daemon_stats); ("clean", jbool clean) ];
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
  write_bench "fuzz"
    [ ("seeds", jint report.r_seeds); ("checks", jint report.r_checks);
      ("passed", jint report.r_passed); ("failed", jint report.r_failed);
      ("skipped", jint report.r_skipped); ("mutations", jint report.r_mutations);
      ("elapsed_s", jnum elapsed); ("quick", jbool quick);
      ("clean", jbool (report.r_failed = 0)) ];
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
        let no_counts = Hashtbl.create 1 in
        if
          Llvm_exec.Interp.differences ~fields:[ Status; Output ] (base_run, no_counts)
            (opt_run, no_counts)
          <> []
        then begin
          Fmt.epr "BEHAVIOUR MISMATCH %s: speculation changed the program@."
            name;
          behaviour_ok := false
        end;
        (* 4. timing, both sides on the bytecode tier: the ratio isolates
           what the aggregate profile bought, not interpretation overhead *)
        let trials = if quick then 1 else 3 in
        let base =
          time_main ~trials ~reps:(budget ~quick 0.15 300) Llvm_exec.Engine.Bytecode_tier
            (ship_pgo p)
        in
        let pgo =
          time_main ~trials ~reps:(Reps base.reps) ~profile:rep.aggregate
            Llvm_exec.Engine.Bytecode_tier opt
        in
        let deopts = pgo.deopts / max 1 (base.reps * trials) in
        let icalls =
          (* indirect calls in one baseline run = guard executions in
             one optimized run (same input, deterministic program) *)
          Llvm_profile.Profile.total_calls base_prof
        in
        let speedup = base.per_rep_s /. Float.max 1e-9 pgo.per_rep_s in
        let rate = float_of_int deopts /. float_of_int (max 1 icalls) in
        say "%-14s %9.4f %9.4f %7.2fx %9d %8d %7d %7d %8.1f%%" name base.per_rep_s
          pgo.per_rep_s speedup stats.Llvm_transforms.Pgo.promoted stats.inlined
          icalls deopts (100.0 *. rate);
        ( (speedup, stats.promoted, icalls, deopts),
          Json.Obj
            [ ("name", jstr name); ("base_s", jnum base.per_rep_s);
              ("pgo_s", jnum pgo.per_rep_s); ("speedup", jnum speedup);
              ("promoted", jint stats.promoted); ("inlined", jint stats.inlined);
              ("sites", jint (Llvm_profile.Profile.call_sites rep.aggregate));
              ("indirect_calls", jint icalls); ("deopts", jint deopts);
              ("reps", jint base.reps) ] ))
      (Spec.spec2000 @ Spec.disciplined)
  in
  let gm = geomean (List.map (fun ((s, _, _, _), _) -> s) rows) in
  let total f = List.fold_left (fun a (c, _) -> a + f c) 0 rows in
  let promoted = total (fun (_, p, _, _) -> p) in
  let icalls = total (fun (_, _, i, _) -> i) in
  let deopts = total (fun (_, _, _, d) -> d) in
  let deopt_rate = float_of_int deopts /. float_of_int (max 1 icalls) in
  let runs = List.fold_left (fun a (_, w) -> a + w) 0 schedule in
  say "";
  say "fleet: %d simulated runs over %d distinct inputs per workload" runs distinct;
  say "geomean speedup: %.2fx; %d sites promoted; deopt rate %.1f%% (%d/%d)"
    gm promoted (100.0 *. deopt_rate) deopts icalls;
  (* quick runs gate on correctness only (CI boxes time noisily); the
     full run also enforces the 1.15x geomean *)
  let clean =
    !behaviour_ok && promoted > 0 && ((not quick) || gm > 0.0)
    && (quick || gm >= 1.15)
  in
  write_bench "pgo"
    [ ("workloads", Json.Arr (List.map snd rows)); ("geomean_speedup_genprog", jnum gm);
      ("simulated_runs_per_workload", jint runs); ("distinct_inputs", jint distinct);
      ("sites_promoted", jint promoted); ("deopts", jint deopts);
      ("indirect_calls", jint icalls); ("deopt_rate", jnum deopt_rate);
      ("behaviour_identical", jbool !behaviour_ok); ("quick", jbool quick);
      ("clean", jbool clean) ];
  say "";
  if not clean then exit 1

(* -- Witness validation overhead -------------------------------------------- *)

(* Regenerates BENCH_validate.json: every workload compiled at -O3
   through the serving layer twice, plain and with the
   translation-validation witness checked, plus the inject-sub-swap
   rejection self-test.  Fresh server per request so the cache cannot
   hide the validation cost. *)
let validate_bench ?(quick = false) () =
  say "Translation validation: plain vs witness-validated -O3 compiles";
  if quick then say "(--quick: reduced workload sizes)";
  say "";
  let level = 3 in
  let payloads =
    List.map
      (fun (name, _, m) -> (name, fst (Llvm_bitcode.Encoder.encode m)))
      (exec_programs ~quick)
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
      (fun (name, payload) ->
        let plain_s, _ = compile payload ~validate:false in
        let validated_s, rejected = compile payload ~validate:true in
        say "%-16s %10.4f %12.4f %9d" name plain_s validated_s rejected;
        (name, plain_s, validated_s, rejected))
      payloads
  in
  let injected_rejected =
    injected_miscompile_rejected (Llvm_serve.Server.create ()) (snd (List.hd payloads))
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
  write_bench "validate"
    [ ("quick", jbool quick);
      ( "workloads",
        Json.Arr
          (List.map
             (fun (name, p, v, r) ->
               Json.Obj
                 [ ("name", jstr name); ("level", jint level); ("plain_s", jnum p);
                   ("validated_s", jnum v); ("rejected", jint r) ])
             rows) );
      ("plain_s", jnum plain); ("validated_s", jnum validated);
      ("overhead", jnum (validated /. Float.max 1e-9 plain)); ("rejected", jint rejected);
      ("injected_miscompile_rejected", jbool injected_rejected); ("clean", jbool clean) ];
  say "";
  if not clean then exit 1

(* -- Committed records against quick ones ------------------------------------- *)

(* The key paths of a record, array indices dropped: a row field of
   "benchmarks" is "benchmarks.name". *)
let rec key_paths (prefix : string) (v : Json.t) : string list =
  match v with
  | Json.Obj fields ->
    List.concat_map
      (fun (k, v) ->
        let path = if prefix = "" then k else prefix ^ "." ^ k in
        path :: key_paths path v)
      fields
  | Json.Arr rows -> List.concat_map (key_paths prefix) rows
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> []

(* Every committed BENCH_<name>.json that has a quick counterpart under
   _bench/ must hold the same key paths.  A bench that gains a field
   writes it into its quick record at once; this fails until the
   committed full run is regenerated with it.  Run it after the --quick
   gates; exits 1 on any difference, or when no pair is found. *)
let records () =
  let paths file =
    In_channel.with_open_text file In_channel.input_all
    |> Json.of_string |> key_paths "" |> List.sort_uniq compare
  in
  let pairs =
    Sys.readdir "." |> Array.to_list |> List.sort compare
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json"
           && Sys.file_exists (Filename.concat "_bench" f))
  in
  let differing =
    List.filter
      (fun file ->
        let committed = paths file and quick = paths (Filename.concat "_bench" file) in
        let only a b = List.filter (fun p -> not (List.mem p b)) a in
        List.iter (say "%s: %s is only in the committed record" file) (only committed quick);
        List.iter (say "%s: %s is only in the quick record" file) (only quick committed);
        if committed = quick then say "%s: %d key paths, as in _bench/" file (List.length committed);
        committed <> quick)
      pairs
  in
  if pairs = [] then say "no committed BENCH_*.json has a _bench/ counterpart";
  if pairs = [] || differing <> [] then exit 1

let () =
  let args = Array.to_list Sys.argv in
  match args with
  | _ :: "table1" :: rest ->
    table1 ~field_sensitive:(not (List.mem "--no-fields" rest)) ()
  | _ :: "table2" :: rest -> table2 ~promote:(not (List.mem "--raw" rest)) ()
  | _ :: "figure5" :: _ -> figure5 ()
  | _ :: "lifelong" :: _ -> lifelong ()
  | _ :: "ranges" :: rest -> ranges_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "poolalloc" :: _ -> poolalloc ()
  | _ :: "lint" :: _ -> lint ()
  | _ :: "exec" :: rest -> exec_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "fuzz" :: rest -> fuzz_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "serve" :: rest -> serve_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "chaos" :: rest -> chaos_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "pgo" :: rest -> pgo_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "validate" :: rest -> validate_bench ~quick:(List.mem "--quick" rest) ()
  | _ :: "records" :: _ -> records ()
  | _ ->
    table1 ();
    table2 ();
    figure5 ();
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
