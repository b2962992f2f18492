(* The lifelong compilation pipeline of Figure 4:

     front-ends emit IR -> linker + IPO -> offline native codegen
       (bitcode embedded in the executable) -> run with lightweight
       profiling -> idle-time profile-guided reoptimizer -> rerun.

   The execution engine stands in for the native code: "performance" is
   reported as interpreted instruction counts, which respond to the same
   optimizations (fewer calls after inlining, fewer instructions after
   simplification) that native execution would. *)

open Llvm_ir
open Ir
open Llvm_transforms

type executable = {
  program : modul; (* the linked, optimized IR *)
  native_x86_bytes : int;
  native_sparc_bytes : int;
  bitcode : string; (* persistent IR shipped alongside native code *)
}

type run_report = {
  result : Llvm_exec.Interp.run_result;
  profile : Llvm_profile.Profile.t; (* this run's profile: a fleet of one *)
  promoted : (string * int) list;
      (* functions the tiered engine compiled to bytecode mid-run, with
         the entry count that triggered each promotion *)
}

(* Compile-and-link: the static half of the pipeline. *)
let build ?(ipo = true) (modules : modul list) : executable =
  let program = Link.link modules in
  Link.internalize program;
  if ipo then ignore (Pass.run_sequence Pipelines.link_time_ipo program);
  let bitcode, _ = Llvm_bitcode.Encoder.encode ~strip:true program in
  { program;
    native_x86_bytes = Llvm_codegen.Emit.code_size Llvm_codegen.Target.x86ish program;
    native_sparc_bytes =
      Llvm_codegen.Emit.code_size Llvm_codegen.Target.sparcish program;
    bitcode }

(* An end-user run with the lightweight instrumentation enabled
   (section 3.5), under the tiered engine: execution starts in the
   interpreter and the profile instrumentation that feeds the
   reoptimizer also drives hot-function promotion to bytecode. *)
let run_in_the_field ?fuel ?profile (exe : executable) : run_report =
  let e = Llvm_exec.Engine.create ?profile Llvm_exec.Engine.Tiered exe.program in
  let result = Llvm_exec.Interp.run_loaded ?fuel e.Llvm_exec.Engine.mach in
  { result;
    profile = Llvm_exec.Engine.profile e;
    promoted = Llvm_exec.Engine.promotions e }

(* The idle-time reoptimizer (section 3.6): "a modified version of the
   link-time interprocedural optimizer, but with a greater emphasis on
   profile-driven ... optimizations".  A merged cross-run aggregate
   ({!Fleet.simulate}) — or a single run's profile, a fleet of one —
   drives speculative indirect-call promotion plus profile-guided
   inlining, then the cleanup pipeline reruns and the executable's
   persistent bitcode is refreshed: the next field runs download the
   reoptimized image. *)
let reoptimize_with_aggregate ?min_count ?min_share (exe : executable)
    (p : Llvm_profile.Profile.t) : executable * Llvm_transforms.Pgo.stats =
  let stats = Pgo.optimize ?min_count ?min_share p exe.program in
  ignore (Pass.run_sequence Pipelines.per_module exe.program);
  let bitcode, _ = Llvm_bitcode.Encoder.encode ~strip:true exe.program in
  ( { exe with
      bitcode;
      native_x86_bytes =
        Llvm_codegen.Emit.code_size Llvm_codegen.Target.x86ish exe.program;
      native_sparc_bytes =
        Llvm_codegen.Emit.code_size Llvm_codegen.Target.sparcish exe.program },
    stats )
