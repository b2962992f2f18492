(* The lifelong compilation pipeline of Figure 4:

     front-ends emit IR -> linker + IPO -> offline native codegen
       (bitcode embedded in the executable) -> run with lightweight
       profiling -> idle-time profile-guided reoptimizer -> rerun.

   The execution engine stands in for the native code, and an end-user
   run is [Fleet.field_run]: "performance" is reported as executed
   instruction counts, which respond to the same optimizations (fewer
   calls after inlining, fewer instructions after simplification) that
   native execution would. *)

open Llvm_ir
open Ir
open Llvm_transforms

type executable = {
  program : modul; (* the linked, optimized IR *)
  native_x86_bytes : int;
  native_sparc_bytes : int;
  bitcode : string; (* persistent IR shipped alongside native code *)
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
