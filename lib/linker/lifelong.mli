(** The lifelong compilation pipeline of Figure 4: front-ends emit IR,
    the linker + IPO combine it, native code is generated offline with
    the bitcode preserved in the executable, end-user runs are profiled
    (section 3.5; one such run is {!Fleet.field_run}), and an idle-time
    reoptimizer applies profile-guided transformations (section 3.6). *)

type executable = {
  program : Llvm_ir.Ir.modul;  (** the linked, optimized IR *)
  native_x86_bytes : int;
  native_sparc_bytes : int;
  bitcode : string;  (** persistent IR shipped alongside native code *)
}

(** Link, internalize, optionally run link-time IPO, and generate the
    native images + the preserved bitcode. *)
val build : ?ipo:bool -> Llvm_ir.Ir.modul list -> executable

(** The idle-time reoptimizer: a merged cross-run aggregate
    ({!Fleet.simulate}), or one {!Fleet.field_run}'s profile as a
    fleet of one, drives speculative call promotion with deopt
    guards plus profile-guided inlining ({!Llvm_transforms.Pgo}), the
    cleanup pipeline reruns, and the persistent bitcode and native
    images are refreshed. *)
val reoptimize_with_aggregate :
  ?min_count:int ->
  ?min_share:float ->
  executable ->
  Llvm_profile.Profile.t ->
  executable * Llvm_transforms.Pgo.stats
