(** The multi-oracle differential harness.

    An oracle checks one cross-representation consistency claim of the
    paper (§2.5, §3): every registered oracle must return {!Pass} on
    every module the generator produces and on every
    semantics-preserving mutant.  A {!Fail} is a reportable compiler
    bug; {!Skip} marks runs that cannot judge (e.g. the reference run
    exhausted its fuel budget).

    Oracles never mutate the module they are given — checks that need
    to transform run on a {!clone}. *)

type verdict = Pass | Fail of string | Skip of string

type t = {
  o_name : string;
  o_descr : string;
  check : Llvm_ir.Ir.modul -> verdict;
}

(** Structural deep copy sharing nothing with the original (the copy
    does not go through the printers or codecs under test). *)
val clone : Llvm_ir.Ir.modul -> Llvm_ir.Ir.modul

(** Verifier acceptance plus SSA dominance. *)
val verify_oracle : t

(** Textual form: print → parse → print is a fixpoint, and the
    reparsed module verifies. *)
val asm_oracle : t

(** Binary form: encode → decode preserves the printed module, and
    re-encoding the decoded module is byte-identical. *)
val bitcode_oracle : t

(** The interpreter and bytecode tiers agree on status, output,
    dynamic instruction count and block profile; no unexpected trap. *)
val exec_oracle : t

(** -O0 behaviour is preserved by every registered pass individually
    and by the -O2/-O3 pipelines; transformed modules verify. *)
val opt_oracle : t

(** The speculation-identity check: a profile trained on an
    instrumented run of a clone drives {!Llvm_transforms.Pgo.optimize}
    (guarded call promotion + profile-guided inlining) at the most
    promotion-happy thresholds, and both execution tiers — with
    profile-guided block layout — must reproduce the unspeculated
    behaviour, status and output exactly, deopts included. *)
val spec_oracle : t

(** The six standard oracles, in reporting order. *)
val all : t list

val find : string -> t option

(** An oracle checking a single named pass preserves behaviour
    (for bugpoint: [pass:gvn] etc.). *)
val pass_oracle : Llvm_transforms.Pass.t -> t

(** Resolve a bugpoint oracle spec: a standard oracle name or
    [pass:<registered-pass>]. *)
val of_spec : string -> t option

(** A deliberately wrong pass (swaps every sub's operands), registered
    as [inject-sub-swap] so bugpoint can target it: the self-test that
    proves the harness catches miscompiles.  Never part of a pipeline. *)
val injected_bug_pass : Llvm_transforms.Pass.t

(** The speculation twin of {!injected_bug_pass}: promotes indirect
    sites to their profile-predicted targets with the guard elided,
    registered as [inject-spec-noguard].  A real miscompile on any
    module whose site targets vary within a run. *)
val injected_spec_pass : Llvm_transforms.Pass.t

(** Fuel budget shared by every behavioural comparison. *)
val fuel : int
