(** Structural verifier for the in-memory representation.

    Checks the invariants every pass may assume: exactly one terminator
    per block (at the end), phis clustered at block heads with one
    incoming value per CFG predecessor, operand types obeying the
    instruction type rules of paper section 2.2, and unique module-level
    names.  Operand counts and label slots are checked first, so any
    module, however malformed, yields a list of errors rather than an
    exception.  SSA dominance is checked separately by
    [Llvm_analysis.Ssa_check]. *)

type error = { where : string; what : string }

(** All violations found in the module, in program order. *)
val verify_module : Ir.modul -> error list

val pp_error : Format.formatter -> error -> unit

exception Invalid_module of string

(** @raise Invalid_module when the module has any violation. *)
val assert_valid : Ir.modul -> unit
