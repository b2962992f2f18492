(** The verifier: the one check of the verified-module contract.

    Checks the invariants every pass and the engine may assume: exactly
    one terminator per block (at the end), phis clustered at block heads
    with one incoming value per CFG predecessor, operand types obeying
    the instruction type rules of paper section 2.2, canonical integer
    constants, SSA dominance on the blocks the entry reaches (paper
    section 2.1: each use dominated by its definition, each phi's
    incoming value by the end of its edge), and unique module-level
    names.  Operand counts and label slots, which must hold blocks of
    the same function, are checked first, so any module, however
    malformed, yields a list of errors rather than an exception. *)

type error = { where : string; what : string }

(** All violations found in the module, in program order. *)
val verify_module : Ir.modul -> error list

val pp_error : Format.formatter -> error -> unit

exception Invalid_module of string

(** @raise Invalid_module when the module has any violation. *)
val assert_valid : Ir.modul -> unit
