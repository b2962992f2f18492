(** SAFECode-style array bounds checking (paper sections 3.3, 4.1.2).

    [insert] instruments every sized-array gep with a non-constant index
    with a call to [llvm_bounds_check(index, length)] (which traps when
    out of range).  [eliminate] removes a check when one of three facts
    makes it redundant: the {!Llvm_analysis.Range} interval of its index
    lies within [\[0, length)] (or is empty: the check never runs); the
    index is a load of a provably-uninitialized slot (undefined
    behaviour either way, and already reported by
    {!Llvm_analysis.Lint} as L001); or a check of the same index against
    an equal or smaller length dominates it. *)

val runtime_name : string

(** Returns the number of checks inserted. *)
val insert : Llvm_ir.Ir.modul -> int

(** Returns the number of checks removed. *)
val eliminate : Llvm_ir.Ir.modul -> int

val insert_pass : Pass.t
val elim_pass : Pass.t
