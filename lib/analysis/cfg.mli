(** Control-flow-graph utilities: block orderings and reachability.
    The CFG itself is implicit in the representation — every terminator
    names its successors (paper section 2.1). *)

(** Depth-first postorder over reachable blocks. *)
val postorder : Llvm_ir.Ir.func -> Llvm_ir.Ir.block list

val reverse_postorder : Llvm_ir.Ir.func -> Llvm_ir.Ir.block list
val reachable_set : Llvm_ir.Ir.func -> (int, unit) Hashtbl.t
val unreachable_blocks : Llvm_ir.Ir.func -> Llvm_ir.Ir.block list
