(** Control-flow-graph utilities: block orderings and reachability.
    The CFG itself is implicit in the representation — every terminator
    names its successors (paper section 2.1). *)

(** Depth-first postorder over reachable blocks. *)
val postorder : Ir.func -> Ir.block list

val reverse_postorder : Ir.func -> Ir.block list
val reachable_set : Ir.func -> (int, unit) Hashtbl.t
val unreachable_blocks : Ir.func -> Ir.block list
