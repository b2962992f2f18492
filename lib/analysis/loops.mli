(** Natural-loop detection: back edges whose target dominates their
    source, plus the blocks that reach the latch without passing the
    header.  The runtime profiler (paper section 3.5) instruments
    exactly these regions. *)

type loop = {
  header : Llvm_ir.Ir.block;
  body : Llvm_ir.Ir.block list;  (** includes the header *)
  latches : Llvm_ir.Ir.block list;  (** sources of back edges into the header *)
}

val back_edges : Llvm_ir.Dominance.t -> Llvm_ir.Ir.func -> (Llvm_ir.Ir.block * Llvm_ir.Ir.block) list
val natural_loop : Llvm_ir.Ir.block -> Llvm_ir.Ir.block -> Llvm_ir.Ir.block list

(** All natural loops; loops sharing a header are merged. *)
val find_loops : Llvm_ir.Dominance.t -> Llvm_ir.Ir.func -> loop list

(** Loop nesting depth of each block (by block id). *)
val depths : loop list -> (int, int) Hashtbl.t

val depth_of : (int, int) Hashtbl.t -> Llvm_ir.Ir.block -> int
