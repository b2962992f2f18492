(** Natural-loop detection: back edges whose target dominates their
    source, plus the blocks that reach the latch without passing the
    header.  The runtime profiler (paper section 3.5) instruments
    exactly these regions.  Only reachable blocks are in a loop. *)

type loop = {
  header : Llvm_ir.Ir.block;
  body : Llvm_ir.Ir.block list;  (** includes the header; layout order per back edge *)
  latches : Llvm_ir.Ir.block list;  (** sources of back edges into the header *)
}

(** Back edges [(latch, header)], latches in layout order. *)
val back_edges : Llvm_ir.Dominance.t -> Llvm_ir.Ir.func -> (Llvm_ir.Ir.block * Llvm_ir.Ir.block) list

(** All natural loops, sorted by header id; loops sharing a header are
    merged. *)
val find_loops : Llvm_ir.Dominance.t -> Llvm_ir.Ir.func -> loop list
