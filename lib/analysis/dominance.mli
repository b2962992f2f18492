(** Dominator tree and dominance frontiers.

    Cooper, Harvey & Kennedy's "A Simple, Fast Dominance Algorithm":
    the idom fixpoint iterates over reverse postorder with interleaved
    finger intersection.  Frontiers use the Cytron et al. construction
    that drives phi placement in stack promotion (paper section 3.2). *)

type t

(** Compute the dominator tree of a function (reachable blocks only). *)
val compute : Llvm_ir.Ir.func -> t

(** Immediate dominator; [None] for the entry and unreachable blocks. *)
val idom : t -> Llvm_ir.Ir.block -> Llvm_ir.Ir.block option

val is_reachable : t -> Llvm_ir.Ir.block -> bool

(** The reachable blocks in the reverse postorder the tree was built
    over ({!Cfg.reverse_postorder}). *)
val reverse_postorder : t -> Llvm_ir.Ir.block array

(** [dominates t a b]: does [a] dominate [b] (reflexively)? *)
val dominates : t -> Llvm_ir.Ir.block -> Llvm_ir.Ir.block -> bool

val strictly_dominates : t -> Llvm_ir.Ir.block -> Llvm_ir.Ir.block -> bool

(** Children in the dominator tree, in reverse postorder. *)
val children : t -> Llvm_ir.Ir.block -> Llvm_ir.Ir.block list

(** Dominance frontier of every block, keyed by block id. *)
val frontiers : t -> Llvm_ir.Ir.func -> (int, Llvm_ir.Ir.block list) Hashtbl.t

val frontier_of : (int, Llvm_ir.Ir.block list) Hashtbl.t -> Llvm_ir.Ir.block -> Llvm_ir.Ir.block list

(** Does the definition point of a value dominate a specific use?
    Definitions in the same block must appear earlier. *)
val value_dominates_use : t -> Llvm_ir.Ir.value -> Llvm_ir.Ir.instr -> Llvm_ir.Ir.block -> bool
