(** Dominator tree and dominance frontiers.

    Cooper, Harvey & Kennedy's "A Simple, Fast Dominance Algorithm":
    the idom fixpoint iterates over reverse postorder with interleaved
    finger intersection.  Frontiers use the Cytron et al. construction
    that drives phi placement in stack promotion (paper section 3.2). *)

type t

(** Compute the dominator tree of a function (reachable blocks only). *)
val compute : Ir.func -> t

(** Immediate dominator; [None] for the entry and unreachable blocks. *)
val idom : t -> Ir.block -> Ir.block option

val is_reachable : t -> Ir.block -> bool

(** The reachable blocks in the reverse postorder the tree was built
    over ({!Cfg.reverse_postorder}). *)
val reverse_postorder : t -> Ir.block array

(** [dominates t a b]: does [a] dominate [b] (reflexively)? *)
val dominates : t -> Ir.block -> Ir.block -> bool

val strictly_dominates : t -> Ir.block -> Ir.block -> bool

(** Children in the dominator tree, in reverse postorder. *)
val children : t -> Ir.block -> Ir.block list

(** Dominance frontier of every block, keyed by block id. *)
val frontiers : t -> Ir.func -> (int, Ir.block list) Hashtbl.t

val frontier_of : (int, Ir.block list) Hashtbl.t -> Ir.block -> Ir.block list
