(** Dominator tree and dominance frontiers.

    Cooper, Harvey & Kennedy's "A Simple, Fast Dominance Algorithm":
    the idom fixpoint iterates over the reverse postorder of the
    function's {!Cfg.t} with interleaved finger intersection.  Frontiers
    use the Cytron et al. construction that drives phi placement in
    stack promotion (paper section 3.2). *)

type t

(** Build the function's CFG and its dominator tree (reachable blocks
    only). *)
val compute : Ir.func -> t

(** The CFG the tree was built over. *)
val cfg : t -> Cfg.t

(** Immediate dominator; [None] for the entry and unreachable blocks. *)
val idom : t -> Ir.block -> Ir.block option

val is_reachable : t -> Ir.block -> bool

(** [dominates t a b]: does [a] dominate [b] (reflexively)? *)
val dominates : t -> Ir.block -> Ir.block -> bool

val strictly_dominates : t -> Ir.block -> Ir.block -> bool

(** Children in the dominator tree, in reverse postorder. *)
val children : t -> Ir.block -> Ir.block list

(** Dominance frontier of every reachable block, by {!Cfg} position. *)
val frontiers : t -> Ir.block list array
