(** The control-flow graph of one function, derived once (paper section
    2.1: every terminator names its successors).  The blocks the entry
    reaches are numbered by reverse-postorder position, the entry at 0. *)

type t

(** One depth-first walk from the entry, successors in {!Ir.successors}
    order; O(blocks + edges). *)
val build : Ir.func -> t

val size : t -> int
val block : t -> int -> Ir.block

(** A block's position, or -1 when the entry does not reach it. *)
val index : t -> Ir.block -> int

(** Successor positions, in {!Ir.successors} order (duplicates kept). *)
val succs : t -> int -> int array

(** Predecessor positions: {!Ir.predecessors} that are reachable, in order. *)
val preds : t -> int -> int array

(** The function's blocks the entry does not reach, in layout order. *)
val unreachable : t -> Ir.block list
