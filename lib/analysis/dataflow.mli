(** A generic iterative dataflow engine over a function's {!Llvm_ir.Cfg.t}: a
    worklist solver parameterized over the lattice, the direction, and
    the per-block transfer function.  Shared infrastructure for the
    lint checkers and flow-sensitive passes (paper sections 3.2-3.3). *)

type direction = Forward | Backward

module type LATTICE = sig
  type fact

  val bottom : fact
  (** Identity of [join]; also the fact of unvisited blocks. *)

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
end

(** Fold an instruction-level transfer through a block in program
    order (or reverse); shared by block transfers and reporting walks. *)
val fold_block_forward :
  ('a -> Llvm_ir.Ir.instr -> 'a) -> Llvm_ir.Ir.block -> 'a -> 'a

val fold_block_backward :
  ('a -> Llvm_ir.Ir.instr -> 'a) -> Llvm_ir.Ir.block -> 'a -> 'a

module Make (L : LATTICE) : sig
  type result

  (** Fact at the block's entry, in program order. *)
  val before : result -> Llvm_ir.Ir.block -> L.fact

  (** Fact at the block's exit, in program order. *)
  val after : result -> Llvm_ir.Ir.block -> L.fact

  (** Solve to a fixpoint.  [boundary] is the fact entering the
      function (forward) or at every exit block (backward); [transfer]
      must be monotone.  The worklist is seeded in reverse postorder
      (forward) or postorder (backward); unreachable blocks are never
      visited and keep [L.bottom]. *)
  val run :
    direction:direction ->
    boundary:L.fact ->
    transfer:(Llvm_ir.Ir.block -> L.fact -> L.fact) ->
    Llvm_ir.Cfg.t ->
    result
end
