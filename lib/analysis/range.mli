(** Sparse, branch-aware interprocedural value-range analysis.

    Intervals over the canonical integer representation
    ({!Llvm_ir.Ir.normalize_int}), refined by [setcc]-guarded branch
    edges down the dominator tree, widened at loop-header phis and
    narrowed by descending sweeps, with argument/return ranges
    propagated across the call graph in callee-first SCC order.

    Consumed offline only: by the L008-L010 lint checkers, the
    bounds-check eliminator and the [rangeprop] pass.  The execution
    engine runs no range analysis. *)

(** Inclusive interval of canonical (normalized) values, ordered as
    signed int64.  [Bot] on a tracked value means no execution reaches
    its definition. *)
type interval = Bot | Itv of int64 * int64

val top : interval
val singleton : int64 -> interval
val join : interval -> interval -> interval
val meet : interval -> interval -> interval

(** [subset a b]: is [a] contained in [b]? *)
val subset : interval -> interval -> bool

val contains : interval -> int64 -> bool
val is_singleton : interval -> int64 option
val pp_interval : Format.formatter -> interval -> unit

(** Smallest and largest canonical value of an integer kind. *)
val kind_range : Llvm_ir.Ltype.int_kind -> int64 * int64

val full_of_kind : Llvm_ir.Ltype.int_kind -> interval

(** Kind-aware interval arithmetic: results that cannot be proven to
    stay inside the kind's range widen to the kind's full range. *)
val binop :
  Llvm_ir.Ltype.int_kind ->
  Llvm_ir.Ir.opcode ->
  interval ->
  interval ->
  interval

(** The mathematical (unwrapped) result of [Add]/[Sub]/[Mul] on two
    intervals; [None] when a bound escapes int64 or the opcode is not
    one of those three.  The signed-overflow checker compares this
    against {!kind_range}. *)
val exact_binop :
  Llvm_ir.Ir.opcode -> interval -> interval -> interval option

type t

(** Run the analysis over every defined function of the module. *)
val analyze : Llvm_ir.Ir.modul -> t

(** Flow-insensitive range of a value: valid wherever the value is. *)
val range_of : t -> Llvm_ir.Ir.value -> interval

(** Range of a value as observed inside a specific block, sharpened by
    the branch guards dominating that block. *)
val range_at : t -> Llvm_ir.Ir.block -> Llvm_ir.Ir.value -> interval

(** Joined range of every [ret] operand of a function. *)
val return_range : t -> Llvm_ir.Ir.func -> interval
