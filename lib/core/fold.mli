(** Constant folding over the instruction set.

    The semantics here match the execution engine exactly; the property
    tests in test/ check this by construction.  Folds return [None]
    when an operation cannot be evaluated (division by zero, unknown
    addresses, ...). *)

(** Zero-extend the stored representation of an integer to [bits]. *)
val to_unsigned : int -> int64 -> int64

(** Raised by {!int_binop_exn} and {!word_binop_exn} on an operation
    with no defined result. *)
exception Undefined

(** {1 Words}

    An integer of 32 bits or fewer as an immediate int (a "word")
    holding the canonical value its stored int64 holds.  These are the
    one table for such kinds: the sub-64-bit arms of {!int_binop_exn}
    and {!int_cmp} run through them. *)

(** The canonical form of a word of the given kind (32 bits or fewer):
    its low bits, sign-extended for signed kinds, zero-extended for
    unsigned ones. *)
val word_norm : Ltype.int_kind -> int -> int

(** The result of a binary operation on two canonical words of a kind
    of 32 bits or fewer.
    @raise Undefined on a zero divisor or a non-arithmetic opcode. *)
val word_binop_exn : Ltype.int_kind -> Ir.opcode -> int -> int -> int

(** A comparison of two canonical words of a kind of 32 bits or fewer. *)
val word_cmp : Ltype.int_kind -> Ir.opcode -> int -> int -> bool

(** The integer opcode table, total: the result of a binary operation
    on two stored values of the given kind.
    @raise Undefined on a zero divisor or a non-arithmetic opcode. *)
val int_binop_exn : Ltype.int_kind -> Ir.opcode -> int64 -> int64 -> int64

(** {!int_binop_exn} with [None] for {!Undefined}. *)
val int_binop : Ltype.int_kind -> Ir.opcode -> int64 -> int64 -> int64 option
val float_binop : Ir.opcode -> float -> float -> float option
val fold_binop : Ir.opcode -> Ir.const -> Ir.const -> Ir.const option
val int_cmp : Ltype.int_kind -> Ir.opcode -> int64 -> int64 -> bool
val float_cmp : Ir.opcode -> float -> float -> bool
val fold_cmp : Ir.opcode -> Ir.const -> Ir.const -> Ir.const option
val const_as_int : Ir.const -> int64 option
val fold_cast : Ir.const -> Ltype.t -> Ir.const option
val fold_select : Ir.const -> Ir.const -> Ir.const -> Ir.const option

(** Fold an instruction whose operands are all constants. *)
val fold_instr : Ltype.table -> Ir.instr -> Ir.const option

(** Algebraic identities that need only one constant operand:
    x+0, x*1, x*0, x-x, x&x, ... *)
val simplify_instr : Ir.instr -> Ir.value option
