(** The plain-text representation (paper section 2.5).

    Printing is lossless with respect to the in-memory form: the parser
    in [Llvm_asm] accepts exactly this syntax and reconstructs an
    isomorphic module.  Unnamed values receive sequential slot names;
    colliding names are uniquified with a numeric suffix. *)

(** Per-function naming of instructions, arguments and blocks. *)
type namer

val name_function : Ir.func -> namer
val lookup : namer -> int -> string

val pp_const : Format.formatter -> Ir.const -> unit
val pp_typed_const : Format.formatter -> Ltype.t * Ir.const -> unit
val pp_value : namer -> Format.formatter -> Ir.value -> unit
val pp_instr : Ltype.table -> namer -> Format.formatter -> Ir.instr -> unit
val pp_func : Ltype.table -> Format.formatter -> Ir.func -> unit
val pp_gvar : Format.formatter -> Ir.gvar -> unit
val pp_module : Format.formatter -> Ir.modul -> unit

val module_to_string : Ir.modul -> string
val func_to_string : Ltype.table -> Ir.func -> string
