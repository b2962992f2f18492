(** The positioned instruction builder — the primary construction API.

    A builder holds an insertion point (a basic block) and appends
    instructions to it.  Each [build_*] helper computes the result type
    from its operands, so clients only supply types where the
    instruction set genuinely requires one (cast targets, allocation
    element types). *)

type t

(** A fresh builder with no insertion point; [table] resolves named
    types in geps (defaults to an empty table). *)
val create : ?table:Ltype.table -> unit -> t

(** A builder over the module's own type table. *)
val for_module : Ir.modul -> t

val position_at_end : t -> Ir.block -> unit

(** @raise Invalid_argument when no insertion point is set. *)
val insertion_block : t -> Ir.block

(** Append a pre-built instruction at the insertion point. *)
val insert : t -> Ir.instr -> Ir.instr

(** {1 Binary operations and comparisons} *)

val build_binop : t -> Ir.opcode -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_add : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_sub : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_mul : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_div : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_rem : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_and : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_or : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_xor : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_shl : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_shr : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_cmp : t -> Ir.opcode -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_seteq : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_setne : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_setlt : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_setgt : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_setle : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value
val build_setge : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value

(** [not]/[neg] are pseudo-instructions expanded to [xor]/[sub]
    (paper footnote 3). *)
val build_not : t -> ?name:string -> Ir.value -> Ir.value

val build_neg : t -> ?name:string -> Ir.value -> Ir.value

(** {1 Memory} *)

val build_alloca : t -> ?name:string -> ?count:Ir.value -> Ltype.t -> Ir.value
val build_malloc : t -> ?name:string -> ?count:Ir.value -> Ltype.t -> Ir.value
val build_free : t -> Ir.value -> Ir.value
val build_load : t -> ?name:string -> Ir.value -> Ir.value
val build_store : t -> Ir.value -> Ir.value -> Ir.value

(** Result type of a gep over the given pointer type and index values
    (paper section 2.2).
    @raise Invalid_argument on malformed indexing. *)
val gep_result_type : Ltype.table -> Ltype.t -> Ir.value list -> Ltype.t

(** Each index of the gep instruction that selects an array element,
    in operand order, with that array's length.  The walk stops at an
    index it cannot step through (only on geps the verifier rejects). *)
val gep_array_indices : Ltype.table -> Ir.instr -> (Ir.value * int) list

val build_gep : t -> ?name:string -> Ir.value -> Ir.value list -> Ir.value

(** Gep with constant indices written as plain ints: the first index
    uses [long], struct fields use [ubyte], as in the paper's example. *)
val build_gep_const : t -> ?name:string -> Ir.value -> int list -> Ir.value

(** {1 Other instructions} *)

val build_cast : t -> ?name:string -> Ir.value -> Ltype.t -> Ir.value
val build_select : t -> ?name:string -> Ir.value -> Ir.value -> Ir.value -> Ir.value

(** Phis are always placed at the head of the insertion block. *)
val build_phi : t -> ?name:string -> Ltype.t -> (Ir.value * Ir.block) list -> Ir.value

val return_type_of_callee : t -> Ir.value -> Ltype.t
val build_call : t -> ?name:string -> Ir.value -> Ir.value list -> Ir.value

(** {1 Terminators} *)

val build_ret : t -> Ir.value option -> Ir.value
val build_br : t -> Ir.block -> Ir.value
val build_condbr : t -> Ir.value -> Ir.block -> Ir.block -> Ir.value
val build_switch : t -> Ir.value -> Ir.block -> (Ir.const * Ir.block) list -> Ir.value

val build_invoke :
  t ->
  ?name:string ->
  Ir.value ->
  Ir.value list ->
  normal:Ir.block ->
  unwind:Ir.block ->
  Ir.value

val build_unwind : t -> Ir.value

(** {1 Function scaffolding} *)

(** Create a function with an entry block, add it to the module, and
    position the builder at the entry. *)
val start_function :
  t ->
  Ir.modul ->
  ?linkage:Ir.linkage ->
  ?varargs:bool ->
  string ->
  Ltype.t ->
  (string * Ltype.t) list ->
  Ir.func

val append_new_block : t -> Ir.func -> string -> Ir.block
